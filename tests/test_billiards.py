import cmath
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbill import billiards, geometry
from dualbill.billiards import (
    BilliardFamily,
    SingularTangencyError,
    billiard_map,
    involution,
    orbit,
)
from dualbill.curves import lift_fiber, point_on_level
from dualbill.families import FAMILIES
from dualbill.geometry import (
    E_INFINITY,
    PhasePoint,
    ProjectivePoint,
    conic_point,
    cross_norm,
    tangency_points,
)
from dualbill.numerics import INF, principal_sqrt, sphere_eq
from dualbill.verify import (
    CONSERVATION_CASES,
    SINGULAR_GUARD,
    TRANSLATION_CASES,
    _rng_for,
    _start_point,
    sample_phase_point,
)


def _draw(fam: BilliardFamily, rng) -> tuple[complex, complex]:
    """One unconditioned draw (z0, u) of the sampled checks, one random at
    a time: ``verify._draws`` gives it as (z0, z0 + u)."""
    while True:
        r = math.sqrt(rng.uniform(0.1**2, 3.0**2))
        z0 = r * cmath.exp(2j * math.pi * rng.random())
        if any(abs(z0 - s) < SINGULAR_GUARD for s in fam.spec.singular_finite):
            continue
        ur = math.sqrt(rng.uniform(0.05**2, 2.0**2))
        return z0, ur * cmath.exp(2j * math.pi * rng.random())


def _unconditioned_point(fam: BilliardFamily, rng) -> PhasePoint:
    """The phase point of one draw of ``sample_phase_point``'s (z0, u),
    whatever its involution image."""
    z0, u = _draw(fam, rng)
    z = z0 + u
    return PhasePoint(ProjectivePoint.affine(z, 2 * z0 * z - z0 * z0), conic_point(z0))


def _pinned_start(fam: BilliardFamily, lam, tau, branch: str) -> PhasePoint:
    """The lifted start at fiber parameter tau; a c-family level curve has
    no rational parametrization, so there tau seeds the slicing lines of
    ``point_on_level`` and the branch picks one of the point's two
    tangency points."""
    if fam.tag not in ("c1", "c2"):
        return lift_fiber(fam, lam, tau, branch)
    q = point_on_level(fam, lam, random.Random(tau))
    z, w = q.affine_pair()
    s = principal_sqrt(z * z - w)
    return PhasePoint(q, conic_point(z + s if branch == "+" else z - s))


class TestFamily:
    def test_parse(self):
        assert BilliardFamily.parse("a1", 2).n == 2
        assert BilliardFamily.parse("d").n is None

    def test_rho(self):
        # the a-families' coefficient is rho/z0 with rho their one residue
        assert FAMILIES["a1"].residues[0][1](1) == Fraction(4, 3)
        assert FAMILIES["a2"].residues[0][1](1) == Fraction(3, 2)
        assert FAMILIES["a1"].coefficient(1)(1.0) == 4 / 3
        assert FAMILIES["a2"].coefficient(1)(1.0) == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            BilliardFamily("a1")
        with pytest.raises(ValueError):
            BilliardFamily("b1", 2)
        with pytest.raises(ValueError):
            BilliardFamily("q7")


class TestFCoefficient:
    def test_examples(self):
        assert FAMILIES["b1"].coefficient()(-1.0) == pytest.approx(-2.0)
        assert FAMILIES["b2"].coefficient()(0.0) == 0.0
        with pytest.raises(ZeroDivisionError):  # a pole of f
            FAMILIES["d"].coefficient()(1.0)

    def test_a_family_is_rho_over_z0(self):
        for fam in (BilliardFamily("a1", 1), BilliardFamily("a2", 3)):
            rho = float(fam.spec.residues[0][1](fam.n))
            f = fam.spec.coefficient(fam.n)
            for z0 in (2.0, -0.5 + 1.5j):
                assert f(z0) == rho / z0
            with pytest.raises(ZeroDivisionError):
                f(0.0)


class TestInvolution:
    def test_fixes_tangency_point(self):
        fam = BilliardFamily("a1", 1)
        p = conic_point(1.0)
        assert involution(fam, p, p).eq(p)

    def test_b1_fixed_critical_point(self):
        fam = BilliardFamily("b1")
        p = conic_point(-1.0)
        q = ProjectivePoint.affine(0.0, -1.0)
        assert involution(fam, p, q).eq(q)

    def test_a1_example(self):
        fam = BilliardFamily("a1", 1)
        p = conic_point(1.0)
        q = ProjectivePoint.affine(0.0, -1.0)  # zeta = 0 on the tangent line
        img = involution(fam, p, q)
        assert img.eq(ProjectivePoint.affine(-2.0, -5.0))

    def test_singular_rejected(self):
        with pytest.raises(SingularTangencyError):
            involution(BilliardFamily("b1"), conic_point(1.0), conic_point(1.0))
        with pytest.raises(SingularTangencyError):
            involution(BilliardFamily("a1", 1), conic_point(0.0), conic_point(0.0))

    def test_pole_maps_to_line_infinity(self):
        fam = BilliardFamily("b1")
        z0 = -1.0
        f = fam.spec.coefficient()(z0)
        u_pole = -1.0 / f
        z = z0 + u_pole
        q = ProjectivePoint.affine(z, 2 * z0 * z - z0 * z0)
        img = involution(fam, conic_point(z0), q)
        assert img.is_infinite

    @pytest.mark.parametrize(
        "tag,n", [("a1", 1), ("a1", 3), ("a2", 2), ("b1", None), ("b2", None),
                   ("c1", None), ("c2", None), ("d", None)]
    )
    def test_involution_squares_to_identity(self, tag, n):
        fam = BilliardFamily(tag, n)
        rng = _rng_for(11, f"invsq:{fam.label()}")
        for k in range(1000):
            x = _unconditioned_point(fam, rng)
            once = involution(fam, x.p, x.q)
            twice = involution(fam, x.p, once)
            z_in, z_back = x.q.z_sphere(), twice.z_sphere()
            assert not z_back.is_inf
            assert abs(z_back.value - z_in.value) <= 1e-9 * max(1.0, abs(z_in.value))

    def test_cross_ratio_preserved(self):
        rng = random.Random(9)
        fam = BilliardFamily("d")
        for _ in range(50):
            z0 = complex(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
            p = conic_point(z0)
            us = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
            if min(abs(a - b) for i, a in enumerate(us) for b in us[i + 1:]) < 0.05:
                continue
            zs = [z0 + u for u in us]
            qs = [ProjectivePoint.affine(z, 2 * z0 * z - z0 * z0) for z in zs]
            imgs = [involution(fam, p, q).z_sphere().value for q in qs]

            def cross(a, b, c, d):
                return ((a - c) * (b - d)) / ((a - d) * (b - c))

            before = cross(*zs)
            after = cross(*imgs)
            assert abs(after - before) <= 1e-9 * max(1.0, abs(before))


class TestBilliardMap:
    def test_fixed_curve_case(self):
        fam = BilliardFamily("b1")
        p = conic_point(2.0)
        x = billiard_map(fam, PhasePoint(p, p))
        assert x.q.eq(p) and x.p.eq(p)

    def test_vertex_continuation_example(self):
        # tau = 1 on the minus component of the a1(1) fiber at level 1:
        # the image is the degenerate pair at the vertex, which is the
        # tau = 1 - 2/3 = 1/3 point of the same component.
        fam = BilliardFamily("a1", 1)
        x = PhasePoint(ProjectivePoint.affine(8j, 0.0), conic_point(0.0))
        y = billiard_map(fam, x)
        target = lift_fiber(fam, 1.0, 1.0 / 3.0, "-")
        assert y.q.eq(target.q) and y.p.eq(target.p)

    def test_involution_self_inverse_with_same_p(self):
        fam = BilliardFamily("c1")
        rng = _rng_for(3, "selfinv")
        x = sample_phase_point(fam, rng)
        q1 = involution(fam, x.p, x.q)
        q2 = involution(fam, x.p, q1)
        assert q2.eq(x.q)

    def test_image_is_a_phase_point(self):
        # the map builds its image without the NamedTuple's own __new__
        fam = BilliardFamily("d")
        y = billiard_map(fam, sample_phase_point(fam, _rng_for(4, "image")))
        assert type(y) is PhasePoint and y == PhasePoint(y.q, y.p)
        assert y._asdict() == {"q": y.q, "p": y.p}

    def test_new_tangency_differs_from_old(self):
        fam = BilliardFamily("d")
        rng = _rng_for(4, "pnew")
        for _ in range(50):
            x = sample_phase_point(fam, rng)
            y = billiard_map(fam, x)
            if y.q.eq(y.p):
                continue
            assert not y.p.eq(x.p)
            y.validate()


class TestOrbit:
    def test_zero_steps(self):
        fam = BilliardFamily("b1")
        x = lift_fiber(fam, 2.0, 2.7, "+")
        rec = orbit(fam, x, 0)
        assert rec.reason == "completed"
        assert len(rec.points) == 1

    def test_a1_tau_sequence_plus_branch(self):
        fam = BilliardFamily("a1", 1)
        x = lift_fiber(fam, 1.0, 1.0, "+")
        rec = orbit(fam, x, 3)
        assert rec.reason == "completed"
        for k, expect in enumerate([1.0, 5.0 / 3.0, 7.0 / 3.0, 3.0]):
            target = lift_fiber(fam, 1.0, expect, "+")
            assert rec.points[k].q.eq(target.q)
            assert rec.points[k].p.eq(target.p)

    def test_singular_start_stops_at_zero(self):
        fam = BilliardFamily("b1")
        p = conic_point(1.0 + 5e-9)  # inside the singularity guard at z0 = 1
        q = ProjectivePoint.affine(2.0, 2 * p.z * 2 - p.z * p.z)
        z0 = p.z_sphere().value
        q = ProjectivePoint.affine(2.0, 2 * z0 * 2.0 - z0 * z0)
        rec = orbit(fam, PhasePoint(q, p), 5)
        assert rec.reason == "hit-singularity"
        assert rec.steps_taken == 0

    # the two long-orbit stops that the comparison constants of numerics
    # decide, pinned step for step
    def test_translation_runs_into_the_base_point_e(self):
        # a-family dynamics is a translation on the rational fiber, so the
        # orbit is carried to tau = inf, the base point E
        fam = BilliardFamily("a1", 2)
        rec = orbit(fam, lift_fiber(fam, 1.0, 1.7, "+"), 300)
        assert (rec.steps_taken, rec.reason) == (265, "hit-singularity")
        assert "singular parameter inf" in rec.detail
        assert abs(rec.points[-1].p.z_sphere().value) >= 1e12
        assert abs(rec.points[-2].p.z_sphere().value) < 1e12

    def test_escape_to_the_infinite_singularity(self):
        # |z0| reaches 1e12 and compares equal to the singular parameter inf
        fam = BilliardFamily("a2", 3)
        rec = orbit(fam, lift_fiber(fam, 3.0, 1.7, "+"), 300)
        assert (rec.steps_taken, rec.reason) == (54, "hit-singularity")
        assert "singular parameter inf" in rec.detail
        assert abs(rec.points[-1].p.z_sphere().value) >= 1e12
        assert sphere_eq(1e12, INF)
        assert not sphere_eq(0.99e12, INF)

    # iterates pinned repr-exact (signed zeros included) with the stop, so
    # that a cheaper phase map is seen to be the same map
    @pytest.mark.parametrize(
        "fam, lam, tau, branch, steps, pins, stop",
        [
            (
                BilliardFamily("d"), 1.0, 1.3, "+", 500,
                {
                    0: "(((-0.06640322537580436+0j), (-0.36479600015439906+0j), (1+0j)), "
                    "((0.5412195099581436+0j), (0.2929185579593331+0j), (1+0j)))",
                    250: "(((-0.18690436883553485+0j), (-0.40310784891330026+0j), (1+0j)), "
                    "((0.4749423596470572+0j), (0.22557024498711464+0j), (1+0j)))",
                    500: "(((0.07820911025533911+0j), (-0.04626999671792181+0j), (1+0j)), "
                    "((-0.15067221629808158+0j), (0.022702116764175884-0j), (1+0j)))",
                },
                ("completed", ""),
            ),
            (
                BilliardFamily("a1", 1), 1.0, 1.7, "+", 500,
                {
                    0: "(((-0-0.035964450198756485j), (1+0j), (-0.0008458840040161933-0j)), "
                    "(-0.01480889125831149j, (1+0j), (-0.00021930326030049447+0j)))",
                    250: "(((-0-2.3281243447686397e-08j), (1+0j), (-5.419971759320518e-16-0j)), "
                    "(-2.3142966412756495e-08j, (1+0j), (-5.355968943819752e-16+0j)))",
                    500: "(((-0-2.954593477423095e-09j), (1+0j), (-8.72954484551776e-18-0j)), "
                    "(-2.9457746728931194e-09j, (1+0j), (-8.677588423458564e-18+0j)))",
                },
                ("completed", ""),
            ),
            (
                BilliardFamily("a1", 1), 1.0, 2.3333333333333335, "-", 10,
                {
                    2: "(((1+0j), -1.065814103640151e-14j, -0.1250000000000001j), "
                    "((-0-5.329070518200751e-15j), (-2.8398992587956425e-29+0j), (1+0j)))"
                },
                (
                    "hit-singularity",
                    "tangency parameter (-0-5.329070518200751e-15j) is within reach of "
                    "the singular parameter 0j of family a1(1)",
                ),
            ),
            (
                BilliardFamily("b1"), 2.0, 0.7, "+", 500,
                {
                    0: "(((-0.45959595959595956-0j), (-0.2583486378940924-0j), (1+0j)), "
                    "((0.2256609878121082+0j), (0.05092288142033644+0j), (1+0j)))",
                    250: "(((1+0j), (0.9218740145291083+0j), (0.5417672046754396+0j)), "
                    "((0.5398963434476642+0j), (0.2914880616681582+0j), (1+0j)))",
                    500: "(((1+0j), (0.9946388288326933+0j), (0.9687518791855261+0j)), "
                    "((0.8134638548207045+0j), (1+0j), (0.6617234430997602+0j)))",
                },
                ("completed", ""),
            ),
            (
                BilliardFamily("b2"), 0.5 + 0.25j, 1.3 - 0.4j, "-", 500,
                {
                    0: "(((-0.0829842504491465+0.1364992720432014j), (1+0j), "
                    "(0.13323576744370721-0.20242413971960443j)), "
                    "((-0.2903076533296945-0.2970493714460782j), (1+0j), "
                    "(-0.0039597954947160376+0.17247141189514348j)))",
                    250: "(((1+0j), (-0.07000032664594766-0.9394189687353484j), "
                    "(0.4977008059561903+0.8367362469872255j)), "
                    "((-0.1736502008674854-0.5281479142557809j), "
                    "(-0.24878582707141364+0.18342598279651962j), (1+0j)))",
                    500: "(((-0.21102325264472283+0.7639968327385889j), (1+0j), "
                    "(-0.681624120637775-0.4513800816771653j)), "
                    "((-0.6200537578279478+0.6063828079485782j), (1+0j), "
                    "(0.016766552820957025-0.7519798775015575j)))",
                },
                ("completed", ""),
            ),
            (
                BilliardFamily("c1"), 0.7, 23, "+", 500,
                {
                    0: "(((1+0j), (0.7324937343998025-0.23060320026418277j), "
                    "(0.24026714492080134+0.35088169567438393j)), "
                    "((0.11642068631323467+0.19487527341095298j), (1+0j), "
                    "(-0.024422595985349092+0.0453750261519648j)))",
                    250: "(((0.16240822892232437+0.883851794976541j), "
                    "(-0.6599291997205345-0.5807280801154291j), (1+0j)), "
                    "((0.25254693527185146-0.5074113387111142j), (1+0j), "
                    "(-0.19368631213740037-0.25629035702735853j)))",
                    500: "(((0.07290684487494976+0.6753885299813062j), (1+0j), "
                    "(-0.3770146020558497-0.8227685732945476j)), "
                    "((-0.5791601226125052-0.03101856683548376j), (1+0j), "
                    "(0.33446429613600465+0.03592943394340592j)))",
                },
                ("completed", ""),
            ),
            (
                BilliardFamily("c2"), 1.5, 23, "-", 500,
                {
                    0: "(((1+0j), (0.9945830849493529-0.021339723870148836j), "
                    "(0.21038797495379238+0.5903460780350067j)), "
                    "((0.5026286044593306+0.06984743828702622j), "
                    "(0.2477568493854742+0.0702146408625344j), (1+0j)))",
                    250: "(((1+0j), (0.9953545068846779+0.07924361897224663j), "
                    "(0.026771903532991748-0.15962566988204224j)), "
                    "((0.010247256887609232-0.08089302776130795j), (1+0j), "
                    "(-0.006438675666671085-0.001657863271773256j)))",
                    500: "(((0.016099772830246054-0.05426202887043933j), (1+0j), "
                    "(0.022200149308556988+0.0026950694441744746j)), "
                    "((0.0020750272827416917+0.104110973526371j), (1+0j), "
                    "(-0.010834789070384602+0.0004320662210000356j)))",
                },
                ("completed", ""),
            ),
            (
                BilliardFamily("a2", 1), 1.5 - 0.5j, 0.6 + 0.3j, "+", 500,
                {
                    0: "(((-0.3995355587808418+0.3614513788098692j), (1+0j), "
                    "(0.5038067805440809+0.14779789860196252j)), "
                    "((-0.10778906627963238-0.386840832123851j), (1+0j), "
                    "(-0.1380273465888385+0.08339442418693184j)))",
                    250: "(((6.046768404740671e-10+1.9515981540665631e-10j), (1+0j), "
                    "(3.2752589355632757e-19+2.360023794454582e-19j)), "
                    "((5.998588505524237e-10+1.9361750315801103e-10j), (1+0j), "
                    "(3.2234290305693253e-19+2.3228634578238946e-19j)))",
                    500: "(((3.809448260758833e-11+1.2495796283207591e-11j), (1+0j), "
                    "(1.2950240225683825e-21+9.520266779814648e-22j)), "
                    "((3.7942410033593616e-11+1.2446114820682452e-11j), (1+0j), "
                    "(1.284720705027734e-21+9.4447118370304e-22j)))",
                },
                ("completed", ""),
            ),
        ],
        ids=["d", "a1(1)", "a1(1)-stop", "b1", "b2", "c1", "c2", "a2(1)"],
    )
    def test_iterates_are_pinned(self, fam, lam, tau, branch, steps, pins, stop):
        rec = orbit(fam, _pinned_start(fam, lam, tau, branch), steps)
        assert (rec.reason, rec.detail) == stop
        assert rec.steps_taken == max(pins)
        for k, want in pins.items():
            x = rec.points[k]
            assert repr((x.q.coords, x.p.coords)) == want

    @staticmethod
    def _progression_deviation(fam, z0, offset):
        from dualbill.integrals import eval_integral

        z = z0 + offset
        q = ProjectivePoint.affine(z, 2 * z0 * z - z0 * z0)
        lam = eval_integral(fam, q)
        assert not lam.is_inf
        rec = orbit(fam, PhasePoint(q, conic_point(z0)), 3)
        assert rec.reason == "completed"
        zs = [pt.q.z_sphere().value for pt in rec.points]
        return abs((zs[2] - zs[1]) / (zs[1] - zs[0]) - 1.0), abs(lam.value)

    def test_asymptotic_arithmetic_progression(self):
        # near the parabola the z-coordinates of an orbit drift like an
        # arithmetic progression.  The start sits on the tangent line at a
        # small offset; the level value follows as R at that point.  For the
        # order-2 integral (b1) the offset giving |lambda| ~ 1e-6 already
        # meets the 1e-2 ratio bound; the order-3 integrals approach the
        # parabola only like lambda^(1/6), so the same geometric offset
        # corresponds to a (much) smaller level value there.
        dev, lam = self._progression_deviation(BilliardFamily("b1"), 0.6, 0.0193)
        assert 1e-7 < lam < 1e-5
        assert dev < 1e-2
        dev, lam = self._progression_deviation(BilliardFamily("d"), 0.5, 0.008)
        assert lam < 1e-6
        assert dev < 1e-2
        dev, lam = self._progression_deviation(BilliardFamily("a1", 1), 0.45, 0.003)
        assert lam < 1e-6
        assert dev < 1e-2

    def test_progression_tightens_as_level_shrinks(self):
        fam = BilliardFamily("d")
        dev_far, _ = self._progression_deviation(fam, 0.5, 0.04)
        dev_near, _ = self._progression_deviation(fam, 0.5, 0.005)
        assert dev_near < dev_far / 3


class TestStepWork:
    """Each orbit step tests each fact once: Q' off the parabola (in
    tangency_points), orbit's own stop guard and billiard_map's singular
    guard, with no trip through the public involution."""

    def test_calls_per_step(self, monkeypatch):
        fam = BilliardFamily("b1")
        x0 = lift_fiber(fam, 2.0, 2.7, "+")
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        for module, name in ((geometry, "on_conic"), (billiards, "on_conic"),
                             (billiards, "_singular_near"), (billiards, "_check_singular"),
                             (billiards, "involution")):
            count(module, name)
        steps = 100
        rec = orbit(fam, x0, steps)
        assert (rec.reason, rec.steps_taken) == ("completed", steps)
        assert calls["on_conic"] <= steps + 1  # one more for x0.validate()
        assert calls["_singular_near"] <= 2 * steps
        assert calls["_check_singular"] == 0  # it only words a stop or a refusal
        assert calls["involution"] == 0

    @staticmethod
    def _phase_point(z0: complex) -> PhasePoint:
        z = z0 + 0.5
        return PhasePoint(ProjectivePoint.affine(z, 2 * z0 * z - z0 * z0), conic_point(z0))

    def test_billiard_map_keeps_its_singular_checks(self):
        fam = BilliardFamily("b1")
        with pytest.raises(SingularTangencyError, match="infinite point is outside the affine"):
            billiard_map(fam, PhasePoint(ProjectivePoint(1.0, 3.0, 0.0), E_INFINITY))
        for s in FAMILIES["b1"].singular_finite:
            with pytest.raises(SingularTangencyError, match="singular parameter"):
                billiard_map(fam, self._phase_point(s + 5e-13))
            # between its radius and orbit's stop guard the map still steps
            billiard_map(fam, self._phase_point(s + 1e-9)).validate()

    def test_a_family_vertex_rule(self):
        # at the vertex the a-family involution is the constant map onto it
        vertex = conic_point(0.0)
        for fam in (BilliardFamily("a1", 2), BilliardFamily("a2", 1)):
            y = billiard_map(fam, PhasePoint(vertex, vertex))
            assert y.q is vertex and y.p is vertex
            y = billiard_map(fam, PhasePoint(ProjectivePoint.affine(3.0, 0.0), vertex))
            assert y.q.eq(vertex) and y.p.eq(vertex)
        # for any other family the vertex is a singular tangency
        with pytest.raises(SingularTangencyError):
            billiard_map(BilliardFamily("d"), PhasePoint(ProjectivePoint.affine(3.0, 0.0), vertex))


class TestEquivalenceConjugatesMaps:
    def test_c_map_commutation(self):
        # the projective equivalence carrying the c2 billiard to the c1
        # billiard conjugates the phase maps
        from dualbill.geometry import c_family_equivalence
        from dualbill.verify import sample_phase_point

        mc = c_family_equivalence()
        c1, c2 = BilliardFamily("c1"), BilliardFamily("c2")
        rng = _rng_for(25, "mc-commute")
        checked = 0
        while checked < 25:
            x = sample_phase_point(c2, rng)
            try:
                fx = billiard_map(c2, x)
                lifted = PhasePoint(mc(x.q), mc(x.p))
                fy = billiard_map(c1, lifted)
            except Exception:
                continue
            if fy.q.eq(fy.p):
                continue
            assert fy.q.eq(mc(fx.q))
            assert fy.p.eq(mc(fx.p))
            checked += 1


#: the eleven family instances of the default check suite
INSTANCES = [
    BilliardFamily(tag, n)
    for tag, n in (
        ("a1", 1), ("a1", 2), ("a1", 3), ("a2", 1), ("a2", 2), ("a2", 3),
        ("b1", None), ("b2", None), ("c1", None), ("c2", None), ("d", None),
    )
]

#: the suite's instances and a-families of higher N, up to N = 30
ORACLE_INSTANCES = INSTANCES + [
    BilliardFamily("a1", 8), BilliardFamily("a2", 8), BilliardFamily("a1", 30),
]

#: the involution of each family restated from the paper: the rotation
#: parameter rho of the a-families and the coefficient f of the others
ORACLE_RHO = {"a1": lambda n: 2 - Fraction(2, 2 * n + 1), "a2": lambda n: 2 - Fraction(1, n + 1)}
ORACLE_F = {
    "b1": lambda z: (5 * z - 3) / (2 * z * (z - 1)),
    "b2": lambda z: 3 * z / (z * z + 1),
    "c1": lambda z: 4 * z * z / (z**3 - 1),
    "c2": lambda z: (8 * z - 4) / (3 * z * (z - 1)),
    "d": lambda z: (7 * z - 4) / (3 * z * (z - 1)),
}
ORACLE_TOL = 1e-10


def _projective_gap(u, v) -> float:
    """Relative distance of two points of CP^2: cross_norm over the norms."""
    return cross_norm(u, v) / (math.hypot(*map(abs, u)) * math.hypot(*map(abs, v)))


def _oracle_worst(fam: BilliardFamily, samples: int = 50) -> float:
    """Worst projective gap between billiard_map and a 50-digit evaluation
    of the same formulas (the involution in the offset or ratio coordinate,
    then the tangency roots z* +/- sqrt(z*^2 - w*) of the image, the one
    chordally farther from P taken), asserting the same candidate is taken."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    rng = _rng_for(9, f"oracle:{fam.label()}")

    def z_of(pt):
        z, _, t = (mp.mpc(c.real, c.imag) for c in pt.coords)
        return z / t

    def chordal(a, b):
        return abs(a - b) / mp.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))

    worst = 0.0
    with mp.workdps(50):
        for _ in range(samples):
            x = sample_phase_point(fam, rng)
            y = billiard_map(fam, x)
            z0, z1 = z_of(x.p), z_of(x.q)
            if fam.is_a:
                rho = ORACLE_RHO[fam.tag](fam.n)
                rho = mp.mpf(rho.numerator) / rho.denominator
                zeta = z1 / z0
                z_img = z0 * ((rho - 1) * zeta - (rho - 2)) / (rho * zeta - (rho - 1))
            else:
                u = z1 - z0
                z_img = z0 - u / (1 + ORACLE_F[fam.tag](z0) * u)
            w_img = 2 * z0 * z_img - z0 * z0
            s = mp.sqrt(z_img * z_img - w_img)
            far, near = sorted((z_img + s, z_img - s), key=lambda c: -chordal(c, z0))
            z_new = z_of(y.p)
            assert chordal(z_new, far) < chordal(z_new, near)
            q_want = (complex(z_img), complex(w_img), 1 + 0j)
            p_want = (complex(far), complex(far * far), 1 + 0j)
            worst = max(worst, _projective_gap(y.q.coords, q_want),
                        _projective_gap(y.p.coords, p_want))
    return worst


class TestMapAgainstOracle:
    @pytest.mark.parametrize("fam", ORACLE_INSTANCES, ids=lambda f: f.label())
    def test_matches_50_digit_evaluation(self, fam):
        assert _oracle_worst(fam) <= ORACLE_TOL

    @pytest.mark.parametrize("fam", ORACLE_INSTANCES, ids=lambda f: f.label())
    def test_perturbed_coefficient_is_caught(self, fam, bend):
        # negative control: the involution's residues off by a factor 1 + 1e-6
        bend(fam.tag, 1 + Fraction(1, 10**6))
        assert _oracle_worst(fam) > ORACLE_TOL


#: the suite's instances and the a-families at N = 30
STEP_INSTANCES = INSTANCES + [BilliardFamily("a1", 30), BilliardFamily("a2", 30)]
STEP_TOL = 1e-12


def _step_gap(step, fam: BilliardFamily, rng: random.Random, samples: int = 20) -> float:
    """Worst gap between ``step`` and the closed form of one phase-map step
    in the offset coordinate: from P = z0 and Q = z0 + u the image is
    Q' = z0 + u' and P' = z0 + 2u' with u' = -u/(1 + f(z0) u), since Q' is
    the meeting point of the tangent lines at P and P'.  Each gap is
    relative to the larger of |z0| and the expected value."""
    worst = 0.0
    for _ in range(samples):
        x = sample_phase_point(fam, rng)
        z0 = x.p.z_sphere().value
        u = x.q.z_sphere().value - z0
        u_img = -u / (1 + fam.spec.coefficient(fam.n)(z0) * u)
        y = step(fam, x)
        for got, want in ((y.q, z0 + u_img), (y.p, z0 + 2 * u_img)):
            gap = abs(got.z_sphere().value - want) / max(abs(z0), abs(want))
            worst = max(worst, gap)
    return worst


def _nearer_candidate_map(fam: BilliardFamily, x: PhasePoint) -> PhasePoint:
    """billiard_map with the tangency candidate nearer to P taken: wrong."""
    q_img = involution(fam, x.p, x.q)
    z0 = x.p.z_sphere().value
    zp, zm = tangency_points(q_img)
    return PhasePoint(q_img, conic_point(zp if abs(zp - z0) < abs(zm - z0) else zm))


class TestStepAgainstClosedForm:
    """billiard_map, through projective points and the tangency square
    root, against the step's closed form in (z0, u)."""

    @pytest.mark.parametrize("fam", STEP_INSTANCES, ids=BilliardFamily.label)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_closed_form(self, fam, seed):
        assert _step_gap(billiard_map, fam, random.Random(seed)) <= STEP_TOL

    @pytest.mark.parametrize("fam", STEP_INSTANCES, ids=BilliardFamily.label)
    def test_nearer_candidate_is_caught(self, fam):
        assert _step_gap(_nearer_candidate_map, fam, random.Random(0)) > STEP_TOL


def _random_offset_start(fam, rng):
    """A start (z0, u) and a step count that reach each stop of the kernel
    now and then: near a singular parameter, far out, at an infinite or
    huge offset, and on the pole of the involution."""
    z0 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * 10 ** rng.uniform(-3, 3)
    kind = rng.randrange(7)
    if kind == 0:
        near = complex(rng.uniform(-2e-8, 2e-8), rng.uniform(-2e-8, 2e-8))
        z0 = rng.choice(fam.spec.singular_finite) + near
    elif kind == 1:
        z0 *= 10 ** rng.uniform(10, 60)
    elif kind == 2:
        u = INF
    elif kind == 3:
        u *= 10 ** rng.uniform(20, 160)
    elif kind == 4 and fam.spec.coefficient(fam.n)(z0) != 0:
        u = -1.0 / fam.spec.coefficient(fam.n)(z0)
    elif kind == 5:
        u = complex(rng.choice([1e307, 1e300]), rng.choice([1e307, -1e308, 0.0]))
    return z0, u, rng.choice([1, 2, 255, 256, 257, 600])


def _random_offset_runs(fam):
    """The start and the kernel's result on 60 random starts of the instance."""
    rng = random.Random(f"offset blocks:{fam.label()}")
    for _ in range(60):
        z0, u, n = _random_offset_start(fam, rng)
        yield (z0, u, n), billiards._offset_orbit(fam, z0, u, n)


def _without_parameter(detail: str) -> str:
    """A stop detail with the repr of the tangency parameter taken out."""
    return re.sub(r"^tangency parameter \S+ ", "", detail)


def _singular_wording(fam: BilliardFamily, z0) -> str:
    """The stop detail that ``_check_singular`` words for z0."""
    with pytest.raises(SingularTangencyError) as exc:
        billiards._check_singular(fam, z0, billiards.SINGULARITY_GUARD)
    return str(exc.value)


class TestOffsetOrbit:
    """The offset-state kernel that the conservation check iterates,
    ``billiards._offset_orbit``, against ``orbit`` through projective
    points: the same stop at the same step, and the same tangency
    parameters up to rounding."""

    @pytest.mark.parametrize("fam", STEP_INSTANCES, ids=BilliardFamily.label)
    def test_same_stops_and_parameters_as_orbit(self, fam):
        cases = [(lam, t0, branch, 500) for lam, t0, branch in CONSERVATION_CASES[fam.tag]]
        cases += [(lam, t0, "+", 50) for tag, n, lam, t0 in TRANSLATION_CASES if (tag, n) == (fam.tag, fam.n)]
        if fam == BilliardFamily("a1", 2):  # the hit-singularity run of CI
            cases.append((1.0, 1.7, "+", 300))
        for lam, t0, branch, steps in cases:
            # a c-family start is a seeded point of the level
            for seed in range(3) if t0 is None else (0,):
                x0 = _start_point(fam, lam, t0, branch, random.Random(seed))
                rec = orbit(fam, x0, steps)
                z0 = x0.p.z_sphere().value
                z0s, us, reason, detail, taken = billiards._offset_orbit(
                    fam, z0, x0.q.z_sphere().value - z0, steps
                )
                assert (reason, taken) == (rec.reason, rec.steps_taken), (lam, t0, seed)
                assert _without_parameter(detail) == _without_parameter(rec.detail)
                assert len(z0s) == len(us) == taken + 1
                if reason == "hit-singularity":
                    # both stops are worded by _check_singular, each from its
                    # own last parameter: the same text where those agree
                    assert detail == _singular_wording(fam, z0s[-1])
                    if z0s[-1] == rec.points[-1].p.z_sphere().value:
                        assert detail == rec.detail
                for k in range(min(50, len(z0s))):
                    want = rec.points[k].p.z_sphere().value
                    assert abs(z0s[k] - want) <= 1e-8 * max(1.0, abs(want)), (lam, t0, seed, k)

    def test_a_step_to_e(self):
        # u = -1/f(z0) makes 1 + f u = 0 in floats: P' is E, which the lists
        # do not hold, and the next step stops as orbit does
        fam = BilliardFamily("b1")
        z0 = 0.4 + 0j
        u = -1.0 / fam.spec.coefficient()(z0)
        x0 = PhasePoint(ProjectivePoint.affine(z0 + u, z0 * z0 + 2 * z0 * u), conic_point(z0))
        rec = orbit(fam, x0, 3)
        assert rec.points[-1].p is E_INFINITY
        z0s, us, reason, detail, taken = billiards._offset_orbit(fam, z0, u, 3)
        assert (z0s, us) == ([z0], [u])
        assert (reason, detail, taken) == (rec.reason, rec.detail, rec.steps_taken) == (
            "hit-singularity",
            "tangency parameter inf is within reach of the singular parameter inf of family b1",
            1,
        )
        assert billiards._offset_orbit(fam, z0, u, 1)[2:] == ("completed", "", 1)

    def test_infinite_offset_start(self):
        # Q the infinite point of the tangent line goes to u' = -1/f(z0)
        fam = BilliardFamily("d")
        z0 = 0.7 + 0.2j
        x0 = PhasePoint(ProjectivePoint(1.0, 2.0 * z0, 0.0), conic_point(z0))
        rec = orbit(fam, x0, 5)
        z0s, us, reason, _, taken = billiards._offset_orbit(fam, z0, INF, 5)
        assert (reason, taken) == (rec.reason, rec.steps_taken) == ("completed", 5)
        assert us[0] is INF
        assert us[1] == 1.0 / fam.spec.coefficient()(z0)
        for z, x in zip(z0s, rec.points):
            assert abs(z - x.p.z_sphere().value) <= 1e-12 * max(1.0, abs(z))


    #: starts (z0, u) that stop early, each for one reason; a1(2) is the
    #: lifted start of CI, whose stop comes past step 256
    EARLY_STOPS = {
        "singular": (BilliardFamily("d"), 1 + 5e-9j, 0.5 + 0j, "hit-singularity", 0),
        "singular at infinity": (
            BilliardFamily("b2"), -0.7985521197640022 - 0.36655043936716947j,
            0.6109620502931166 - 0.03607611035925382j, "hit-singularity", 1,
        ),
        "second block": (BilliardFamily("a1", 2), None, None, "hit-singularity", 265),
        "tangency point at infinity": (BilliardFamily("c1"), 2 + 0j, -0.4375 + 0j, "left-numeric-domain", 1),
        "blew up": (
            BilliardFamily("c1"), -2.9393655374838035e59 - 3.307418214630799e59j,
            72.45367973385004 + 60.9637422724713j, "left-numeric-domain", 0,
        ),
        "nan": (BilliardFamily("d"), 0.01 + 0j, 1e307 + 1e307j, "left-numeric-domain", 0),
        # |z0|^2 is 1.44 DOMAIN_BOUND, and |z0| + |u| 2.4 _SAFE_OFFSET
        "blew up near the bound": (BilliardFamily("c1"), 1.2e50 + 0j, 1.0 + 0j, "left-numeric-domain", 0),
    }

    @staticmethod
    def early_start(fam, z0, u):
        if z0 is None:
            x0 = lift_fiber(fam, 1.0, 1.7, "+")
            z0 = x0.p.z_sphere().value
            return x0, z0, x0.q.z_sphere().value - z0
        return PhasePoint(ProjectivePoint.affine(z0 + u, z0 * z0 + 2 * z0 * u), conic_point(z0)), z0, u

    @pytest.mark.parametrize("case", list(EARLY_STOPS))
    def test_early_stops_are_those_of_orbit(self, case):
        fam, z0, u, reason, taken = self.EARLY_STOPS[case]
        x0, z0, u = self.early_start(fam, z0, u)
        rec = orbit(fam, x0, 10**6)
        z0s, us, got, detail, steps = billiards._offset_orbit(fam, z0, u, 10**6)
        assert (got, steps) == (rec.reason, rec.steps_taken) == (reason, taken)
        assert _without_parameter(detail) == _without_parameter(rec.detail)
        # the step to E is taken and not listed
        assert len(z0s) == len(us) == taken + (case != "tangency point at infinity")

    @pytest.mark.parametrize("fam", STEP_INSTANCES, ids=BilliardFamily.label)
    def test_each_listed_state_is_one_step_of_the_last(self, fam):
        # on starts that reach every stop: each listed state is the
        # closed-form step of the one before it, bit for bit; no state before
        # the last trips the guard, and none after the first the domain test;
        # the stop is the one the last listed state gives: its guard, or its
        # step to E or past the domain
        spec = fam.spec
        f = spec.coefficient(fam.n)
        finite, at_infinity = spec.singular_finite, spec.singular_at_infinity

        def guarded(z0):
            return billiards._singular_near(z0, finite, at_infinity, billiards.SINGULARITY_GUARD) is not None

        def step(z0, u):  # the next state, or None at E
            u = billiards._image(f(z0), u)
            return None if u is INF else (z0 + 2.0 * u, -u)

        reasons = Counter()
        for (z0, u, n), (z0s, us, reason, detail, taken) in _random_offset_runs(fam):
            states = list(zip(z0s, us))
            for k, state in enumerate(states[1:], 1):
                assert repr(state) == repr(step(*states[k - 1])), (z0, u, n, k)
                assert not billiards._offset_stop(*state), (z0, u, n, k)
            to_e = len(states) == taken  # the last step, taken, went to E
            assert len(states) - 1 + to_e == taken <= n
            if to_e:
                assert step(*states[-1]) is None
            assert not any(guarded(z) for z in z0s[:taken]), (z0, u, n)
            if reason == "completed":
                assert (taken, detail) == (n, "")
            elif reason == "hit-singularity":
                assert detail == _singular_wording(fam, INF if to_e else z0s[-1]), (z0, u, n)
            elif to_e:
                assert (reason, detail) == ("left-numeric-domain", "tangency point at infinity")
            else:
                assert not guarded(z0s[-1])
                assert (reason, detail) == ("left-numeric-domain", billiards._offset_stop(*step(*states[-1])))
                assert detail
            reasons[reason] += 1
        assert reasons["completed"] and reasons["hit-singularity"]

    def test_random_starts_reach_every_domain_stop(self):
        details = {
            got[3]
            for fam in STEP_INSTANCES
            for _, got in _random_offset_runs(fam)
            if got[2] == "left-numeric-domain"
        }
        assert details == {
            "coordinates became nan", "affine coordinates blew up", "tangency point at infinity",
        }

    @pytest.mark.parametrize("case", list(EARLY_STOPS))
    def test_an_early_stop_computes_no_step_past_it(self, case, monkeypatch):
        # each step looks for a stop before the next is computed: at most
        # one coefficient call past the steps taken, however many are asked
        fam, z0, u, _, taken = self.EARLY_STOPS[case]
        _, z0, u = self.early_start(fam, z0, u)
        calls = Counter()
        f = fam.spec.coefficient(fam.n)
        num, den, _ = fam.spec._by_n[fam.n]

        def f_counted(z):
            calls["f"] += 1
            return f(z)

        monkeypatch.setitem(fam.spec._by_n, fam.n, (num, den, f_counted))
        assert billiards._offset_orbit(fam, z0, u, 10**6)[4] == taken
        assert taken <= calls["f"] <= taken + 1


@pytest.mark.parametrize(
    "fam, lam, t0", [(BilliardFamily("b1"), 2.0, 2.7), (BilliardFamily("a1", 1), 1.0, 1.0)],
    ids=["b1", "a1(1)"],
)
def test_registry_bend_is_seen_between_calls(fam, lam, t0, bend):
    # the map, the orbit and the kernel take the coefficient from FAMILIES
    # on each call, so a bend between two calls on one instance shows
    x0 = lift_fiber(fam, lam, t0, "+")
    z0 = x0.p.z_sphere().value
    u = x0.q.z_sphere().value - z0

    def results():
        return (
            billiards._offset_orbit(fam, z0, u, 5)[:2],
            [x.p.coords for x in orbit(fam, x0, 5).points],
            billiard_map(fam, x0).q.coords,
        )

    before = results()
    bend(fam.tag, 1 + Fraction(1, 10**6))
    after = results()
    for old, new in zip(before, after):
        assert old != new
