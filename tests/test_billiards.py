import dataclasses
import math
import random
from fractions import Fraction

import pytest

from dualbill.billiards import (
    BilliardFamily,
    SingularTangencyError,
    billiard_map,
    f_coefficient,
    involution,
    orbit,
)
from dualbill.curves import lift_fiber
from dualbill.families import FAMILIES
from dualbill.geometry import PhasePoint, ProjectivePoint, conic_point, cross_norm
from dualbill.numerics import INF, sphere_eq
from dualbill.verify import sample_phase_point, _rng_for


class TestFamily:
    def test_parse(self):
        assert BilliardFamily.parse("a1", 2).n == 2
        assert BilliardFamily.parse("d").n is None

    def test_rho(self):
        from fractions import Fraction

        assert BilliardFamily("a1", 1).rho == Fraction(4, 3)
        assert BilliardFamily("a2", 1).rho == Fraction(3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            BilliardFamily("a1")
        with pytest.raises(ValueError):
            BilliardFamily("b1", 2)
        with pytest.raises(ValueError):
            BilliardFamily("q7")


class TestFCoefficient:
    def test_examples(self):
        assert f_coefficient(BilliardFamily("b1"), -1.0).value == pytest.approx(-2.0)
        assert f_coefficient(BilliardFamily("b2"), 0.0).value == 0.0
        assert f_coefficient(BilliardFamily("d"), 1.0).is_inf

    def test_a_family_is_rho_over_z0(self):
        for fam in (BilliardFamily("a1", 1), BilliardFamily("a2", 3)):
            for z0 in (2.0, -0.5 + 1.5j):
                assert f_coefficient(fam, z0).value == float(fam.rho) / z0
            assert f_coefficient(fam, 0.0).is_inf


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
        f = f_coefficient(fam, z0).value
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
            x = sample_phase_point(fam, rng, conditioned=False)
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
    def test_degenerate_tangency_stop(self):
        fam = BilliardFamily("a1", 2)
        rec = orbit(fam, lift_fiber(fam, 1.0, 1.7, "+"), 300)
        assert (rec.steps_taken, rec.reason) == (198, "left-numeric-domain")
        assert rec.detail.startswith("the tangency candidates of")

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
        ],
        ids=["d", "a1(1)", "a1(1)-stop"],
    )
    def test_iterates_are_pinned(self, fam, lam, tau, branch, steps, pins, stop):
        rec = orbit(fam, lift_fiber(fam, lam, tau, branch), steps)
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
    def test_perturbed_coefficient_is_caught(self, fam, monkeypatch):
        # negative control: the involution's coefficient off by 1e-6
        spec = FAMILIES[fam.tag]
        if fam.is_a:
            shift = spec.shift
            bent = dataclasses.replace(spec, shift=lambda n: shift(n) + Fraction(1, 10**6))
        else:
            f = spec.f
            bent = dataclasses.replace(spec, f=lambda z: f(z) + 1e-6)
        monkeypatch.setitem(FAMILIES, fam.tag, bent)
        assert _oracle_worst(fam) > ORACLE_TOL
