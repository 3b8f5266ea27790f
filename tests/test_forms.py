import cmath

import numpy as np
import pytest

from dualbill import curves
from dualbill.billiards import ALL_FAMILY_TAGS, BilliardFamily, _involution_z, orbit
from dualbill.curves import (
    elliptic_model,
    lattice_closure_residual,
    lift_fiber,
    sheet_sqrt,
)
from dualbill.forms import (
    _area,
    _chart_offset,
    _dependent,
    _Jet,
    abel_steps,
    area_pullback_residual,
    chart_jacobian,
    fiber_form,
    fiber_pullback_residual,
    fiber_tangent,
    halfstep_jacobian,
)
from dualbill.geometry import PhasePoint, ProjectivePoint, conic_point
from dualbill.integrals import gradient
from dualbill.numerics import plan_route, segment_integrate
from dualbill.verify import _rng_for, check_area_form, check_jacobian, sample_phase_point
from routed import BranchedSqrt, branched_leg_integral

FAMILIES = [
    BilliardFamily("a1", 1),
    BilliardFamily("a2", 2),
    BilliardFamily("b1"),
    BilliardFamily("b2"),
    BilliardFamily("c1"),
    BilliardFamily("c2"),
    BilliardFamily("d"),
]


def _phase_with_offset_one():
    # z(Q) - z(P) = 1 at P = (1, 1), Q = (2, 3)
    p = conic_point(1.0)
    q = ProjectivePoint.affine(2.0, 3.0)
    return PhasePoint(q, p)


class TestAreaForm:
    def test_normalized_example(self):
        off = _chart_offset(_phase_with_offset_one())
        assert _area((1.0, 0.0), (0.0, 1.0), off) == pytest.approx(1.0)

    def test_bilinearity(self):
        off = _chart_offset(_phase_with_offset_one())
        c = 3.7 - 0.4j
        once = _area((1.0, 2.0), (0.0, 1.0), off)
        assert _area((c, 2.0 * c), (0.0, 1.0), off) == pytest.approx(c * once)

    def test_pole_on_parabola(self):
        p = conic_point(1.0)
        with pytest.raises(ValueError):
            _chart_offset(PhasePoint(p, p))

    def test_degenerate_sample_rejected(self):
        assert _dependent((1.0, 1.0), (2.0, 2.0))
        assert _dependent((0.0, 0.0), (0.0, 1.0))
        assert not _dependent((1.0, 2.0), (0.0, 1.0))

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
    def test_invariance(self, fam):
        rng = _rng_for(12, f"areat:{fam.label()}")
        for _ in range(40):
            x = sample_phase_point(fam, rng)
            assert area_pullback_residual(fam, x) <= 1e-6


class TestHalfstepJacobian:
    def test_fixed_point_value(self):
        fam = BilliardFamily("b1")
        assert halfstep_jacobian(fam, -1.0, 0.0) == pytest.approx(-1.0)

    def test_near_tangency_limit(self):
        # as Q approaches P the involution derivative tends to -1 and the
        # chart Jacobian tends to +1
        fam = BilliardFamily("d")
        z0 = 2.0
        for u in (1e-3, 1e-5):
            assert abs(halfstep_jacobian(fam, z0, z0 + u) - 1.0) < 50 * u

    def test_q_on_the_parabola_is_refused(self):
        with pytest.raises(ValueError):
            halfstep_jacobian(BilliardFamily("d"), 2.0, 2.0)

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
    def test_matches_finite_differences(self, fam):
        rng = _rng_for(13, f"jact:{fam.label()}")
        for _ in range(40):
            x = sample_phase_point(fam, rng)
            closed = halfstep_jacobian(fam, x.p.z_sphere().value, x.q.z_sphere().value)
            mat, _ = chart_jacobian(fam, x)
            fd = complex(np.linalg.det(mat))
            assert abs(closed - fd) <= 1e-6 * max(1.0, abs(closed))


class TestFiberForm:
    def test_chart_consistency(self):
        # on the level-set direction the dw and dz representations agree
        fam = BilliardFamily("b1")
        rng = _rng_for(14, "fibc")
        for _ in range(50):
            x = sample_phase_point(fam, rng)
            try:
                rz, rw = gradient(fam, x.q)
            except Exception:
                continue
            if min(abs(rz), abs(rw)) < 1e-6:
                continue
            v = fiber_tangent(fam, x)
            z, _ = x.q.affine_pair()
            z0 = x.p.z_sphere().value
            cube = (z - z0) ** 3
            dw_repr = v[1] / (cube * rz)
            dz_repr = -v[0] / (cube * rw)
            assert abs(dw_repr - dz_repr) <= 1e-8 * max(1.0, abs(dw_repr))

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
    def test_invariance_along_fiber(self, fam):
        rng = _rng_for(15, f"fibinv:{fam.label()}")
        for _ in range(30):
            x = sample_phase_point(fam, rng)
            assert fiber_pullback_residual(fam, x) <= 1e-6

    def test_bounded_on_elliptic_fiber(self):
        # sampled along a loop on the b1 fiber at level 2 the fiber form has
        # no poles
        fam = BilliardFamily("b1")
        lam = 2.0
        vals = []
        for k in range(60):
            t = 1.6 + 0.8 * cmath.exp(2j * cmath.pi * k / 60)
            x = lift_fiber(fam, lam, t, "+")
            v = fiber_tangent(fam, x)
            vals.append(abs(fiber_form(fam, x, v)))
        vals.sort()
        assert vals[-1] <= 1e3 * vals[len(vals) // 2]


class TestFiberDifferential:
    """The differential dt/y on the model y^2 = p(t) that the anchors
    integrate."""

    def test_value_example(self):
        model = elliptic_model(BilliardFamily("b1"), 2.0)
        assert abs(1.0 / BranchedSqrt(model.poly).at(0.0)) == pytest.approx(0.25, rel=1e-12)

    def test_defining_relation(self):
        model = elliptic_model(BilliardFamily("d"), 1.0)
        br = BranchedSqrt(model.poly)
        rng = _rng_for(16, "fdrel")
        for _ in range(25):
            t = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
            val = 1.0 / br.at(t)
            assert abs(val * val * np.polyval(model.poly, t) - 1.0) <= 1e-9

    def test_anchor_flips_sign(self):
        # an anchor's leg runs on the branch of y that the point's y selects
        model = elliptic_model(BilliardFamily("b1"), 2.0)
        t0 = 1.5 + 1.0j
        y0 = BranchedSqrt(model.poly).at(t0)
        half = model.half_periods[model._nearest(t0)]
        base = model.anchor((t0, y0)) - half
        flipped = model.anchor((t0, -y0)) - half
        assert abs(flipped + base) <= 1e-12 * max(1.0, abs(base))

    def test_proportional_to_fiber_form(self):
        # expressed through the curve parameter the fiber form is a constant
        # multiple of the square-root differential
        for fam, lam, t0 in (
            (BilliardFamily("b1"), 2.0, 2.5),
            (BilliardFamily("d"), 1.0, 1.3),
        ):
            model = elliptic_model(fam, lam)
            rng = _rng_for(17, f"prop:{fam.label()}")
            ratios = []
            h = 1e-6
            for _ in range(50):
                t = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
                try:
                    x = lift_fiber(fam, lam, t, "+")
                    _, y = sheet_sqrt(fam, lam, x)
                    # chart velocity of the parametrization
                    xp = lift_fiber(fam, lam, t + h, "+")
                    xm = lift_fiber(fam, lam, t - h, "+")
                    vz = (xp.q.z_sphere().value - xm.q.z_sphere().value) / (2 * h)
                    zp, wp = xp.q.affine_pair()
                    zm, wm = xm.q.affine_pair()
                    vw = (wp - wm) / (2 * h)
                    val = fiber_form(fam, x, (vz, vw)) * y
                except Exception:
                    continue
                ratios.append(val)
            assert len(ratios) > 20
            base = ratios[0]
            for r in ratios[1:]:
                assert abs(r - base) <= 1e-6 * max(1.0, abs(base))


ABEL_CASES = [
    (BilliardFamily("b1"), 2.0, 2.7),
    (BilliardFamily("b2"), 2.0, 2.7),
    (BilliardFamily("d"), 1.0, 1.3),
]


def _clearance(rts):
    """How far a routed path keeps from every root: 0.12 of the smallest
    root gap."""
    return 0.12 * min(abs(a - b) for i, a in enumerate(rts) for b in rts[i + 1:])


def _routed_connection(model, a, b):
    """Integral of dt/y from branch point a to branch point b by routed
    quadrature alone: the legs to a and to b from one point m above the
    branch points, on one branch of y at m.  A leg runs along a horizontal
    line above every root, down the vertical line half the smallest root gap
    beside its branch point e, and into e from the side that no cut ray
    crosses: each root cuts straight down, and one just above e may cut
    through e itself, on a side that rounding picks."""
    br, rts = BranchedSqrt(model.poly), model.roots
    c = _clearance(rts)
    d = 0.5 * min(abs(r - s) for i, r in enumerate(rts) for s in rts[i + 1:])
    top = max(r.imag for r in rts) + 4.0 * d
    m = complex(sum(r.real for r in rts) / len(rts), top)

    def leg(e):
        blocked = any(e.real <= r.real <= e.real + d for r in rts if r.imag > e.imag)
        x = e.real - d if blocked else e.real + d
        path = plan_route([m, complex(x, top), complex(x, e.imag), e], rts, c)
        return branched_leg_integral(br, path, br.at(m), end_at_branch=e)

    return leg(b) - leg(a)


def _routed_steps(fam, lam, points, model):
    """Abel steps routed one by one from the model's polynomial alone, with
    a fresh routed connection for every step that joins two branch points."""
    br = BranchedSqrt(model.poly)
    rts = sorted(br.roots, key=lambda r: (round(r.real, 12), round(r.imag, 12)))
    clearance = _clearance(rts)
    coords = [sheet_sqrt(fam, lam, x) for x in points]
    out, joined = [], 0
    for (ta, ya), (tb, yb) in zip(coords, coords[1:]):
        b_a = min(rts, key=lambda r: abs(r - ta))
        b_b = min(rts, key=lambda r: abs(r - tb))
        leg_a = plan_route([ta, b_a], br.roots, clearance)
        leg_b = plan_route([tb, b_b], br.roots, clearance)
        total = branched_leg_integral(br, leg_a, ya, end_at_branch=b_a)
        total -= branched_leg_integral(br, leg_b, yb, end_at_branch=b_b)
        if abs(b_a - b_b) > 1e-12:
            total += _routed_connection(model, b_a, b_b)
            joined += 1
        out.append(total)
    return out, joined


def _lattice_gap(model, v):
    """|v| modulo the model's lattice, relative to its largest generator."""
    return abs(model.lattice_reduce(v)) / max(map(abs, model.periods))


class TestAbel:
    @pytest.mark.parametrize("fam,lam,t0", ABEL_CASES, ids=lambda v: str(v))
    def test_steps_match_routing_each_step_alone(self, fam, lam, t0):
        points = orbit(fam, lift_fiber(fam, lam, t0, "+"), 20).points
        model = elliptic_model(fam, lam)
        want, joined = _routed_steps(fam, lam, points, model)
        assert joined > 0  # some steps join two different branch points
        steps = abel_steps(fam, lam, points, model)
        assert len(steps) == len(want)
        assert max(_lattice_gap(model, s - w) for s, w in zip(steps, want)) <= 1e-9

    @pytest.mark.parametrize(
        "tag,kind", [(tag, kind) for tag in ("b1", "b2", "d") for kind in ("real", "complex")]
    )
    def test_routed_cycles_lie_on_the_lattice(self, tag, kind):
        # twice a routed connection between two branch points is a cycle of
        # the fiber, so it lies on the lattice of the closed-form periods
        rng = _rng_for(33, f"routed cycles:{tag}:{kind}")
        lam = complex(rng.uniform(1.5, 3.0), rng.uniform(0.3, 1.0) if kind == "complex" else 0.0)
        model = elliptic_model(BilliardFamily(tag), lam)
        rts = model.roots
        for i in range(len(rts)):
            for j in range(i + 1, len(rts)):
                assert _lattice_gap(model, 2.0 * _routed_connection(model, rts[i], rts[j])) <= 1e-9

    @pytest.mark.parametrize("tag,lam,t0", [("b1", 2.0, 2.7), ("d", 1.0, 1.3)])
    def test_periods_and_closure_take_no_quadrature(self, tag, lam, t0, monkeypatch):
        calls = []

        def counted(f, a, b):
            calls.append((a, b))
            return segment_integrate(f, a, b)

        monkeypatch.setattr(curves, "segment_integrate", counted)
        fam = BilliardFamily(tag)
        points = orbit(fam, lift_fiber(fam, lam, t0, "+"), 20).points
        model = elliptic_model(fam, lam)
        lattice_closure_residual(model)
        assert calls == []
        abel_steps(fam, lam, points, model)  # the legs are segment quadrature
        assert calls

    @pytest.mark.parametrize("fam,lam,t0", ABEL_CASES, ids=lambda v: str(v))
    def test_each_leg_is_integrated_once(self, fam, lam, t0, monkeypatch):
        # a point's leg serves the step that ends there and the next one
        legs = []
        real = curves.EllipticModel._leg

        def counted(model, t, y, k):
            legs.append((t, y, k))
            return real(model, t, y, k)

        points = orbit(fam, lift_fiber(fam, lam, t0, "+"), 20).points
        model = elliptic_model(fam, lam)
        monkeypatch.setattr(curves.EllipticModel, "_leg", counted)
        steps = abel_steps(fam, lam, points, model)
        assert len(legs) == len(set(legs)) == len(points)
        coords = [sheet_sqrt(fam, lam, x) for x in points]
        one_by_one = [model.anchor(a) - model.anchor(b) for a, b in zip(coords, coords[1:])]
        assert list(map(repr, steps)) == list(map(repr, one_by_one))
        legs.clear()
        assert abel_steps(fam, lam, points[:1], model) == [] and legs == []

    @pytest.mark.parametrize("fam,lam,t0", ABEL_CASES, ids=lambda v: str(v))
    def test_step_constancy(self, fam, lam, t0):
        x0 = lift_fiber(fam, lam, t0, "+")
        rec = orbit(fam, x0, 20)
        assert rec.reason == "completed"
        model = elliptic_model(fam, lam)
        steps = abel_steps(fam, lam, rec.points, model)
        base = steps[0]
        for s in steps:
            assert abs(model.lattice_reduce(s - base)) <= 1e-5

    def test_constant_is_per_orbit(self):
        fam = BilliardFamily("b1")
        lam = 2.0
        model = elliptic_model(fam, lam)
        consts = []
        for t0 in (2.7, 0.3):
            rec = orbit(fam, lift_fiber(fam, lam, t0, "+"), 6)
            steps = abel_steps(fam, lam, rec.points, model)
            base = steps[0]
            for s in steps:
                assert abs(model.lattice_reduce(s - base)) <= 1e-5
            consts.append(base)
        # each orbit is internally constant; the two orbits lie on the same
        # translation so their constants agree up to lattice and sign
        red = model.lattice_reduce(consts[0] - consts[1])
        red2 = model.lattice_reduce(consts[0] + consts[1])
        assert min(abs(red), abs(red2)) <= 1e-5


# (family, level, start parameter, sheet) of orbits on which a leg routed
# around the cut rays of routed.BranchedSqrt does not converge
UNROUTABLE = [
    ("b1", 0.3993979853016729 + 0.9511290682321203j, 1.1386529553690534 - 0.26340591305886707j, "-"),
    ("b1", 1.8964801448519772 - 0.5545772928503585j, 2.140332855265977 + 0.4469637335328269j, "+"),
    ("b1", 2.860668959452144 - 0.9926024152003323j, 0.8323867116666784 - 0.499616374905418j, "-"),
    ("b2", 0.5165887600618787 + 0.6214798371585128j, 2.322406569303558 - 0.08299790722231637j, "-"),
    ("b2", 2.0146249850978473 - 0.9103767504650846j, 2.232296180233666 - 0.2147335930627584j, "+"),
    ("b2", 2.5736097401057254 + 0.7233309327676551j, 2.7323157371175757 + 0.27509718929617444j, "+"),
]


class TestStraightLegs:
    """Each leg runs along the straight segment to its nearest branch point,
    with y continued in closed form along it."""

    @pytest.mark.parametrize("tag,lam,t0,sheet", UNROUTABLE)
    def test_steps_are_constant_where_routing_failed(self, tag, lam, t0, sheet):
        fam = BilliardFamily(tag)
        model = elliptic_model(fam, lam)
        assert lattice_closure_residual(model) <= 1e-7
        points = orbit(fam, lift_fiber(fam, lam, t0, sheet), 20).points
        steps = abel_steps(fam, lam, points, model)
        assert len(steps) == 20
        assert max(abs(model.lattice_reduce(s - steps[0])) for s in steps) <= 1e-5

    @pytest.mark.parametrize(
        "tag,lam", [("b1", 2.0), ("d", 1.0), ("d", 0.45541461035105535 - 0.9226804965651715j)]
    )
    def test_leg_near_its_branch_point(self, tag, lam):
        # near e, p(t) ~ p'(e)(t - e), so the leg is -2(t - e)/y to first order
        model = elliptic_model(BilliardFamily(tag), lam)
        for k, e in enumerate(model.roots):
            for delta in (10.0**-n for n in range(3, 12)):
                for theta in (0.3, 2.1, -2.6):
                    t = e + delta * cmath.exp(1j * theta)
                    y = cmath.sqrt(np.polyval(model.poly, t))
                    assert model._nearest(t) == k
                    leg = model._leg(t, y, k)
                    assert abs(leg / (-2.0 * (t - e) / y) - 1.0) <= 10.0 * abs(t - e)

    @pytest.mark.parametrize("fam,lam", [c[:2] for c in ABEL_CASES], ids=lambda v: str(v))
    def test_leg_differentiates_to_minus_one_over_y(self, fam, lam):
        # d/dt of the integral of dt/y from t to a fixed branch point
        model = elliptic_model(fam, lam)
        rng = _rng_for(37, f"leg derivative:{fam.label()}")
        h = 1e-4
        for _ in range(10):
            t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            k = model._nearest(t)
            y = cmath.sqrt(np.polyval(model.poly, t))
            # y continued to t +/- h, a step far shorter than any root distance
            assert min(abs(t - r) for r in model.roots) > 100 * h
            yp, ym = (y * cmath.sqrt(np.polyval(model.poly, u) / y**2) for u in (t + h, t - h))
            slope = (model._leg(t + h, yp, k) - model._leg(t - h, ym, k)) / (2 * h)
            assert abs(slope * y + 1.0) <= 1e-6


class TestJacobianSplit:
    def test_full_differential_determinant(self):
        # the chart determinant of the full map equals
        # ((z(Q') - z(P')) / (z(Q) - z(P)))^3, the area form's ratio
        import numpy as np
        from dualbill.verify import sample_phase_point, _rng_for

        for fam in FAMILIES:
            rng = _rng_for(18, f"split:{fam.label()}")
            for _ in range(10):
                x = sample_phase_point(fam, rng)
                mat, x_img = chart_jacobian(fam, x)
                det = complex(np.linalg.det(mat))
                off_in = x.q.z_sphere().value - x.p.z_sphere().value
                off_out = x_img.q.z_sphere().value - x_img.p.z_sphere().value
                want = (off_out / off_in) ** 3
                assert abs(det - want) <= 1e-6 * max(1.0, abs(want))


    def test_chart_jacobian_takes_one_phase_map_step(self, monkeypatch):
        # the derivative needs only the involution's arithmetic, so the
        # full phase map runs once, for the image point
        from dualbill import forms

        calls = []
        step = forms.billiard_map

        def counted(family, x):
            calls.append(x)
            return step(family, x)

        monkeypatch.setattr(forms, "billiard_map", counted)
        for fam in FAMILIES:
            x = sample_phase_point(fam, _rng_for(19, f"one-step:{fam.label()}"))
            calls.clear()
            _, x_img = chart_jacobian(fam, x)
            assert calls == [x]
            assert x_img.q.eq(step(fam, x).q)


class TestChartJacobianOracle:
    """The jet Jacobian against a 50-digit central difference of the chart
    map (z, w) -> (z*, w*).  The oracle's tangency parameter is
    z0 = z - sqrt(z^2 - w) on the branch of the sample, and its image comes
    from the involution's shared arithmetic run on mpmath numbers."""

    @pytest.mark.parametrize(
        "fam",
        [BilliardFamily("a1", 1), BilliardFamily("a1", 3), BilliardFamily("a2", 1)]
        + [BilliardFamily(t) for t in ("b1", "b2", "c1", "c2", "d")],
        ids=lambda f: f.label(),
    )
    def test_matches_high_precision_differences(self, fam):
        mp = pytest.importorskip("mpmath").mp
        rng = _rng_for(31, f"jet-oracle:{fam.label()}")
        with mp.workdps(50):
            h = mp.mpf(10) ** -20
            for _ in range(20):
                x = sample_phase_point(fam, rng)
                z, w = (mp.mpc(c.real, c.imag) for c in x.q.affine_pair())
                root = mp.sqrt(z * z - w)
                z0 = x.p.z_sphere().value
                sign = 1 if abs(z - root - z0) <= abs(z + root - z0) else -1

                def chart(zz, ww):
                    t = zz - sign * mp.sqrt(zz * zz - ww)
                    zi = _involution_z(fam, t, zz)
                    return zi, 2 * t * zi - t * t

                cols = []
                for dz, dw in ((h, 0), (0, h)):
                    (zp, wp), (zm, wm) = chart(z + dz, w + dw), chart(z - dz, w - dw)
                    cols.append((complex((zp - zm) / (2 * h)), complex((wp - wm) / (2 * h))))
                want = np.array(cols).T
                got, _ = chart_jacobian(fam, x)
                assert np.abs(np.array(got) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("tag", ALL_FAMILY_TAGS)
    def test_suite_residuals_are_rounding_level(self, tag):
        # the checks of ``check --all --seed 42`` compare the closed forms
        # with the jet Jacobian; what they report is rounding, not truncation
        fam = BilliardFamily.parse(tag)
        for check in (check_area_form, check_jacobian):
            report = check(fam, 200, 42)
            assert report.status == "pass" and report.worst <= 1e-10


class TestJet:
    @pytest.mark.parametrize("c", [1.5, 2, -0.25 + 3j])
    def test_reflected_division_has_the_analytic_partials(self, c):
        # c/z has partials -c/z^2 times the seed's (d/dz, d/dw)
        zs = [0.3 - 1.2j, -2.0 + 0.0j, 1e-3 + 5j]
        for z in zs:
            jet = c / _Jet(z, 1.0, 2.0 - 1j)
            assert jet.v == c / z
            want = -c / z**2
            assert abs(jet.dz - want) <= 1e-15 * abs(want)
            assert abs(jet.dw - want * (2.0 - 1j)) <= 1e-15 * abs(want * (2.0 - 1j))
        z = np.array(zs)
        jet = c / _Jet(z, np.ones(3), np.full(3, 2.0 - 1j))
        want = -c / z**2
        assert np.array_equal(jet.v, c / z)
        assert (np.abs(jet.dz - want) <= 1e-15 * np.abs(want)).all()
        assert (np.abs(jet.dw - want * (2.0 - 1j)) <= 1e-15 * np.abs(want * (2.0 - 1j))).all()


class TestInvolutionDerivative:
    def test_square_law_along_tangent_line(self):
        # the 1D derivative of the involution along the tangent line is
        # -((z* - z0)/(z - z0))^2; the chart Jacobian is minus its cube
        # divided by the ratio, i.e. the closed form already tested; here
        # the line derivative itself is finite-differenced
        from dualbill.billiards import involution
        from dualbill.verify import _rng_for, sample_phase_point

        for fam in (FAMILIES[0], FAMILIES[2], FAMILIES[6]):
            rng = _rng_for(27, f"sigma-prime:{fam.label()}")
            for _ in range(15):
                x = sample_phase_point(fam, rng)
                z0 = x.p.z_sphere().value
                z1 = x.q.z_sphere().value
                img = involution(fam, x.p, x.q)
                z1s = img.z_sphere()
                if z1s.is_inf:
                    continue
                ratio = (z1s.value - z0) / (z1 - z0)
                h = 1e-6 * max(1.0, abs(z1 - z0))
                zp = ProjectivePoint.affine(z1 + h, 2 * z0 * (z1 + h) - z0 * z0)
                zm = ProjectivePoint.affine(z1 - h, 2 * z0 * (z1 - h) - z0 * z0)
                der = (
                    involution(fam, x.p, zp).z_sphere().value
                    - involution(fam, x.p, zm).z_sphere().value
                ) / (2 * h)
                assert abs(der + ratio * ratio) <= 1e-5 * max(1.0, abs(ratio) ** 2)
