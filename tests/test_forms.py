import cmath

import numpy as np
import pytest

from dualbill.billiards import ALL_FAMILY_TAGS, BilliardFamily, _involution_z, orbit
from dualbill.curves import elliptic_model, lift_fiber, sheet_sqrt
from dualbill.forms import (
    TangentSample,
    _Jet,
    abel_steps,
    area_form,
    area_pullback_residual,
    chart_jacobian,
    fiber_differential,
    fiber_form,
    fiber_pullback_residual,
    fiber_tangent,
    halfstep_jacobian,
)
from dualbill.geometry import PhasePoint, ProjectivePoint, conic_point
from dualbill.integrals import gradient
from dualbill.verify import _rng_for, check_area_form, check_jacobian, sample_phase_point

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
        x = _phase_with_offset_one()
        sample = TangentSample(x, (1.0, 0.0), (0.0, 1.0))
        assert area_form(x, sample) == pytest.approx(1.0)

    def test_bilinearity(self):
        x = _phase_with_offset_one()
        s1 = TangentSample(x, (1.0, 2.0), (0.0, 1.0))
        c = 3.7 - 0.4j
        s2 = TangentSample(x, (c, 2.0 * c), (0.0, 1.0))
        assert area_form(x, s2) == pytest.approx(c * area_form(x, s1))

    def test_pole_on_parabola(self):
        p = conic_point(1.0)
        with pytest.raises(ValueError):
            area_form(PhasePoint(p, p), TangentSample(PhasePoint(p, p), (1, 2), (0, 1)))

    def test_degenerate_sample_rejected(self):
        x = _phase_with_offset_one()
        with pytest.raises(ValueError):
            TangentSample(x, (1.0, 1.0), (2.0, 2.0))

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
    def test_invariance(self, fam):
        rng = _rng_for(12, f"areat:{fam.label()}")
        for _ in range(40):
            x = sample_phase_point(fam, rng)
            assert area_pullback_residual(fam, x) <= 1e-6


class TestHalfstepJacobian:
    def test_fixed_point_value(self):
        fam = BilliardFamily("b1")
        x = PhasePoint(ProjectivePoint.affine(0.0, -1.0), conic_point(-1.0))
        assert halfstep_jacobian(fam, x) == pytest.approx(-1.0)

    def test_near_tangency_limit(self):
        # as Q approaches P the involution derivative tends to -1 and the
        # chart Jacobian tends to +1
        fam = BilliardFamily("d")
        z0 = 2.0
        for u in (1e-3, 1e-5):
            z = z0 + u
            x = PhasePoint(
                ProjectivePoint.affine(z, 2 * z0 * z - z0 * z0), conic_point(z0)
            )
            assert abs(halfstep_jacobian(fam, x) - 1.0) < 50 * u

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
    def test_matches_finite_differences(self, fam):
        rng = _rng_for(13, f"jact:{fam.label()}")
        for _ in range(40):
            x = sample_phase_point(fam, rng)
            closed = halfstep_jacobian(fam, x)
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
    def test_value_example(self):
        model = elliptic_model(BilliardFamily("b1"), 2.0)
        got = fiber_differential(model, 0.0)
        assert abs(got) == pytest.approx(0.25, rel=1e-12)

    def test_defining_relation(self):
        model = elliptic_model(BilliardFamily("d"), 1.0)
        rng = _rng_for(16, "fdrel")
        for _ in range(25):
            t = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
            val = fiber_differential(model, t)
            assert abs(val * val * np.polyval(model.poly, t) - 1.0) <= 1e-9

    def test_anchor_flips_sign(self):
        model = elliptic_model(BilliardFamily("b1"), 2.0)
        t0 = 1.5 + 1.0j
        base = fiber_differential(model, t0)
        flipped = fiber_differential(model, t0, anchor=(t0, -1.0 / base))
        assert abs(flipped + base) <= 1e-12

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


class TestAbel:
    @pytest.mark.parametrize(
        "fam,lam,t0",
        [
            (BilliardFamily("b1"), 2.0, 2.7),
            (BilliardFamily("b2"), 2.0, 2.7),
            (BilliardFamily("d"), 1.0, 1.3),
        ],
        ids=lambda v: str(v),
    )
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
