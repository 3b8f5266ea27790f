import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dualbill.billiards import BilliardFamily
from dualbill.curves import (
    branch_points,
    component_product_residual,
    critical_fiber_components,
    curve_parameter,
    elliptic_model,
    elliptic_poly,
    fiber_type,
    is_regular,
    lattice_closure_residual,
    lift_by_sheet,
    lift_fiber,
    parametrize_level,
    point_on_level,
    sheet_sqrt,
    tangency_gap,
)
from dualbill.geometry import E_INFINITY, PhasePoint, ProjectivePoint, conic_point
from dualbill.integrals import critical_values, eval_integral, first_integral
from dualbill.numerics import INF, SphereValue, lattice_reduce
from dualbill.verify import _rng_for

PARAMETRIZED = [
    (BilliardFamily("a1", 1), (1.0, 2.0, 0.5 + 1.0j)),
    (BilliardFamily("a1", 2), (1.0, 2.0, 0.5 + 1.0j)),
    (BilliardFamily("a2", 1), (1.0, 2.0, 0.5 + 1.0j)),
    (BilliardFamily("a2", 2), (1.0, 2.0, 0.5 + 1.0j)),
    (BilliardFamily("b1"), (2.0, 3.0, 0.5 + 0.5j)),
    (BilliardFamily("b2"), (2.0, 3.0, 0.5 + 0.5j)),
    (BilliardFamily("d"), (1.0, 3.0, 0.5 + 0.3j)),
]


class TestParametrize:
    def test_a1_spot_value(self):
        q = parametrize_level(BilliardFamily("a1", 1), 1.0, 1.0)
        z, w = q.affine_pair()
        assert abs(z - 8j) <= 1e-12
        assert abs(w) <= 1e-12

    def test_b1_base_point_parameter(self):
        q = parametrize_level(BilliardFamily("b1"), 2.0, 2.0)  # t = lam/(lam-1)
        assert q.eq(ProjectivePoint.affine(0.0, 0.0))

    def test_d_pole_gives_infinity_point(self):
        q = parametrize_level(BilliardFamily("d"), 1.5, -4.0)
        assert q.eq(E_INFINITY)

    def test_on_curve_residual(self):
        rng = _rng_for(7, "on-curve")
        for fam, lams in PARAMETRIZED:
            for lam in lams:
                for _ in range(70):
                    t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    pt = parametrize_level(fam, lam, t)
                    try:
                        v = eval_integral(fam, pt)
                    except Exception:
                        continue
                    if v.is_inf:
                        continue
                    assert abs(v.value - lam) <= 1e-9 * max(1.0, abs(lam))

    @pytest.mark.parametrize(
        "fam", [BilliardFamily("a1", 2), BilliardFamily("b1"), BilliardFamily("b2"), BilliardFamily("d")],
        ids=BilliardFamily.label,
    )
    def test_large_parameters_stay_finite(self, fam):
        # past the float range of |t|^degree the form is taken at (1, 1/t);
        # before, a1(2) and d gave NaN at 1e80 and b1 and d overflowed at 1e160
        lam = 1.7
        at_inf = parametrize_level(fam, lam, INF)
        for size in (1e80, 1e160, 1e300):
            for t in (size, -size, 1j * size, size * (0.6 - 0.8j)):
                q = parametrize_level(fam, lam, t)
                assert all(map(cmath.isfinite, q.coords)), (t, q)
                if not q.eq(at_inf):
                    assert abs(eval_integral(fam, q).value - lam) <= 1e-9 * lam, (t, q)

    def test_critical_value_rejected(self):
        with pytest.raises(ValueError):
            parametrize_level(BilliardFamily("b1"), 4.0 / 3.0, 0.5)
        with pytest.raises(ValueError):
            parametrize_level(BilliardFamily("d"), -0.25, 0.5)

    def test_c_family_rejected(self):
        with pytest.raises(ValueError):
            parametrize_level(BilliardFamily("c1"), 1.0, 0.5)

    def test_base_point_incidence(self):
        lam = 2.0
        b1 = BilliardFamily("b1")
        assert parametrize_level(b1, lam, 0.0).eq(ProjectivePoint.affine(0, 0))
        assert parametrize_level(b1, lam, lam / (lam - 1)).eq(ProjectivePoint.affine(0, 0))
        for r in np.roots([1.0, -4 * lam, 4 * lam]):
            assert parametrize_level(b1, lam, complex(r)).eq(ProjectivePoint.affine(1, 1))
        assert parametrize_level(b1, lam, 4.0).eq(E_INFINITY)
        assert parametrize_level(b1, lam, INF).eq(E_INFINITY)
        d = BilliardFamily("d")
        lam = 1.0
        for r in np.roots([9 * lam**2 + lam, 36 * lam**2 - 3 * lam, -36 * lam, 9.0]):
            assert parametrize_level(d, lam, complex(r)).eq(ProjectivePoint.affine(1, 1))
        for r in np.roots([lam, 12 * lam, -9.0]):
            assert parametrize_level(d, lam, complex(r)).eq(ProjectivePoint.affine(0, 0))
        assert parametrize_level(d, lam, -4.0).eq(E_INFINITY)
        a2 = BilliardFamily("a2", 1)
        assert parametrize_level(a2, 1.5, 0.0).eq(ProjectivePoint.affine(0, 0))


class TestLift:
    def test_a1_lift_examples(self):
        fam = BilliardFamily("a1", 1)
        minus = lift_fiber(fam, 1.0, 1.0, "-")
        assert minus.p.eq(conic_point(0.0))
        plus = lift_fiber(fam, 1.0, 1.0, "+")
        assert plus.p.eq(ProjectivePoint.affine(16j, -256.0))

    def test_a2_lift_example(self):
        fam = BilliardFamily("a2", 1)
        x = lift_fiber(fam, 1.0, 1.0)
        z, _ = x.q.affine_pair()
        assert x.p.eq(conic_point(2.0 * z))

    def test_lift_incidence(self):
        rng = _rng_for(8, "lift")
        for fam, lams in PARAMETRIZED:
            for _ in range(25):
                t = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
                branch = "+" if rng.random() < 0.5 else "-"
                try:
                    x = lift_fiber(fam, lams[0], t, branch)
                except ValueError:
                    continue
                x.validate()

    def test_curve_parameter_inverts_lift(self):
        for fam, lams in PARAMETRIZED:
            for t in (0.8, 1.9 + 0.3j):
                x = lift_fiber(fam, lams[0], t, "+")
                got = curve_parameter(fam, x)
                if fam.tag in ("b1", "b2", "d"):
                    assert abs(got.value - t) <= 1e-9 * max(1.0, abs(t))
                else:
                    assert abs(got.value - t) <= 1e-9 * max(1.0, abs(t))

    def test_nan_parameter_is_refused(self):
        # SphereValue.coerce reads NaN as INF: the lift would start at the
        # curve point of t = inf
        for fam, lams in PARAMETRIZED:
            for t in (complex(math.nan, 1.0), math.nan):
                with pytest.raises(ValueError, match="not a number"):
                    lift_fiber(fam, lams[0], t)
                with pytest.raises(ValueError, match="not a number"):
                    parametrize_level(fam, lams[0], t)

    @pytest.mark.parametrize("tag", ["c1", "c2"])
    def test_c_families_have_no_curve_parameter(self, tag):
        fam = BilliardFamily(tag)
        x = lift_by_sheet(point_on_level(fam, 1.0, random.Random(3)), "+")
        with pytest.raises(ValueError, match="no rational curve parameter"):
            curve_parameter(fam, x)


class TestBranchPoints:
    def test_b1_example(self):
        got = branch_points(BilliardFamily("b1"), 2.0)
        finite = sorted(b.value.real for b in got if not b.is_inf)
        assert finite == pytest.approx(
            [4 - 2 * math.sqrt(2), 2.0, 4 + 2 * math.sqrt(2)], abs=1e-9
        )
        assert any(b.is_inf for b in got)

    def test_a2_ramification(self):
        got = branch_points(BilliardFamily("a2", 1), 1.3)
        assert got[0] == SphereValue(0.0) and got[1].is_inf

    def test_d_count(self):
        assert len(branch_points(BilliardFamily("d"), 1.0)) == 4

    def test_a1_c_split(self):
        assert branch_points(BilliardFamily("a1", 2), 1.3) == []
        assert branch_points(BilliardFamily("c1"), 1.3) == []

    def test_collision_scaling(self):
        # the tangency gap collapses like sqrt(offset) at a branch parameter
        fam = BilliardFamily("b1")
        lam = 0.45
        for b in branch_points(fam, lam):
            t0 = 1e10 if b.is_inf else b.value
            g11 = tangency_gap(fam, lam, t0 + 1e-11 if not b.is_inf else 1e11)
            assert g11 <= 1e-5
        for b in branch_points(BilliardFamily("d"), -0.15):
            t0 = b.value
            g12 = tangency_gap(BilliardFamily("d"), -0.15, t0 + 1e-12)
            assert g12 <= 1e-5

    def test_separation_away_from_branch(self):
        rng = _rng_for(9, "sep")
        fam = BilliardFamily("b1")
        lam = 2.0
        bps = [b.value for b in branch_points(fam, lam) if not b.is_inf]
        count = 0
        while count < 20:
            t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(t - b) for b in bps) < 0.3:
                continue
            if abs(t) > 2.8:
                continue
            assert tangency_gap(fam, lam, t) >= 1e-3
            count += 1


class TestEllipticModel:
    def test_poly_formula_b(self):
        lam = 2.0
        got = elliptic_poly(BilliardFamily("b1"), lam)
        want = np.polymul([1 - lam, lam], [1, -4 * lam, 4 * lam])
        assert np.allclose(got, want)

    def test_branch_list_matches_roots(self):
        # the model's roots are the finite branch points; the cubic b1 model
        # branches over infinity as well
        for tag, lam, cubic in (("b1", 2.0, True), ("d", 1.0, False)):
            m = elliptic_model(BilliardFamily(tag), lam)
            bps = branch_points(BilliardFamily(tag), lam)
            finite = [b.value for b in bps if not b.is_inf]
            assert (INF in bps) == cubic
            assert len(finite) == len(m.roots)
            for r in m.roots:
                assert min(abs(r - b) for b in finite) <= 1e-12

    def test_periods_form_lattice(self):
        for fam, lam in ((BilliardFamily("b1"), 2.0), (BilliardFamily("d"), 1.0)):
            m = elliptic_model(fam, lam)
            w1, w2 = m.periods
            # genuinely independent generators
            det = w1.real * w2.imag - w1.imag * w2.real
            assert abs(det) > 1e-12
            assert lattice_closure_residual(m) <= 1e-7

    def test_period_against_independent_oracle(self):
        # high-precision oracle: on [4-2*sqrt(2), 2] both simple zeros of p
        # are absorbed by t = r0 + (r1-r0) sin^2(theta), leaving a smooth
        # integrand for mpmath
        mpmath = pytest.importorskip("mpmath")

        m = elliptic_model(BilliardFamily("b1"), 2.0)
        with mpmath.workdps(30):
            r0 = 4 - 2 * mpmath.sqrt(2)
            r1 = mpmath.mpf(2)
            r2 = 4 + 2 * mpmath.sqrt(2)

            def g(theta):
                t = r0 + (r1 - r0) * mpmath.sin(theta) ** 2
                return 2 / mpmath.sqrt(r2 - t)

            oracle = float(2 * mpmath.quad(g, [0, mpmath.pi / 2]))
        # p < 0 between the two real roots, so i times the oracle is a period
        assert abs(m.lattice_reduce(1j * oracle)) < 1e-8

    def test_degeneration_towards_critical_value(self):
        # two branch parameters of the b-model collide as lam -> 1
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6):
            rts = np.roots([1.0, -4 * (1 + eps), 4 * (1 + eps)])
            gaps.append(abs(rts[0] - rts[1]))
        # square-root collision rate: each 100x smaller eps shrinks the gap 10x
        assert gaps[1] == pytest.approx(0.1 * gaps[0], rel=0.05)
        assert gaps[2] == pytest.approx(0.1 * gaps[1], rel=0.05)

    def test_c_family_unsupported(self):
        with pytest.raises(ValueError):
            elliptic_model(BilliardFamily("c1"), 1.0)

    def test_sheet_sqrt_consistency(self):
        for fam, lam, t0 in (
            (BilliardFamily("b1"), 2.0, 2.7),
            (BilliardFamily("b2"), 2.0, 2.7),
            (BilliardFamily("d"), 1.0, 1.3),
        ):
            coeffs = elliptic_poly(fam, lam)
            for branch in ("+", "-"):
                x = lift_fiber(fam, lam, t0, branch)
                t, y = sheet_sqrt(fam, lam, x)
                assert abs(t - t0) < 1e-9
                assert abs(y * y - complex(np.polyval(coeffs, t))) <= 1e-9 * max(
                    1.0, abs(y) ** 2
                )


class TestCriticalComponents:
    @pytest.mark.parametrize(
        "tag,lam",
        [
            ("b1", 1), ("b1", Fraction(4, 3)), ("b1", INF), ("b1", 0),
            ("b2", 1), ("b2", Fraction(4, 3)), ("b2", INF),
            ("c1", Fraction(27, 64)), ("c1", INF),
            ("c2", Fraction(-9, 64)), ("c2", INF),
            ("d", Fraction(-1, 3)), ("d", Fraction(-9, 32)),
            ("d", Fraction(-1, 4)), ("d", INF),
            ("a1", INF), ("a2", INF),
        ],
    )
    def test_component_products(self, tag, lam):
        fam = BilliardFamily.parse(tag, 2 if tag in ("a1", "a2") else None)
        assert component_product_residual(fam, lam) <= 1e-8

    def test_component_counts(self):
        assert len(critical_fiber_components(BilliardFamily("b1"), Fraction(4, 3))) == 2
        assert len(critical_fiber_components(BilliardFamily("d"), Fraction(-1, 3))) == 2
        assert len(critical_fiber_components(BilliardFamily("d"), INF)) == 3
        assert len(critical_fiber_components(BilliardFamily("c2"), Fraction(-9, 64))) == 3

    def test_regular_value_rejected(self):
        with pytest.raises(ValueError):
            critical_fiber_components(BilliardFamily("b1"), 7.0)

    def test_parametrizations_lie_on_components(self):
        # every critical cell with a parametrized component, each component
        # taken at random parameters and at t = inf
        rng = _rng_for(10, "comp-param")
        cases = [
            (BilliardFamily("b1"), 0),
            (BilliardFamily("a2", 2), INF),
            (BilliardFamily("b1"), 1), (BilliardFamily("b1"), Fraction(4, 3)),
            (BilliardFamily("b1"), INF),
            (BilliardFamily("b2"), 1), (BilliardFamily("b2"), Fraction(4, 3)),
            (BilliardFamily("b2"), INF),
            (BilliardFamily("c2"), Fraction(-9, 64)),
            (BilliardFamily("d"), Fraction(-1, 3)),
            (BilliardFamily("d"), Fraction(-1, 4)),
            (BilliardFamily("d"), Fraction(-9, 32)),
            (BilliardFamily("d"), INF),
        ]
        for fam, lam in cases:
            for comp in critical_fiber_components(fam, lam):
                if comp.parametrize is None:
                    continue
                poly = comp.poly
                d = poly.total_degree
                scale = max(abs(complex(c)) for c in poly.coeffs.values())
                ts = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(25)]
                for t in ts + [INF]:
                    pt = comp.parametrize(t)
                    zc, wc, tc = pt.coords
                    val = sum(
                        complex(c) * zc**i * wc**j * tc ** (d - i - j)
                        for (i, j), c in poly.coeffs.items()
                    )
                    assert abs(val) <= 1e-8 * scale

    def test_points_at_infinity(self):
        # the point at t = inf of each level curve and parametrized component
        aff = ProjectivePoint.affine
        for fam, lam in (
            (BilliardFamily("a1", 1), 2.0), (BilliardFamily("a1", 3), 0.5 + 1.0j),
            (BilliardFamily("a2", 1), 2.0), (BilliardFamily("a2", 3), 0.5 + 1.0j),
            (BilliardFamily("b1"), 2.0), (BilliardFamily("b1"), 0.5 + 0.5j),
        ):
            assert parametrize_level(fam, lam, INF).eq(E_INFINITY), (fam.label(), lam)
        for lam in (1.0, 3.0, 0.5 + 0.3j):
            v = -lam / (8 * lam + 1)
            assert parametrize_level(BilliardFamily("d"), lam, INF).eq(aff(v, v)), lam

        def at_inf(fam, lam):
            comps = critical_fiber_components(fam, lam)
            return {c.name: c.parametrize(INF) for c in comps if c.parametrize}

        b1, d = BilliardFamily("b1"), BilliardFamily("d")
        assert at_inf(b1, 1)["cubic"].eq(aff(0.0, -1.0))
        conics = at_inf(b1, Fraction(4, 3))
        assert conics["conic w = 3z^2/(4z-1)"].eq(E_INFINITY)
        assert conics["conic w = z(4-3z)"].eq(aff(1 / 3, 1.0))
        cubics = at_inf(d, Fraction(-1, 3))
        assert cubics["cubic w(4z-1) = -z^2(5z-8)"].eq(aff(-0.2, -0.2))
        assert cubics["cubic"].eq(aff(0.4, 1.6))
        assert at_inf(d, Fraction(-9, 32))["quartic"].eq(aff(-9 / 40, -9 / 40))
        (sextic,) = at_inf(d, Fraction(-1, 4)).values()
        assert sextic.eq(aff(-0.25, -0.25))
        lines = []
        for fam, lam in (
            (BilliardFamily("a2", 2), INF), (b1, 1), (b1, INF), (BilliardFamily("b2"), INF),
            (d, INF),
        ):
            lines += [(n, p) for n, p in at_inf(fam, lam).items() if n.startswith("line")]
        assert len(lines) == 7
        for name, pt in lines:
            target = ProjectivePoint(1.0, 1.0, 0.0) if name == "line z = w" else E_INFINITY
            assert pt.eq(target), name

    def test_quartic_component_against_parametrization(self):
        # the implicit quartic of the d-family level -9/32 is derived by
        # exact division; its vanishing on the published parametrization is
        # the independent consistency check
        fam = BilliardFamily("d")
        comps = critical_fiber_components(fam, Fraction(-9, 32))
        quartic = next(c for c in comps if c.degree == 4)
        assert quartic.poly.is_exact()
        pt = quartic.parametrize(-4.0)
        assert pt.eq(ProjectivePoint.affine(0.1, -0.8))  # the critical point


# every critical cell: components as (name, degree, multiplicity,
# parametrized) and the fiber as (genus, covering, over) per component; None
# where fiber_type has no table
_B, _D = "bijective", "double"
_SIX_CONICS = [(0, _B, f"conic #{k}") for k in range(3) for _ in range(2)]
_PARABOLA = ([("parabola", 2, 3, True)], [(0, _B, "parabola (multiple)")])
_PARABOLA_SQ = ([("parabola", 2, 2, True)], [(0, _B, "parabola (multiple)")])
_B_43 = [(0, _D, "conic #0"), (0, _D, "conic #1")]
_IMG = " (b-equivalence image)"
CRITICAL_CELLS = {
    ("a1", 0): _PARABOLA,
    ("a1", INF): ([("parabola w = -8 z^2", 2, 2, False)], None),
    ("a2", 0): _PARABOLA_SQ,
    ("a2", INF): ([("line z = 0", 1, 1, True), ("parabola w = -3 z^2", 2, 1, False)], None),
    ("b1", 0): _PARABOLA_SQ,
    ("b1", 1): (
        [("line z = 0", 1, 1, True), ("cubic", 3, 1, True)],
        [(0, _D, "line"), (0, _B, "cubic"), (0, _B, "cubic")],
    ),
    ("b1", Fraction(4, 3)): (
        [("conic w = 3z^2/(4z-1)", 2, 1, True), ("conic w = z(4-3z)", 2, 1, True)], _B_43
    ),
    ("b1", INF): (
        [("conic w + 3z^2", 2, 1, False), ("line z = 1", 1, 1, True), ("line z = w", 1, 1, True)],
        None,
    ),
    ("b2", 0): _PARABOLA_SQ,
    ("b2", 1): (
        [("line z = 0" + _IMG, 1, 1, True), ("cubic" + _IMG, 3, 1, True)],
        [(0, _D, "conic (b-equivalence image of a line)"), (0, _B, "cubic"), (0, _B, "cubic")],
    ),
    ("b2", Fraction(4, 3)): (
        [("conic w = 3z^2/(4z-1)" + _IMG, 2, 1, True), ("conic w = z(4-3z)" + _IMG, 2, 1, True)],
        _B_43,
    ),
    ("b2", INF): (
        [("conic z^2+w^2+w+1", 2, 1, False), ("line z = i", 1, 1, True), ("line z = -i", 1, 1, True)],
        None,
    ),
    ("c1", 0): _PARABOLA,
    ("c1", Fraction(27, 64)): ([(f"conic #{k}", 2, 1, False) for k in range(3)], _SIX_CONICS),
    ("c1", INF): ([("cubic 1 + w^3 - 2zw", 3, 2, False)], [(0, _B, "cubic")] * 2),
    ("c2", 0): _PARABOLA,
    ("c2", Fraction(-9, 64)): (
        [
            ("conic w + 8z^2", 2, 1, True),
            ("conic 9(w-z)^2 + w - z^2", 2, 1, False),
            ("conic 9(z-1)^2 + w - z^2", 2, 1, False),
        ],
        _SIX_CONICS,
    ),
    ("c2", INF): ([("cubic", 3, 2, False)], [(0, _B, "cubic")] * 2),
    ("d", 0): _PARABOLA,
    ("d", Fraction(-1, 3)): (
        [("cubic w(4z-1) = -z^2(5z-8)", 3, 1, True), ("cubic", 3, 1, True)],
        [(0, _D, "cubic #0"), (0, _D, "cubic #1")],
    ),
    ("d", Fraction(-1, 4)): (
        [("irreducible sextic (degenerate cusp at the origin)", 6, 1, True)],
        [(1, _D, "level curve")],
    ),
    ("d", Fraction(-9, 32)): (
        [("quartic", 4, 1, True), ("conic w + 8z^2 - 9zw", 2, 1, True)],
        [(0, _B, "quartic"), (0, _B, "quartic"), (0, _D, "conic")],
    ),
    ("d", INF): (
        [("conic w + 8z^2", 2, 1, True), ("line z = 1", 1, 1, True), ("cubic", 3, 1, False)],
        [(0, _B, "conic w + 8z^2")] * 2 + [(0, _D, "line z = 1")] + [(0, _B, "cubic")] * 2,
    ),
}


@pytest.mark.parametrize("tag", ["a1", "a2", "b1", "b2", "c1", "c2", "d"])
def test_critical_cells_pinned(tag):
    fam = BilliardFamily.parse(tag)
    values = critical_values(fam)
    assert len(values) == sum(1 for t, _ in CRITICAL_CELLS if t == tag)
    for lam in values:
        comps, fiber = next(
            cell for (t, v), cell in CRITICAL_CELLS.items()
            if t == tag and SphereValue.coerce(v) == lam
        )
        got = [
            (c.name, c.degree, c.multiplicity, c.parametrize is not None)
            for c in critical_fiber_components(fam, lam)
        ]
        assert got == comps, (tag, lam)
        if fiber is None:
            with pytest.raises(ValueError):
                fiber_type(fam, lam)
            continue
        model = fiber_type(fam, lam)
        assert [(c.genus, c.covering, c.over) for c in model.components] == fiber, (tag, lam)
        assert len(model.components) == len(fiber)


class TestFiberTables:
    def test_counts(self):
        assert len(fiber_type(BilliardFamily("c1"), 1.0).components) == 2
        assert len(fiber_type(BilliardFamily("d"), INF).components) == 5
        assert len(fiber_type(BilliardFamily("b1"), 1).components) == 3
        assert len(fiber_type(BilliardFamily("c1"), Fraction(27, 64)).components) == 6
        assert len(fiber_type(BilliardFamily("d"), Fraction(-9, 32)).components) == 3
        assert len(fiber_type(BilliardFamily("a1", 1), 2.0).components) == 2
        assert len(fiber_type(BilliardFamily("a2", 1), 2.0).components) == 1

    def test_genus_entries(self):
        model = fiber_type(BilliardFamily("c1"), 1.0)
        assert all(c.genus == 1 and c.covering == "bijective" for c in model.components)
        model = fiber_type(BilliardFamily("b1"), 2.0)
        assert model.components[0].genus == 1
        assert model.components[0].covering == "double"
        assert len(model.components[0].branch_parameters) == 4

    def test_level_curve_model_kinds(self):
        # a regular b1 level is parametrized, a c1 level is elliptic and has
        # no parametrization, and b1's critical level 1 splits into components
        b1, c1 = BilliardFamily("b1"), BilliardFamily("c1")
        assert is_regular(b1, 2.0) and b1.spec.level_curves == "rational"
        assert parametrize_level(b1, 2.0, 0.5) is not None
        assert is_regular(c1, 2.0) and c1.spec.level_curves == "elliptic"
        with pytest.raises(ValueError):
            parametrize_level(c1, 2.0, 0.5)
        assert not is_regular(b1, 1.0)
        assert len(critical_fiber_components(b1, SphereValue(1))) > 1


class TestSlicing:
    def test_c_families(self):
        rng = random.Random(3)
        for tag in ("c1", "c2"):
            fam = BilliardFamily(tag)
            pt = point_on_level(fam, 1.0, rng)
            v = eval_integral(fam, pt)
            assert abs(v.value - 1.0) <= 1e-8

    @pytest.mark.parametrize(
        "tag,lam", [("c1", 0), ("c1", Fraction(27, 64)), ("c2", 0), ("c2", Fraction(-9, 64))]
    )
    def test_critical_level_refused(self, tag, lam):
        with pytest.raises(ValueError, match="critical value"):
            point_on_level(BilliardFamily(tag), lam, random.Random(3))


class TestSpecFidelityExtras:
    def test_elliptic_poly_formula_d(self):
        import numpy as np
        from dualbill.curves import elliptic_poly
        from dualbill.billiards import BilliardFamily

        lam = 1.0
        got = elliptic_poly(BilliardFamily("d"), lam)
        want = np.polymul(
            [1.0, 4.0],
            [9 * lam**2 + lam, 36 * lam**2 - 3 * lam, -36 * lam, 9.0],
        )
        assert np.allclose(got, want)

    def test_swapping_cycles_permutes_generators(self):
        # any two of the last three doubled half-periods give the same
        # lattice: the closure cycle can take the place of either generator
        for tag, lam in (("b1", 2.0), ("d", 1.0)):
            m = elliptic_model(BilliardFamily(tag), lam)
            w1, w2, w3 = (2.0 * h for h in m.half_periods[-3:])
            scale = max(abs(w1), abs(w2))
            for basis in ((w1, w3), (w3, w2)):
                for w in (w1, w2, w3):
                    assert abs(lattice_reduce(w, *basis)) <= 1e-12 * scale
                for w in basis:
                    assert abs(m.lattice_reduce(w)) <= 1e-12 * scale

    def test_model_keeps_sorted_roots(self):
        m = elliptic_model(BilliardFamily("d"), 1.0)
        assert sorted(m.roots, key=lambda r: (round(r.real, 12), round(r.imag, 12))) == m.roots
        assert m.half_periods[0] == 0  # the quartic's base branch point
        assert m.periods == (2.0 * m.half_periods[1], 2.0 * m.half_periods[2])


class TestCEquivalenceOnComponents:
    def test_c_map_carries_critical_conics(self):
        # the c-family equivalence must carry the three critical conics of
        # the c2 integral onto the three critical conics of the c1 integral
        from fractions import Fraction

        from dualbill.curves import _substitute_projective
        from dualbill.geometry import c_family_equivalence

        mc_inv = c_family_equivalence().inverse().matrix
        c1_comps = critical_fiber_components(BilliardFamily("c1"), Fraction(27, 64))
        c2_comps = critical_fiber_components(BilliardFamily("c2"), Fraction(-9, 64))
        for comp in c2_comps:
            image = _substitute_projective(comp.poly, mc_inv)
            residuals = [image.proportional_residual(t.poly) for t in c1_comps]
            assert min(residuals) <= 1e-9


class TestTauRecovery:
    def test_square_relation(self):
        # the recovered fiber parameter satisfies tau^2 (z^2 - w) = z^2
        fam = BilliardFamily("a1", 2)
        for t0 in (1.9, 0.7 + 0.4j):
            x = lift_fiber(fam, 1.5, t0, "+")
            tau = curve_parameter(fam, x).value
            z, w = x.q.affine_pair()
            assert abs(tau * tau * (z * z - w) - z * z) <= 1e-9 * abs(z * z)


class TestComponentSingularPoints:
    """Cusps and double points of the critical components, verified by
    vanishing gradients of the component polynomials."""

    @staticmethod
    def _grad_at(poly, z, w):
        return complex(poly.diff_z()(z, w)), complex(poly.diff_w()(z, w))

    def test_b1_level1_cubic_cusp(self):
        comps = critical_fiber_components(BilliardFamily("b1"), 1)
        cubic = next(c for c in comps if c.degree == 3)
        assert abs(cubic.poly(1.0, 1.0)) < 1e-14
        gz, gw = self._grad_at(cubic.poly, 1.0, 1.0)
        assert max(abs(gz), abs(gw)) < 1e-14
        # the cusp parameter is the double root t = 2 of the parametrization
        assert cubic.parametrize(2.0).eq(ProjectivePoint.affine(1.0, 1.0))

    def test_d_932_quartic_cusp(self):
        comps = critical_fiber_components(BilliardFamily("d"), Fraction(-9, 32))
        quartic = next(c for c in comps if c.degree == 4)
        assert abs(quartic.poly(1.0, 1.0)) < 1e-12
        gz, gw = self._grad_at(quartic.poly, 1.0, 1.0)
        assert max(abs(gz), abs(gw)) < 1e-12
        assert quartic.parametrize(-16.0 / 7.0).eq(ProjectivePoint.affine(1.0, 1.0))

    def test_d_infinity_cubic_cusp(self):
        comps = critical_fiber_components(BilliardFamily("d"), INF)
        cubic = next(c for c in comps if c.degree == 3)
        assert abs(cubic.poly(1.0, 1.0)) < 1e-14
        gz, gw = self._grad_at(cubic.poly, 1.0, 1.0)
        assert max(abs(gz), abs(gw)) < 1e-14

    def test_c_cubic_double_points(self):
        from dualbill.integrals import BiPoly

        # the c1 pole cubic has its double point at [1:0:0]: in the chart
        # z = 1 the homogenization t^3 + w^3 - 2wt has vanishing gradient at
        # the origin
        comps = critical_fiber_components(BilliardFamily("c1"), INF)
        cubic = comps[0].poly
        chart = cubic.homogenized_chart(3, 0)  # coords (w, t)
        gz, gw = complex(chart.diff_z()(0.0, 0.0)), complex(chart.diff_w()(0.0, 0.0))
        assert abs(chart(0.0, 0.0)) < 1e-14
        assert max(abs(gz), abs(gw)) < 1e-14
        # the c2 pole cubic has its double point at (1/2, 1)
        comps = critical_fiber_components(BilliardFamily("c2"), INF)
        cubic = comps[0].poly
        assert abs(cubic(0.5, 1.0)) < 1e-14
        gz, gw = self._grad_at(cubic, 0.5, 1.0)
        assert max(abs(gz), abs(gw)) < 1e-14


class TestCubicTangencyParameters:
    def test_c1_pole_cubic_tangency_pair(self):
        # points of the c1 pole curve are z = (1+w^3)/(2w); their two
        # tangency parameters on the parabola are exactly w^2 and 1/w
        from dualbill.geometry import tangency_points

        rng = _rng_for(23, "cubic-tangency")
        for _ in range(25):
            w = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
            z = (1.0 + w**3) / (2.0 * w)
            if abs(z * z - w) < 1e-3:
                continue
            got = sorted(
                tangency_points(ProjectivePoint.affine(z, w)),
                key=lambda c: (round(c.real, 9), round(c.imag, 9)),
            )
            want = sorted(
                (w * w, 1.0 / w), key=lambda c: (round(c.real, 9), round(c.imag, 9))
            )
            for g, t in zip(got, want):
                assert abs(g - t) <= 1e-9 * max(1.0, abs(t))


class TestReducedParametrization:
    def test_b1_one_third_cancellation(self):
        # at level 1/3 the quartic parametrization degenerates smoothly to
        # (t(2t+1)/((t-1)(4-t)), -3t^2(2t+1)/(4-t)^2)
        lam = 1.0 / 3.0
        for t in (0.7, 2.5, -1.2 + 0.4j):
            got = parametrize_level(BilliardFamily("b1"), lam, t)
            want = ProjectivePoint.affine(
                t * (2 * t + 1) / ((t - 1) * (4 - t)),
                -3 * t * t * (2 * t + 1) / (4 - t) ** 2,
            )
            assert got.eq(want)


class TestBEquivalenceOnParabola:
    def test_maps_parabola_to_parabola(self):
        from dualbill.geometry import b_family_equivalence, on_conic

        psi = b_family_equivalence()
        rng = _rng_for(24, "psi-parabola")
        for _ in range(50):
            z0 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            img = psi(conic_point(z0))
            assert on_conic(img)


def _coords(x):
    if isinstance(x, PhasePoint):
        return _coords(x.q) + _coords(x.p)
    return tuple(complex(c) for c in x.coords)


class TestB2IsTheImageOfB1:
    """Every b2 curve function equals the b-equivalence image of b1's, bit
    for bit."""

    def test_b2_functions_are_images_of_b1(self):
        from dualbill.geometry import b_family_equivalence

        psi = b_family_equivalence()
        psi_inv = psi.inverse()
        b1, b2 = BilliardFamily("b1"), BilliardFamily("b2")
        rng = _rng_for(27, "b2-image")
        for _ in range(20):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            t = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            branch = rng.choice("+-")
            q1 = parametrize_level(b1, lam, t)
            assert _coords(parametrize_level(b2, lam, t)) == _coords(psi(q1))
            x1 = lift_fiber(b1, lam, t, branch)
            x2 = lift_fiber(b2, lam, t, branch)
            assert _coords(x2) == _coords(PhasePoint(psi(x1.q), psi(x1.p)))
            back = PhasePoint(psi_inv(x2.q), psi_inv(x2.p))
            assert curve_parameter(b2, x2) == curve_parameter(b1, back)
            assert sheet_sqrt(b2, lam, x2) == sheet_sqrt(b1, lam, back)
            assert branch_points(b2, lam) == branch_points(b1, lam)
            assert elliptic_poly(b2, lam).tolist() == elliptic_poly(b1, lam).tolist()


def test_curve_models_match_the_family_specs():
    """The families with a curve model, directly or as an image, are those
    with rational level curves; the models with p(t) are the elliptic
    fibers'."""
    from dualbill.curves import _MODELS, _resolve
    from dualbill.families import ALL_FAMILY_TAGS, FAMILIES

    modelled = {
        tag for tag in ALL_FAMILY_TAGS
        if tag in _MODELS or getattr(FAMILIES[tag].image_of, "base", None) in _MODELS
    }
    assert modelled == {t for t in ALL_FAMILY_TAGS if FAMILIES[t].level_curves == "rational"}
    for tag in ALL_FAMILY_TAGS:
        model = _resolve(BilliardFamily.parse(tag))[0]
        assert (model is not None) == (tag in modelled)
        elliptic = model is not None and model.p is not None
        assert elliptic == FAMILIES[tag].elliptic_fiber
        assert elliptic == (model is not None and model.h is not None)


class TestLevelCurveImplicit:
    def test_elliptic_kind_carries_implicit_polynomial(self):
        # an elliptic c1 level is carried by its level polynomial alone
        implicit = first_integral(BilliardFamily("c1")).level_polynomial(Fraction(2))
        pt = point_on_level(BilliardFamily("c1"), 2.0, random.Random(5))
        z, w = pt.affine_pair()
        scale = max(abs(complex(c)) for c in implicit.coeffs.values())
        assert abs(implicit(z, w)) <= 1e-7 * scale * max(1.0, abs(z), abs(w)) ** 6


class TestConicContactStructure:
    """At the shared base points the critical conics meet tangentially;
    at the tabulated extra intersection points they meet transversally."""

    @staticmethod
    def _gradient(poly, pt):
        # gradient of the homogenized polynomial in the chart where the
        # point has its largest coordinate
        import numpy as np

        chart = int(np.argmax(np.abs(pt.coords)))
        d = poly.total_degree
        cp = poly.homogenized_chart(d, chart)
        pivot = pt.coords[chart]
        others = [c / pivot for i, c in enumerate(pt.coords) if i != chart]
        return complex(cp.diff_z()(*others)), complex(cp.diff_w()(*others))

    @staticmethod
    def _angle(g1, g2):
        cross = g1[0] * g2[1] - g1[1] * g2[0]
        n1 = abs(g1[0]) + abs(g1[1])
        n2 = abs(g2[0]) + abs(g2[1])
        return abs(cross) / (n1 * n2)

    def test_c2_conics(self):
        comps = critical_fiber_components(BilliardFamily("c2"), Fraction(-9, 64))
        polys = [c.poly for c in comps]
        tangency_pts = [
            ProjectivePoint.affine(0.0, 0.0),
            ProjectivePoint.affine(1.0, 1.0),
            E_INFINITY,
        ]
        transversal_pts = [
            ProjectivePoint.affine(1.25, 1.0),
            ProjectivePoint.affine(-0.25, -0.5),
            ProjectivePoint.affine(0.5, -2.0),
        ]
        for pts, expect_tangent in ((tangency_pts, True), (transversal_pts, False)):
            for pt in pts:
                on = [
                    p for p in polys
                    if abs(
                        sum(
                            complex(c)
                            * pt.coords[0] ** i
                            * pt.coords[1] ** j
                            * pt.coords[2] ** (p.total_degree - i - j)
                            for (i, j), c in p.coeffs.items()
                        )
                    ) <= 1e-10
                ]
                assert len(on) == 2
                angle = self._angle(
                    self._gradient(on[0], pt), self._gradient(on[1], pt)
                )
                if expect_tangent:
                    assert angle <= 1e-10
                else:
                    assert angle >= 1e-2


class TestBranchTangencyToPoleConic:
    def test_d_level_branches_tangent_to_conic_at_origin(self):
        # both local branches of a regular d-level curve at the origin are
        # tangent to the conic w = -8 z^2 (slope 0 through the origin, with
        # matching curvature -8 at leading order)
        import numpy as np

        lam = 1.0
        fam = BilliardFamily("d")
        h = 1e-5
        for r in np.roots([lam, 12 * lam, -9.0]):
            t0 = complex(r)
            zp, wp = parametrize_level(fam, lam, t0 + h).affine_pair()
            zm, wm = parametrize_level(fam, lam, t0 - h).affine_pair()
            dz = (zp - zm) / (2 * h)
            dw = (wp - wm) / (2 * h)
            assert abs(dw / dz) <= 1e-3  # tangent line w = 0 at the origin
            # curvature of the branch matches the conic: w ~ -8 z^2
            assert abs(wp / (zp * zp) + 8.0) <= 1e-2
