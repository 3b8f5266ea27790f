import cmath
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from dualbill import integrals, verify
from dualbill.billiards import BilliardFamily, involution, orbit
from dualbill.curves import lift_fiber
from dualbill.geometry import E_INFINITY, PhasePoint, ProjectivePoint, conic_point, cross_norm
from dualbill.integrals import (
    BASE_POINT_GUARD,
    BiPoly,
    IndeterminacyError,
    coefficients_a1,
    coefficients_a2,
    critical_values,
    eval_integral,
    first_integral,
    gradient,
    gradient_hessian_projective,
    indeterminacy_set,
)
from dualbill.numerics import INF, SphereValue, sphere_eq
from dualbill.verify import SINGULAR_GUARD, _rng_for


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

ALL = [
    BilliardFamily("a1", 1),
    BilliardFamily("a1", 2),
    BilliardFamily("a2", 1),
    BilliardFamily("a2", 3),
    BilliardFamily("b1"),
    BilliardFamily("b2"),
    BilliardFamily("c1"),
    BilliardFamily("c2"),
    BilliardFamily("d"),
]


class TestCoefficients:
    def test_a1_examples(self):
        assert coefficients_a1(1) == [Fraction(-8)]
        assert coefficients_a1(2) == [Fraction(-16, 9), Fraction(-24)]

    def test_a2_examples(self):
        assert coefficients_a2(1) == [Fraction(-3)]
        assert coefficients_a2(2) == [Fraction(-5, 4), Fraction(-8)]

    def test_never_one(self):
        for n in range(1, 21):
            assert all(c != 1 for c in coefficients_a1(n))
            assert all(c != 1 for c in coefficients_a2(n))
            assert len(coefficients_a2(n)) == n

    def test_bad_n(self):
        with pytest.raises(ValueError):
            coefficients_a1(0)


class _Gauss:
    """An exact Gaussian rational re + i im, with the ring operations that
    :meth:`BiPoly.eval_exact` applies to its arguments."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x) -> "_Gauss":
        return x if isinstance(x, _Gauss) else _Gauss(x)

    def __add__(self, o):
        o = _Gauss.of(o)
        return _Gauss(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __mul__(self, o):
        o = _Gauss.of(o)
        return _Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = _Gauss(1)
        for _ in range(n):
            out = out * self
        return out

    def __complex__(self):
        return complex(float(self.re), float(self.im))


class TestBiPoly:
    def test_exact_arithmetic(self):
        z, w = BiPoly.var_z(), BiPoly.var_w()
        p = (w - z * z).power(2)
        assert p.coeffs[(4, 0)] == 1
        assert p.coeffs[(2, 1)] == -2
        assert p.is_exact()

    def test_eval_matches_exact(self):
        z, w = BiPoly.var_z(), BiPoly.var_w()
        p = (w - z * z) * (z + w.scale(Fraction(1, 3)))
        zv, wv = Fraction(2, 7), Fraction(-3, 5)
        exact = p.eval_exact(zv, wv)
        approx = p(float(zv), float(wv))
        assert abs(approx - complex(exact)) < 1e-14

    def test_eval_matches_exact_at_gaussian_rationals(self):
        # every table the integrals evaluate, at points whose dyadic real and
        # imaginary parts are exact floats; the bound scales with the sum of
        # the terms' moduli, which is what rounding in Horner's rule follows
        rng = random.Random("bipoly-gauss")
        for fam in ALL:
            integ = first_integral(fam)
            tables = [integ.num, integ.den] + [
                p for pair in integ._derivative_tables for half in pair for p in half
            ]
            for _ in range(3):
                z, w = (_Gauss(*(Fraction(rng.randint(-96, 96), 64) for _ in range(2))) for _ in "zw")
                for p in tables:
                    want = complex(_Gauss.of(p.eval_exact(z, w)))
                    scale = sum(abs(c) * abs(complex(z)) ** i * abs(complex(w)) ** j
                                for (i, j), c in p.coeffs.items())
                    assert abs(p(complex(z), complex(w)) - want) <= 1e-14 * scale, (fam, p)

    def test_derivative(self):
        z, w = BiPoly.var_z(), BiPoly.var_w()
        p = z * z * w
        assert p.diff_z().coeffs == {(1, 1): 2}
        assert p.diff_w().coeffs == {(2, 0): 1}

    def test_restrict_line(self):
        z, w = BiPoly.var_z(), BiPoly.var_w()
        p = w - z * z
        coeffs = p.restrict_line((1.0, 1.0), (1.0, 2.0))
        # along the tangent line at (1,1): w - z^2 = -s^2
        assert abs(coeffs[0]) < 1e-14 and abs(coeffs[1]) < 1e-14
        assert abs(coeffs[2] + 1) < 1e-14

    def test_proportionality(self):
        z, w = BiPoly.var_z(), BiPoly.var_w()
        p = w - z * z
        assert p.proportional_to(p.scale(Fraction(-3, 7)))
        assert not p.proportional_to(w + z)


class TestEval:
    def test_b1_values(self):
        b1 = BilliardFamily("b1")
        v = eval_integral(b1, ProjectivePoint.affine(0.0, -1.0))
        assert abs(v.value - 1.0) < 1e-12
        v = eval_integral(b1, ProjectivePoint.affine(1 / 3, 1.0))
        assert abs(v.value - 4.0 / 3.0) < 1e-12

    def test_zero_on_parabola(self):
        for fam in ALL:
            v = eval_integral(fam, conic_point(1.7))
            assert abs(v.value) < 1e-12

    def test_pole_gives_infinity(self):
        d = BilliardFamily("d")
        assert eval_integral(d, ProjectivePoint.affine(1.0, 3.0)).is_inf

    def test_infinite_point_chart(self):
        b2 = BilliardFamily("b2")
        v = eval_integral(b2, ProjectivePoint(1.0, 0.0, 0.0))
        assert abs(v.value - 1.0) < 1e-12

    def test_indeterminacy_guard(self):
        b1 = BilliardFamily("b1")
        with pytest.raises(IndeterminacyError):
            eval_integral(b1, ProjectivePoint.affine(1e-10, 1e-10))

    def test_degree_table(self):
        for n in (1, 2, 3):
            integ = first_integral(BilliardFamily("a1", n))
            assert integ.degree == 4 * n + 2
        assert first_integral(BilliardFamily("b1")).degree == 4
        assert first_integral(BilliardFamily("d")).degree == 6

    def test_numerator_is_conic_power(self):
        for fam in ALL:
            integ = first_integral(fam)
            z, w = BiPoly.var_z(), BiPoly.var_w()
            assert integ.num.proportional_to((w - z * z).power(integ.zero_order))


class TestGradient:
    def test_critical_points_have_zero_gradient(self):
        b1 = BilliardFamily("b1")
        gz, gw = gradient(b1, ProjectivePoint.affine(0.0, -1.0))
        assert max(abs(gz), abs(gw)) < 1e-12
        d = BilliardFamily("d")
        gz, gw = gradient(d, ProjectivePoint.affine(0.4, 1.6))
        assert max(abs(gz), abs(gw)) < 1e-12

    def test_matches_finite_differences(self):
        rng = _rng_for(21, "grad-fd")
        h = 1e-6
        for fam in ALL:
            for _ in range(10):
                x = _unconditioned_point(fam, rng)
                q = x.q
                if q.is_infinite:
                    continue
                z, w = q.affine_pair()
                try:
                    gz, gw = gradient(fam, q)
                    vp = eval_integral(fam, ProjectivePoint.affine(z + h, w)).value
                    vm = eval_integral(fam, ProjectivePoint.affine(z - h, w)).value
                    wp = eval_integral(fam, ProjectivePoint.affine(z, w + h)).value
                    wm = eval_integral(fam, ProjectivePoint.affine(z, w - h)).value
                except Exception:
                    continue
                fd_z = (vp - vm) / (2 * h)
                fd_w = (wp - wm) / (2 * h)
                scale = max(1.0, abs(gz), abs(gw))
                assert abs(fd_z - gz) <= 1e-6 * scale
                assert abs(fd_w - gw) <= 1e-6 * scale

    def test_gradient_raises_at_pole(self):
        d = BilliardFamily("d")
        with pytest.raises(ValueError):
            gradient(d, ProjectivePoint.affine(1.0, 3.0))


def _exact_jet(num: BiPoly, den: BiPoly, a: Fraction, b: Fraction):
    """Gradient and Hessian of num/den at a rational point by the quotient
    rule in exact arithmetic."""

    def at(p):
        return p.eval_exact(a, b)

    n, d = at(num), at(den)
    nz, nw, dz, dw = at(num.diff_z()), at(num.diff_w()), at(den.diff_z()), at(den.diff_w())

    def second(n_xy, d_xy, nx, ny, dx, dy):
        return (
            n_xy * d * d - nx * dy * d - ny * dx * d - n * d_xy * d + 2 * n * dx * dy
        ) / d**3

    grad = ((nz * d - n * dz) / d**2, (nw * d - n * dw) / d**2)
    hzz = second(at(num.diff_z().diff_z()), at(den.diff_z().diff_z()), nz, nz, dz, dz)
    hzw = second(at(num.diff_z().diff_w()), at(den.diff_z().diff_w()), nz, nw, dz, dw)
    hww = second(at(num.diff_w().diff_w()), at(den.diff_w().diff_w()), nw, nw, dw, dw)
    return grad, ((hzz, hzw), (hzw, hww))


class TestDerivativeOracle:
    """The gradient and Hessian against the exact quotient rule at dyadic
    points, whose float coordinates are exactly the rational oracle point."""

    @staticmethod
    def _close(got, want) -> bool:
        want = [complex(float(x)) for x in want]
        scale = max(abs(x) for x in want)
        return max(abs(g - x) for g, x in zip(got, want)) <= 1e-12 * scale

    @pytest.mark.parametrize("chart", [0, 1, 2])
    @pytest.mark.parametrize("reciprocal", [False, True])
    def test_projective_in_each_chart(self, chart, reciprocal):
        rng = random.Random(f"jet:{chart}:{reciprocal}")
        for fam in ALL:
            integ = first_integral(fam)
            deg = integ.degree
            num = integ.num.homogenized_chart(deg, chart)
            den = integ.den.homogenized_chart(deg, chart)
            if reciprocal:
                num, den = den, num
            for _ in range(5):
                a, b = (Fraction(rng.randint(-60, 60), 64) for _ in range(2))
                coords = [float(a), float(b)]
                coords.insert(chart, 1.0)
                (gz, gw), hess = gradient_hessian_projective(
                    fam, ProjectivePoint(*coords), reciprocal=reciprocal
                )
                grad, h = _exact_jet(num, den, a, b)
                assert self._close((gz, gw), grad), (fam, chart, a, b)
                assert self._close(hess.ravel(), [x for row in h for x in row]), (fam, chart, a, b)

    def test_affine_gradient(self):
        rng = random.Random("jet:affine")
        for fam in ALL:
            integ = first_integral(fam)
            for _ in range(5):
                a, b = (Fraction(rng.randint(-200, 200), 64) for _ in range(2))
                grad, _ = _exact_jet(integ.num, integ.den, a, b)
                got = gradient(fam, ProjectivePoint.affine(float(a), float(b)))
                assert self._close(got, grad), (fam, a, b)


class TestTables:
    def test_indeterminacy_sets(self):
        assert len(indeterminacy_set(BilliardFamily("a1", 2))) == 2
        sigma_b2 = indeterminacy_set(BilliardFamily("b2"))
        assert any(p.eq(ProjectivePoint.affine(1j, -1.0)) for p in sigma_b2)
        assert any(p.eq(E_INFINITY) for p in sigma_b2)
        sigma_c1 = indeterminacy_set(BilliardFamily("c1"))
        assert len(sigma_c1) == 3
        assert not any(p.eq(E_INFINITY) for p in sigma_c1)

    def test_base_points_on_parabola_and_kill_both(self):
        from dualbill.geometry import on_conic

        for fam in ALL:
            integ = first_integral(fam)
            for bp in indeterminacy_set(fam):
                assert on_conic(bp)
                for poly in (integ.num, integ.den):
                    d = poly.total_degree
                    zc, wc, tc = bp.coords
                    val = sum(
                        complex(c) * zc**i * wc**j * tc ** (d - i - j)
                        for (i, j), c in poly.coeffs.items()
                    )
                    scale = max(abs(complex(c)) for c in poly.coeffs.values())
                    assert abs(val) <= 1e-10 * scale

    def test_critical_values(self):
        assert critical_values(BilliardFamily("b1"))[1:3] == [
            SphereValue(1),
            SphereValue(Fraction(4, 3)),
        ]
        cv_d = critical_values(BilliardFamily("d"))
        assert SphereValue(Fraction(-9, 32)) in cv_d
        assert INF in cv_d
        assert critical_values(BilliardFamily("c1"))[1] == SphereValue(Fraction(27, 64))

    @staticmethod
    def _points(family, lam):
        """The isolated critical points of the critical row of value lam."""
        (row,) = [row for row in family.spec.critical if row.value == SphereValue.coerce(lam)]
        return row.points

    def test_true_critical_points_examples(self):
        b1 = BilliardFamily("b1")
        pts = self._points(b1, INF)
        assert any(p.eq(ProjectivePoint.affine(1.0, -3.0)) for p in pts)
        d = BilliardFamily("d")
        assert list(self._points(d, Fraction(-1, 4))) == []
        pts = self._points(d, Fraction(-9, 32))
        assert len(pts) == 1 and pts[0].eq(ProjectivePoint.affine(0.1, -0.8))

    def test_noncritical_value_rejected(self):
        # 7 has no critical row: b1's table lists no critical point there
        assert SphereValue(7.0) not in critical_values(BilliardFamily("b1"))

    def test_morse_property(self):
        for fam in ALL:
            for lam in critical_values(fam):
                for cp in self._points(fam, lam):
                    (gz, gw), hess = gradient_hessian_projective(
                        fam, cp, reciprocal=lam.is_inf
                    )
                    assert abs(np.linalg.det(hess)) >= 1e-6
                    assert max(abs(gz), abs(gw)) <= 1e-8
                    if not lam.is_inf:
                        v = eval_integral(fam, cp)
                        assert sphere_eq(v, lam)

    def test_critical_indeterminacies_are_base_points(self):
        for fam in ALL:
            bps = indeterminacy_set(fam)
            for row in fam.spec.critical:
                for ip in row.indeterminacies:
                    assert any(ip.eq(bp) for bp in bps)


class TestInvariance:
    @pytest.mark.parametrize("tag,n", [("a1", 2), ("a2", 1), ("b1", None),
                                        ("b2", None), ("c1", None), ("c2", None), ("d", None)])
    def test_integral_invariant_under_involution(self, tag, n):
        fam = BilliardFamily(tag, n)
        rng = _rng_for(31, f"rinv:{fam.label()}")
        checked = 0
        while checked < 1000:
            x = _unconditioned_point(fam, rng)
            try:
                before = eval_integral(fam, x.q)
                img = involution(fam, x.p, x.q)
                after = eval_integral(fam, img)
            except Exception:
                continue
            if before.is_inf or after.is_inf:
                checked += 1
                continue
            assert abs(after.value - before.value) <= 1e-8 * max(1.0, abs(before.value))
            checked += 1


#: the eleven family instances of the default check suite
INSTANCES = [
    BilliardFamily(tag, n)
    for tag, n in (
        ("a1", 1), ("a1", 2), ("a1", 3), ("a2", 1), ("a2", 2), ("a2", 3),
        ("b1", None), ("b2", None), ("c1", None), ("c2", None), ("d", None),
    )
]


def _oracle(fam: BilliardFamily, coords):
    """R at the exact float point: the expanded num and den tables,
    homogenized to the common degree, summed exactly in rationals.  Returns
    the two parts of num/den as exact fractions and to 60 digits in mpmath,
    or None at a pole."""
    mpmath = pytest.importorskip("mpmath")
    integ = first_integral(fam)
    d = integ.degree
    z, w, t = ((Fraction(c.real), Fraction(c.imag)) for c in coords)

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def power(a, k):
        out = (Fraction(1), Fraction(0))
        for _ in range(k):
            out = mul(out, a)
        return out

    def form(poly):
        re = im = Fraction(0)
        for (i, j), c in poly.coeffs.items():
            mr, mi = mul(mul(power(z, i), power(w, j)), power(t, d - i - j))
            re, im = re + c * mr, im + c * mi
        return re, im

    (nr, ni), (dr, di) = form(integ.num), form(integ.den)
    if dr == di == 0:
        return None
    q = dr * dr + di * di
    parts = ((nr * dr + ni * di) / q, (ni * dr - nr * di) / q)
    with mpmath.workdps(60):
        return [(x, mpmath.mpf(x.numerator) / x.denominator) for x in parts]


def _oracle_points(fam: BilliardFamily, rng: random.Random) -> list:
    """Points in each chart, on and near the infinity line, with tiny
    coordinates, and just outside and just inside the guard of each base
    point."""

    def rc(r=0.7):
        return complex(rng.uniform(-r, r), rng.uniform(-r, r))

    pts = []
    for _ in range(4):
        pts += [ProjectivePoint(rc(), rc(), 1.0), ProjectivePoint(1.0, rc(), rc()),
                ProjectivePoint(rc(), 1.0, rc())]
    pts += [ProjectivePoint(1.0, rc(2.0), 0.0), ProjectivePoint(rc(), 1.0, 0.0)]
    pts += [ProjectivePoint(1e-300 * rc(), rc(), 1.0), ProjectivePoint(rc(), rc(), 1e-300 * rc()),
            ProjectivePoint(1.0, 1e-300 * rc(), 1e-300 * rc())]
    for bp in indeterminacy_set(fam):
        near = []
        while len(near) < 2:
            v = [rc(1.0) for _ in range(3)]
            p = ProjectivePoint(*(c + 2e-8 * dv for c, dv in zip(bp.coords, v)))
            if BASE_POINT_GUARD < cross_norm(p.coords, bp.coords) < 3e-8:
                near.append(p)
        pts += near
    for bp in indeterminacy_set(fam):
        inside = []
        while len(inside) < 2:
            v = [rc(1.0) for _ in range(3)]
            p = ProjectivePoint(*(c + 1e-8 * dv for c, dv in zip(bp.coords, v)))
            if 3e-9 < cross_norm(p.coords, bp.coords) <= BASE_POINT_GUARD:
                inside.append(p)
        pts += inside
    return pts


def _guard_loop(fam: BilliardFamily, point: ProjectivePoint):
    """The base point whose guard refuses the point, by the loop over the
    base points that eval_integral's guard writes out, or None."""
    coords = point.coords
    z, w, t = coords
    for bp in indeterminacy_set(fam):
        b0, b1, b2 = bp.coords
        if (abs(w * b2 - t * b1) <= BASE_POINT_GUARD and abs(t * b0 - z * b2) <= BASE_POINT_GUARD
                and abs(z * b1 - w * b0) <= BASE_POINT_GUARD
                and cross_norm(coords, bp.coords) <= BASE_POINT_GUARD):
            return bp
    return None


class TestExactEvaluation:
    """eval_integral is R at the float point, exact and then correctly
    rounded, wherever the point lies."""

    # a1(8) and a2(8) raise the conic to the powers 17 and 9
    @pytest.mark.parametrize(
        "fam", INSTANCES + [BilliardFamily("a1", 8), BilliardFamily("a2", 8)],
        ids=lambda f: f.label(),
    )
    def test_matches_mpmath_oracle(self, fam):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(f"oracle:{fam.label()}")
        base = indeterminacy_set(fam)
        for p in _oracle_points(fam, rng):
            coords = p.coords
            if any(cross_norm(coords, bp.coords) <= BASE_POINT_GUARD for bp in base):
                with pytest.raises(IndeterminacyError):
                    eval_integral(fam, p)
                continue
            got = eval_integral(fam, p)
            parts = _oracle(fam, coords)
            if parts is None or max(abs(x) for x, _ in parts) > sys.float_info.max:
                assert got.is_inf, p
                continue
            for part, (exact, digits60) in zip((got.value.real, got.value.imag), parts):
                with mpmath.workdps(60):
                    assert abs(mpmath.mpf(part) - digits60) <= math.ulp(float(exact)), (p, part)
                assert part == float(exact), (p, part)  # correctly rounded

    @pytest.mark.parametrize(
        "fam", INSTANCES + [BilliardFamily("a1", 8)], ids=lambda f: f.label()
    )
    def test_compiled_products_are_the_forms(self, fam):
        # the integers of each kernel, written out with its coordinate k
        # real, against the expanded tables summed in exact Gaussian
        # rationals in the chart of k: t = 1, which holds the affine points,
        # and z = 1 and w = 1, which hold the points of the infinity line
        integ = first_integral(fam)
        forms = integ._exact
        d = integ.degree
        rng = random.Random(f"products:{fam.label()}")

        def gauss():
            return rng.randint(-2**60, 2**60), rng.randint(-2**60, 2**60)

        for chart in (2, 0, 1):
            num, den = (p.homogenized_chart(d, chart) for p in (integ.num, integ.den))
            for k in range(10):
                s = rng.randint(1, 2**60)  # the real coordinate of the chart
                a, b = gauss(), (0, 0) if k == 0 else gauss()
                x, y = (_Gauss(Fraction(c[0], s), Fraction(c[1], s)) for c in (a, b))
                nr, ni, dr, di = forms.kernel(chart)(*a, *b, s)
                for (re, im), scale, p in (((nr, ni), forms.num_scale, num),
                                           ((dr, di), forms.den_scale, den)):
                    want = _Gauss.of(p.eval_exact(x, y)) * (scale * s**d)
                    assert (re, im) == (want.re, want.im), (fam, chart, k)

    @pytest.mark.parametrize(
        "fam", INSTANCES + [BilliardFamily("a1", 8)], ids=lambda f: f.label()
    )
    def test_guard_is_the_loop_over_the_base_points(self, fam):
        # points at 0.5, 0.999, 1.001 and 2 guards from each base point, with
        # each coordinate as the pivot that can be one there, raise as the
        # guard written as a loop does, with its message
        rng = random.Random(f"guard:{fam.label()}")
        for bp in indeterminacy_set(fam):
            b = bp.coords
            top = max(map(abs, b))
            for pivot in (k for k in range(3) if abs(b[k]) > top - 1e-12):
                for ratio in (0.5, 0.999, 1.001, 2.0):
                    # a step that takes the other coordinates of modulus
                    # about 1 below it, scaled to the distance
                    unit = [c / b[pivot] for c in b]
                    step = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
                    step[pivot] = 0j
                    for k in range(3):
                        if k != pivot and abs(unit[k]) > 1 - 1e-12:
                            step[k] = -abs(step[k]) * unit[k]
                    size = cross_norm([u + c for u, c in zip(unit, step)], b)
                    coords = [u + c * (ratio * BASE_POINT_GUARD / size) for u, c in zip(unit, step)]
                    point = ProjectivePoint(*coords)
                    assert point.coords[pivot] == 1, (bp, pivot)
                    near = _guard_loop(fam, point)
                    assert (near is not None) == (ratio < 1), (bp, pivot, ratio)
                    try:
                        eval_integral(fam, point)
                        text = None
                    except IndeterminacyError as exc:
                        text = str(exc)
                    assert text == (near and str(IndeterminacyError(point, near))), (point, bp)

    def test_exact_zero_over_zero_raises(self, monkeypatch):
        # the guard catches every base point first, so switch it off
        monkeypatch.setattr(integrals, "BASE_POINT_GUARD", -1.0)
        for pt, text in ((ProjectivePoint.affine(0.0, 0.0), "0/0 at [0+0j : 0+0j : 1+0j]"),
                         (ProjectivePoint.affine(1.0, 1.0), "0/0 at [1+0j : 1+0j : 1+0j]"),
                         (E_INFINITY, "0/0 at [0+0j : 1+0j : 0+0j]")):
            with pytest.raises(IndeterminacyError) as exc:
                eval_integral(BilliardFamily("b1"), pt)
            assert str(exc.value) == text

    def test_base_point_message(self):
        for point, text in (
            (ProjectivePoint.affine(1e-9, 2e-9j),
             "[1e-09+0j : 0+2e-09j : 1+0j] is within 1e-08 of the base point [0+0j : 0+0j : 1+0j]"),
            (ProjectivePoint(3e-9, 1.0, 0.0),
             "[3e-09+0j : 1+0j : 0+0j] is within 1e-08 of the base point [0+0j : 1+0j : 0+0j]"),
        ):
            with pytest.raises(IndeterminacyError) as exc:
                eval_integral(BilliardFamily("b1"), point)
            assert str(exc.value) == text

    def test_zero_denominator_is_infinite(self):
        assert eval_integral(BilliardFamily("d"), ProjectivePoint.affine(1.0, 3.0)).is_inf
        # a1's denominator carries t^2 padding: every other point at infinity is a pole
        assert eval_integral(BilliardFamily("a1", 2), ProjectivePoint(1.0, 0.5, 0.0)).is_inf
        # |R| past the largest float is infinite too: here |R| is about 1e400
        assert eval_integral(BilliardFamily("a1", 2), ProjectivePoint(1.0, 0.5, 1e-200)).is_inf

    def test_nan_coordinate_gives_nan(self):
        with np.errstate(invalid="ignore"):
            p = ProjectivePoint(math.nan, 0.5, 1.0)
        v = eval_integral(BilliardFamily("b1"), p)
        assert not v.is_inf and math.isnan(v.value.real) and math.isnan(v.value.imag)

    def test_no_evaluation_error_along_an_orbit(self):
        # case 64 of the orbits workload on seed 9502: a float evaluation
        # showed a relative drift of 2.4e-5 here, where the true drift is 8e-11
        d = BilliardFamily("d")
        lam = 2.5820515583761385 + 0.7175757711452591j
        x0 = lift_fiber(d, lam, 2.391503104274424 + 0.1307735262541977j, "-")
        rec = orbit(d, x0, 500)
        assert rec.reason == "completed"
        worst = 0.0
        for x in rec.points:
            v = eval_integral(d, x.q)
            if not v.is_inf:
                worst = max(worst, abs(v.value - lam) / max(1.0, abs(lam)))
        assert worst <= 1e-9


def _suite_orbits(seed: int):
    """The orbits of the conservation checks of ``check --all --seed``."""
    for tag in ("a1", "a2", "b1", "b2", "c1", "c2", "d"):
        fam = BilliardFamily.parse(tag)
        for lam, t0, branch in verify.CONSERVATION_CASES[tag]:
            rng = _rng_for(seed, f"conservation:{fam.label()}:lam={lam}")
            yield fam, lam, orbit(fam, verify._start_point(fam, lam, t0, branch, rng), 500)


def _tangent_lanes(points):
    """(z0, u) of every iterate with Q and P affine, and those iterates."""
    kept = [x for x in points if x.q.t != 0 and x.p.t != 0]
    z0 = np.array([x.p.z_sphere().value for x in kept])
    return kept, z0, np.array([x.q.z_sphere().value for x in kept]) - z0


class TestOnTangentLine:
    """R on the tangent line, (-u^2)^k / prod f_i^m_i, against the exact
    evaluation."""

    @pytest.mark.parametrize("seed", [42, 9501])
    def test_lanes_agree_with_exact_on_suite_orbits(self, seed):
        # the gap is rounding amplified by the conditioning of R at Q; the
        # worst of 2 x 21 orbits is 1108 cond eps (b2, lambda 2, step 296,
        # where w = z0^2 + 2 z0 u cancels 2300-fold at |z0| = 807)
        eps = sys.float_info.epsilon
        for fam, lam, rec in _suite_orbits(seed):
            points, z0, u = _tangent_lanes(rec.points)
            lanes = integrals._on_tangent_factored(fam, z0, u)[0]
            for k, x in enumerate(points):
                try:
                    exact = eval_integral(fam, x.q)
                except IndeterminacyError:
                    continue
                gz, gw = gradient(fam, x.q)
                cond = math.hypot(abs(gz), abs(gw)) * math.hypot(*map(abs, x.q.affine_pair()))
                cond /= abs(exact.value)
                gap = abs(lanes[k] - exact.value)
                assert gap <= 2048 * max(cond, 1.0) * eps * abs(exact.value), (fam.label(), lam, k)

    @pytest.mark.parametrize("fam", ALL, ids=BilliardFamily.label)
    def test_jets_give_the_derivative_along_the_line(self, fam):
        # d/du of R(z0 + u, z0^2 + 2 z0 u) is R_z + 2 z0 R_w
        from dualbill.forms import _Jet

        rng = _rng_for(3, f"tangent jets:{fam.label()}")
        for _ in range(20):
            x = _unconditioned_point(fam, rng)
            z0 = x.p.z_sphere().value
            u = x.q.z_sphere().value - z0
            # R on the tangent line as _on_tangent_factored forms it, which
            # takes moduli that a jet lacks
            ju = _Jet(u, 1.0, 0.0)
            jet = integrals._factored(fam, *integrals._on_tangent(z0, ju), None, ju * ju * -1.0)[0]
            gz, gw = gradient(fam, x.q)
            want = gz + 2 * z0 * gw
            assert abs(jet.v - eval_integral(fam, x.q).value) <= 1e-9 * max(1.0, abs(jet.v))
            assert abs(jet.dz - want) <= 1e-8 * max(1.0, abs(want))

    def test_condition_flags_the_cancelling_factors(self):
        # step 255 of this d orbit passes 2e-5 from the base point [1 : 1 : 1],
        # where the line form is off by 1.5e-5 and the exact value by 8e-11
        d = BilliardFamily("d")
        lam = 2.5820515583761385 + 0.7175757711452591j
        x0 = lift_fiber(d, lam, 2.391503104274424 + 0.1307735262541977j, "-")
        points, z0, u = _tangent_lanes(orbit(d, x0, 500).points)
        lanes, cond = integrals._on_tangent_factored(d, z0, u)
        exact = np.array([eval_integral(d, x.q).value for x in points])
        err = abs(lanes - exact) / abs(exact)
        eps = sys.float_info.epsilon
        assert err[255] > 1e-6 and cond[255] * eps > 1e-8
        assert (err <= np.maximum(1e-10, cond * eps)).all()
