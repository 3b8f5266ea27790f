import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from dualbill.billiards import ALL_FAMILY_TAGS, BilliardFamily, _coefficient
from dualbill.curves import critical_fiber_components
from dualbill.families import FAMILIES, CriticalRow, FamilySpec
from dualbill.geometry import E_INFINITY, ProjectivePoint, b_family_equivalence
from dualbill.integrals import critical_values, first_integral, indeterminacy_set
from dualbill.numerics import INF, SphereValue


def test_one_spec_per_family_in_order():
    assert ALL_FAMILY_TAGS == ("a1", "a2", "b1", "b2", "c1", "c2", "d")
    assert all(FAMILIES[tag].tag == tag for tag in ALL_FAMILY_TAGS)


def test_only_the_a_families_take_n():
    assert [t for t in ALL_FAMILY_TAGS if FAMILIES[t].takes_n] == ["a1", "a2"]
    assert all((FAMILIES[t].f is None) == FAMILIES[t].takes_n for t in ALL_FAMILY_TAGS)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_rho_is_two_minus_the_translation(n):
    # the a-families' coefficient is rho/z0 with rho = 2 - shift(N)
    for tag, shift in (("a1", Fraction(2, 2 * n + 1)), ("a2", Fraction(1, n + 1))):
        assert FAMILIES[tag].shift(n) == shift
        assert _coefficient(BilliardFamily(tag, n), 1.0) == float(2 - shift)


@pytest.mark.parametrize("tag", ALL_FAMILY_TAGS)
def test_singular_parameters_are_the_base_points(tag):
    fam = BilliardFamily.parse(tag)
    spec = fam.spec
    zs = [p.z_sphere() for p in indeterminacy_set(fam)]
    finite = [z.value for z in zs if not z.is_inf]
    assert spec.singular_at_infinity == any(z.is_inf for z in zs)
    assert len(spec.singular_finite) == len(finite)
    for s, z in zip(spec.singular_finite, finite):
        assert type(s) is complex and abs(s - z) <= 1e-15


@pytest.mark.parametrize("tag", ALL_FAMILY_TAGS)
def test_critical_rows_start_at_zero_and_end_at_infinity(tag):
    fam = BilliardFamily.parse(tag)
    values = critical_values(fam)
    assert values[0] == 0 and values[-1] == INF
    # the zero level is the parabola: every base point is critical for it
    assert FAMILIES[tag].critical[0].indeterminacies == FAMILIES[tag].base_points


def test_the_zero_row_is_derived_from_the_base_points():
    base = (ProjectivePoint.affine(0.0, 0.0), ProjectivePoint.affine(1.0, 1.0), E_INFINITY)
    spec = FamilySpec("x", base, (CriticalRow(SphereValue(2)), CriticalRow(INF)), "rational")
    assert [row.value for row in spec.critical] == [0, 2, INF]
    zero = spec.critical[0]
    assert (zero.points, zero.indeterminacies) == ((), base)
    # a copy with fewer base points derives its own zero row, and only one
    fewer = dataclasses.replace(spec, base_points=base[:2])
    assert [row.value for row in fewer.critical] == [0, 2, INF]
    assert fewer.critical[0].indeterminacies == base[:2]


@pytest.mark.parametrize("tag", ["a1", "a2", "b1", "c1", "c2", "d"])
def test_components_at_infinity_are_the_denominator_factors(tag):
    fam = BilliardFamily.parse(tag, 2 if FAMILIES[tag].takes_n else None)
    comps = critical_fiber_components(fam, INF)
    factors = first_integral(fam).den_factors
    assert [(c.poly.coeffs, c.multiplicity) for c in comps] == [
        (p.coeffs, m) for p, m in factors
    ]


def test_b2_is_the_image_of_b1():
    image = FAMILIES["b2"].image_of
    assert image.base == "b1"
    psi = b_family_equivalence()
    assert (image.map.matrix == psi.matrix).all()
    both = image.map.matrix @ image.inverse.matrix
    assert np.max(np.abs(both - both[0, 0] * np.eye(3))) <= 1e-12 * np.max(np.abs(both))
    b1, b2 = BilliardFamily("b1"), BilliardFamily("b2")
    assert critical_values(b1) == critical_values(b2)
    # the tabulated b2 critical points are the images of b1's
    for row1, row2 in zip(b1.spec.critical, b2.spec.critical):
        mapped = [psi(p) for p in row1.points]
        listed = row2.points
        assert len(mapped) == len(listed)
        assert all(any(m.eq(p) for p in listed) for m in mapped)


def test_level_curve_and_fiber_kinds():
    elliptic = [t for t in ALL_FAMILY_TAGS if FAMILIES[t].level_curves == "elliptic"]
    assert elliptic == ["c1", "c2"]
    assert [t for t in ALL_FAMILY_TAGS if FAMILIES[t].elliptic_fiber] == ["b1", "b2", "d"]


_CIRCLE = 10.0 * np.exp(2j * np.pi * np.arange(256) / 256)


def _pole_moments(fam: BilliardFamily, coef) -> float:
    """The largest of |∮ g(z) z^k dz| over |z| = 10 for k = 0..3, relative to
    the circle's length times max |g z^k|, where g = coef times the product
    of z - s over the finite singular parameters s.  By the trapezoid rule,
    exact for a polynomial g, it is rounding unless coef has a pole inside
    the circle that no singular parameter cancels."""
    g = coef(_CIRCLE)
    for s in fam.spec.singular_finite:
        g = g * (_CIRCLE - s)
    worst = 0.0
    for k in range(4):
        h = g * _CIRCLE**k
        integral = 2j * np.pi * np.mean(h * _CIRCLE)  # dz = i z dtheta
        worst = max(worst, abs(integral) / (20 * np.pi * np.max(np.abs(h))))
    return worst


@pytest.mark.parametrize(
    "tag, n", [("a1", 1), ("a1", 3), ("a2", 1), ("a2", 3)] + [(t, None) for t in ALL_FAMILY_TAGS[2:]]
)
def test_every_pole_of_f_is_a_finite_singular_parameter(tag, n):
    # so the orbit's guard around the singular parameters keeps every step
    # away from a pole of the involution coefficient
    fam = BilliardFamily(tag, n)
    assert _pole_moments(fam, lambda z: _coefficient(fam, z)) <= 1e-13
    # control: a pole at z = 2, which is no singular parameter
    assert _pole_moments(fam, lambda z: _coefficient(fam, z) / (z - 2.0)) >= 1e-3


def _exact_coefficient(spec: FamilySpec, n: int | None):
    """The involution coefficient of the registry's facts, on Fractions:
    spec.f, or (2 - shift(N))/z0 for an a-family."""
    if spec.shift is None:
        return spec.f
    rho = 2 - spec.shift(n)
    return lambda z0: rho / z0


def _integral_defects(fam: BilliardFamily) -> list[Fraction]:
    """k f(z0) D(z0, z0^2) - d/dz0 D(z0, z0^2) at rational points z0, with
    f the registry's coefficient, D the denominator of the first integral
    and k its zero order: the first-order term of the invariance of R under
    the involution at P = (z0, z0^2).  Cleared of f's denominator, of degree
    at most 3, it is a polynomial of degree at most 2 deg D + 3, so the
    2 deg D + 4 points prove it zero.  No point is 0 or 1, the rational
    poles of the f's."""
    integ = first_integral(fam)
    f = _exact_coefficient(FAMILIES[fam.tag], fam.n)
    den, den_z, den_w = integ.den, integ.den.diff_z(), integ.den.diff_w()
    defects = []
    for j in range(2 * den.total_degree + 4):
        z0 = Fraction(7 * j + 3, 21)
        w0 = z0 * z0
        slope = den_z.eval_exact(z0, w0) + 2 * z0 * den_w.eval_exact(z0, w0)
        defects.append(integ.zero_order * f(z0) * den.eval_exact(z0, w0) - slope)
    return defects


@pytest.mark.parametrize(
    "tag, n",
    [(t, n) for t in ("a1", "a2") for n in range(1, 7)] + [(t, None) for t in ALL_FAMILY_TAGS[2:]],
)
def test_coefficient_is_bound_to_the_integral(tag, n):
    # the registry's f against the first integral, exactly
    defects = _integral_defects(BilliardFamily(tag, n))
    assert all(type(d) is Fraction for d in defects)
    assert not any(defects)


@pytest.mark.parametrize(
    "tag, n, bend",
    [
        (tag, None, {"f": lambda f: lambda z: f(z) * Fraction(1001, 1000)}) for tag in ("b1", "c2", "d")
    ] + [("a1", 2, {"shift": lambda shift: lambda n: shift(n) + Fraction(1, 10**6)})],
    ids=["b1", "c2", "d", "a1(2)"],
)
def test_a_bent_coefficient_breaks_the_binding(tag, n, bend, monkeypatch):
    spec = FAMILIES[tag]
    bent = {field: change(getattr(spec, field)) for field, change in bend.items()}
    monkeypatch.setitem(FAMILIES, tag, dataclasses.replace(spec, **bent))
    assert any(_integral_defects(BilliardFamily(tag, n)))
