import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from dualbill.billiards import ALL_FAMILY_TAGS, BilliardFamily
from dualbill.curves import critical_fiber_components
from dualbill.families import FAMILIES, CriticalRow, FamilySpec
from dualbill.forms import _Jet
from dualbill.geometry import (
    E_INFINITY,
    EPS_CUBE_ROOT,
    ProjectivePoint,
    b_family_equivalence,
    c_family_equivalence,
)
from dualbill.integrals import critical_values, first_integral, indeterminacy_set
from dualbill.numerics import INF, SphereValue


def test_one_spec_per_family_in_order():
    assert ALL_FAMILY_TAGS == ("a1", "a2", "b1", "b2", "c1", "c2", "d")
    assert all(FAMILIES[tag].tag == tag for tag in ALL_FAMILY_TAGS)


def test_only_the_a_families_take_n():
    assert [t for t in ALL_FAMILY_TAGS if FAMILIES[t].takes_n] == ["a1", "a2"]


def test_base_points_are_the_residue_points_then_e():
    # the points and order that the registry listed before it derived them
    e, eb = EPS_CUBE_ROOT, EPS_CUBE_ROOT.conjugate()
    o, i = (0, 0), (1, 1)
    listed = {
        "a1": (o,), "a2": (o,), "b1": (o, i), "b2": ((1j, -1), (-1j, -1)),
        "c1": (i, (eb, e), (e, eb)), "c2": (o, i), "d": (o, i),
    }
    for tag, points in listed.items():
        want = [ProjectivePoint.affine(*p).coords for p in points]
        want += [E_INFINITY.coords] * (tag != "c1")
        assert [p.coords for p in FAMILIES[tag].base_points] == want, tag


@pytest.mark.parametrize("n", [1, 2, 5])
def test_rho_is_two_minus_the_translation(n):
    # the a-families' coefficient is rho/z0 with rho their one residue
    for tag, shift in (("a1", Fraction(2, 2 * n + 1)), ("a2", Fraction(1, n + 1))):
        ((point, rho),) = FAMILIES[tag].residues
        assert point.coords == (0, 0, 1) and rho(n) == 2 - shift
        assert FAMILIES[tag].coefficient(n)(1.0) == float(2 - shift)


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
    o, i = ProjectivePoint.affine(0.0, 0.0), ProjectivePoint.affine(1.0, 1.0)
    rows = (CriticalRow(SphereValue(2)), CriticalRow(INF))
    spec = FamilySpec("x", ((o, Fraction(3, 2)), (i, Fraction(1))), rows, "rational")
    assert spec.base_points == (o, i, E_INFINITY)  # E's residue is 3/2
    assert [row.value for row in spec.critical] == [0, 2, INF]
    zero = spec.critical[0]
    assert (zero.points, zero.indeterminacies) == ((), (o, i, E_INFINITY))
    # residues summing to 4 leave E out, and the copy derives its own zero
    # row, and only one
    fewer = dataclasses.replace(spec, residues=((o, Fraction(2)), (i, Fraction(2))))
    assert fewer.base_points == (o, i) and not fewer.singular_at_infinity
    assert [row.value for row in fewer.critical] == [0, 2, INF]
    assert fewer.critical[0].indeterminacies == (o, i)


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
    f = fam.spec.coefficient(fam.n)
    assert _pole_moments(fam, f) <= 1e-13
    # control: a pole at z = 2, which is no singular parameter
    assert _pole_moments(fam, lambda z: f(z) / (z - 2.0)) >= 1e-3


def _integral_defects(fam: BilliardFamily) -> list[Fraction]:
    """k f(z0) D(z0, z0^2) - d/dz0 D(z0, z0^2) at rational points z0, with
    f the registry's coefficient, D the denominator of the first integral
    and k its zero order: the first-order term of the invariance of R under
    the involution at P = (z0, z0^2).  Cleared of f's denominator, of degree
    at most 3, it is a polynomial of degree at most 2 deg D + 3, so the
    2 deg D + 4 points prove it zero.  No point is 0 or 1, the rational
    poles of the f's."""
    integ = first_integral(fam)
    spec = FAMILIES[fam.tag]
    spec.coefficient(fam.n)  # derives f for N, with its integer pair
    num, den_f = spec._by_n[fam.n][:2]

    def f(z0):  # the registry's coefficient from its integer pair, on Fractions
        return Fraction(*(sum(c * z0**k for k, c in enumerate(p)) for p in (num, den_f)))

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
    "fam", [BilliardFamily.parse(t, 2 if t in ("a1", "a2") else None) for t in ALL_FAMILY_TAGS],
    ids=BilliardFamily.label,
)
def test_a_bent_coefficient_breaks_the_binding(fam, bend):
    bend(fam.tag, Fraction(1001, 1000))
    assert any(_integral_defects(fam))


@pytest.mark.parametrize("tag", ALL_FAMILY_TAGS)
def test_e_is_a_base_point_exactly_when_the_integral_is_indeterminate_there(tag):
    # E = [0 : 1 : 0]: num and den, homogenized to their common degree d,
    # both vanish there exactly when both have no w^d term; f's residue at
    # E, 4 - sum r_i, must be nonzero at exactly those N (a1 and a2 to 30)
    spec = FAMILIES[tag]
    for n in range(1, 31) if spec.takes_n else [None]:
        integ = first_integral(BilliardFamily(tag, n))
        d = integ.degree
        indeterminate = integ.num.coeffs.get((0, d), 0) == 0 == integ.den.coeffs.get((0, d), 0)
        assert indeterminate == (sum(r for _, r in spec._residues(n)) != 4), n
        assert indeterminate == (E_INFINITY in spec.base_points) == spec.singular_at_infinity


def _residue_divisor(spec: FamilySpec) -> list[tuple[SphereValue, Fraction]]:
    """f's nonzero residues with their points z, E's 4 - sum r_i included."""
    pairs = [(SphereValue(z), r) for z, r in spec._residues(None)]
    pairs.append((INF, 4 - sum(r for _, r in pairs)))
    return [(z, r) for z, r in pairs if r]


@pytest.mark.parametrize(
    "source, target, equivalence", [("b1", "b2", b_family_equivalence), ("c2", "c1", c_family_equivalence)]
)
def test_residues_are_carried_by_the_equivalence(source, target, equivalence):
    # the equivalence acts on the parabola's parameter z; the residues it
    # carries there are the target's, exactly, E included
    psi = equivalence()
    carried = [
        (psi(E_INFINITY if z.is_inf else ProjectivePoint.affine(z.value, z.value**2)).z_sphere(), r)
        for z, r in _residue_divisor(FAMILIES[source])
    ]
    want = _residue_divisor(FAMILIES[target])
    assert len(carried) == len(want) == 3
    for z, r in want:
        at_z = [
            r2 for z2, r2 in carried
            if z.is_inf == z2.is_inf and (z.is_inf or abs(z.value - z2.value) <= 1e-12)
        ]
        assert at_z == [r], (z, r, carried)


def test_one_bent_c1_residue_leaves_f_no_rational_form(bend):
    # bent alone, the residue at a complex cube root gives f non-real
    # coefficients; bending all three scales f and keeps it rational
    spec = FAMILIES["c1"]
    residues = list(spec.residues)
    point, r = residues[1]
    residues[1] = (point, r * Fraction(1001, 1000))
    with pytest.raises(ValueError, match="no rational coefficients"):
        dataclasses.replace(spec, residues=tuple(residues))
    bend("c1", Fraction(1001, 1000))
    assert FAMILIES["c1"]._by_n[None][:2] == ([0, 0, 1001], [-250, 0, 0, 250])


#: the involution coefficients as the registry wrote them before it derived
#: them from the residues, frozen
_WRITTEN_F = {
    "b1": lambda z: (5 * z - 3) / (2 * z * (z - 1)),
    "b2": lambda z: 3 * z / (z * z + 1),
    "c1": lambda z: 4 * z * z / (z**3 - 1),
    "c2": lambda z: (8 * z - 4) / (3 * z * (z - 1)),
    "d": lambda z: (7 * z - 4) / (3 * z * (z - 1)),
}


def _written_a(tag: str, n: int):
    rho = float(2 - (Fraction(2, 2 * n + 1) if tag == "a1" else Fraction(1, n + 1)))
    return lambda z0: rho / z0


def _bits(*values) -> list[tuple[str, str]]:
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def _points(rng: np.random.Generator, size: int) -> np.ndarray:
    """Complex points over six decades of modulus, some real, none a pole."""
    z = (rng.uniform(-3, 3, size) + 1j * rng.uniform(-3, 3, size)) * 10.0 ** rng.uniform(-3, 3, size)
    z[::7] = z[::7].real
    return z


@pytest.mark.parametrize(
    "tag, n", [(t, None) for t in _WRITTEN_F] + [(t, n) for t in ("a1", "a2") for n in range(1, 31)]
)
def test_the_derived_coefficient_is_the_written_one_bit_for_bit(tag, n):
    # on Python complex numbers, numpy lanes and derivative jets
    f = FAMILIES[tag].coefficient(n)
    written = _WRITTEN_F[tag] if n is None else _written_a(tag, n)
    rng = np.random.default_rng(100 * ALL_FAMILY_TAGS.index(tag) + (n or 0))
    size = 2000 if n is None else 200
    z = _points(rng, size)
    assert np.array_equal(f(z).view(np.uint64), written(z).view(np.uint64))
    for v in z.tolist():
        assert _bits(f(v)) == _bits(written(v)), v
    for v, dz, dw in zip(*(_points(rng, size // 10) for _ in range(3))):
        got, want = f(_Jet(v, dz, dw)), written(_Jet(v, dz, dw))
        assert _bits(got.v, got.dz, got.dw) == _bits(want.v, want.dz, want.dw), v
