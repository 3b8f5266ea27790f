from fractions import Fraction

import pytest

from dualbill.billiards import ALL_FAMILY_TAGS, BilliardFamily
from dualbill.curves import critical_fiber_components
from dualbill.families import FAMILIES
from dualbill.geometry import b_family_equivalence
from dualbill.integrals import (
    critical_values,
    first_integral,
    indeterminacy_set,
    true_critical_points,
)
from dualbill.numerics import INF


def test_one_spec_per_family_in_order():
    assert ALL_FAMILY_TAGS == ("a1", "a2", "b1", "b2", "c1", "c2", "d")
    assert all(FAMILIES[tag].tag == tag for tag in ALL_FAMILY_TAGS)


def test_only_the_a_families_take_n():
    assert [t for t in ALL_FAMILY_TAGS if FAMILIES[t].takes_n] == ["a1", "a2"]
    assert all((FAMILIES[t].f is None) == FAMILIES[t].takes_n for t in ALL_FAMILY_TAGS)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_rho_is_two_minus_the_translation(n):
    assert BilliardFamily("a1", n).rho == 2 - Fraction(2, 2 * n + 1)
    assert BilliardFamily("a2", n).rho == 2 - Fraction(1, n + 1)


@pytest.mark.parametrize("tag", ALL_FAMILY_TAGS)
def test_singular_parameters_are_the_base_points(tag):
    fam = BilliardFamily.parse(tag)
    params = fam.singular_tangency_parameters()
    points = indeterminacy_set(fam)
    assert len(params) == len(points)
    for s, p in zip(params, points):
        z = p.z_sphere()
        assert s.is_inf == z.is_inf
        if not s.is_inf:
            assert abs(s.value - z.value) <= 1e-15


@pytest.mark.parametrize("tag", ALL_FAMILY_TAGS)
def test_critical_rows_start_at_zero_and_end_at_infinity(tag):
    fam = BilliardFamily.parse(tag)
    values = critical_values(fam)
    assert values[0] == 0 and values[-1] == INF
    # the zero level is the parabola: every base point is critical for it
    assert FAMILIES[tag].critical[0].indeterminacies == FAMILIES[tag].base_points


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
    assert image.map.compose(image.inverse).is_projective_identity()
    b1, b2 = BilliardFamily("b1"), BilliardFamily("b2")
    assert critical_values(b1) == critical_values(b2)
    # the tabulated b2 critical points are the images of b1's
    for lam in critical_values(b1):
        mapped = [psi(p) for p in true_critical_points(b1, lam)]
        listed = true_critical_points(b2, lam)
        assert len(mapped) == len(listed)
        assert all(any(m.eq(p) for p in listed) for m in mapped)


def test_level_curve_and_fiber_kinds():
    elliptic = [t for t in ALL_FAMILY_TAGS if FAMILIES[t].level_curves == "elliptic"]
    assert elliptic == ["c1", "c2"]
    assert [t for t in ALL_FAMILY_TAGS if FAMILIES[t].elliptic_fiber] == ["b1", "b2", "d"]
