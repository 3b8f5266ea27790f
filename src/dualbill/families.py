"""The seven exotic billiards as data: one frozen :class:`FamilySpec` per tag.

Each fact about a family is stated here once: the residues of its involution
coefficient f = sum r_i/(z - z_i) at the finite base points (an a-family's
rotation number rho, a function of N), the critical values with their
critical points and indeterminacies, the kind of its level curves and
fibers, and which family it is the image of; the base points, f, the zero
row and the singular parameters follow.  The modules above look these facts
up instead of branching on the tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

from .geometry import E_INFINITY, EPS_CUBE_ROOT, ProjectiveMap, ProjectivePoint, b_family_equivalence
from .numerics import INF, SphereValue

__all__ = ["CriticalRow", "Image", "FamilySpec", "FAMILIES", "ALL_FAMILY_TAGS"]


@dataclass(frozen=True)
class CriticalRow:
    """A critical value with its true critical points and the base points
    that are critical for it."""

    value: SphereValue
    points: tuple[ProjectivePoint, ...] = ()
    indeterminacies: tuple[ProjectivePoint, ...] = ()


@dataclass(frozen=True)
class Image:
    """A family defined as the image of ``base`` under a projective map."""

    base: str
    map: ProjectiveMap
    inverse: ProjectiveMap


@dataclass(frozen=True)
class FamilySpec:
    """The defining facts of one billiard family.

    ``residues`` pairs each finite base point with f's residue there, a
    Fraction or a function of N; ``base_points`` adds E when its residue 4 -
    sum r_i is nonzero (at N = 1: 4 - rho(N) > 2 for every N).  ``critical``
    lists the rows as ``critical_values`` reports them, after the zero row
    that ``__post_init__`` puts first: the parabola, critical at every base
    point.  ``level_curves`` is "rational" or "elliptic"; ``elliptic_fiber``
    marks the families whose fibers are genus-one covers of their levels.
    """

    tag: str
    residues: tuple[tuple[ProjectivePoint, Fraction | Callable[[int], Fraction]], ...]
    critical: tuple[CriticalRow, ...]
    level_curves: str
    elliptic_fiber: bool = False
    image_of: Image | None = None
    base_points: tuple[ProjectivePoint, ...] = field(init=False)
    takes_n: bool = field(init=False)
    #: the singular tangency parameters (z of the base points): the finite
    #: ones as plain complex numbers, and whether infinity is one
    singular_finite: tuple[complex, ...] = field(init=False, repr=False)
    singular_at_infinity: bool = field(init=False, repr=False)
    #: per N, f's integer numerator and denominator and its float form
    _by_n: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        put = object.__setattr__
        put(self, "takes_n", any(callable(r) for _, r in self.residues))
        put(self, "singular_finite", tuple(p.z / p.t for p, _ in self.residues))
        put(self, "_by_n", {})
        n = 1 if self.takes_n else None
        put(self, "singular_at_infinity", sum(r for _, r in self._residues(n)) != 4)
        base = tuple(p for p, _ in self.residues) + (E_INFINITY,) * self.singular_at_infinity
        put(self, "base_points", base)
        zero = CriticalRow(SphereValue(0), (), base)
        put(self, "critical", (zero, *(row for row in self.critical if row.value != 0)))
        self.coefficient(n)  # residues that give f no rational form fail here

    def _residues(self, n: int | None) -> list[tuple[complex, Fraction]]:
        """The pairs (z_i, r_i) of the finite base points for N."""
        return [(s, r(n) if callable(r) else r) for s, (_, r) in zip(self.singular_finite, self.residues)]

    def coefficient(self, n: int | None = None) -> Callable:
        """The involution coefficient z -> f(z) for N (None for a family
        without N); it raises ZeroDivisionError at a pole.  Read it from
        ``FAMILIES`` on each call: the registry may change between two."""
        try:
            return self._by_n[n][2]
        except KeyError:
            self._by_n[n] = _coefficient_forms(self.tag, self._residues(n))
            return self._by_n[n][2]


def _source(coeffs: list[int]) -> str:
    """An integer polynomial, constant term first, as source in z, highest
    power first, in parentheses when it has more than one term."""
    terms = []
    for k in reversed(range(len(coeffs))):
        if coeffs[k]:
            c, power = abs(coeffs[k]), "z" if k == 1 else "z * z" if k == 2 else f"z**{k}"
            term = str(c) if k == 0 else power if c == 1 else f"{c} * {power}"
            terms.append(f"{'-' if coeffs[k] < 0 else '+'} {term}")
    source = ("" if terms[0][0] == "+" else "-") + " ".join(terms)[2:]
    return f"({source})" if len(terms) > 1 else source


def _coefficient_forms(tag: str, pairs: list[tuple[complex, Fraction]]):
    """f = sum r_i/(z - z_i) as integer numerator and denominator, constant
    term first, and as one expression: numerator over c z (the other poles'
    polynomial), a constant numerator written as its float over c."""
    c = math.lcm(*(r.denominator for _, r in pairs))
    num, poles = [], [1 + 0j]
    for s, r in pairs:  # c f so far plus c r/(z - s), in complex floats
        num = [a - s * b + int(c * r) * p for a, b, p in zip([0j, *num], [*num, 0j], poles)]
        poles = [a - s * b for a, b in zip([0j, *poles], [*poles, 0j])]
    exact = [round(a.real) for a in num + poles]  # only c1's cube roots are inexact
    if any(abs(a - k) > 1e-9 for a, k in zip(num + poles, exact)):
        raise ValueError(f"the residues of {tag} give f no rational coefficients")
    g = math.gcd(c, *exact[: len(num)])
    num, poles, c = [a // g for a in exact[: len(num)]], exact[len(num):], c // g
    constant = not any(num[1:])
    at_zero = poles[0] == 0  # that pole is written as the factor z
    factors = [str(c)] * (c != 1 and not constant) + ["z"] * at_zero
    if len(poles) > 1 + at_zero:
        factors.append(_source(poles[at_zero:]))
    bottom = " * ".join(factors)
    top = repr(num[0] / c) if constant else _source(num)
    source = f"{top} / ({bottom})" if len(factors) > 1 else f"{top} / {bottom}"
    return num, [c * a for a in poles], eval(f"lambda z: {source}")


_aff = ProjectivePoint.affine
_ORIGIN = _aff(0.0, 0.0)
_ONE_ONE = _aff(1.0, 1.0)
_e = EPS_CUBE_ROOT
_eb = _e.conjugate()
_ONE = SphereValue(1)
_FOUR_THIRDS = SphereValue(Fraction(4, 3))


def _a_family(tag: str, rho, inf_indeterminacies) -> FamilySpec:
    return FamilySpec(tag, ((_ORIGIN, rho),), (CriticalRow(INF, (), inf_indeterminacies),), "rational")


def _c_family(tag: str, residues, value: SphereValue, points) -> FamilySpec:
    # every base point is critical for the level at infinity too
    spec = FamilySpec(tag, residues, (), "elliptic")
    return replace(spec, critical=(CriticalRow(value, points), CriticalRow(INF, (), spec.base_points)))


_PSI = b_family_equivalence()

FAMILIES: dict[str, FamilySpec] = {
    spec.tag: spec
    for spec in (
        _a_family("a1", lambda n: Fraction(4 * n, 2 * n + 1), (_ORIGIN, E_INFINITY)),
        _a_family("a2", lambda n: Fraction(2 * n + 1, n + 1), (E_INFINITY,)),
        FamilySpec(
            "b1",
            ((_ORIGIN, Fraction(3, 2)), (_ONE_ONE, Fraction(1))),
            (
                CriticalRow(_ONE, (_aff(0.0, -1.0),), (_ONE_ONE,)),
                CriticalRow(_FOUR_THIRDS, (_aff(1 / 3, 1.0),)),
                CriticalRow(INF, (_aff(1.0, -3.0), _aff(-1 / 3, -1 / 3))),
            ),
            "rational",
            elliptic_fiber=True,
        ),
        # b2 is the b-equivalence image of b1; its points are tabulated
        # exactly rather than mapped, which would perturb the last bits
        FamilySpec(
            "b2",
            ((_aff(1j, -1.0), Fraction(3, 2)), (_aff(-1j, -1.0), Fraction(3, 2))),
            (
                CriticalRow(_ONE, (ProjectivePoint(1.0, 0.0, 0.0),), (E_INFINITY,)),
                CriticalRow(_FOUR_THIRDS, (_aff(0.0, -2.0),)),
                CriticalRow(INF, (_aff(-1j, 0.0), _aff(1j, 0.0))),
            ),
            "rational",
            elliptic_fiber=True,
            image_of=Image("b1", _PSI, _PSI.inverse()),
        ),
        _c_family(
            "c1",
            tuple((p, Fraction(4, 3)) for p in (_ONE_ONE, _aff(_eb, _e), _aff(_e, _eb))),
            SphereValue(Fraction(27, 64)),
            (_aff(_eb / 2, _e), _aff(0.5, 1.0), _aff(_e / 2, _eb)),
        ),
        _c_family(
            "c2",
            ((_ORIGIN, Fraction(4, 3)), (_ONE_ONE, Fraction(4, 3))),
            SphereValue(Fraction(-9, 64)),
            (_aff(1.25, 1.0), _aff(-0.25, -0.5), _aff(0.5, -2.0)),
        ),
        FamilySpec(
            "d",
            ((_ORIGIN, Fraction(4, 3)), (_ONE_ONE, Fraction(1))),
            (
                CriticalRow(SphereValue(Fraction(-1, 3)), (_aff(2 / 5, 8 / 5),)),
                CriticalRow(SphereValue(Fraction(-1, 4)), (), (_ORIGIN,)),
                CriticalRow(SphereValue(Fraction(-9, 32)), (_aff(1 / 10, -4 / 5),), (_ONE_ONE,)),
                CriticalRow(INF, (_aff(1.0, -8.0), _aff(-0.5, -2.0)), (_ONE_ONE,)),
            ),
            "rational",
            elliptic_fiber=True,
        ),
    )
}

ALL_FAMILY_TAGS: tuple[str, ...] = tuple(FAMILIES)
