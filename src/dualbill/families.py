"""The seven exotic billiards as data: one frozen :class:`FamilySpec` per tag.

Each fact about a family is stated here once: its a-family translation (and
so whether it takes N), the involution coefficient f, the integral's base
points, the critical values with their critical points and indeterminacies,
the kind of its level curves and fibers, and which family it is the image
of; the zero row and the singular parameters follow from the base points.
The modules above look these facts up instead of branching on the tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .geometry import (
    E_INFINITY,
    EPS_CUBE_ROOT,
    ProjectiveMap,
    ProjectivePoint,
    b_family_equivalence,
)
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

    ``critical`` lists the rows in the order ``critical_values`` reports
    them; ``__post_init__`` puts first, in place of any given, the zero row:
    the parabola, critical at every base point.  ``level_curves`` is
    "rational" or "elliptic"; ``elliptic_fiber`` marks the families whose
    invariant fibers are genus-one double covers of their level curves.
    """

    tag: str
    base_points: tuple[ProjectivePoint, ...]
    critical: tuple[CriticalRow, ...]
    level_curves: str
    elliptic_fiber: bool = False
    #: involution coefficient of the b/c/d families; raises ZeroDivisionError at a
    #: pole.  An a-family's coefficient rho/z0 follows from its shift
    f: Callable[[complex], complex] | None = None
    shift: Callable[[int], Fraction] | None = None
    image_of: Image | None = None
    #: the singular tangency parameters (z of the base points): the finite
    #: ones as plain complex numbers, and whether infinity is one
    singular_finite: tuple[complex, ...] = field(init=False, repr=False)
    singular_at_infinity: bool = field(init=False, repr=False)

    def __post_init__(self):
        zero = CriticalRow(SphereValue(0), (), self.base_points)
        rows = (zero, *(row for row in self.critical if row.value != zero.value))
        object.__setattr__(self, "critical", rows)
        finite = tuple(p.z / p.t for p in self.base_points if p.t != 0)
        object.__setattr__(self, "singular_finite", finite)
        object.__setattr__(self, "singular_at_infinity", len(finite) < len(self.base_points))

    @property
    def takes_n(self) -> bool:
        """The a-families carry a parameter N (their translation shift(N))."""
        return self.shift is not None


_aff = ProjectivePoint.affine
_E = E_INFINITY
_ORIGIN = _aff(0.0, 0.0)
_ONE_ONE = _aff(1.0, 1.0)
_e = EPS_CUBE_ROOT
_eb = _e.conjugate()
_ONE = SphereValue(1)
_FOUR_THIRDS = SphereValue(Fraction(4, 3))


def _a_family(tag: str, shift, inf_indeterminacies) -> FamilySpec:
    return FamilySpec(
        tag, (_ORIGIN, _E), (CriticalRow(INF, (), inf_indeterminacies),), "rational", shift=shift
    )


def _c_family(tag: str, base, middle: CriticalRow, f) -> FamilySpec:
    return FamilySpec(tag, base, (middle, CriticalRow(INF, (), base)), "elliptic", f=f)


_PSI = b_family_equivalence()
_B2_BASE = (_aff(1j, -1.0), _aff(-1j, -1.0), _E)
_C1_BASE = (_ONE_ONE, _aff(_eb, _e), _aff(_e, _eb))
_O_I_E = (_ORIGIN, _ONE_ONE, _E)  # the base points of b1, c2 and d

FAMILIES: dict[str, FamilySpec] = {
    spec.tag: spec
    for spec in (
        _a_family("a1", lambda n: Fraction(2, 2 * n + 1), (_ORIGIN, _E)),
        _a_family("a2", lambda n: Fraction(1, n + 1), (_E,)),
        FamilySpec(
            "b1",
            _O_I_E,
            (
                CriticalRow(_ONE, (_aff(0.0, -1.0),), (_ONE_ONE,)),
                CriticalRow(_FOUR_THIRDS, (_aff(1 / 3, 1.0),)),
                CriticalRow(INF, (_aff(1.0, -3.0), _aff(-1 / 3, -1 / 3))),
            ),
            "rational",
            elliptic_fiber=True,
            f=lambda z: (5 * z - 3) / (2 * z * (z - 1)),
        ),
        # b2 is the b-equivalence image of b1; its points are tabulated
        # exactly rather than mapped, which would perturb the last bits
        FamilySpec(
            "b2",
            _B2_BASE,
            (
                CriticalRow(_ONE, (ProjectivePoint(1.0, 0.0, 0.0),), (_E,)),
                CriticalRow(_FOUR_THIRDS, (_aff(0.0, -2.0),)),
                CriticalRow(INF, (_aff(-1j, 0.0), _aff(1j, 0.0))),
            ),
            "rational",
            elliptic_fiber=True,
            f=lambda z: 3 * z / (z * z + 1),
            image_of=Image("b1", _PSI, _PSI.inverse()),
        ),
        _c_family(
            "c1",
            _C1_BASE,
            CriticalRow(
                SphereValue(Fraction(27, 64)),
                (_aff(_eb / 2, _e), _aff(0.5, 1.0), _aff(_e / 2, _eb)),
            ),
            lambda z: 4 * z * z / (z**3 - 1),
        ),
        _c_family(
            "c2",
            _O_I_E,
            CriticalRow(
                SphereValue(Fraction(-9, 64)),
                (_aff(1.25, 1.0), _aff(-0.25, -0.5), _aff(0.5, -2.0)),
            ),
            lambda z: (8 * z - 4) / (3 * z * (z - 1)),
        ),
        FamilySpec(
            "d",
            _O_I_E,
            (
                CriticalRow(SphereValue(Fraction(-1, 3)), (_aff(2 / 5, 8 / 5),)),
                CriticalRow(SphereValue(Fraction(-1, 4)), (), (_ORIGIN,)),
                CriticalRow(SphereValue(Fraction(-9, 32)), (_aff(1 / 10, -4 / 5),), (_ONE_ONE,)),
                CriticalRow(INF, (_aff(1.0, -8.0), _aff(-0.5, -2.0)), (_ONE_ONE,)),
            ),
            "rational",
            elliptic_fiber=True,
            f=lambda z: (7 * z - 4) / (3 * z * (z - 1)),
        ),
    )
}

ALL_FAMILY_TAGS: tuple[str, ...] = tuple(FAMILIES)
