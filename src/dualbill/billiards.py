"""The seven exotic dual billiard structures on the parabola and the
phase-space map.

A dual billiard attaches to every point P of the parabola a projective
involution of its tangent line fixing P.  The phase map sends (Q, P) to
(Q', P') where Q' is the involution image of Q and P' is the other tangency
point of Q'.

Every involution fixing P is u -> -u/(1 + f(z0) u) in the offset coordinate
u = z - z0, so a family is one coefficient f on the parabola:

* a1(N), a2(N): f(z0) = rho/z0, with the rational rotation number
  rho = 2 - shift(N);
* b1, b2, c1, c2, d: a family-specific rational function f.

The per-family facts used here (the translation giving rho, the coefficient
f and the singular tangency parameters) live in :mod:`dualbill.families`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Literal

from .families import ALL_FAMILY_TAGS, FAMILIES, FamilySpec
from .geometry import (
    E_INFINITY,
    OnConicError,
    PhasePoint,
    ProjectivePoint,
    conic_point,
    on_conic,
    tangency_points,
)
from .numerics import INF, INF_THRESHOLD, SphereValue, chordal_distance

__all__ = [
    "FamilyTag",
    "BilliardFamily",
    "ALL_FAMILY_TAGS",
    "SingularTangencyError",
    "DegenerateTangencyError",
    "f_coefficient",
    "involution",
    "billiard_map",
    "OrbitRecord",
    "orbit",
]

FamilyTag = Literal["a1", "a2", "b1", "b2", "c1", "c2", "d"]


class SingularTangencyError(ValueError):
    """The tangency point P is a singularity of the billiard structure."""


class DegenerateTangencyError(RuntimeError):
    """Both tangency candidates coincide numerically; P' cannot be selected."""


@dataclass(frozen=True)
class BilliardFamily:
    """Tag of one of the seven exotic billiards; a-families carry N >= 1."""

    tag: str
    n: int | None = None

    def __post_init__(self):
        if self.tag not in FAMILIES:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if self.is_a:
            if self.n is None or self.n < 1:
                raise ValueError("a-families need an integer N >= 1")
        elif self.n is not None:
            raise ValueError(f"family {self.tag!r} takes no N parameter")

    @property
    def spec(self) -> FamilySpec:
        return FAMILIES[self.tag]

    @property
    def is_a(self) -> bool:
        return self.spec.takes_n

    @property
    def rho(self) -> Fraction:
        """Rotation parameter of an a-family, 2 - shift(N): its involution
        coefficient is f(z0) = rho/z0."""
        if not self.is_a:
            raise ValueError(f"family {self.tag!r} has no rotation parameter")
        return 2 - self.spec.shift(self.n)

    def label(self) -> str:
        return f"{self.tag}({self.n})" if self.is_a else self.tag

    @staticmethod
    def parse(tag: str, n: int | None = None) -> "BilliardFamily":
        """The family of a tag; an a-family without N takes N = 1, and an N
        given to another family is refused."""
        tag = tag.lower()
        if n is None and tag in FAMILIES and FAMILIES[tag].takes_n:
            n = 1
        return BilliardFamily(tag, n)


@lru_cache(maxsize=None)
def _rho(shift: Callable[[int], Fraction], n: int) -> float:
    """rho = 2 - shift(N) as a float, computed once per translation and N."""
    return float(2 - shift(n))


def _coefficient(family: BilliardFamily, z0):
    """The involution coefficient f(z0), rho/z0 for an a-family; raises
    ZeroDivisionError at a pole of f."""
    spec = family.spec
    return spec.f(z0) if spec.shift is None else _rho(spec.shift, family.n) / z0


def f_coefficient(family: BilliardFamily, z0: complex | SphereValue) -> SphereValue:
    """Involution coefficient f(z0) of any family (inf at poles)."""
    z0 = SphereValue.coerce(z0)
    if z0.is_inf:
        raise SingularTangencyError("coefficient undefined at the infinite point")
    try:
        return SphereValue(_coefficient(family, z0.value))
    except ZeroDivisionError:  # f has no common zero of numerator and denominator
        return INF


def _z_param(pt: ProjectivePoint) -> complex | SphereValue:
    """z-coordinate of a point as a plain complex number; INF on the infinity line."""
    z, _, t = pt.coords
    return INF if t == 0 else z / t


def _point_on_tangent(z0: complex, z1: complex | SphereValue) -> ProjectivePoint:
    """Point of the tangent line at (z0, z0^2) with z-coordinate z1."""
    if z1 is INF:
        return ProjectivePoint(1.0, 2.0 * z0, 0.0)
    return ProjectivePoint(z1, 2.0 * z0 * z1 - z0 * z0, 1.0)


def _check_singular(family: BilliardFamily, z0: complex | SphereValue, radius: float) -> None:
    """Reject tangency parameters (a complex number or INF) too near a
    singular one.

    Finite singular parameters use the affine distance; the infinite point
    is considered hit once |z0| reaches INF_THRESHOLD (escaping orbits
    legitimately grow large before that).
    """
    spec = family.spec
    if z0 is INF or abs(z0) >= INF_THRESHOLD:
        if not spec.singular_at_infinity:
            return
        s = INF
    else:
        for s in spec.singular_finite:
            if abs(z0 - s) <= radius:
                break
        else:
            return
    raise SingularTangencyError(
        f"tangency parameter {z0!r} is within reach of the "
        f"singular parameter {s!r} of family {family.label()}"
    )


#: the involution is refused this close to a singular tangency parameter
SINGULAR_RADIUS = 1e-12


def involution(family: BilliardFamily, p: ProjectivePoint, q: ProjectivePoint) -> ProjectivePoint:
    """Image of Q under the tangent-line involution at P.

    P must be a nonsingular affine point of the parabola with Q on its
    tangent line.  The image where the involution has its pole is the
    infinite point of the line, returned as a valid projective point.
    """
    if not on_conic(p):
        raise ValueError(f"P = {p} is not on the parabola")
    z0 = _z_param(p)
    if z0 is INF:
        raise SingularTangencyError(
            "involution at the infinite point is outside the affine chart"
        )
    _check_singular(family, z0, SINGULAR_RADIUS)
    return _point_on_tangent(z0, _involution_z(family, z0, _z_param(q)))


def _involution_z(family: BilliardFamily, z0, z1):
    """z-coordinate of the involution image of the point z1 (a number or
    INF) of the tangent line at the nonsingular parameter z0.

    Pure arithmetic on z0 and z1, so number types other than complex pass
    through it: the derivative jets of :mod:`dualbill.forms`, and numpy
    arrays of lanes.  The pole is found by the division raising, as Python
    numbers and jets do; on a lane it gives no INF but a non-finite value,
    or a huge one where numpy's rounding leaves the denominator nonzero.
    """
    try:
        f = _coefficient(family, z0)
    except ZeroDivisionError:
        raise SingularTangencyError("involution coefficient has a pole at P") from None
    if z1 is INF:  # the line's infinite point goes to u = -1/f
        return -1.0 / f + z0 if f != 0 else INF
    u = z1 - z0
    try:  # u = 0 makes the denominator 1, so the quotient is never 0/0
        return (-1.0 * u + 0.0) / (f * u + 1.0) + z0
    except ZeroDivisionError:
        return INF


def billiard_map(family: BilliardFamily, x: PhasePoint) -> PhasePoint:
    """One application of the phase map F: (Q, P) -> (sigma_P(Q), P').

    sigma_P(Q) lies on the tangent line at P, so P is one of its two
    tangency candidates and P' is the other: the candidate farther from P,
    or E when a candidate is the infinite point.  When sigma_P(Q) lands on
    the parabola, P' is that point itself.
    """
    q, p = x
    z0 = _z_param(p)
    if family.is_a and z0 == 0:
        # Vertex tangency: the involution degenerates to the constant map
        # onto the vertex, the fiberwise continuation of the dynamics.
        if q.eq(p):
            return PhasePoint(p, p)
        vertex = conic_point(0.0)
        return PhasePoint(vertex, vertex)
    q_img = involution(family, p, q)
    try:
        zp, zm = tangency_points(q_img)
    except OnConicError:  # Q' on the parabola: its two tangency points collide
        return PhasePoint(q_img, q_img)
    if chordal_distance(zp, zm) <= 1e-13:
        raise DegenerateTangencyError(
            f"the tangency candidates of {q_img} coincide; P' is ambiguous"
        )
    if zp is INF or zm is INF:
        return PhasePoint(q_img, E_INFINITY)
    return PhasePoint(q_img, conic_point(zp if abs(zp - z0) >= abs(zm - z0) else zm))


@dataclass
class OrbitRecord:
    """Iterates of the phase map with the reason iteration ended."""

    points: list[PhasePoint]
    reason: Literal["completed", "hit-singularity", "left-numeric-domain"]
    detail: str = ""

    @property
    def steps_taken(self) -> int:
        return len(self.points) - 1


#: orbit stops when the tangency parameter comes this close to a singular one
SINGULARITY_GUARD = 1e-8
#: coordinates beyond this modulus leave the supported numeric domain
DOMAIN_BOUND = 1e100


def orbit(family: BilliardFamily, x0: PhasePoint, n: int) -> OrbitRecord:
    """Up to n iterates of the phase map, stopping early near singularities."""
    x0.validate()
    points = [x0]
    x = x0
    for _ in range(n):
        z0 = _z_param(x.p)
        try:
            _check_singular(family, z0, SINGULARITY_GUARD)
        except SingularTangencyError as exc:
            return OrbitRecord(points, "hit-singularity", str(exc))
        if z0 is INF:
            return OrbitRecord(
                points, "left-numeric-domain", "tangency point at infinity"
            )
        try:
            x = billiard_map(family, x)
        except (SingularTangencyError, OnConicError) as exc:
            return OrbitRecord(points, "hit-singularity", str(exc))
        except DegenerateTangencyError as exc:
            return OrbitRecord(points, "left-numeric-domain", str(exc))
        # P first: billiard_map raises before it returns a NaN Q, so a NaN
        # P reads as nan however large Q is
        for z, w, t in (x.p.coords, x.q.coords):
            if z != z or w != w or t != t:
                return OrbitRecord(points, "left-numeric-domain", "coordinates became nan")
            if t != 0 and max(abs(z / t), abs(w / t)) > DOMAIN_BOUND:
                return OrbitRecord(
                    points, "left-numeric-domain", "affine coordinates blew up"
                )
        try:
            x.validate()  # incidence residual of each recorded iterate
        except ValueError as exc:
            return OrbitRecord(points, "left-numeric-domain", str(exc))
        points.append(x)
    return OrbitRecord(points, "completed")
