"""The seven exotic dual billiard structures on the parabola and the
phase-space map.

A dual billiard attaches to every point P of the parabola a projective
involution of its tangent line fixing P.  The phase map sends (Q, P) to
(Q', P') where Q' is the involution image of Q and P' is the other tangency
point of Q'.

Every involution fixing P is u -> -u/(1 + f(z0) u) in the offset coordinate
u = z - z0, so a family is one rational coefficient f on the parabola, the
sum of r_i/(z0 - z_i) over its finite base points (rho/z0 for a1 and a2):
``spec.coefficient(N)`` of :mod:`dualbill.families` gives it, and the
singular tangency parameters come from there too.

In the offset state (z0, u), P = (z0, z0^2) and Q at offset u on its
tangent line, the phase map has the closed form (z0, u) -> (z0 + 2u', -u')
with u' = -u/(1 + f(z0) u): Q' is the meeting point of the tangent lines at
P and P'.  :func:`orbit` and :func:`billiard_map` step through projective
points and the tangency square root; the private kernel
:func:`_offset_orbit` iterates the closed form with the same stops, and
the conservation, translation and abel checks run it.  All three take the
family's coefficient and singular set once per call, share the
involution's arithmetic, :func:`_image`, and test each step against that
set with :func:`_singular_near` before they take the next; the kernel
tests the domain bound by :func:`_offset_stop`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot
from typing import Literal

from .families import ALL_FAMILY_TAGS, FAMILIES, FamilySpec
from .geometry import (
    E_INFINITY,
    OnConicError,
    PhasePoint,
    ProjectivePoint,
    _ONE,
    _point,
    conic_point,
    on_conic,
    tangency_points,
)
from .numerics import ABS_EPS, INF, INF_THRESHOLD, REL_EPS, SphereValue

__all__ = [
    "BilliardFamily",
    "ALL_FAMILY_TAGS",
    "SingularTangencyError",
    "involution",
    "billiard_map",
    "OrbitRecord",
    "orbit",
]

class SingularTangencyError(ValueError):
    """The tangency point P is a singularity of the billiard structure."""


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


def _z_param(pt: ProjectivePoint) -> complex | SphereValue:
    """z-coordinate of a point as a plain complex number; INF on the infinity line."""
    z, _, t = pt.coords
    return INF if t == 0 else z / t


def _point_on_tangent(z0: complex, z1: complex | SphereValue) -> ProjectivePoint:
    """Point of the tangent line at (z0, z0^2) with z-coordinate z1."""
    if z1 is INF:
        return ProjectivePoint(1.0, 2.0 * z0, 0.0)
    return _point(z1, 2.0 * z0 * z1 - z0 * z0, _ONE)


def _check_singular(family: BilliardFamily, z0: complex | SphereValue, radius: float) -> None:
    """Reject tangency parameters (a complex number or INF) too near a
    singular one, as :func:`_singular_near` finds it, with an error that
    names both."""
    spec = family.spec
    s = _singular_near(z0, spec.singular_finite, spec.singular_at_infinity, radius)
    if s is not None:
        raise SingularTangencyError(
            f"tangency parameter {z0!r} is within reach of the "
            f"singular parameter {s!r} of family {family.label()}"
        )


def _singular_near(z0, finite: tuple[complex, ...], at_infinity: bool, radius: float):
    """The singular parameter of a family's singular set within reach of
    z0, or None.

    Finite singular parameters use the affine distance ``radius``; the
    infinite point is considered hit once |z0| reaches INF_THRESHOLD
    (escaping orbits legitimately grow large before that).
    """
    if z0 is INF or abs(z0) >= INF_THRESHOLD:
        return INF if at_infinity else None
    for s in finite:
        if abs(z0 - s) <= radius:
            return s
    return None


#: the involution is refused this close to a singular tangency parameter
SINGULAR_RADIUS = 1e-12
_AT_E = "involution at the infinite point is outside the affine chart"


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
        raise SingularTangencyError(_AT_E)
    _check_singular(family, z0, SINGULAR_RADIUS)
    return _point_on_tangent(z0, _involution_z(family, z0, _z_param(q)))


def _image(f, u):
    """The involution with coefficient value f in the offset coordinate:
    the image -u/(1 + f u) of the offset u (a number or INF), INF at its
    pole.  The one statement of its arithmetic, for :func:`_involution_z`
    and the steps of :func:`billiard_map` and :func:`_offset_orbit`."""
    if u is INF:  # the line's infinite point goes to u = -1/f
        return -1.0 / f if f != 0 else INF
    try:  # u = 0 makes the denominator 1, so the quotient is never 0/0
        return (-1.0 * u + 0.0) / (f * u + 1.0)
    except ZeroDivisionError:
        return INF


def _involution_z(family: BilliardFamily, z0, z1):
    """z-coordinate of the involution image of the point z1 (a number or
    INF) of the tangent line at the nonsingular parameter z0: in the offset
    coordinate u = z1 - z0 the image is -u/(1 + f(z0) u), INF at its pole.

    Pure arithmetic on z0 and z1, so number types other than complex pass
    through it: the derivative jets of :mod:`dualbill.forms`, and numpy
    arrays of lanes.  The pole is found by the division raising, as Python
    numbers and jets do; on a lane it gives no INF but a non-finite value,
    or a huge one where numpy's rounding leaves the denominator nonzero.
    """
    try:
        f = family.spec.coefficient(family.n)(z0)
    except ZeroDivisionError:
        raise SingularTangencyError("involution coefficient has a pole at P") from None
    u = _image(f, INF if z1 is INF else z1 - z0)
    return INF if u is INF else u + z0


def billiard_map(family: BilliardFamily, x: PhasePoint) -> PhasePoint:
    """One application of the phase map F: (Q, P) -> (sigma_P(Q), P').

    x must be a phase point (``PhasePoint.validate`` holds, as it does on
    every iterate of :func:`orbit`): this map does not test it again.

    sigma_P(Q) lies on the tangent line at P, so P is one of its two
    tangency candidates and P' is the other: the candidate farther from P,
    or E when a candidate is the infinite point.  When sigma_P(Q) lands on
    the parabola, P' is that point itself.
    """
    spec = family.spec
    q, p = x
    z, _, t = p.coords
    if t == 0:
        raise SingularTangencyError(_AT_E)
    z0 = z / t
    if z0 == 0 and spec.takes_n:
        # Vertex tangency: the involution degenerates to the constant map
        # onto the vertex, the fiberwise continuation of the dynamics.
        if q.eq(p):
            return PhasePoint(p, p)
        vertex = conic_point(0.0)
        return PhasePoint(vertex, vertex)
    if _singular_near(z0, spec.singular_finite, spec.singular_at_infinity, SINGULAR_RADIUS) is not None:
        _check_singular(family, z0, SINGULAR_RADIUS)
    z, _, t = q.coords
    # every pole of f is a singular parameter, so f(z0) is a number here
    u = _image(spec.coefficient(family.n)(z0), INF if t == 0 else z / t - z0)
    q_img = _point_on_tangent(z0, INF if u is INF else u + z0)
    try:
        zp, zm = tangency_points(q_img)
    except OnConicError:  # Q' on the parabola: its two tangency points collide
        return PhasePoint(q_img, q_img)
    # tuple.__new__ builds the same PhasePoint without the NamedTuple's
    # Python-level __new__, a tenth of a step
    if zp is INF:
        return tuple.__new__(PhasePoint, (q_img, E_INFINITY))
    p_img = conic_point(zp if abs(zp - z0) >= abs(zm - z0) else zm)
    return tuple.__new__(PhasePoint, (q_img, p_img))


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
#: |t| beyond this keeps z/t and w/t of a canonical point within DOMAIN_BOUND
_SAFE_T = 10.0 / DOMAIN_BOUND


def orbit(family: BilliardFamily, x0: PhasePoint, n: int) -> OrbitRecord:
    """Up to n iterates of the phase map, stopping early near singularities."""
    x0.validate()
    points = [x0]
    x = x0
    z0 = _z_param(x0.p)
    spec = family.spec
    finite, at_infinity = spec.singular_finite, spec.singular_at_infinity
    for _ in range(n):
        if _singular_near(z0, finite, at_infinity, SINGULARITY_GUARD) is not None:
            try:
                _check_singular(family, z0, SINGULARITY_GUARD)
            except SingularTangencyError as exc:
                return OrbitRecord(points, "hit-singularity", str(exc))
        if z0 is INF:
            return OrbitRecord(points, "left-numeric-domain", "tangency point at infinity")
        x = billiard_map(family, x)
        (z, w, t), (qz, qw, qt) = x.p.coords, x.q.coords
        # One test of the new iterate: Q' on the tangent line (-2z, t, w) at
        # P' as line_contains decides it, which a NaN coordinate fails, and
        # z/t, w/t within DOMAIN_BOUND, which coordinates of modulus at most
        # 1 keep when |t| > _SAFE_T.  Only a failure looks at each fact alone.
        u0 = -2.0 * z
        at, aqt = abs(t), abs(qt)
        if not (
            abs(u0 * qz + t * qw + w * qt)
            <= max(ABS_EPS, REL_EPS * hypot(abs(u0), at, abs(w)) * hypot(abs(qz), abs(qw), aqt))
            and (at > _SAFE_T or t == 0)
            and (aqt > _SAFE_T or qt == 0)
        ):
            stop = _stop_detail(x)
            if stop:
                return OrbitRecord(points, "left-numeric-domain", stop)
        z0 = INF if t == 0 else z / t
        points.append(x)
    return OrbitRecord(points, "completed")


def _stop_detail(x: PhasePoint) -> str:
    """Why orbit stops at the iterate x, or "" when it may go on."""
    # P first: billiard_map raises before it returns a NaN Q, so a NaN P
    # reads as nan however large Q is
    for z, w, t in (x.p.coords, x.q.coords):
        if z != z or w != w or t != t:
            return "coordinates became nan"
        if t != 0 and max(abs(z / t), abs(w / t)) > DOMAIN_BOUND:
            return "affine coordinates blew up"
    try:  # P' is on the parabola by construction: conic_point, E or Q'
        x.validate_incidence()
    except ValueError as exc:
        return str(exc)
    return ""


#: |z0| + |u| below this keeps the affine coordinates of P and Q within
#: DOMAIN_BOUND: |z0^2 + 2 z0 u| <= 2 (|z0| + |u|)^2
_SAFE_OFFSET = 0.5 * DOMAIN_BOUND**0.5


def _offset_orbit(
    family: BilliardFamily, z0: complex, u: complex | SphereValue, n: int
) -> tuple[list[complex], list[complex | SphereValue], str, str, int]:
    """Up to n steps of the phase map in the offset state (z0, u), from a
    start with P = (z0, z0^2) affine: Q = (z0 + u, z0^2 + 2 z0 u) on the
    tangent line at P, or its infinite point for u = INF.

    Q' lies at offset u' = -u/(1 + f(z0) u) (:func:`_image`), so its
    tangency parameters are z0 and z0 + 2u', and a step is (z0, u) ->
    (z0 + 2u', -u').  The stops are those of :func:`orbit`, at the same
    step and with the same details, and each step tests them in its order:
    the SINGULARITY_GUARD test of z0 by :func:`_singular_near`, which takes
    |z0| >= INF_THRESHOLD for the infinite point, worded by
    ``_check_singular``; z0 = INF, left by a step with u' = INF (1 + f u =
    0), which sends P' to E; and, on the state the step reaches, a NaN or
    an affine coordinate of P' or Q' beyond DOMAIN_BOUND (:func:`_offset_stop`,
    asked only when |z0| + |u| is not below ``_SAFE_OFFSET``).  The a-family
    vertex is a singular parameter, so the guard stops before
    ``billiard_map``'s vertex rule would apply.

    Returns the lists of z0 and of u of the iterates, the stop reason, its
    detail and the number of steps taken.  An iterate at E has no offset
    state and is not listed: the steps exceed the listed iterates by one
    exactly when the last step went to E, and that iterate's Q is the
    infinite point of the last listed tangent line, (z0s[-1], INF).
    """
    spec = family.spec
    f = spec.coefficient(family.n)
    finite, at_infinity = spec.singular_finite, spec.singular_at_infinity
    z0s, us = [z0], [u]
    for k in range(n):
        if _singular_near(z0, finite, at_infinity, SINGULARITY_GUARD) is not None:
            try:
                _check_singular(family, z0, SINGULARITY_GUARD)
            except SingularTangencyError as exc:
                return z0s, us, "hit-singularity", str(exc), k
        if z0 is INF:
            return z0s, us, "left-numeric-domain", "tangency point at infinity", k
        u = _image(f(z0), u)
        if u is INF:  # P' is E: the step is taken, and its iterate not listed
            z0 = INF
            continue
        z0, u = z0 + 2.0 * u, -u
        if not abs(z0) + abs(u) < _SAFE_OFFSET:
            stop = _offset_stop(z0, u)
            if stop:
                return z0s, us, "left-numeric-domain", stop, k
        z0s.append(z0)
        us.append(u)
    return z0s, us, "completed", "", n


def _offset_stop(z0: complex, u: complex) -> str:
    """Why the offset orbit stops at the state (z0, u), as
    :func:`_stop_detail` decides it on the affine coordinates of P and then
    of Q; "" when it may go on."""
    for z, w in ((z0, z0 * z0), (z0 + u, z0 * z0 + 2.0 * z0 * u)):
        if z != z or w != w:
            return "coordinates became nan"
        if max(abs(z), abs(w)) > DOMAIN_BOUND:
            return "affine coordinates blew up"
    return ""
