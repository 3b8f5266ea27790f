"""Complex projective plane, the parabola w = z^2, tangency and the named
projective equivalences between billiard families."""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

import numpy as np

from .numerics import (
    ABS_EPS,
    INF,
    REL_EPS,
    SphereValue,
    _finite_part,
    chordal_distance,
    principal_sqrt,
)

__all__ = [
    "OnConicError",
    "ProjectivePoint",
    "E_INFINITY",
    "PhasePoint",
    "ProjectiveMap",
    "conic_point",
    "on_conic",
    "line_contains",
    "tangency_points",
    "tangency_near",
    "b_family_equivalence",
    "c_family_equivalence",
    "EPS_CUBE_ROOT",
    "cross_norm",
]

#: primitive cube root of unity used by the c-family tables, e^(-2*pi*i/3)
EPS_CUBE_ROOT = cmath.exp(-2j * math.pi / 3)


def _norm(v: Sequence[complex]) -> float:
    return math.hypot(*map(abs, v))


def cross_norm(u: Sequence[complex], v: Sequence[complex]) -> float:
    """Euclidean norm of the cross product of two complex 3-vectors, in
    scalar arithmetic; it vanishes exactly when the vectors are proportional."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return math.hypot(abs(u1 * v2 - u2 * v1), abs(u2 * v0 - u0 * v2), abs(u0 * v1 - u1 * v0))


_ONE = 1 + 0j
_NAN = complex(math.nan, math.nan)


class OnConicError(ValueError):
    """Raised when an operation requires a point off (or on) the parabola."""


def _canonical(z: complex, w: complex, t: complex) -> tuple[complex, complex, complex]:
    """The canonical representative of [z : w : t] for Python complex
    numbers (see :class:`ProjectivePoint`)."""
    az, aw, at = abs(z), abs(w), abs(t)
    total = az + aw + at
    if total == 0:
        raise ValueError("homogeneous coordinates must not all vanish")
    if total != total:
        return _NAN, _NAN, _NAN
    if az >= aw and az >= at:
        coords = (_ONE, w / z, t / z)
    elif aw >= at:
        coords = (z / w, _ONE, t / w)
    else:
        coords = (z / t, w / t, _ONE)
    if total == math.inf and any(c != c for c in coords):
        return _NAN, _NAN, _NAN  # such as inf/inf from two infinite inputs
    return coords


class ProjectivePoint:
    """Point of CP^2 in homogeneous coordinates [z : w : t].

    ``coords`` is a tuple of three Python complex numbers, the canonical
    representative: the first coordinate of largest modulus (the pivot) is
    exactly 1 and the other two are divided by it.  A NaN coordinate, or a
    NaN quotient (two infinite inputs), makes every coordinate NaN.
    ``eq`` tests projective equality (up to a nonzero scalar); ``==`` is
    identity.
    """

    __slots__ = ("coords",)

    def __init__(self, z: complex, w: complex, t: complex = 1.0):
        self.coords = _canonical(complex(z), complex(w), complex(t))

    @staticmethod
    def affine(z: complex, w: complex) -> "ProjectivePoint":
        return ProjectivePoint(z, w, 1.0)

    @property
    def z(self) -> complex:
        return self.coords[0]

    @property
    def w(self) -> complex:
        return self.coords[1]

    @property
    def t(self) -> complex:
        return self.coords[2]

    @property
    def is_infinite(self) -> bool:
        return self.coords[2] == 0

    def affine_pair(self) -> tuple[complex, complex]:
        z, w, t = self.coords
        if t == 0:
            raise ValueError(f"{self} lies on the infinity line")
        return z / t, w / t

    def z_sphere(self) -> SphereValue:
        """z-coordinate as a sphere value (inf on the infinity line)."""
        z, _, t = self.coords
        if t == 0:
            return INF
        return SphereValue(z / t)

    def eq(self, other: "ProjectivePoint") -> bool:
        u, v = self.coords, other.coords
        return cross_norm(u, v) <= max(ABS_EPS, REL_EPS * _norm(u) * _norm(v))

    def __repr__(self):
        z, w, t = self.coords
        return f"[{z:.6g} : {w:.6g} : {t:.6g}]"


#: the infinite point of the parabola, [0 : 1 : 0]
E_INFINITY = ProjectivePoint(0.0, 1.0, 0.0)


_new_point = object.__new__


def _point(z: complex, w: complex, t: complex) -> ProjectivePoint:
    """``ProjectivePoint(z, w, t)`` for three Python complex numbers, which
    need no conversion: the phase map builds its points through here."""
    p = _new_point(ProjectivePoint)
    p.coords = _canonical(z, w, t)
    return p


def conic_point(z0: SphereValue | complex) -> ProjectivePoint:
    """The point (z0, z0^2) of the parabola; infinity parameter gives E."""
    v = _finite_part(z0)
    if v is None:
        return E_INFINITY
    if abs(v) > 1.0:
        # scale-robust representative [1/z0 : 1 : 1/z0^2]
        return _point(1.0 / v, _ONE, 1.0 / (v * v))
    return _point(v, v * v, _ONE)


def on_conic(p: ProjectivePoint) -> bool:
    """Whether p satisfies w*t = z^2 projectively.

    Purely relative: the compared products shrink quadratically in the
    canonical representative of far-out affine points, so an absolute floor
    would misclassify points that merely have large coordinates.
    """
    z, w, t = p.coords
    wt = w * t
    return abs(wt - z * z) <= REL_EPS * max(abs(z) ** 2, abs(wt))


def line_contains(line: Sequence[complex], p: ProjectivePoint) -> bool:
    u, v = line, p.coords
    res = abs(u[0] * v[0] + u[1] * v[1] + u[2] * v[2])
    return res <= max(ABS_EPS, REL_EPS * _norm(u) * _norm(v))


class PhasePoint(NamedTuple):
    """A pair (Q, P) with P on the parabola and Q on the tangent line at P."""

    q: ProjectivePoint
    p: ProjectivePoint

    def validate(self) -> None:
        if not on_conic(self.p):
            raise ValueError(f"P = {self.p} is not on the parabola")
        self.validate_incidence()

    def validate_incidence(self) -> None:  # Q on the tangent line at P
        z, w, t = self.p.coords
        if not line_contains((-2.0 * z, t, w), self.q):  # the tangent line at P
            raise ValueError(f"Q = {self.q} is not on the tangent line at {self.p}")


def tangency_points(q: ProjectivePoint) -> tuple[complex | SphereValue, complex | SphereValue]:
    """The parameters (z+, z-) of the two points of the parabola whose
    tangent lines pass through q.

    For affine q = (z, w) they are z +/- sqrt(z^2 - w) (principal branch).
    A point [1 : c : 0] of the infinity line other than E has the pair
    (INF, c/2): E and (c/2, c^2/4).  Points on the parabola itself are
    rejected: the two tangency points collide there.
    """
    if on_conic(q):
        raise OnConicError(f"{q} lies on the parabola; tangency points collide")
    z, w, t = q.coords
    if t == 0:
        # lines through [1 : c : 0]: the infinity line (tangent at E) and the
        # affine tangent line with direction slope c = 2 z0
        return INF, w / z / 2.0
    z, w = z / t, w / t
    s = principal_sqrt(z * z - w)
    return z + s, z - s


def tangency_near(q: ProjectivePoint, hint: SphereValue | complex) -> ProjectivePoint:
    """Tangency point of q whose parameter is nearest to ``hint`` (chordal)."""
    zp, zm = tangency_points(q)
    return conic_point(zp if chordal_distance(zp, hint) <= chordal_distance(zm, hint) else zm)


class ProjectiveMap:
    """Invertible projective transformation given by a nonsingular 3x3 matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError("projective map needs a 3x3 matrix")
        if abs(np.linalg.det(m)) < 1e-300:
            raise ValueError("projective map matrix is singular")
        self.matrix = m

    def __call__(self, p: ProjectivePoint) -> ProjectivePoint:
        z, w, t = (self.matrix @ np.asarray(p.coords)).tolist()
        return ProjectivePoint(z, w, t)

    def inverse(self) -> "ProjectiveMap":
        return ProjectiveMap(np.linalg.inv(self.matrix))


def b_family_equivalence() -> ProjectiveMap:
    """The projective map carrying the b1 billiard to the b2 billiard.

    Affine action: (z, w) -> (i(w-1)/(2z-w-1), (2z+w+1)/(2z-w-1)); it maps
    the parabola to itself and pulls the b2 integral back to the b1 one.
    """
    return ProjectiveMap(
        [
            [0.0, 0.5j, -0.5j],
            [1.0, 0.5, 0.5],
            [1.0, -0.5, -0.5],
        ]
    )


def c_family_equivalence() -> ProjectiveMap:
    """The projective map carrying the c2 billiard to the c1 billiard.

    Pulls the c1 integral back to -3 times the c2 integral.
    """
    e = EPS_CUBE_ROOT
    eb = e.conjugate()
    return ProjectiveMap(
        [
            [-0.5, 0.5, 0.5],
            [1.0, eb / 2, e / 2],
            [1.0, e / 2, eb / 2],
        ]
    )
