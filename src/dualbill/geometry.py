"""Complex projective plane, the parabola w = z^2, tangency and the named
projective equivalences between billiard families."""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

import numpy as np

from .numerics import ABS_EPS, INF, REL_EPS, SphereValue, chordal_distance, principal_sqrt

__all__ = [
    "OnConicError",
    "ProjectivePoint",
    "E_INFINITY",
    "PhasePoint",
    "ProjectiveMap",
    "conic_point",
    "on_conic",
    "tangent_line",
    "line_contains",
    "TangencyPair",
    "tangency_points",
    "tangency_near",
    "b_family_equivalence",
    "c_family_equivalence",
    "order3_symmetries",
    "EPS_CUBE_ROOT",
    "cross_norm",
]

#: primitive cube root of unity used by the c-family tables, e^(-2*pi*i/3)
EPS_CUBE_ROOT = cmath.exp(-2j * math.pi / 3)


def _norm(v: Sequence[complex]) -> float:
    return math.hypot(*map(abs, v))


def cross_norm(u: Sequence[complex], v: Sequence[complex]) -> float:
    """Euclidean norm of the cross product of two complex 3-vectors, in
    scalar arithmetic; it vanishes exactly when the vectors are proportional.

    Pass Python complex sequences (``coords.tolist()``) on hot paths: numpy
    scalars work, but their arithmetic is several times slower.
    """
    u0, u1, u2 = u
    v0, v1, v2 = v
    return math.hypot(abs(u1 * v2 - u2 * v1), abs(u2 * v0 - u0 * v2), abs(u0 * v1 - u1 * v0))


class OnConicError(ValueError):
    """Raised when an operation requires a point off (or on) the parabola."""


class ProjectivePoint:
    """Point of CP^2 in homogeneous coordinates [z : w : t].

    The stored representative is canonical: all coordinates are divided by
    the one of largest modulus, which is then 1 only up to rounding: numpy's
    complex division can leave its real part at 1 - 2^-53 and its imaginary
    part at about 1e-16.  Equality is projective (up to a nonzero scalar).
    """

    __slots__ = ("coords",)

    def __init__(self, z: complex, w: complex, t: complex = 1.0):
        v = np.array([z, w, t], dtype=complex)
        mags = np.abs(v)
        k = int(np.argmax(mags))
        if mags[k] == 0:
            raise ValueError("homogeneous coordinates must not all vanish")
        self.coords = v / v[k]

    @staticmethod
    def affine(z: complex, w: complex) -> "ProjectivePoint":
        return ProjectivePoint(z, w, 1.0)

    @property
    def z(self) -> complex:
        return complex(self.coords[0])

    @property
    def w(self) -> complex:
        return complex(self.coords[1])

    @property
    def t(self) -> complex:
        return complex(self.coords[2])

    @property
    def is_infinite(self) -> bool:
        return self.t == 0

    def affine_pair(self) -> tuple[complex, complex]:
        if self.t == 0:
            raise ValueError(f"{self} lies on the infinity line")
        return self.z / self.t, self.w / self.t

    def z_sphere(self) -> SphereValue:
        """z-coordinate as a sphere value (inf on the infinity line)."""
        if self.t == 0:
            return INF
        return SphereValue(self.z / self.t)

    def eq(self, other: "ProjectivePoint") -> bool:
        u, v = self.coords.tolist(), other.coords.tolist()
        return cross_norm(u, v) <= max(ABS_EPS, REL_EPS * _norm(u) * _norm(v))

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.eq(other)

    def __hash__(self):  # points are compared through eq(); keep unhashable-ish
        raise TypeError("ProjectivePoint is not hashable")

    def __repr__(self):
        z, w, t = self.coords
        return f"[{z:.6g} : {w:.6g} : {t:.6g}]"


#: the infinite point of the parabola, [0 : 1 : 0]
E_INFINITY = ProjectivePoint(0.0, 1.0, 0.0)


def conic_point(z0: SphereValue | complex) -> ProjectivePoint:
    """The point (z0, z0^2) of the parabola; infinity parameter gives E."""
    z0 = SphereValue.coerce(z0)
    if z0.is_inf:
        return E_INFINITY
    v = z0.value
    if abs(v) > 1.0:
        # scale-robust representative [1/z0 : 1 : 1/z0^2]
        return ProjectivePoint(1.0 / v, 1.0, 1.0 / (v * v))
    return ProjectivePoint(v, v * v, 1.0)


def on_conic(p: ProjectivePoint) -> bool:
    """Whether p satisfies w*t = z^2 projectively.

    Purely relative: the compared products shrink quadratically in the
    canonical representative of far-out affine points, so an absolute floor
    would misclassify points that merely have large coordinates.
    """
    z, w, t = p.coords
    res = abs(w * t - z * z)
    scale = max(abs(z) ** 2, abs(w * t))
    return res <= REL_EPS * scale


def tangent_line(p: ProjectivePoint) -> np.ndarray:
    """Homogeneous covector of the projective tangent line to the parabola at p.

    For affine p = (z0, z0^2) this is the line w = 2 z0 z - z0^2; at the
    infinite point E it is the infinity line t = 0.
    """
    if not on_conic(p):
        raise OnConicError(f"{p} is not on the parabola")
    if p.eq(E_INFINITY):
        return np.array([0.0, 0.0, 1.0], dtype=complex)
    z0 = p.z / p.t
    return np.array([-2.0 * z0, 1.0, z0 * z0], dtype=complex)


def line_contains(line: np.ndarray, p: ProjectivePoint) -> bool:
    u, v = line.tolist(), p.coords.tolist()
    res = abs(u[0] * v[0] + u[1] * v[1] + u[2] * v[2])
    return res <= max(ABS_EPS, REL_EPS * _norm(u) * _norm(v))


class PhasePoint(NamedTuple):
    """A pair (Q, P) with P on the parabola and Q on the tangent line at P."""

    q: ProjectivePoint
    p: ProjectivePoint

    def validate(self) -> None:
        if not on_conic(self.p):
            raise ValueError(f"P = {self.p} is not on the parabola")
        if not line_contains(tangent_line(self.p), self.q):
            raise ValueError(f"Q = {self.q} is not on the tangent line at {self.p}")

    def z0(self) -> SphereValue:
        return self.p.z_sphere()

    def z1(self) -> SphereValue:
        return self.q.z_sphere()


class TangencyPair(NamedTuple):
    plus: ProjectivePoint
    minus: ProjectivePoint
    near_branch: bool


#: |z^2 - w| below this marks a point as near the tangency branch locus
NEAR_BRANCH_THRESHOLD = 1e-4


def tangency_points(q: ProjectivePoint) -> TangencyPair:
    """The two points of the parabola whose tangent lines pass through q.

    For affine q = (z, w) the tangency parameters are z +/- sqrt(z^2 - w)
    (principal branch).  A point on the infinity line other than E has the
    pair (E, (c/2, c^2/4)) where [1 : c : 0].  Points on the parabola itself
    are rejected: the two tangency points collide there.
    """
    if on_conic(q):
        raise OnConicError(f"{q} lies on the parabola; tangency points collide")
    if q.is_infinite:
        # lines through [1 : c : 0]: the infinity line (tangent at E) and the
        # affine tangent line with direction slope c = 2 z0
        c = q.w / q.z
        return TangencyPair(E_INFINITY, conic_point(c / 2.0), False)
    z, w = q.affine_pair()
    disc = z * z - w
    s = principal_sqrt(disc)
    near = abs(disc) < NEAR_BRANCH_THRESHOLD
    return TangencyPair(conic_point(z + s), conic_point(z - s), near)


def tangency_near(q: ProjectivePoint, hint: SphereValue | complex) -> ProjectivePoint:
    """Tangency point of q whose parameter is nearest to ``hint`` (chordal)."""
    pair = tangency_points(q)
    dp = chordal_distance(pair.plus.z_sphere(), hint)
    dm = chordal_distance(pair.minus.z_sphere(), hint)
    return pair.plus if dp <= dm else pair.minus


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
        v = self.matrix @ p.coords
        return ProjectivePoint(v[0], v[1], v[2])

    def apply_affine(self, z: complex, w: complex) -> ProjectivePoint:
        return self(ProjectivePoint.affine(z, w))

    def inverse(self) -> "ProjectiveMap":
        return ProjectiveMap(np.linalg.inv(self.matrix))

    def compose(self, other: "ProjectiveMap") -> "ProjectiveMap":
        return ProjectiveMap(self.matrix @ other.matrix)

    def det(self) -> complex:
        return complex(np.linalg.det(self.matrix))

    def is_projective_identity(self, rel: float = 1e-12) -> bool:
        m = self.matrix
        scale = float(np.max(np.abs(m)))
        residual = float(np.max(np.abs(m - m[0, 0] * np.eye(3))))
        return residual <= rel * scale


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


def order3_symmetries() -> tuple[ProjectiveMap, ProjectiveMap]:
    """Generators of the order-3 symmetry groups of the two c-family integrals.

    The first acts as (z, w) -> (eps z, eps^2 w); the second cyclically
    permutes the base points (0,0) -> E -> (1,1) of the c2 integral.
    """
    e = EPS_CUBE_ROOT
    sym_c1 = ProjectiveMap(np.diag([e, e * e, 1.0]))
    sym_c2 = ProjectiveMap([[-1.0, 1.0, 0.0], [-2.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
    return sym_c1, sym_c2
