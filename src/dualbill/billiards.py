"""The seven exotic dual billiard structures on the parabola and the
phase-space map.

A dual billiard attaches to every point P of the parabola a projective
involution of its tangent line fixing P.  The phase map sends (Q, P) to
(Q', P') where Q' is the involution image of Q and P' is the other tangency
point of Q'.  Families:

* a1(N), a2(N): the involution is a Moebius map of the ratio z/z0 depending
  only on a rational rotation number rho.
* b1, b2, c1, c2, d: the involution is u -> -u/(1 + f(z0) u) in the offset
  coordinate u = z - z0, with a family-specific rational coefficient f.

The per-family facts used here (the translation giving rho, the coefficient
f and the singular tangency parameters) live in :mod:`dualbill.families`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .families import ALL_FAMILY_TAGS, FAMILIES, FamilySpec
from .geometry import (
    OnConicError,
    PhasePoint,
    ProjectivePoint,
    conic_point,
    on_conic,
    tangency_points,
)
from .numerics import DEFAULT_TOL, INF, SphereValue, SpherePoleError, Tolerance, chordal_distance

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
        """Rotation parameter of the a-family involution, 2 - shift(N)."""
        if not self.is_a:
            raise ValueError(f"family {self.tag!r} has no rotation parameter")
        return 2 - self.spec.shift(self.n)

    def singular_tangency_parameters(self) -> list[SphereValue]:
        """z-parameters of the singular tangency points (the base points on
        the parabola), including the infinite point where applicable."""
        return list(self.spec.singular_parameters)

    def label(self) -> str:
        return f"{self.tag}({self.n})" if self.is_a else self.tag

    @staticmethod
    def parse(tag: str, n: int | None = None) -> "BilliardFamily":
        tag = tag.lower()
        if tag in FAMILIES and FAMILIES[tag].takes_n:
            return BilliardFamily(tag, 1 if n is None else n)
        return BilliardFamily(tag)


def f_coefficient(family: BilliardFamily, z0: complex | SphereValue) -> SphereValue:
    """Involution coefficient f(z0) for the b/c/d families (inf at poles)."""
    f = family.spec.f
    if f is None:
        raise ValueError("a-families use the rotation form, not a coefficient f")
    z0 = SphereValue.coerce(z0)
    if z0.is_inf:
        raise SingularTangencyError("coefficient undefined at the infinite point")
    try:
        return f(z0.value)
    except SpherePoleError as exc:  # 0/0 at a common zero cannot happen here
        raise SingularTangencyError(str(exc)) from exc


def _mobius(a, b, c, d, x: SphereValue) -> SphereValue:
    """(a x + b)/(c x + d) on the sphere."""
    if x.is_inf:
        return SphereValue(a) / SphereValue.coerce(c) if c != 0 else INF
    num = a * x.value + b
    den = c * x.value + d
    if den == 0:
        if num == 0:
            raise SpherePoleError("degenerate Moebius evaluation")
        return INF
    return SphereValue(num / den)


def _point_on_tangent(z0: complex, z1: SphereValue) -> ProjectivePoint:
    """Point of the tangent line at (z0, z0^2) with z-coordinate z1."""
    if z1.is_inf:
        return ProjectivePoint(1.0, 2.0 * z0, 0.0)
    z = z1.value
    return ProjectivePoint.affine(z, 2.0 * z0 * z - z0 * z0)


def _check_singular(
    family: BilliardFamily,
    z0: SphereValue,
    radius: float,
    tol: Tolerance = DEFAULT_TOL,
) -> None:
    """Reject tangency parameters too near a singular one.

    Finite singular parameters use the affine distance; the infinite point
    is considered hit once |z0| reaches the tolerance's infinity threshold
    (escaping orbits legitimately grow large before that).
    """
    for s in family.singular_tangency_parameters():
        if s.is_inf:
            hit = z0.is_inf or abs(z0.value) >= tol.inf_threshold
        else:
            hit = (not z0.is_inf) and abs(z0.value - s.value) <= radius
        if hit:
            raise SingularTangencyError(
                f"tangency parameter {z0!r} is within reach of the "
                f"singular parameter {s!r} of family {family.label()}"
            )


def involution(
    family: BilliardFamily,
    p: ProjectivePoint,
    q: ProjectivePoint,
    tol: Tolerance = DEFAULT_TOL,
    *,
    singular_radius: float = 1e-12,
) -> ProjectivePoint:
    """Image of Q under the tangent-line involution at P.

    P must be a nonsingular affine point of the parabola with Q on its
    tangent line.  The image where the involution has its pole is the
    infinite point of the line, returned as a valid projective point.
    """
    if not on_conic(p, tol):
        raise ValueError(f"P = {p} is not on the parabola")
    z0s = p.z_sphere()
    if z0s.is_inf:
        raise SingularTangencyError(
            "involution at the infinite point is outside the affine chart"
        )
    _check_singular(family, z0s, singular_radius)
    z0 = z0s.value
    # z-coordinate of Q on the line (infinite point allowed)
    if q.is_infinite:
        z1 = INF
    else:
        z1 = SphereValue(q.z / q.t)
    if family.is_a:
        rho = float(family.rho)
        zeta = z1 / z0
        zeta_img = _mobius(rho - 1.0, -(rho - 2.0), rho, -(rho - 1.0), zeta)
        z_img = SphereValue.coerce(z0) * zeta_img
    else:
        f = f_coefficient(family, z0)
        u = z1 - z0
        if f.is_inf:
            raise SingularTangencyError("involution coefficient has a pole at P")
        u_img = _mobius(-1.0, 0.0, f.value, 1.0, u)
        z_img = u_img + z0
    return _point_on_tangent(z0, z_img)


def billiard_map(
    family: BilliardFamily, x: PhasePoint, tol: Tolerance = DEFAULT_TOL
) -> PhasePoint:
    """One application of the phase map F: (Q, P) -> (sigma_P(Q), P').

    P' is the tangency point of sigma_P(Q) other than P (the candidate
    farther from P); when sigma_P(Q) lands on the parabola, P' is that
    point itself.
    """
    q, p = x
    z0s = p.z_sphere()
    if family.is_a and not z0s.is_inf and z0s.value == 0:
        # Vertex tangency: the involution degenerates to the constant map
        # onto the vertex, the fiberwise continuation of the dynamics.
        if q.eq(p, tol):
            return PhasePoint(p, p)
        vertex = conic_point(0.0)
        return PhasePoint(vertex, vertex)
    q_img = involution(family, p, q, tol)
    if on_conic(q_img, tol):
        return PhasePoint(q_img, q_img)
    pair = tangency_points(q_img, tol)
    if chordal_distance(pair.plus.z_sphere(), pair.minus.z_sphere()) <= 1e-13:
        raise DegenerateTangencyError(
            f"the tangency candidates of {q_img} coincide; P' is ambiguous"
        )
    dp = chordal_distance(pair.plus.z_sphere(), z0s)
    dm = chordal_distance(pair.minus.z_sphere(), z0s)
    p_new = pair.plus if dp >= dm else pair.minus
    return PhasePoint(q_img, p_new)


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


def orbit(
    family: BilliardFamily,
    x0: PhasePoint,
    n: int,
    tol: Tolerance = DEFAULT_TOL,
    *,
    guard: float = SINGULARITY_GUARD,
) -> OrbitRecord:
    """Up to n iterates of the phase map, stopping early near singularities."""
    x0.validate(tol)
    points = [x0]
    x = x0
    for _ in range(n):
        z0s = x.p.z_sphere()
        try:
            _check_singular(family, z0s, guard)
        except SingularTangencyError as exc:
            return OrbitRecord(points, "hit-singularity", str(exc))
        if z0s.is_inf:
            return OrbitRecord(
                points, "left-numeric-domain", "tangency point at infinity"
            )
        try:
            x = billiard_map(family, x, tol)
        except (SingularTangencyError, OnConicError) as exc:
            return OrbitRecord(points, "hit-singularity", str(exc))
        except (DegenerateTangencyError, SpherePoleError) as exc:
            return OrbitRecord(points, "left-numeric-domain", str(exc))
        if any(c != c for pt in (x.q, x.p) for c in pt.coords):
            return OrbitRecord(points, "left-numeric-domain", "coordinates became nan")
        for pt in (x.q, x.p):
            if not pt.is_infinite:
                zz, ww = pt.affine_pair()
                if max(abs(zz), abs(ww)) > DOMAIN_BOUND:
                    return OrbitRecord(
                        points, "left-numeric-domain", "affine coordinates blew up"
                    )
        try:
            x.validate(tol)  # incidence residual of each recorded iterate
        except ValueError as exc:
            return OrbitRecord(points, "left-numeric-domain", str(exc))
        points.append(x)
    return OrbitRecord(points, "completed")
