"""Level-curve parametrizations, fiber lifts, covering branch points,
critical fiber decompositions and elliptic models.

Regular level curves of the a1, a2, b1, b2 and d integrals are rational and
carry explicit parametrizations; the c-family level curves are elliptic and
are handled implicitly (polynomial plus line slicing).  The double cover of
a level curve by its invariant fiber branches where the curve crosses the
parabola transversally; for the b and d families those branch parameters
feed a genus-one model y^2 = p(t) whose periods are computed by contour
quadrature.

What kind of curve and fiber a family has, its critical values and which
family b2 is the image of are read from :mod:`dualbill.families`; the
per-family algorithms (parametrizations, lifts, inverses, branch points and
the critical cells) sit here, one lookup table each.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .billiards import BilliardFamily
from .geometry import E_INFINITY, EPS_CUBE_ROOT, PhasePoint, ProjectivePoint, conic_point
from .integrals import (
    BiPoly,
    coefficients_a1,
    coefficients_a2,
    critical_values,
    first_integral,
    indeterminacy_set,
)
from .numerics import (
    INF,
    BranchedSqrt,
    SphereValue,
    chordal_distance,
    plan_route,
    principal_sqrt,
    roots as poly_roots,
    Polynomial,
    segment_integrate,
    sphere_eq,
)

__all__ = [
    "is_regular",
    "parametrize_level",
    "lift_fiber",
    "lift_by_sheet",
    "curve_parameter",
    "sheet_sqrt",
    "branch_points",
    "elliptic_poly",
    "EllipticModel",
    "elliptic_model",
    "lattice_closure_residual",
    "CurveComponent",
    "critical_fiber_components",
    "component_product_residual",
    "FiberComponent",
    "FiberModel",
    "fiber_type",
    "LevelCurveModel",
    "level_curve_model",
    "point_on_level",
    "tangency_gap",
]

_Z = BiPoly.var_z()
_W = BiPoly.var_w()
_ONE = BiPoly.const(1)


def is_regular(family: BilliardFamily, lam) -> bool:
    """Whether lam avoids every critical value of the family's integral."""
    lam = SphereValue.coerce(lam)
    return not any(sphere_eq(lam, c) for c in critical_values(family))


def _require_regular(family: BilliardFamily, lam) -> SphereValue:
    lam = SphereValue.coerce(lam)
    if lam.is_inf or not is_regular(family, lam):
        raise ValueError(
            f"{lam!r} is a critical value of family {family.label()}; "
            "no regular parametrization there"
        )
    return lam


def _a_products(cs: Sequence[complex], tau2: complex) -> complex:
    prod = 1.0 + 0j
    for c in cs:
        prod *= (1.0 - complex(c)) * tau2 - 1.0
    return prod


def _point_from_sphere_pair(z: SphereValue, w: SphereValue, ratio: SphereValue) -> ProjectivePoint:
    if not z.is_inf and not w.is_inf:
        return ProjectivePoint.affine(z.value, w.value)
    if z.is_inf and not w.is_inf:
        return ProjectivePoint(1.0, 0.0, 0.0)
    if w.is_inf and not z.is_inf:
        return E_INFINITY
    if ratio.is_inf:
        return E_INFINITY
    return ProjectivePoint(1.0, ratio.value, 0.0)


def _div(num: complex, den: complex) -> SphereValue:
    if den == 0:
        if num == 0:
            raise ZeroDivisionError("0/0 in a parametrization; value is critical")
        return INF
    return SphereValue(num / den)


def _param_a1(lam: complex, tau: SphereValue, cs) -> tuple[SphereValue, SphereValue, SphereValue]:
    if tau.is_inf:
        return INF, INF, INF  # approaches the infinite point of the parabola
    t = tau.value
    sq = principal_sqrt(lam)
    prod = _a_products(cs, t * t)
    z = 1j * sq * t * prod
    w = -lam * (t * t - 1.0) * prod * prod
    return SphereValue(z), SphereValue(w), INF


def _param_a2(lam: complex, s: SphereValue, cs) -> tuple[SphereValue, SphereValue, SphereValue]:
    if s.is_inf:
        return INF, INF, INF
    sv = s.value
    prod = 1.0 + 0j
    for c in cs:
        prod *= 1.0 + (complex(c) - 1.0) * sv
    z = -lam * sv * prod
    w = lam * lam * sv * (sv - 1.0) * prod * prod
    return SphereValue(z), SphereValue(w), INF


def _param_b1(lam: complex, t: SphereValue, _cs) -> tuple[SphereValue, SphereValue, SphereValue]:
    if t.is_inf:
        return SphereValue((lam - 1.0) / lam), INF, INF
    tv = t.value
    a = (1.0 - lam) * tv + lam
    z = _div(tv * a, lam * (tv - 1.0) * (4.0 - tv))
    w = _div(tv * tv * a * (3.0 * lam - tv), lam * lam * (tv - 1.0) * (4.0 - tv) ** 2)
    ratio = _div(tv * (3.0 * lam - tv), lam * (4.0 - tv)) if z.is_inf and w.is_inf else INF
    return z, w, ratio


def _param_d(lam: complex, t: SphereValue, _cs) -> tuple[SphereValue, SphereValue, SphereValue]:
    if t.is_inf:
        v = -lam / (8.0 * lam + 1.0)
        return SphereValue(v), SphereValue(v), INF
    tv = t.value
    q12 = lam * tv * tv + 12.0 * lam * tv - 9.0
    q4 = lam * tv * tv + 4.0 * lam * tv - 1.0
    lin = (8.0 * lam + 1.0) * tv - 5.0
    z = _div(-(lam * tv - 1.0) * q12, lam * tv * (3.0 + tv) * lin)
    w = _div(-q12 * q12 * q4, lam * lam * tv * tv * (3.0 + tv) ** 2 * lin * (tv + 4.0))
    if z.is_inf and w.is_inf:
        ratio = _div(q12 * q4, lam * tv * (3.0 + tv) * (tv + 4.0) * (lam * tv - 1.0))
    else:
        ratio = INF
    return z, w, ratio


#: rational parametrization of the level curves and, for the a-families,
#: the denominator coefficients it takes
_PARAM_FUNCS = {
    "a1": (_param_a1, coefficients_a1),
    "a2": (_param_a2, coefficients_a2),
    "b1": (_param_b1, None),
    "d": (_param_d, None),
}


def _model_tag(family: BilliardFamily) -> str:
    """Tag whose curve parameter the family uses (an image family uses its
    base family's)."""
    image = family.spec.image_of
    return family.tag if image is None else image.base


def _to_base(family: BilliardFamily, x: PhasePoint) -> tuple[BilliardFamily, PhasePoint]:
    """An image family's phase point carried back to its base family."""
    image = family.spec.image_of
    return BilliardFamily(image.base), PhasePoint(image.inverse(x.q), image.inverse(x.p))


def parametrize_level(family: BilliardFamily, lam, t) -> ProjectivePoint:
    """Point of the level curve {R = lam} at curve parameter t.

    Families a1/a2/b1/d use their rational parametrizations; b2 is the
    b-equivalence image of the b1 curve.  Parametrization poles return the
    projective limit point.
    """
    lam = _require_regular(family, lam)
    lamv = lam.value
    t = SphereValue.coerce(t)
    spec = family.spec
    if spec.level_curves == "elliptic":
        raise ValueError(
            "c-family level curves are elliptic and have no rational parametrization"
        )
    if spec.image_of is not None:
        base = parametrize_level(BilliardFamily(spec.image_of.base), lamv, t)
        return spec.image_of.map(base)
    param, coefficients = _PARAM_FUNCS[family.tag]
    cs = None if coefficients is None else coefficients(family.n)
    z, w, ratio = param(lamv, t, cs)
    return _point_from_sphere_pair(z, w, ratio)


def _lift_a1(family: BilliardFamily, lamv: complex, tv: SphereValue, branch: str) -> PhasePoint:
    if tv.is_inf:
        raise ValueError("the a1 lift needs a finite parameter")
    tau = tv.value
    cs = coefficients_a1(family.n)
    sq = principal_sqrt(lamv)
    prod = _a_products(cs, tau * tau)
    sgn = 1.0 if branch == "+" else -1.0
    z0 = 1j * sq * (tau + sgn) * prod
    q = parametrize_level(family, lamv, tau)
    return PhasePoint(q, conic_point(z0))


def _lift_a2(family: BilliardFamily, lamv: complex, tv: SphereValue, branch: str) -> PhasePoint:
    if tv.is_inf:
        raise ValueError("the a2 lift needs a finite parameter")
    tau = tv.value
    if tau == 0:
        raise ValueError("tau = 0 is a ramification point of the a2 fiber")
    q = parametrize_level(family, lamv, tau * tau)
    z, _ = q.affine_pair()
    z0 = (tau + 1.0) / tau * z
    return PhasePoint(q, conic_point(z0))


def lift_by_sheet(q: ProjectivePoint, branch: str) -> PhasePoint:
    """Phase point over the affine point q on the tangency sheet z +/- s,
    s the principal branch of sqrt(z^2 - w)."""
    if q.is_infinite:
        raise ValueError("cannot lift a point on the infinity line by the sheet rule")
    z, w = q.affine_pair()
    s = principal_sqrt(z * z - w)
    z0 = z + s if branch == "+" else z - s
    return PhasePoint(q, conic_point(z0))


_LIFTS = {"a1": _lift_a1, "a2": _lift_a2}


def lift_fiber(family: BilliardFamily, lam, t, branch: str = "+") -> PhasePoint:
    """Phase point over the curve point at parameter t.

    For a1 the two signs select the two rational fiber components; for a2
    the fiber is connected and the sign is fixed by the parametrization; for
    b1/b2/d the sign selects the tangency sheet via the principal branch of
    sqrt(z^2 - w).
    """
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    lam = _require_regular(family, lam)
    lamv = lam.value
    image = family.spec.image_of
    if image is not None:
        base = lift_fiber(BilliardFamily(image.base), lamv, t, branch)
        return PhasePoint(image.map(base.q), image.map(base.p))
    t = SphereValue.coerce(t)
    lift = _LIFTS.get(family.tag)
    if lift is None:
        return lift_by_sheet(parametrize_level(family, lamv, t), branch)
    return lift(family, lamv, t, branch)


def _fiber_ratio(x: PhasePoint, z: complex, w: complex) -> SphereValue:
    """tau = z/(z0 - z) on the a-family component where z0 = (tau+1)/tau * z."""
    z0s = x.p.z_sphere()
    if z0s.is_inf:
        raise ValueError("tangency at infinity has no finite fiber parameter")
    z0 = z0s.value
    if z0 == z:
        raise ValueError("degenerate pair: Q at the tangency point")
    return SphereValue(z / (z0 - z))


#: rational inverse of the parametrization, from the point (z, w) of Q;
#: the elliptic c-family level curves have none
_CURVE_PARAMETERS = {
    "a1": _fiber_ratio,
    "a2": _fiber_ratio,
    "b1": lambda x, z, w: _div(z * z - w, z * (z - 1.0)),
    "d": lambda x, z, w: _div(
        -(w + 8 * z * z + 4 * w * w + 5 * w * z * z - 14 * z * w - 4 * z**3),
        (w - z * z) * (w - z),
    ),
}


def curve_parameter(family: BilliardFamily, x: PhasePoint) -> SphereValue:
    """Curve parameter of a phase point (rational inverse of the
    parametrization; for a-families the tangency point resolves the sign)."""
    if family.spec.image_of is not None:
        return curve_parameter(*_to_base(family, x))
    inverse = _CURVE_PARAMETERS.get(family.tag)
    if inverse is None:
        raise ValueError(f"family {family.label()} has no rational curve parameter")
    if x.q.is_infinite:
        raise ValueError("curve parameter at an infinite point is not implemented")
    z, w = x.q.affine_pair()
    return inverse(x, z, w)


# ---------------------------------------------------------------------------
# branch points and elliptic models

def _branch_b1(lam: complex) -> list[SphereValue]:
    quadratic = poly_roots(Polynomial([4.0 * lam, -4.0 * lam, 1.0]))
    return [SphereValue(lam / (lam - 1.0)), INF] + [SphereValue(r) for r in quadratic]


def _branch_d(lam: complex) -> list[SphereValue]:
    cubic = poly_roots(
        Polynomial(
            [9.0, -36.0 * lam, 36.0 * lam * lam - 3.0 * lam, 9.0 * lam * lam + lam]
        )
    )
    return [SphereValue(-4.0)] + [SphereValue(r) for r in cubic]


#: branch parameters of the fiber's double cover; families not listed have
#: a fiber of two global sheets
_BRANCH_POINTS = {
    "a2": lambda lam: [SphereValue(0.0), INF],
    "b1": _branch_b1,
    "d": _branch_d,
}


def branch_points(family: BilliardFamily, lam) -> list[SphereValue]:
    """Curve parameters where the fiber's double cover of the level curve
    branches (empty when the fiber splits into two sheets globally)."""
    lam = _require_regular(family, lam)
    branches = _BRANCH_POINTS.get(_model_tag(family))
    return [] if branches is None else branches(lam.value)


#: descending coefficients of p(t) for the elliptic fibers
_ELLIPTIC_POLYS = {
    "b1": lambda lam: np.polymul([1.0 - lam, lam], [1.0, -4.0 * lam, 4.0 * lam]),
    "d": lambda lam: np.polymul(
        [1.0, 4.0],
        [9.0 * lam * lam + lam, 36.0 * lam * lam - 3.0 * lam, -36.0 * lam, 9.0],
    ),
}


def elliptic_poly(family: BilliardFamily, lam) -> np.ndarray:
    """Descending coefficients of p(t) in the genus-one model y^2 = p(t)."""
    lam = _require_regular(family, lam)
    poly = _ELLIPTIC_POLYS.get(_model_tag(family))
    if poly is not None:
        return poly(lam.value)
    raise ValueError(
        f"family {family.label()} has no square-root elliptic model in t"
    )


def _sorted_roots(br: BranchedSqrt) -> list[complex]:
    return sorted(br.roots, key=lambda r: (round(r.real, 12), round(r.imag, 12)))


def _min_gap(roots: Sequence[complex]) -> float:
    gaps = [
        abs(roots[i] - roots[j])
        for i in range(len(roots))
        for j in range(i + 1, len(roots))
    ]
    return min(gaps)


def _leg_clearance_score(br: BranchedSqrt, pts: Sequence[complex], skip: complex) -> float:
    worst = math.inf
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        for k in range(1, 24):
            t = a + (b - a) * k / 24.0
            for r in br.roots:
                if abs(r - skip) < 1e-12 and abs(t - skip) < 0.3 * abs(pts[0] - skip):
                    continue  # the desingularized approach to its own endpoint
                worst = min(worst, abs(t - r))
    return worst


def branched_leg_integral(
    br: BranchedSqrt,
    pts: Sequence[complex],
    anchor_value: complex,
    *,
    end_at_branch: complex | None = None,
) -> complex:
    """Integral of dt/y along a polyline, y the branch of sqrt(p) that takes
    the value ``anchor_value`` at the first node.

    Cut-ray crossings flip a running sign so the integrand stays the
    continuous continuation; with ``end_at_branch`` the final approach is
    desingularized by the square-root substitution.
    """
    y0 = br.at(pts[0])
    sign = 1.0 if abs(y0 - anchor_value) <= abs(y0 + anchor_value) else -1.0
    total = 0j
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        boundaries = [0.0] + br.segment_crossings(a, b) + [1.0]
        d = b - a
        for j in range(len(boundaries) - 1):
            sa, sb = boundaries[j], boundaries[j + 1]
            ta, tb = a + d * sa, a + d * sb
            sgn = sign
            last_piece = i == len(pts) - 2 and j == len(boundaries) - 2
            if end_at_branch is not None and last_piece:
                t_amp = ta - tb

                def g(v, _s=sgn, _tb=tb, _amp=t_amp):
                    v = np.asarray(v)
                    return _s * 2.0 * v * _amp / br(_tb + _amp * v * v)

                total += -segment_integrate(g, 0.0, 1.0)
            else:

                def g(s, _s=sgn, _a=a, _d=d):
                    return _s * _d / br(_a + _d * np.asarray(s))

                total += segment_integrate(g, sa, sb)
            if j < len(boundaries) - 2:
                sign = -sign
    return total


@dataclass
class EllipticModel:
    """Genus-one data of one invariant fiber: y^2 = p(t)."""

    family: BilliardFamily
    lam: complex
    poly: np.ndarray  # descending coefficients of p
    branch_parameters: list[SphereValue]
    periods: tuple[complex, complex]
    _sqrt: BranchedSqrt = field(repr=False)

    def lattice_reduce(self, v: complex) -> complex:
        from .numerics import lattice_reduce

        return lattice_reduce(v, *self.periods)

    def sorted_roots(self) -> list[complex]:
        return _sorted_roots(self._sqrt)


def ramification_connection(
    br: BranchedSqrt, a: complex, b: complex, clearance: float
) -> complex:
    """Integral of dt/y from branch point a to branch point b.

    Both endpoint square-root singularities are desingularized; the
    connecting path goes through a waypoint chosen (by scored direction
    candidates) to keep clear of all other roots, which matters when the
    two branch points are a close or vertically aligned pair.  Since both
    endpoints are ramification points, any branch of y gives a valid path
    on the double cover.
    """
    best = None
    for theta_deg in (90, 60, 120, 30, 150, 75, 105, 45, 135):
        theta = math.radians(theta_deg)
        mid = (a + b) / 2.0 + 0.45 * abs(b - a) * cmath.exp(1j * theta)
        leg_a = plan_route([mid, a], br.roots, clearance)
        leg_b = plan_route([mid, b], br.roots, clearance)
        score = min(
            _leg_clearance_score(br, leg_a, a), _leg_clearance_score(br, leg_b, b)
        )
        cand = (score, mid, leg_a, leg_b)
        if best is None or cand[0] > best[0]:
            best = cand
        if best[0] > 0.5 * clearance:
            break
    _, mid, leg_a, leg_b = best
    ymid = br.at(mid)
    ia = branched_leg_integral(br, leg_a, ymid, end_at_branch=a)
    ib = branched_leg_integral(br, leg_b, ymid, end_at_branch=b)
    return ib - ia


def _pair_cycle_period(br: BranchedSqrt, a: complex, b: complex, clearance: float) -> complex:
    """Period of dt/y over a cycle enclosing the branch points a and b
    (twice the connecting integral)."""
    return 2.0 * ramification_connection(br, a, b, clearance)


def elliptic_model(family: BilliardFamily, lam) -> EllipticModel:
    """Branch polynomial, branch points and a period-lattice basis.

    Supported for the b and d families, whose fibers carry the square-root
    model; the c-family level curves are elliptic but have no rational
    parametrization, so their period data is out of reach of this model
    (their invariant differentials are still available in the forms module).
    """
    lam = _require_regular(family, lam)
    coeffs = elliptic_poly(family, lam)
    br = BranchedSqrt(coeffs)
    rts = _sorted_roots(br)
    clearance = 0.12 * _min_gap(rts)
    w1 = _pair_cycle_period(br, rts[0], rts[1], clearance)
    w2 = _pair_cycle_period(br, rts[1], rts[2], clearance)
    branch = [SphereValue(r) for r in rts]
    if len(coeffs) == 4:  # cubic model branches over infinity as well
        branch.append(INF)
    det = w1.real * w2.imag - w1.imag * w2.real
    if abs(det) <= 1e-12 * max(abs(w1), abs(w2)) ** 2:
        raise RuntimeError(
            "computed period generators are (near) real-proportional; "
            "no genuine lattice"
        )
    return EllipticModel(family, lam.value, coeffs, branch, (w1, w2), br)


def lattice_closure_residual(model: EllipticModel) -> float:
    """Distance from an independently integrated extra cycle to the lattice.

    The cycle encloses the first and third branch points; its period must be
    an integer combination of the two generators.
    """
    br = model._sqrt
    rts = model.sorted_roots()
    clearance = 0.12 * _min_gap(rts)
    extra = _pair_cycle_period(br, rts[0], rts[2], clearance)
    return abs(model.lattice_reduce(extra))


#: h(t) with z(P) - z(Q) = h(t) y on the model y^2 = p(t)
_SHEET_FACTORS = {
    "b1": lambda lam, t: t / (lam * (t - 1.0) * (4.0 - t)),
    "d": lambda lam, t: (lam * t * t + 12.0 * lam * t - 9.0) / (
        lam * t * (3.0 + t) * ((8.0 * lam + 1.0) * t - 5.0) * (t + 4.0)
    ),
}


def sheet_sqrt(family: BilliardFamily, lam, x: PhasePoint) -> tuple[complex, complex]:
    """(t, y) coordinates of a phase point on the model y^2 = p(t).

    The tangency point P resolves the sheet: y is a rational multiple of
    z(P) - z(Q), so no branch tracking is involved.
    """
    lam = SphereValue.coerce(lam)
    lamv = lam.value
    if family.spec.image_of is not None:
        base, xb = _to_base(family, x)
        return sheet_sqrt(base, lamv, xb)
    sheet = _SHEET_FACTORS.get(family.tag)
    if sheet is None:
        raise ValueError("sheet coordinates exist only for the b and d families")
    t = curve_parameter(family, x).value
    z, _w = x.q.affine_pair()
    z0 = x.p.z_sphere().value
    return t, (z0 - z) / sheet(lamv, t)


# ---------------------------------------------------------------------------
# critical fibers

@dataclass(frozen=True)
class CurveComponent:
    """One irreducible component of a (typically critical) level curve."""

    name: str
    poly: BiPoly
    multiplicity: int = 1
    parametrize: Callable[[complex], ProjectivePoint] | None = None

    @property
    def degree(self) -> int:
        return self.poly.total_degree


def _line_param(a: complex, b: complex, c: complex):
    """Parametrization of the line a z + b w + c = 0 (affine + direction)."""

    def param(t: complex) -> ProjectivePoint:
        t = SphereValue.coerce(t)
        if t.is_inf:
            return ProjectivePoint(complex(b), complex(-a), 0.0)
        tv = t.value
        if b != 0:
            return ProjectivePoint.affine(tv, (-c - a * tv) / b)
        return ProjectivePoint.affine(-c / a, tv)

    return param


def _conic_param_through(poly: BiPoly, z0: complex, w0: complex):
    """Rational parametrization of a conic by lines w - w0 = m (z - z0)
    through one of its points (z0, w0)."""

    def param(m: complex) -> ProjectivePoint:
        m = SphereValue.coerce(m)
        # restrict the conic to the pencil line and divide out the known root
        if m.is_inf:
            direction = (0.0, 1.0)
        else:
            direction = (1.0, m.value)
        coeffs = poly.restrict_line((z0, w0), direction)
        # p(s) = s * (alpha + beta s); the other intersection is s = -alpha/beta
        alpha, beta = coeffs[1], coeffs[2]
        s = _div(-alpha, beta)
        if s.is_inf:
            return ProjectivePoint(direction[0], direction[1], 0.0)
        return ProjectivePoint.affine(z0 + s.value * direction[0], w0 + s.value * direction[1])

    return param


def _cubic_b1_level1_param(t: complex) -> ProjectivePoint:
    t = SphereValue.coerce(t)
    if t.is_inf:
        return ProjectivePoint.affine(0.0, -1.0)
    tv = t.value
    z = _div(tv, (tv - 1.0) * (4.0 - tv))
    w = _div(tv * tv * (3.0 - tv), (tv - 1.0) * (4.0 - tv) ** 2)
    ratio = _div(tv * (3.0 - tv), 4.0 - tv) if z.is_inf and w.is_inf else INF
    return _point_from_sphere_pair(z, w, ratio)


def _conic_b1_43_1_param(t: complex) -> ProjectivePoint:
    t = SphereValue.coerce(t)
    if t.is_inf:
        return E_INFINITY
    tv = t.value
    z = _div(tv, 4.0 * (tv - 1.0))
    w = _div(3.0 * tv * tv, 16.0 * (tv - 1.0))
    return _point_from_sphere_pair(z, w, INF if not (z.is_inf and w.is_inf) else SphereValue(3 * tv / 4))


def _conic_b1_43_2_param(tau: complex) -> ProjectivePoint:
    tau = SphereValue.coerce(tau)
    if tau.is_inf:
        return ProjectivePoint.affine(1.0 / 3.0, 1.0)
    tv = tau.value
    z = _div(tv - 9.0, 3.0 * tv)
    w = _div((tv - 9.0) * (tv + 3.0), tv * tv)
    return _point_from_sphere_pair(z, w, INF)


def _cubic_d_13_1_param(t: complex) -> ProjectivePoint:
    t = SphereValue.coerce(t)
    if t.is_inf:
        return ProjectivePoint.affine(-0.2, -5 * 0.04)  # z=-1/5, w=-5 z^2 * 1 = -0.2
    tv = t.value
    z = _div(-(tv + 9.0), 5.0 * tv)
    w = _div(-((tv + 9.0) ** 2) * (tv + 1.0), 5.0 * tv * tv * (tv + 4.0))
    if z.is_inf and w.is_inf:
        ratio = _div((tv + 9.0) * (tv + 1.0), tv * (tv + 4.0))
    else:
        ratio = INF
    return _point_from_sphere_pair(z, w, ratio)


def _cubic_d_13_2_param(tau: complex) -> ProjectivePoint:
    tau = SphereValue.coerce(tau)
    if tau.is_inf:
        return ProjectivePoint.affine(0.4, 1.6)
    tv = tau.value
    z = _div((tv + 9.0) * (2.0 * tv + 27.0), tv * (5.0 * tv + 72.0))
    w = _div((2.0 * tv + 27.0) ** 2 * (2.0 * tv - 9.0), tv * tv * (5.0 * tv + 72.0))
    if z.is_inf and w.is_inf:
        ratio = _div((2.0 * tv + 27.0) * (2.0 * tv - 9.0), tv * (tv + 9.0))
    else:
        ratio = INF
    return _point_from_sphere_pair(z, w, ratio)


def _quartic_d_932_param(t: complex) -> ProjectivePoint:
    t = SphereValue.coerce(t)
    if t.is_inf:
        return ProjectivePoint.affine(-9.0 / 40.0, -(81.0 / 1600.0) * 40.0 / 9.0)
    tv = t.value
    z = _div(-(9.0 * tv + 32.0) * (tv + 8.0), 40.0 * tv * (3.0 + tv))
    w = _div(
        -((tv + 8.0) ** 2) * (3.0 * tv + 8.0) * (3.0 * tv + 4.0),
        40.0 * tv * tv * (tv + 3.0) ** 2,
    )
    if z.is_inf and w.is_inf:
        ratio = _div((tv + 8.0) * (3.0 * tv + 8.0) * (3.0 * tv + 4.0), tv * (3.0 + tv) * (9.0 * tv + 32.0))
    else:
        ratio = INF
    return _point_from_sphere_pair(z, w, ratio)


def _d_generic_param(lam: complex):
    def param(t: complex) -> ProjectivePoint:
        z, w, ratio = _param_d(lam, SphereValue.coerce(t), None)
        return _point_from_sphere_pair(z, w, ratio)

    return param


# exact component polynomials -------------------------------------------------

_CONIC_GAMMA = _W - _Z * _Z
_CUBIC_B1_LEVEL1 = BiPoly.from_terms(
    (2, 3, 0), (-3, 2, 1), (-3, 2, 0), (6, 1, 1), (-1, 0, 2), (-1, 0, 1)
)
_CONIC_B1_43_1 = BiPoly.from_terms((4, 1, 1), (-1, 0, 1), (-3, 2, 0))  # w(4z-1) - 3z^2
_CONIC_B1_43_2 = BiPoly.from_terms((1, 0, 1), (-4, 1, 0), (3, 2, 0))  # w - z(4-3z)
_CUBIC_D_13_1 = BiPoly.from_terms((4, 1, 1), (-1, 0, 1), (5, 3, 0), (-8, 2, 0))
_CUBIC_D_13_2 = BiPoly.from_terms(
    (1, 0, 1), (8, 2, 0), (-7, 3, 0), (8, 2, 1), (1, 0, 2), (-11, 1, 1)
)
_QUARTIC_D_932 = BiPoly.from_terms(
    (40, 4, 0), (-108, 3, 0), (72, 2, 0), (37, 2, 1), (-54, 1, 1), (9, 0, 1), (4, 0, 2)
)
_CONIC_D_932 = BiPoly.from_terms((1, 0, 1), (8, 2, 0), (-9, 1, 1))  # w + 8z^2 - 9zw


_C2_CONICS = (
    BiPoly.from_terms((1, 0, 1), (8, 2, 0)),  # w + 8z^2
    (_W - _Z).power(2).scale(9) + _W - _Z * _Z,
    (_Z - _ONE).power(2).scale(9) + _W - _Z * _Z,
)
# 4 nu z^2 + 3 (mu w^2 + 1) + 6 z (w + mu) + 5 nu w over (mu, nu) = (1, 1)
# and the two conjugate pairs of cube roots of unity
_EB = EPS_CUBE_ROOT.conjugate()
_C1_CONICS = tuple(
    BiPoly({(2, 0): 4 * nu, (0, 2): 3 * mu, (0, 0): 3, (1, 1): 6, (1, 0): 6 * mu, (0, 1): 5 * nu})
    for mu, nu in ((1.0, 1.0), (_EB, EPS_CUBE_ROOT), (EPS_CUBE_ROOT, _EB))
)


# ---------------------------------------------------------------------------
# critical cells: the components of each critical level curve and the fiber
# over it, keyed by (family, value); lam = 0 (the parabola) is common to all

@dataclass(frozen=True)
class FiberComponent:
    genus: int
    covering: str  # "bijective" | "double"
    over: str
    branch_parameters: tuple[SphereValue, ...] = ()


@dataclass(frozen=True)
class FiberModel:
    family: BilliardFamily
    lam: SphereValue
    components: tuple[FiberComponent, ...]

    @property
    def component_count(self) -> int:
        return len(self.components)


def _sheets(over: str) -> tuple[FiberComponent, ...]:
    """Two bijective rational fiber components over one curve component."""
    return (FiberComponent(0, "bijective", over),) * 2


def _double(over: str) -> tuple[FiberComponent, ...]:
    return (FiberComponent(0, "double", over),)


def _listed(*entries):
    """Components given as (name, polynomial, parametrization), simple."""
    return lambda family, lam: [CurveComponent(n, p, 1, pr) for n, p, pr in entries]


def _den_factors(*entries):
    """Components at lam = inf: the integral's denominator factors, named as
    (name, parametrization built from the factor or None)."""

    def build(family, lam):
        den = first_integral(family).den_factors
        return [
            CurveComponent(name, poly, mult, None if param is None else param(poly))
            for (name, param), (poly, mult) in zip(entries, den)
        ]

    return build


def _a_at_infinity(*head):
    """The a-family pole divisor: the ``head`` components, then one parabola
    w = c z^2 per denominator coefficient c."""

    def build(family, lam):
        cs = _PARAM_FUNCS[family.tag][1](family.n)
        parabolas = ((f"parabola w = {c} z^2", None) for c in cs)
        return _den_factors(*head, *parabolas)(family, lam)

    return build


def _image_components(family, lam):
    """The base family's components mapped by the projective equivalence."""
    image = family.spec.image_of
    out = []
    for comp in critical_fiber_components(BilliardFamily(image.base), lam):
        poly = _substitute_projective(comp.poly, image.inverse.matrix)
        param = _compose_param(image.map, comp.parametrize)
        out.append(CurveComponent(comp.name + " (b-equivalence image)", poly, 1, param))
    return out


def _line(a: complex, b: complex, c: complex):
    return lambda poly: _line_param(a, b, c)


def _through_origin(poly: BiPoly):
    return _conic_param_through(poly, 0.0, 0.0)


_SIX_CONICS = sum((_sheets(f"conic #{k}") for k in range(3)), ())

_CELLS: dict[tuple[str, SphereValue], tuple[Callable, tuple[FiberComponent, ...] | None]] = {
    ("a1", INF): (_a_at_infinity(), None),
    ("a2", INF): (_a_at_infinity(("line z = 0", _line(1.0, 0.0, 0.0))), None),
    ("b1", INF): (
        _den_factors(
            ("conic w + 3z^2", None),
            ("line z = 1", _line(1.0, 0.0, -1.0)),
            ("line z = w", _line(1.0, -1.0, 0.0)),
        ),
        None,
    ),
    ("b1", SphereValue(1)): (
        _listed(
            ("line z = 0", _Z, _line_param(1.0, 0.0, 0.0)),
            ("cubic", _CUBIC_B1_LEVEL1, _cubic_b1_level1_param),
        ),
        _double("line") + _sheets("cubic"),
    ),
    ("b1", SphereValue(Fraction(4, 3))): (
        _listed(
            ("conic w = 3z^2/(4z-1)", _CONIC_B1_43_1, _conic_b1_43_1_param),
            ("conic w = z(4-3z)", _CONIC_B1_43_2, _conic_b1_43_2_param),
        ),
        _double("conic #0") + _double("conic #1"),
    ),
    ("b2", INF): (
        _listed(
            ("conic z^2+w^2+w+1", _Z * _Z + _W * _W + _W + _ONE, None),
            ("line z = i", _Z - BiPoly.const(1j), _line_param(1.0, 0.0, -1j)),
            ("line z = -i", _Z + BiPoly.const(1j), _line_param(1.0, 0.0, 1j)),
        ),
        None,
    ),
    ("b2", SphereValue(1)): (
        _image_components,
        _double("conic (b-equivalence image of a line)") + _sheets("cubic"),
    ),
    ("b2", SphereValue(Fraction(4, 3))): (
        _image_components,
        _double("conic #0") + _double("conic #1"),
    ),
    ("c1", SphereValue(Fraction(27, 64))): (
        _listed(*((f"conic #{k}", p, None) for k, p in enumerate(_C1_CONICS))),
        _SIX_CONICS,
    ),
    ("c1", INF): (_den_factors(("cubic 1 + w^3 - 2zw", None)), _sheets("cubic")),
    ("c2", SphereValue(Fraction(-9, 64))): (
        _listed(
            ("conic w + 8z^2", _C2_CONICS[0], _through_origin(_C2_CONICS[0])),
            ("conic 9(w-z)^2 + w - z^2", _C2_CONICS[1], None),
            ("conic 9(z-1)^2 + w - z^2", _C2_CONICS[2], None),
        ),
        _SIX_CONICS,
    ),
    ("c2", INF): (_den_factors(("cubic", None)), _sheets("cubic")),
    ("d", INF): (
        _den_factors(
            ("conic w + 8z^2", _through_origin),
            ("line z = 1", _line(1.0, 0.0, -1.0)),
            ("cubic", None),
        ),
        _sheets("conic w + 8z^2") + _double("line z = 1") + _sheets("cubic"),
    ),
    ("d", SphereValue(Fraction(-1, 3))): (
        _listed(
            ("cubic w(4z-1) = -z^2(5z-8)", _CUBIC_D_13_1, _cubic_d_13_1_param),
            ("cubic", _CUBIC_D_13_2, _cubic_d_13_2_param),
        ),
        _double("cubic #0") + _double("cubic #1"),
    ),
    ("d", SphereValue(Fraction(-9, 32))): (
        _listed(
            ("quartic", _QUARTIC_D_932, _quartic_d_932_param),
            ("conic w + 8z^2 - 9zw", _CONIC_D_932, _through_origin(_CONIC_D_932)),
        ),
        _sheets("quartic") + _double("conic"),
    ),
    # the level curve is critical (degenerate cusp) but the fiber keeps the
    # generic elliptic double-cover structure
    ("d", SphereValue(Fraction(-1, 4))): (
        lambda family, lam: [
            CurveComponent(
                "irreducible sextic (degenerate cusp at the origin)",
                first_integral(family).level_polynomial(Fraction(-1, 4)),
                1,
                _d_generic_param(-0.25),
            )
        ],
        (FiberComponent(1, "double", "level curve"),),
    ),
}


def critical_fiber_components(family: BilliardFamily, lam) -> list[CurveComponent]:
    """Irreducible components (with multiplicities) of a critical level curve.

    lam = 0 is reported as the parabola itself carrying the multiplicity of
    the integral's numerator.  Components the literature-level tables give a
    rational parametrization for carry one.
    """
    lam = SphereValue.coerce(lam)
    if is_regular(family, lam):
        raise ValueError(f"{lam!r} is a regular value of family {family.label()}")
    if lam == SphereValue(0):
        return [
            CurveComponent(
                "parabola", _CONIC_GAMMA, first_integral(family).zero_order, _gamma_param
            )
        ]
    cell = _CELLS.get((family.tag, lam))
    if cell is None:
        raise ValueError(f"no component table for family {family.label()} at {lam!r}")
    return cell[0](family, lam)


def _gamma_param(t: complex) -> ProjectivePoint:
    return conic_point(SphereValue.coerce(t))


def _substitute_projective(poly: BiPoly, matrix: np.ndarray) -> BiPoly:
    """Image polynomial of {poly = 0} under the projective map: substitute
    the inverse map's linear forms into the homogenization."""
    d = poly.total_degree
    # trivariate linear forms for (z, w, t) after substitution
    rows = [tuple(complex(matrix[i, j]) for j in range(3)) for i in range(3)]

    def lin_pow(row, n):
        table = {(0, 0, 0): 1.0 + 0j}
        for _ in range(n):
            new = {}
            for (i, j, k), c in table.items():
                for idx, coef in enumerate(row):
                    if coef == 0:
                        continue
                    key = (i + (idx == 0), j + (idx == 1), k + (idx == 2))
                    new[key] = new.get(key, 0) + c * coef
            table = new
        return table

    out: dict[tuple[int, int], complex] = {}
    for (i, j), c in poly.coeffs.items():
        k = d - i - j
        term = {(0, 0, 0): complex(c)}
        for row, n in ((rows[0], i), (rows[1], j), (rows[2], k)):
            expanded = lin_pow(row, n)
            new = {}
            for (a1_, b1_, c1_), v1 in term.items():
                for (a2_, b2_, c2_), v2 in expanded.items():
                    key = (a1_ + a2_, b1_ + b2_, c1_ + c2_)
                    new[key] = new.get(key, 0) + v1 * v2
            term = new
        for (a_, b_, c_), v in term.items():
            out[(a_, b_)] = out.get((a_, b_), 0) + v  # set t = 1
    return BiPoly(out)


def _compose_param(psi, base):
    if base is None:
        return None

    def param(t: complex) -> ProjectivePoint:
        return psi(base(t))

    return param


def component_product_residual(family: BilliardFamily, lam) -> float:
    """Relative coefficient residual of prod components^mult against the
    level polynomial (the denominator itself for lam = inf)."""
    lam = SphereValue.coerce(lam)
    comps = critical_fiber_components(family, lam)
    prod = BiPoly.const(1)
    for comp in comps:
        prod = prod * comp.poly.power(comp.multiplicity)
    integ = first_integral(family)
    if lam.is_inf:
        target = integ.den
    else:
        lamx = _as_fraction(lam.value)
        target = integ.level_polynomial(lamx if lamx is not None else lam.value)
    return prod.proportional_residual(target)


def _as_fraction(x: complex) -> Fraction | None:
    if x.imag != 0:
        return None
    return Fraction(x.real).limit_denominator(10**9)


# ---------------------------------------------------------------------------
# fiber and level-curve summaries

def fiber_type(family: BilliardFamily, lam) -> FiberModel:
    """Component/genus/covering table of the invariant fiber over {R = lam}.

    Regular values follow the generic table; the tabulated critical cells
    are reproduced exactly.  Critical cells without a published table (the
    a-family multiple fibers and the b1 and b2 fibers at infinity) are not
    modeled.
    """
    lam = SphereValue.coerce(lam)
    if is_regular(family, lam):
        spec = family.spec
        genus = 1 if spec.elliptic_fiber or spec.level_curves == "elliptic" else 0
        branch = tuple(branch_points(family, lam))
        if not branch:  # two global sheets over the level curve
            comp = FiberComponent(genus, "bijective", "level curve")
            return FiberModel(family, lam, (comp, comp))
        return FiberModel(
            family, lam, (FiberComponent(genus, "double", "level curve", branch),)
        )
    if lam == SphereValue(0):
        return FiberModel(
            family, lam, (FiberComponent(0, "bijective", "parabola (multiple)"),)
        )
    cell = _CELLS.get((family.tag, lam))
    if cell is None or cell[1] is None:
        raise ValueError(f"no fiber table for family {family.label()} at {lam!r}")
    return FiberModel(family, lam, cell[1])


@dataclass(frozen=True)
class LevelCurveModel:
    """Summary of one level curve: its kind and the handles it supports.

    Rational curves carry a parametrization, reducible ones their component
    list; the elliptic c-family curves have no rational parametrization and
    are carried by their implicit level polynomial alone (points come from
    line slicing).
    """

    family: BilliardFamily
    lam: SphereValue
    kind: str  # "rational-parametrized" | "elliptic" | "reducible"
    parametrize: Callable[[complex], ProjectivePoint] | None = None
    components: tuple[CurveComponent, ...] | None = None
    implicit: BiPoly | None = None


def level_curve_model(family: BilliardFamily, lam) -> LevelCurveModel:
    lam = SphereValue.coerce(lam)
    if not is_regular(family, lam):
        comps = tuple(critical_fiber_components(family, lam))
        return LevelCurveModel(family, lam, "reducible", None, comps)
    integ = first_integral(family)
    lamv = lam.value
    lamx = _as_fraction(lamv)
    implicit = integ.level_polynomial(lamx if lamx is not None else lamv)
    if family.spec.level_curves == "elliptic":
        return LevelCurveModel(family, lam, "elliptic", None, None, implicit)

    def param(t: complex) -> ProjectivePoint:
        return parametrize_level(family, lamv, t)

    return LevelCurveModel(family, lam, "rational-parametrized", param, None, implicit)


#: random lines tried before slicing gives up
SLICE_ATTEMPTS = 64


def point_on_level(family: BilliardFamily, lam, rng: random.Random) -> ProjectivePoint:
    """A point of {R = lam} found by slicing with random lines.

    Works for every family (the only route for the c-families, whose level
    curves have no rational parametrization).
    """
    lam = SphereValue.coerce(lam)
    if lam.is_inf:
        raise ValueError("slicing expects a finite level value")
    integ = first_integral(family)
    base = indeterminacy_set(family)
    for _ in range(SLICE_ATTEMPTS):
        p0 = (
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
        )
        dirv = cmath.exp(2j * math.pi * rng.random())
        direction = (dirv, complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
        coeffs_n = integ.num.restrict_line(p0, direction)
        coeffs_d = integ.den.restrict_line(p0, direction)
        size = max(len(coeffs_n), len(coeffs_d))
        coeffs = [0j] * size
        for i, c in enumerate(coeffs_n):
            coeffs[i] += c
        for i, c in enumerate(coeffs_d):
            coeffs[i] -= lam.value * c
        poly = Polynomial(coeffs)
        if poly.degree < 1:
            continue
        for s in poly_roots(poly):
            if abs(s) > 50:
                continue
            pt = ProjectivePoint.affine(p0[0] + s * direction[0], p0[1] + s * direction[1])
            if any(pt.eq(bp) for bp in base):
                continue
            try:
                val = integ.eval(pt)
            except Exception:
                continue
            if not val.is_inf and abs(val.value - lam.value) <= 1e-8 * max(1.0, abs(lam.value)):
                z, w = pt.affine_pair()
                if abs(z * z - w) > 1e-6:
                    return pt
    raise RuntimeError(
        f"could not slice a point on the {family.label()} level curve at {lam!r}"
    )


def tangency_gap(family: BilliardFamily, lam, t) -> float:
    """Chordal distance between the two tangency parameters of the curve
    point at parameter t (the quantity that collapses at branch points)."""
    q = parametrize_level(family, lam, t)
    if q.is_infinite:
        # on the infinity line the tangency pair is (E, c/2) for q = [1:c:0]
        if q.eq(E_INFINITY):
            return 0.0
        c = q.w / q.z
        return chordal_distance(INF, SphereValue(c / 2.0))
    z, w = q.affine_pair()
    s = principal_sqrt(z * z - w)
    return chordal_distance(SphereValue(z + s), SphereValue(z - s))
