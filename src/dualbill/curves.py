"""Level-curve parametrizations, fiber lifts, covering branch points,
critical fiber decompositions and elliptic models.

Regular level curves of the a1, a2, b1, b2 and d integrals are rational and
carry explicit parametrizations; the c-family level curves are elliptic and
are handled implicitly (polynomial plus line slicing).  Every rational curve,
level curve or critical component, is a polynomial map homogeneous in (t, s)
to [Z : W : T], taken at (t, 1), and at (1, 0) for t = inf.  A critical
component of degree d is swept by the lines through a point of multiplicity
d - 1 on it, one rule for all, its center found from the component's
polynomial, not listed (:func:`_swept`); only d's quartic at -9/32, whose
singular points are double, keeps a hand form, and d's irreducible sextic
at -1/4 takes the level curves' form.  The double cover of a level curve
by its invariant fiber branches where the curve crosses the parabola
transversally; for the b and d families those branch parameters feed a
genus-one model y^2 = p(t) whose half-periods, and so its periods, are
closed forms in Carlson's R_F; only the legs of Abel steps, from a curve
point along the straight segment to its nearest branch point, are
integrated by quadrature.

What kind of curve and fiber a family has, its critical values and which
family b2 is the image of are read from :mod:`dualbill.families`.  The
per-family algorithms sit here: one model record per family with rational
level curves (its parametrization, lift, inverse, branch points and, for an
elliptic fiber, p(t) and the sheet factor), which b2 reaches through the
b-equivalence in one resolver, and one table of the critical cells.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .billiards import BilliardFamily
from .families import Image
from .geometry import E_INFINITY, EPS_CUBE_ROOT, PhasePoint, ProjectivePoint, conic_point
from .integrals import (
    _CONIC,
    _ONE,
    _W,
    _Z,
    BiPoly,
    coefficients_a1,
    coefficients_a2,
    critical_values,
    first_integral,
    indeterminacy_set,
)
from .numerics import (
    INF,
    SphereValue,
    carlson_rf,
    chordal_distance,
    lattice_reduce,
    principal_sqrt,
    roots as poly_roots,
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
    "point_on_level",
    "tangency_gap",
]

def _critical_value(family: BilliardFamily, lam) -> SphereValue | None:
    """The critical value of the family's registry that lam equals within
    :func:`sphere_eq`, or None when lam is regular."""
    lam = SphereValue.coerce(lam)
    return next((c for c in critical_values(family) if sphere_eq(lam, c)), None)


def is_regular(family: BilliardFamily, lam) -> bool:
    """Whether lam avoids every critical value of the family's integral."""
    return _critical_value(family, lam) is None


def _require_regular(family: BilliardFamily, lam) -> SphereValue:
    lam = SphereValue.coerce(lam)
    if lam.is_inf or not is_regular(family, lam):
        raise ValueError(
            f"{lam!r} is a critical value of family {family.label()}; "
            "no regular parametrization there"
        )
    return lam


def _on_curve(form, t) -> ProjectivePoint:
    """Point at parameter t of a rational curve: ``form(t, s)`` is
    homogeneous in (t, s) and returns (Z, W, T), taken at (t, 1), or at
    (1, 0) when t = inf; poles and the limit at t = inf need no case.  Where
    the powers of a large t overflow, the same point is taken at (1, 1/t)."""
    t = _parameter(t)
    if t.is_inf:
        return ProjectivePoint(*form(1.0, 0.0))
    try:
        coords = form(t.value, 1.0)
        if all(map(cmath.isfinite, coords)):
            return ProjectivePoint(*coords)
    except OverflowError:
        pass
    return ProjectivePoint(*form(1.0, 1.0 / t.value))


def _parameter(t) -> SphereValue:
    """A curve parameter as a sphere value; ValueError on NaN, which
    ``SphereValue.coerce`` would read as INF."""
    if not isinstance(t, SphereValue) and cmath.isnan(t):
        raise ValueError(f"curve parameter {t!r} is not a number")
    return SphereValue.coerce(t)


def _times(x: complex, r: float) -> complex:
    """x times the real r, part by part: unlike the complex product x * r,
    r = 1 keeps every bit, signed zeros included."""
    return complex(x.real * r, x.imag * r)


def _a_products(cs: Sequence[complex], t: complex, s: float) -> complex:
    tau2, s2 = t * t, s * s
    prod = 1.0 + 0j
    for c in cs:
        prod *= (1.0 - complex(c)) * tau2 - s2
    return prod


# Level curves {R = lam} as forms homogeneous in (t, s).  The a-family forms
# keep the affine formulas' order of operations, so at s = 1 their points are
# the affine ones bit for bit.

def _level_a1(lam: complex, cs, t, s):
    k = 2 * len(cs) + 1
    prod = _a_products(cs, t, s)
    z = 1j * principal_sqrt(lam) * t * prod
    w = -lam * (t * t - s * s) * prod * prod
    return _times(z, s**k), w, s ** (2 * k)


def _level_a2(lam: complex, cs, t, s):
    k = len(cs) + 1
    prod = 1.0 + 0j
    for c in cs:
        prod *= s + (complex(c) - 1.0) * t
    z = -lam * t * prod
    w = lam * lam * t * (t - s) * prod * prod
    return _times(z, s**k), w, s ** (2 * k)


def _level_b1(lam: complex, _cs, t, s):
    a = (1.0 - lam) * t + lam * s
    return (
        lam * t * a * (4.0 * s - t) * s,
        t * t * a * (3.0 * lam * s - t),
        lam * lam * (t - s) * (4.0 * s - t) ** 2 * s,
    )


def _level_d(lam: complex, _cs, t, s):
    q12 = lam * t * t + 12.0 * lam * t * s - 9.0 * s * s
    q4 = lam * t * t + 4.0 * lam * t * s - s * s
    lin = (8.0 * lam + 1.0) * t - 5.0 * s
    return (
        -lam * t * (t + 3.0 * s) * (t + 4.0 * s) * (lam * t - s) * q12,
        -q12 * q12 * q4,
        lam * lam * t * t * (t + 3.0 * s) ** 2 * lin * (t + 4.0 * s),
    )


# a-family lifts: the fiber over the curve point at a finite parameter tau

def _lift_a1(family: BilliardFamily, lamv: complex, tau: complex, branch: str) -> PhasePoint:
    cs = coefficients_a1(family.n)
    sq = principal_sqrt(lamv)
    prod = _a_products(cs, tau, 1.0)
    sgn = 1.0 if branch == "+" else -1.0
    z0 = 1j * sq * (tau + sgn) * prod
    q = parametrize_level(family, lamv, tau)
    return PhasePoint(q, conic_point(z0))


def _lift_a2(family: BilliardFamily, lamv: complex, tau: complex, branch: str) -> PhasePoint:
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


# rational inverses of the parametrizations, from the point (z, w) of Q

def _fiber_ratio(x: PhasePoint, z: complex, w: complex) -> SphereValue:
    """tau = z/(z0 - z) on the a-family component where z0 = (tau+1)/tau * z."""
    z0s = x.p.z_sphere()
    if z0s.is_inf:
        raise ValueError("tangency at infinity has no finite fiber parameter")
    z0 = z0s.value
    if z0 == z:
        raise ValueError("degenerate pair: Q at the tangency point")
    return SphereValue(z / (z0 - z))


def _div(num: complex, den: complex) -> SphereValue:
    if den == 0:
        if num == 0:
            raise ZeroDivisionError("0/0 in a curve parameter: the inverse is indeterminate here")
        return INF
    return SphereValue(num / den)


# branch parameters of the fibers' double covers

def _branch_b1(lam: complex) -> list[SphereValue]:
    quadratic = poly_roots([4.0 * lam, -4.0 * lam, 1.0])
    return [SphereValue(lam / (lam - 1.0)), INF] + [SphereValue(r) for r in quadratic]


def _branch_d(lam: complex) -> list[SphereValue]:
    cubic = poly_roots([9.0, -36.0 * lam, 36.0 * lam * lam - 3.0 * lam, 9.0 * lam * lam + lam])
    return [SphereValue(-4.0)] + [SphereValue(r) for r in cubic]


@dataclass(frozen=True)
class _CurveModel:
    """One family's rational level curves {R = lam} and fibers over them:
    the form ``level(lam, cs, t, s)``, cs = ``coefficients(N)`` for the
    a-families; its inverse ``parameter(x, z, w)`` from Q = (z, w); the
    ``lift`` (None: by the tangency sheet); the parameters where the fiber's
    cover branches; for an elliptic fiber y^2 = p(t), the descending
    coefficients ``p(lam)`` and ``h(lam, t)`` with z(P) - z(Q) = h(t) y."""

    level: Callable
    parameter: Callable[[PhasePoint, complex, complex], SphereValue]
    coefficients: Callable[[int], Sequence[Fraction]] | None = None
    lift: Callable[[BilliardFamily, complex, complex, str], PhasePoint] | None = None
    branches: Callable[[complex], list[SphereValue]] = lambda lam: []
    p: Callable[[complex], np.ndarray] | None = None
    h: Callable[[complex, complex], complex] | None = None


#: the model of each family with rational level curves of its own; b2 is
#: the b-equivalence image of b1 and the c-families have none
_MODELS: dict[str, _CurveModel] = {
    "a1": _CurveModel(_level_a1, _fiber_ratio, coefficients_a1, _lift_a1),
    "a2": _CurveModel(_level_a2, _fiber_ratio, coefficients_a2, _lift_a2,
                      branches=lambda lam: [SphereValue(0.0), INF]),
    "b1": _CurveModel(
        _level_b1,
        lambda x, z, w: _div(z * z - w, z * (z - 1.0)),
        branches=_branch_b1,
        p=lambda lam: np.polymul([1.0 - lam, lam], [1.0, -4.0 * lam, 4.0 * lam]),
        h=lambda lam, t: t / (lam * (t - 1.0) * (4.0 - t)),
    ),
    "d": _CurveModel(
        _level_d,
        lambda x, z, w: _div(
            -(w + 8 * z * z + 4 * w * w + 5 * w * z * z - 14 * z * w - 4 * z**3),
            (w - z * z) * (w - z),
        ),
        branches=_branch_d,
        p=lambda lam: np.polymul(
            [1.0, 4.0],
            [9.0 * lam * lam + lam, 36.0 * lam * lam - 3.0 * lam, -36.0 * lam, 9.0],
        ),
        h=lambda lam, t: (lam * t * t + 12.0 * lam * t - 9.0) / (
            lam * t * (3.0 + t) * ((8.0 * lam + 1.0) * t - 5.0) * (t + 4.0)
        ),
    ),
}


def _resolve(family: BilliardFamily) -> tuple[_CurveModel | None, BilliardFamily, Image | None]:
    """(model, base family, image): an image family uses its base family's
    model, its points carried there by ``image.inverse`` and back by
    ``image.map``; a family of elliptic level curves has no model."""
    image = family.spec.image_of
    if image is None:
        return _MODELS.get(family.tag), family, None
    return _MODELS[image.base], BilliardFamily(image.base), image


def _carry(psi, x: PhasePoint) -> PhasePoint:
    """The phase point x with Q and P mapped by psi."""
    return PhasePoint(psi(x.q), psi(x.p))


def parametrize_level(family: BilliardFamily, lam, t) -> ProjectivePoint:
    """Point of the level curve {R = lam} at curve parameter t.

    Families a1/a2/b1/d use their rational parametrizations; b2 is the
    b-equivalence image of the b1 curve.  Poles of the parametrization land
    on the infinity line, and t = inf gives the curve's limit point.
    """
    lam = _require_regular(family, lam)
    model, base, image = _resolve(family)
    if model is None:
        raise ValueError("c-family level curves are elliptic and have no rational parametrization")
    cs = None if model.coefficients is None else model.coefficients(base.n)
    q = _on_curve(partial(model.level, lam.value, cs), t)
    return q if image is None else image.map(q)


def lift_fiber(family: BilliardFamily, lam, t, branch: str = "+") -> PhasePoint:
    """Phase point over the curve point at parameter t.

    For a1 the two signs select the two rational fiber components; for a2
    the fiber is connected and the sign is fixed by the parametrization; for
    b1/b2/d the sign selects the tangency sheet via the principal branch of
    sqrt(z^2 - w).
    """
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    lamv = _require_regular(family, lam).value
    model, base, image = _resolve(family)
    if model is None or model.lift is None:
        x = lift_by_sheet(parametrize_level(base, lamv, t), branch)
    else:
        t = _parameter(t)
        if t.is_inf:
            raise ValueError(f"the {family.tag} lift needs a finite parameter")
        x = model.lift(base, lamv, t.value, branch)
    return x if image is None else _carry(image.map, x)


def curve_parameter(family: BilliardFamily, x: PhasePoint) -> SphereValue:
    """Curve parameter of a phase point (rational inverse of the
    parametrization; for a-families the tangency point resolves the sign)."""
    model, _, image = _resolve(family)
    if model is None:
        raise ValueError(f"family {family.label()} has no rational curve parameter")
    if image is not None:
        x = _carry(image.inverse, x)
    if x.q.is_infinite:
        raise ValueError("curve parameter at an infinite point is not implemented")
    z, w = x.q.affine_pair()
    return model.parameter(x, z, w)


def branch_points(family: BilliardFamily, lam) -> list[SphereValue]:
    """Curve parameters where the fiber's double cover of the level curve
    branches (empty when the fiber splits into two sheets globally)."""
    lam = _require_regular(family, lam)
    model = _resolve(family)[0]
    return [] if model is None else model.branches(lam.value)


def elliptic_poly(family: BilliardFamily, lam) -> np.ndarray:
    """Descending coefficients of p(t) in the genus-one model y^2 = p(t)."""
    lam = _require_regular(family, lam)
    model = _resolve(family)[0]
    if model is None or model.p is None:
        raise ValueError(f"family {family.label()} has no square-root elliptic model in t")
    return model.p(lam.value)


def sheet_sqrt(family: BilliardFamily, lam, x: PhasePoint) -> tuple[complex, complex]:
    """(t, y) coordinates of a phase point on the model y^2 = p(t).

    The tangency point P resolves the sheet: y is a rational multiple of
    z(P) - z(Q), so no branch tracking is involved.
    """
    lamv = SphereValue.coerce(lam).value
    model, base, image = _resolve(family)
    if model is None or model.h is None:
        raise ValueError("sheet coordinates exist only for the b and d families")
    if image is not None:
        x = _carry(image.inverse, x)
    t = curve_parameter(base, x).value
    z, _w = x.q.affine_pair()
    z0 = x.p.z_sphere().value
    return t, (z0 - z) / model.h(lamv, t)


# ---------------------------------------------------------------------------
# elliptic models: half-periods in closed form, legs by segment quadrature

def _half_periods(poly: np.ndarray, roots: list[complex]) -> list[complex]:
    """Integral of dt/y, y^2 = p(t), from each root e_k of p to infinity for
    a cubic p = a(t - e_0)(t - e_1)(t - e_2): 2 a^(-1/2) R_F(0, e_k - e_i,
    e_k - e_j) along the ray t = e_k + tau, tau >= 0.  A quartic p sends its
    first root r to infinity by s = 1/(t - r): y^2 = p(t) becomes the cubic
    y'^2 = a' prod (s - 1/(e_k - r)), a' = a prod (r - e_k) over the other
    roots, with dt/y = -ds/y', so its half-periods end at r, whose own is 0."""
    lead, es = complex(poly[0]), list(roots)
    if len(es) == 4:
        base = es.pop(0)
        for e in es:
            lead *= base - e
        es = [1.0 / (e - base) for e in es]
    scale = 2.0 / principal_sqrt(lead)
    halves = [scale * carlson_rf(0.0, e - es[k - 1], e - es[k - 2]) for k, e in enumerate(es)]
    return [0j] * (len(roots) - 3) + halves


@dataclass
class EllipticModel:
    """Genus-one data of one invariant fiber, y^2 = p(t): the sorted finite
    branch points and one half-period per branch point.

    ``half_periods[k]`` is the integral of dt/y from ``roots[k]`` to a base
    branch point, on one of the two branches of y, in closed form by
    Carlson's R_F: the base is infinity for a cubic p and ``roots[0]`` for a
    quartic.  Twice a half-period is a period.  The last three half-periods
    are those of the branch points other than the base: the first two give
    the generators ``periods``, the third the closure cycle of
    :func:`lattice_closure_residual`.  The one integral left to quadrature
    is the leg of :meth:`anchor`, along the straight segment from a curve
    point to its nearest branch point.
    """

    family: BilliardFamily
    lam: complex
    poly: np.ndarray  # descending coefficients of p
    roots: list[complex]  # finite branch points, sorted
    half_periods: list[complex] = field(init=False)
    periods: tuple[complex, complex] = field(init=False)

    def __post_init__(self):
        self.half_periods = _half_periods(self.poly, self.roots)
        w1, w2 = (2.0 * h for h in self.half_periods[-3:-1])
        det = w1.real * w2.imag - w1.imag * w2.real
        if abs(det) <= 1e-12 * max(abs(w1), abs(w2)) ** 2:
            raise RuntimeError(
                "computed period generators are (near) real-proportional; "
                "no genuine lattice"
            )
        self.periods = (w1, w2)

    def lattice_reduce(self, v: complex) -> complex:
        return lattice_reduce(v, *self.periods)

    def anchor(self, point: tuple[complex, complex]) -> complex:
        """Elliptic logarithm of the curve point (t, y), modulo the lattice:
        the integral of dt/y from the point to its nearest branch point
        ``roots[k]``, on the branch of y that its y selects, plus
        ``half_periods[k]``."""
        t, y = point
        k = self._nearest(t)
        return self._leg(t, y, k) + self.half_periods[k]

    def _nearest(self, t: complex) -> int:
        return min(range(len(self.roots)), key=lambda k: abs(self.roots[k] - t))

    def _leg(self, t: complex, y: complex, k: int) -> complex:
        """Integral of dt/y along the straight segment from t to its nearest
        branch point e = ``roots[k]``, y continued from its value at t.

        On the segment p(t + s(e - t)) = y^2 (1 - s) prod (1 + s c_j) over
        the other roots e_j, c_j = (e - t)/(t - e_j).  For s in [0, 1] each
        1 + s c_j could reach the negative real axis only through 0, which
        would put e_j on the segment, nearer to t than e; so y times the
        principal square roots of the factors is y continued.  s = 1 - v^2
        removes the factor 1 - s and leaves a smooth integrand in v."""
        d = self.roots[k] - t
        cs = [d / (t - r) for j, r in enumerate(self.roots) if j != k]

        def f(v):
            s = 1.0 - v * v
            den = np.full(v.shape, y, dtype=complex)
            for c in cs:
                den = np.multiply(den, np.sqrt(1.0 + s * c))
            return 2.0 * d / den

        return segment_integrate(f, 0.0, 1.0)


def elliptic_model(family: BilliardFamily, lam) -> EllipticModel:
    """Branch polynomial, branch points, half-periods and a period-lattice
    basis.

    Supported for the b and d families, whose fibers carry the square-root
    model; the c-family level curves are elliptic but have no rational
    parametrization, so their period data is out of reach of this model
    (their invariant differentials are still available in the forms module).
    The branch points are the eigenvalue roots of p's complex coefficients,
    unpolished.
    """
    lam = _require_regular(family, lam)
    coeffs = elliptic_poly(family, lam)
    rts = sorted(
        (complex(r) for r in np.roots(np.asarray(coeffs, dtype=complex))),
        key=lambda r: (round(r.real, 12), round(r.imag, 12)),
    )
    return EllipticModel(family, lam.value, coeffs, rts)


def lattice_closure_residual(model: EllipticModel) -> float:
    """Distance from the closure cycle, twice the last half-period, to the
    lattice of ``periods``.

    That half-period is an R_F evaluation of its own, so the cycle lands on
    the lattice only if all three agree, as the homology of a genus-one
    curve demands.
    """
    return abs(model.lattice_reduce(2.0 * model.half_periods[-1]))


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


# forms of the critical components, homogeneous in (t, s) like the level curves

#: the candidate centers after the family's base points; no line holds all three
_COORDINATE_POINTS = (ProjectivePoint(0, 0, 1), E_INFINITY, ProjectivePoint(1, 0, 0))


def _gaussian(x):
    """x as an int or a complex when its parts are integers, else None:
    floats hold the sums and products of these exactly at the sizes here."""
    x = complex(x)
    if not (x.real.is_integer() and x.imag.is_integer()):
        return None
    return int(x.real) if x.imag == 0 else x


def _swept(poly: BiPoly, family: BilliardFamily):
    """The parametrization of the component F = {poly = 0} of degree d by
    the lines through the first candidate c, the family's base points and
    then ``_COORDINATE_POINTS``, where F has multiplicity exactly d - 1 (a
    line: any candidate off it); None when there is none.  The test is
    exact: F's denominators are cleared, c is divided by its last nonzero
    coordinate, and F or c is skipped where a number is not a Gaussian
    integer.  In the chart (x, y) of that coordinate, x and y the two that
    follow it cyclically, c is the origin; F's parts there are expanded
    once, for every point (:func:`_pencil`)."""
    d = poly.total_degree
    poly = poly.scale(math.lcm(*(a.denominator for a in poly.coeffs.values() if isinstance(a, Fraction))))
    if None in map(_gaussian, poly.coeffs.values()):
        return None
    for point in (*family.spec.base_points, *_COORDINATE_POINTS):
        k = max(i for i in range(3) if point.coords[i])
        center = [_gaussian(a / point.coords[k]) for a in point.coords]
        if None in center:
            continue
        frame = [(int(m == (k + 1) % 3), int(m == (k + 2) % 3), center[m]) for m in range(3)]
        at_c = _substitute_projective(poly, frame)
        if min(map(sum, at_c.coeffs)) == d - 1:
            lo, hi = (BiPoly({e: a for e, a in at_c.coeffs.items() if sum(e) == n}) for n in (d - 1, d))
            return partial(_on_curve, partial(_pencil, frame, lo, hi))
    return None


def _pencil(frame, lo: BiPoly, hi: BiPoly, t, s):
    """The second point of F on the line of direction v = (s, t) through
    the center c of ``frame``: F_d(v) c - F_{d-1}(v) v, with lo and hi
    F's parts F_{d-1} and F_d at c.  For a finite c the lines of slope
    t/s, for c = E the lines z = t/s."""
    f, h = lo(s, t), hi(s, t)
    x, y = -f * s, -f * t
    return tuple(u * x + v * y + c * h for u, v, c in frame)


def _quartic_d_932(t, s):
    """The quartic of d at -9/32, one of two hand forms: a pencil of lines
    sweeps a quartic only from a triple point, and its singular points
    (1, 1) and E are double."""
    return (
        -(9.0 * t + 32.0 * s) * (t + 8.0 * s) * t * (t + 3.0 * s),
        -((t + 8.0 * s) ** 2) * (3.0 * t + 8.0 * s) * (3.0 * t + 4.0 * s),
        40.0 * t * t * (t + 3.0 * s) ** 2,
    )


# exact component polynomials -------------------------------------------------

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


def _sheets(over: str) -> tuple[FiberComponent, ...]:
    """Two bijective rational fiber components over one curve component."""
    return (FiberComponent(0, "bijective", over),) * 2


def _double(over: str) -> tuple[FiberComponent, ...]:
    return (FiberComponent(0, "double", over),)


def _listed(*entries):
    """Components given as (name, polynomial), simple, swept by
    :func:`_swept`, or as (name, polynomial, hand form)."""
    return lambda family, lam: [
        CurveComponent(name, poly, 1, partial(_on_curve, *form) if form else _swept(poly, family))
        for name, poly, *form in entries
    ]


def _den_factors(*names):
    """Components at lam = inf: the integral's denominator factors, named."""

    def build(family, lam):
        den = first_integral(family).den_factors
        return [
            CurveComponent(name, poly, mult, _swept(poly, family))
            for name, (poly, mult) in zip(names, den)
        ]

    return build


def _a_at_infinity(*head):
    """The a-family pole divisor: the ``head`` components, then one parabola
    w = c z^2 per denominator coefficient c."""

    def build(family, lam):
        cs = _MODELS[family.tag].coefficients(family.n)
        return _den_factors(*head, *(f"parabola w = {c} z^2" for c in cs))(family, lam)

    return build


def _image_components(family, lam):
    """The base family's components mapped by the projective equivalence."""
    image = family.spec.image_of
    out = []
    for comp in critical_fiber_components(BilliardFamily(image.base), lam):
        poly = _substitute_projective(comp.poly, image.inverse.matrix)
        param = _mapped(image.map, comp.parametrize)
        out.append(CurveComponent(comp.name + " (b-equivalence image)", poly, 1, param))
    return out


_SIX_CONICS = sum((_sheets(f"conic #{k}") for k in range(3)), ())

_CELLS: dict[tuple[str, SphereValue], tuple[Callable, tuple[FiberComponent, ...] | None]] = {
    ("a1", INF): (_a_at_infinity(), None),
    ("a2", INF): (_a_at_infinity("line z = 0"), None),
    ("b1", INF): (_den_factors("conic w + 3z^2", "line z = 1", "line z = w"), None),
    ("b1", SphereValue(1)): (
        _listed(("line z = 0", _Z), ("cubic", _CUBIC_B1_LEVEL1)),
        _double("line") + _sheets("cubic"),
    ),
    ("b1", SphereValue(Fraction(4, 3))): (
        _listed(("conic w = 3z^2/(4z-1)", _CONIC_B1_43_1), ("conic w = z(4-3z)", _CONIC_B1_43_2)),
        _double("conic #0") + _double("conic #1"),
    ),
    ("b2", INF): (
        _listed(
            ("conic z^2+w^2+w+1", _Z * _Z + _W * _W + _W + _ONE),
            ("line z = i", _Z - BiPoly.const(1j)),
            ("line z = -i", _Z + BiPoly.const(1j)),
        ),
        None,
    ),
    ("b2", SphereValue(1)): (_image_components, _double("line") + _sheets("cubic")),
    ("b2", SphereValue(Fraction(4, 3))): (
        _image_components,
        _double("conic #0") + _double("conic #1"),
    ),
    ("c1", SphereValue(Fraction(27, 64))): (
        _listed(*((f"conic #{k}", p) for k, p in enumerate(_C1_CONICS))),
        _SIX_CONICS,
    ),
    ("c1", INF): (_den_factors("cubic 1 + w^3 - 2zw"), _sheets("cubic")),
    ("c2", SphereValue(Fraction(-9, 64))): (
        _listed(
            ("conic w + 8z^2", _C2_CONICS[0]),
            ("conic 9(w-z)^2 + w - z^2", _C2_CONICS[1]),
            ("conic 9(z-1)^2 + w - z^2", _C2_CONICS[2]),
        ),
        _SIX_CONICS,
    ),
    ("c2", INF): (_den_factors("cubic"), _sheets("cubic")),
    ("d", INF): (
        _den_factors("conic w + 8z^2", "line z = 1", "cubic"),
        _sheets("conic w + 8z^2") + _double("line z = 1") + _sheets("cubic"),
    ),
    ("d", SphereValue(Fraction(-1, 3))): (
        _listed(("cubic w(4z-1) = -z^2(5z-8)", _CUBIC_D_13_1), ("cubic", _CUBIC_D_13_2)),
        _double("cubic #0") + _double("cubic #1"),
    ),
    ("d", SphereValue(Fraction(-9, 32))): (
        _listed(("quartic", _QUARTIC_D_932, _quartic_d_932), ("conic w + 8z^2 - 9zw", _CONIC_D_932)),
        _sheets("quartic") + _double("conic"),
    ),
    # the level curve is critical (degenerate cusp) but the fiber keeps the
    # generic elliptic double-cover structure
    ("d", SphereValue(Fraction(-1, 4))): (
        lambda family, lam: [
            CurveComponent(
                "irreducible sextic (degenerate cusp at the origin)",
                first_integral(family).level_polynomial(_as_fraction(lam.value)),
                1,
                partial(_on_curve, partial(_level_d, lam.value.real, None)),
            )
        ],
        (FiberComponent(1, "double", "level curve"),),
    ),
}


def critical_fiber_components(family: BilliardFamily, lam) -> list[CurveComponent]:
    """Irreducible components (with multiplicities) of a critical level curve.

    lam is looked up as the registry's critical value it equals within
    :func:`sphere_eq`.  lam = 0 is reported as the parabola itself carrying
    the multiplicity of the integral's numerator.  A parametrization is
    found, not listed: the pencil through a point of multiplicity d - 1
    found from the component's polynomial (:func:`_swept`).  Only d's
    quartic at -9/32, which has no such point, and sextic at -1/4 keep hand
    forms; b2's components at 1 and 4/3 carry b1's.  Cells are built once.
    """
    value = _critical_value(family, lam)
    if value is None:
        lam = SphereValue.coerce(lam)
        raise ValueError(f"{lam!r} is a regular value of family {family.label()}")
    return list(_cell(family, value))


@lru_cache(maxsize=None)
def _cell(family: BilliardFamily, value: SphereValue) -> tuple[CurveComponent, ...]:
    if value == SphereValue(0):
        k = first_integral(family).zero_order
        return (CurveComponent("parabola", _CONIC, k, _swept(_CONIC, family)),)
    return tuple(_CELLS[(family.tag, value)][0](family, value))


def _substitute_projective(poly: BiPoly, matrix) -> BiPoly:
    """Image polynomial of {poly = 0} under the projective map: substitute
    the inverse map's linear forms, the rows of ``matrix``, for z, w and t
    in the homogenization (and set t = 1); exact when poly and the matrix
    are."""
    d = poly.total_degree
    lz, lw, lt = (BiPoly({(1, 0): a, (0, 1): b, (0, 0): c}) for a, b, c in matrix)
    out = BiPoly({})
    for (i, j), c in poly.coeffs.items():
        out = out + (lz.power(i) * lw.power(j) * lt.power(d - i - j)).scale(c)
    return out


def _mapped(psi, param):
    """The parametrization param followed by the map psi (None stays None)."""
    return None if param is None else lambda t: psi(param(t))


def component_product_residual(family: BilliardFamily, lam) -> float:
    """Relative coefficient residual of prod components^mult against the
    level polynomial (the denominator itself for lam = inf)."""
    comps = critical_fiber_components(family, lam)
    lam = _critical_value(family, lam)
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
    modeled.  A critical lam is read as the registry's critical value it
    equals within :func:`sphere_eq`.
    """
    value = _critical_value(family, lam)
    if value is None:
        lam = SphereValue.coerce(lam)
        spec = family.spec
        genus = 1 if spec.elliptic_fiber or spec.level_curves == "elliptic" else 0
        branch = tuple(branch_points(family, lam))
        if not branch:  # two global sheets over the level curve
            comp = FiberComponent(genus, "bijective", "level curve")
            return FiberModel(family, lam, (comp, comp))
        return FiberModel(
            family, lam, (FiberComponent(genus, "double", "level curve", branch),)
        )
    if value == SphereValue(0):
        return FiberModel(
            family, value, (FiberComponent(0, "bijective", "parabola (multiple)"),)
        )
    fiber = _CELLS[(family.tag, value)][1]
    if fiber is None:
        raise ValueError(f"no fiber table for family {family.label()} at {value!r}")
    return FiberModel(family, value, fiber)


#: random lines tried before slicing gives up
SLICE_ATTEMPTS = 64


def point_on_level(family: BilliardFamily, lam, rng: random.Random) -> ProjectivePoint:
    """A point of {R = lam} found by slicing with random lines.

    Works for every family at a regular level (the only route for the
    c-families, whose level curves have no rational parametrization).
    """
    lam = _require_regular(family, lam)
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
        try:
            found = poly_roots(coeffs)
        except ValueError:  # R - lam is constant on this line
            continue
        for s in found:
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
