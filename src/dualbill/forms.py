"""The invariant area form on phase space, the closed-form half-step
Jacobian, the fiber 1-form, and the holomorphic differentials on elliptic
fibers (with Abel-step integrals against the period lattice).

The area form is (z(Q) - z(P))^(-3) dz^dw in the chart given by projecting
a phase point to Q; the tangency projection's half-step (Q, P) -> (sigma_P(Q), P)
has Jacobian -((z* - z0)/(z - z0))^3 in that chart.  The checks compare both
with the differential of the implemented map, which forward-mode jets give
exactly up to rounding: the involution's arithmetic runs on values carrying
their partials in z and w, so no step size enters.  The fiber form is the
1-form pairing with dR to give the area form; on an elliptic fiber it is
proportional to dt/sqrt(p(t)) in the curve parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .billiards import BilliardFamily, _involution_z, billiard_map, involution
from .curves import (
    EllipticModel,
    branched_leg_integral,
    elliptic_model,
    ramification_connection,
    sheet_sqrt,
)
from .geometry import PhasePoint
from .integrals import gradient
from .numerics import INF, plan_route

__all__ = [
    "TangentSample",
    "area_form",
    "halfstep_jacobian",
    "fiber_form",
    "fiber_differential",
    "chart_jacobian",
    "area_pullback_residual",
    "fiber_pullback_residual",
    "abel_steps",
]


@dataclass(frozen=True)
class TangentSample:
    """A phase point with two chart tangent vectors spanning the surface.

    Vectors live in the (z(Q), w(Q)) chart; conventionally the first runs
    along the tangent line (the fiber of the tangency projection) and the
    second is transverse.
    """

    base: PhasePoint
    v1: tuple[complex, complex]
    v2: tuple[complex, complex]

    def __post_init__(self):
        det = self.v1[0] * self.v2[1] - self.v1[1] * self.v2[0]
        n1 = math.hypot(abs(self.v1[0]), abs(self.v1[1]))
        n2 = math.hypot(abs(self.v2[0]), abs(self.v2[1]))
        if n1 == 0 or n2 == 0 or abs(det) < 1e-8 * n1 * n2:
            raise ValueError("tangent sample vectors are (near) dependent")

    @staticmethod
    def standard(x: PhasePoint) -> "TangentSample":
        """The vectors (1, 2 z0) along the tangent line at P and (0, 1)."""
        z0 = x.p.z_sphere().value
        return TangentSample(x, (1.0, 2.0 * z0), (0.0, 1.0))

    def det(self) -> complex:
        return self.v1[0] * self.v2[1] - self.v1[1] * self.v2[0]


def _chart_offset(x: PhasePoint) -> complex:
    """z(Q) - z(P); requires Q off the parabola and both affine."""
    z1 = x.q.z_sphere()
    z0 = x.p.z_sphere()
    if z1.is_inf or z0.is_inf:
        raise ValueError("area form chart needs affine Q and P")
    off = z1.value - z0.value
    if off == 0:
        raise ValueError("Q on the parabola: pole of order 3 of the area form")
    return off


def area_form(x: PhasePoint, sample: TangentSample) -> complex:
    """Invariant area form evaluated on a chart bivector at x."""
    off = _chart_offset(x)
    return sample.det() / (off * off * off)


def halfstep_jacobian(family: BilliardFamily, x: PhasePoint) -> complex:
    """Closed-form chart Jacobian of (Q, P) -> (sigma_P(Q), P)."""
    off = _chart_offset(x)
    q_img = involution(family, x.p, x.q)
    z_img = q_img.z_sphere()
    if z_img.is_inf:
        raise ValueError("involution image at the line's infinite point")
    ratio = (z_img.value - x.p.z_sphere().value) / off
    return -(ratio**3)


_Matrix = tuple[tuple[complex, complex], tuple[complex, complex]]


class _Jet:
    """A complex value with its partial derivatives (d/dz, d/dw): forward-mode
    differentiation through the rational arithmetic of the involution.

    Equality compares values, so the arithmetic takes the same branches on
    a jet as on its value.
    """

    __slots__ = ("v", "dz", "dw")

    def __init__(self, v, dz, dw):
        self.v, self.dz, self.dw = v, dz, dw

    def __add__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.v + o.v, self.dz + o.dz, self.dw + o.dw)
        return _Jet(self.v + o, self.dz, self.dw)

    def __sub__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.v - o.v, self.dz - o.dz, self.dw - o.dw)
        return _Jet(self.v - o, self.dz, self.dw)

    def __mul__(self, o):
        if isinstance(o, _Jet):
            v, ov = self.v, o.v
            return _Jet(v * ov, self.dz * ov + v * o.dz, self.dw * ov + v * o.dw)
        return _Jet(self.v * o, self.dz * o, self.dw * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, _Jet):
            ov = o.v
            q = self.v / ov
            return _Jet(q, (self.dz - q * o.dz) / ov, (self.dw - q * o.dw) / ov)
        return _Jet(self.v / o, self.dz / o, self.dw / o)

    def __rtruediv__(self, c):
        return _Jet(c, 0.0, 0.0) / self

    def __pow__(self, n: int):
        d = n * self.v ** (n - 1)
        return _Jet(self.v**n, d * self.dz, d * self.dw)

    def __eq__(self, o):
        return self.v == (o.v if isinstance(o, _Jet) else o)


def _chart_derivative(family: BilliardFamily, z0, z) -> tuple:
    """The involution image z* of the point z of the tangent line at z0, and
    the differential of Q = (z, w) -> (z*, w*) as rows ((a, b), (c, d)).

    The involution's own arithmetic runs on jets seeded at Q.  The tangency
    parameter z0 follows Q through the tangency condition
    (z - z0)^2 = z^2 - w, so dz0 = (dw/2 - z0 dz)/(z - z0), and the image
    stays on the tangent line at z0: w* = 2 z0 z* - z0^2.  Works on Python
    numbers and on numpy arrays of lanes alike.
    """
    off = z - z0
    z0j = _Jet(z0, -z0 / off, 0.5 / off)
    zi = _involution_z(family, z0j, _Jet(z, 1.0, 0.0))
    if zi is INF:
        raise ValueError("image left the affine chart")
    wi = 2.0 * z0j * zi - z0j * z0j
    return zi.v, ((zi.dz, zi.dw), (wi.dz, wi.dw))


def chart_jacobian(family: BilliardFamily, x: PhasePoint) -> tuple[_Matrix, PhasePoint]:
    """Differential of the phase map in the (z, w) chart, exact up to rounding.

    Returns the 2x2 matrix, as rows ((a, b), (c, d)) of complex numbers (see
    :func:`_chart_derivative`), and the image phase point.
    """
    _chart_offset(x)  # raises unless Q and P are affine and Q is off the parabola
    x_img = billiard_map(family, x)
    mat = _chart_derivative(family, x.p.z_sphere().value, x.q.z_sphere().value)[1]
    return mat, x_img


def _push(mat: _Matrix, v: tuple[complex, complex]) -> tuple[complex, complex]:
    """The chart vector v pushed forward by the 2x2 matrix mat."""
    (a, b), (c, d) = mat
    return a * v[0] + b * v[1], c * v[0] + d * v[1]


def area_pullback_residual(family: BilliardFamily, x: PhasePoint) -> float:
    """Relative defect of area-form invariance under the phase map at x."""
    sample = TangentSample.standard(x)
    mat, x_img = chart_jacobian(family, x)
    pushed = TangentSample(x_img, _push(mat, sample.v1), _push(mat, sample.v2))
    before = area_form(x, sample)
    after = area_form(x_img, pushed)
    return abs(after - before) / max(1e-300, abs(before))


def fiber_form(
    family: BilliardFamily, x: PhasePoint, v: tuple[complex, complex]
) -> complex:
    """The fiber 1-form on a chart tangent vector v at x.

    Primary representation dw / ((z - z(P))^3 dR/dz); switches to the dz
    representation -dz / ((z - z(P))^3 dR/dw) where dR/dz is the smaller
    partial, the two agreeing on vectors tangent to the level set.
    """
    off = _chart_offset(x)
    rz, rw = gradient(family, x.q)
    cube = off * off * off
    if abs(rz) >= abs(rw):
        if rz == 0:
            raise ValueError("both partials vanish: critical point")
        return v[1] / (cube * rz)
    if rw == 0:
        raise ValueError("both partials vanish: critical point")
    return -v[0] / (cube * rw)


def fiber_tangent(family: BilliardFamily, x: PhasePoint) -> tuple[complex, complex]:
    """A chart vector tangent to the invariant fiber through x."""
    rz, rw = gradient(family, x.q)
    norm = max(abs(rz), abs(rw))
    if norm == 0:
        raise ValueError("gradient vanishes; no well-defined fiber direction")
    return rw / norm, -rz / norm


def fiber_pullback_residual(family: BilliardFamily, x: PhasePoint) -> float:
    """Relative defect of fiber-form invariance along the fiber direction."""
    v = fiber_tangent(family, x)
    mat, x_img = chart_jacobian(family, x)
    before = fiber_form(family, x, v)
    after = fiber_form(family, x_img, _push(mat, v))
    return abs(after - before) / max(1e-300, abs(before))


def fiber_differential(model: EllipticModel, t: complex, anchor: tuple[complex, complex] | None = None) -> complex:
    """Value 1/sqrt(p(t)) of the holomorphic differential's density.

    The global branch is the cut-product branch of the model; passing an
    ``anchor`` (t0, y0) flips the overall sign so the branch agrees with y0
    at t0.
    """
    br = model._sqrt
    val = br.at(t)
    if anchor is not None:
        y0 = br.at(anchor[0])
        if abs(y0 - anchor[1]) > abs(y0 + anchor[1]):
            val = -val
    return 1.0 / val


def abel_steps(
    family: BilliardFamily,
    lam: complex,
    phase_points: list[PhasePoint],
    model: EllipticModel | None = None,
) -> list[complex]:
    """Integrals of the fiber differential between consecutive orbit points.

    Each step is routed through a nearby branch point of the double cover,
    with the two legs anchored to the sheet-resolved square roots of the two
    phase points, so the result is a genuine path integral on the fiber (its
    class modulo the period lattice is what the dynamics fixes).
    """
    if model is None:
        model = elliptic_model(family, lam)
    br = model._sqrt
    rts = model.sorted_roots()
    gaps = [abs(a - b) for i, a in enumerate(rts) for b in rts[i + 1:]]
    clearance = 0.12 * min(gaps)
    coords = [sheet_sqrt(family, lam, x) for x in phase_points]
    out = []
    for (ta, ya), (tb, yb) in zip(coords, coords[1:]):
        # route each endpoint into its nearest branch point: the final
        # approach is desingularized there, so even orbit parameters that
        # happen to sit close to a branch point integrate cleanly, and a
        # path through a ramification point is sheet-unambiguous
        b_a = min(rts, key=lambda r: abs(r - ta))
        b_b = min(rts, key=lambda r: abs(r - tb))
        leg_a = plan_route([ta, b_a], br.roots, clearance)
        leg_b = plan_route([tb, b_b], br.roots, clearance)
        total = branched_leg_integral(br, leg_a, ya, end_at_branch=b_a)
        total -= branched_leg_integral(br, leg_b, yb, end_at_branch=b_b)
        if abs(b_a - b_b) > 1e-12:
            # connect the two ramification points, desingularizing both ends
            total += ramification_connection(br, b_a, b_b, clearance)
        out.append(total)
    return out
