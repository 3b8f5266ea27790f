"""The invariant area form on phase space, the closed-form half-step
Jacobian, the fiber 1-form, and the holomorphic differentials on elliptic
fibers (with Abel-step integrals against the period lattice).

The area form is (z(Q) - z(P))^(-3) dz^dw in the chart given by projecting
a phase point to Q; the tangency projection's half-step (Q, P) -> (sigma_P(Q), P)
has Jacobian -((z* - z0)/(z - z0))^3 in that chart.  The checks compare both
with the differential of the implemented map, which forward-mode jets give
exactly up to rounding: the involution's arithmetic runs on values carrying
their partials in z and w, so no step size enters.  The closed form and the
jets take the tangency parameter z0 and the point z of its tangent line as
Python numbers or numpy lanes, and so does the defect of the area form's
invariance that the area check evaluates, with the image's chart offset
z0 - z* from the jets' image z* = z(Q') and no step of the phase map.  The
fiber form is the 1-form pairing with dR to give the area form; on an elliptic
fiber it is proportional to dt/sqrt(p(t)) in the curve parameter.
"""

from __future__ import annotations

from itertools import pairwise

import numpy as np

from .billiards import BilliardFamily, _involution_z, billiard_map
from .curves import EllipticModel, sheet_sqrt
from .geometry import PhasePoint
from .integrals import gradient
from .numerics import INF

__all__ = [
    "halfstep_jacobian",
    "fiber_form",
    "chart_jacobian",
    "area_pullback_residual",
    "fiber_pullback_residual",
    "abel_steps",
]


def _wedge(v1, v2):
    """dz^dw on the chart vectors v1 and v2."""
    return v1[0] * v2[1] - v1[1] * v2[0]


def _dependent(v1, v2):
    """Whether the chart vectors v1 and v2 are zero or (near) dependent:
    |v1 ^ v2| below 1e-8 |v1| |v2|."""
    n1 = np.hypot(abs(v1[0]), abs(v1[1]))
    n2 = np.hypot(abs(v2[0]), abs(v2[1]))
    return (n1 == 0) | (n2 == 0) | (abs(_wedge(v1, v2)) < 1e-8 * n1 * n2)


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


def _area(v1, v2, off):
    """The area form on the bivector v1 ^ v2 at chart offset off = z(Q) - z(P)."""
    return _wedge(v1, v2) / (off * off * off)


def halfstep_jacobian(family: BilliardFamily, z0, z):
    """Closed-form chart Jacobian -((z* - z0)/(z - z0))^3 of the half-step
    (Q, P) -> (sigma_P(Q), P) at the point z of the tangent line at z0, on
    Python numbers, jets or numpy lanes.  On Python numbers it raises
    ValueError for z = z0 and for z* at the line's infinite point, and
    SingularTangencyError only at an exact pole of f: unlike
    :func:`~dualbill.billiards.involution`, it has no guard radius."""
    z_img = _involution_z(family, z0, z)
    if z_img is INF:
        raise ValueError("involution image at the line's infinite point")
    try:
        ratio = (z_img - z0) / (z - z0)
    except ZeroDivisionError:
        raise ValueError("Q on the parabola: pole of order 3 of the area form") from None
    return -(ratio**3)


_Matrix = tuple[tuple[complex, complex], tuple[complex, complex]]


class _Jet:
    """A complex value with its partial derivatives (d/dz, d/dw): forward-mode
    differentiation through the rational arithmetic of the involution.

    A jet enters the involution only as a finite point of the tangent line,
    where its arithmetic makes no comparison, so a jet has no equality of
    its own.
    """

    __slots__ = ("v", "dz", "dw")

    def __init__(self, v, dz, dw):
        self.v, self.dz, self.dw = v, dz, dw

    def __add__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.v + o.v, self.dz + o.dz, self.dw + o.dw)
        return _Jet(self.v + o, self.dz, self.dw)

    __radd__ = __add__

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


def _area_defect(family: BilliardFamily, z0, z):
    """Relative defect of area-form invariance under the phase map at the
    point z of the tangent line at z0, on Python numbers or numpy lanes;
    whether the pushed-forward vectors are (near) dependent
    (:func:`_dependent`); and the image's chart offset.

    The vectors (1, 2 z0) along the tangent line and (0, 1) are pushed
    forward by the jets of :func:`_chart_derivative`, which raises on Python
    numbers where the involution's image z* is infinite.  P' is the other
    tangency point 2 z* - z0 of Q' = z*, so the image's offset is z0 - z*.
    """
    z_img, mat = _chart_derivative(family, z0, z)
    off_img = z0 - z_img
    v1, v2 = (1.0, 2.0 * z0), (0.0, 1.0)
    p1, p2 = _push(mat, v1), _push(mat, v2)
    before = _area(v1, v2, z - z0)
    after = _area(p1, p2, off_img)
    return abs(after - before) / np.maximum(1e-300, abs(before)), _dependent(p1, p2), off_img


def _area_residual(family: BilliardFamily, z0: complex, z: complex) -> float:
    """:func:`_area_defect` on Python numbers; raises ValueError where the
    pushed-forward vectors are (near) dependent."""
    res, dependent, _ = _area_defect(family, z0, z)
    if dependent:
        raise ValueError("pushed tangent sample vectors are (near) dependent")
    return float(res)


def area_pullback_residual(family: BilliardFamily, x: PhasePoint) -> float:
    """Relative defect of area-form invariance under the phase map at x."""
    _chart_offset(x)  # raises unless Q and P are affine and Q is off the parabola
    return _area_residual(family, x.p.z_sphere().value, x.q.z_sphere().value)


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


def abel_steps(
    family: BilliardFamily,
    lam: complex,
    phase_points: list[PhasePoint],
    model: EllipticModel,
) -> list[complex]:
    """Integrals of the fiber differential between consecutive orbit points,
    modulo the period lattice, which is all the dynamics fixes.

    Each step is the difference of the elliptic logarithms
    (:meth:`~dualbill.curves.EllipticModel.anchor`) of the sheet coordinates
    (t, y) of the two phase points: each point's routed leg to its nearest
    branch point plus that branch point's closed-form half-period.  Each
    point's logarithm is taken once and serves the step that ends there and
    the one that starts there.
    """
    coords = [sheet_sqrt(family, lam, x) for x in phase_points]
    logs = map(model.anchor, coords) if len(coords) > 1 else ()
    return [a - b for a, b in pairwise(logs)]
