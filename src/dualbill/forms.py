"""The invariant area form on phase space, the closed-form half-step
Jacobian, the fiber 1-form, and the holomorphic differentials on elliptic
fibers (with Abel-step integrals against the period lattice).

The area form is (z(Q) - z(P))^(-3) dz^dw in the chart given by projecting
a phase point to Q; the tangency projection's half-step (Q, P) -> (sigma_P(Q), P)
has Jacobian -((z* - z0)/(z - z0))^3 in that chart.  The fiber form is the
1-form pairing with dR to give the area form; on an elliptic fiber it is
proportional to dt/sqrt(p(t)) in the curve parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .billiards import BilliardFamily, billiard_map, involution
from .curves import (
    EllipticModel,
    branched_leg_integral,
    elliptic_model,
    ramification_connection,
    sheet_sqrt,
)
from .geometry import PhasePoint, ProjectivePoint, tangency_near
from .integrals import gradient
from .numerics import plan_route

__all__ = [
    "TangentSample",
    "area_form",
    "halfstep_jacobian",
    "fiber_form",
    "fiber_differential",
    "chart_map",
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


def chart_map(
    family: BilliardFamily, z: complex, w: complex, p_hint: complex
) -> tuple[complex, complex, complex]:
    """The phase map expressed in the (z, w) chart near a sheet.

    The tangency point is resolved by continuity against ``p_hint``;
    returns (z*, w*, z0) with z0 the tangency parameter actually used.
    Only the image Q' = sigma_P(Q) is needed, so the new tangency point P'
    is not computed.
    """
    q = ProjectivePoint.affine(z, w)
    p = tangency_near(q, p_hint)
    zi, wi, ti = involution(family, p, q).coords
    if ti == 0:
        raise ValueError("image left the affine chart")
    return zi / ti, wi / ti, p.z_sphere().value


#: chart_jacobian steps by STEP_SCALE times the squared tangency distance,
#: but never by less than STEP_FLOOR
STEP_SCALE = 1e-3
STEP_FLOOR = 1e-8


def chart_jacobian(family: BilliardFamily, x: PhasePoint) -> tuple[np.ndarray, PhasePoint]:
    """Finite-difference differential of the phase map in the (z, w) chart.

    Returns the 2x2 matrix and the image phase point.  The sheet is tracked
    by tangency continuity, so the stencil stays on the branch of x.  The
    step scales with the squared distance of Q and its image from the
    tangency point: that distance sets the curvature of the square-root
    sheet, and quadratic scaling keeps the relative truncation error flat.
    Where the image lies farther from the tangency point than Q, the step
    is divided by that ratio too.
    """
    z, w = x.q.affine_pair()
    z0 = x.p.z_sphere().value
    x_img = billiard_map(family, x)
    off_in = abs(z - z0)
    zi = x_img.q.z_sphere()
    off_out = abs(zi.value - z0) if not zi.is_inf else 1.0
    # where the map expands (off_out > off_in) the image varies faster than
    # the input, so the step shrinks by the expansion factor as well
    expansion = off_out / off_in if off_out > off_in else 1.0
    h = max(STEP_SCALE * min(off_in, off_out, 1.0) ** 2 / expansion, STEP_FLOOR)

    def f(zz, ww):
        zi, wi, _ = chart_map(family, zz, ww, z0)
        return zi, wi

    def central(hh):
        zp, zm, wp, wm = z + hh, z - hh, w + hh, w - hh
        fz_p = f(zp, w)
        fz_m = f(zm, w)
        fw_p = f(z, wp)
        fw_m = f(z, wm)
        dz, dw = zp - zm, wp - wm
        return np.array(
            [
                [(fz_p[0] - fz_m[0]) / dz, (fw_p[0] - fw_m[0]) / dw],
                [(fz_p[1] - fz_m[1]) / dz, (fw_p[1] - fw_m[1]) / dw],
            ],
            dtype=complex,
        )

    # one step of Richardson extrapolation kills the quadratic error term
    mat = (4.0 * central(h / 2.0) - central(h)) / 3.0
    return mat, x_img


def area_pullback_residual(family: BilliardFamily, x: PhasePoint) -> float:
    """Relative defect of area-form invariance under the phase map at x,
    with the differential taken by finite differences."""
    sample = TangentSample.standard(x)
    mat, x_img = chart_jacobian(family, x)
    v1 = mat @ np.array(sample.v1)
    v2 = mat @ np.array(sample.v2)
    pushed = TangentSample(x_img, (v1[0], v1[1]), (v2[0], v2[1]))
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
    v_img = mat @ np.array(v)
    before = fiber_form(family, x, v)
    after = fiber_form(family, x_img, (v_img[0], v_img[1]))
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
