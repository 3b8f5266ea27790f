"""Values on the Riemann sphere, comparison thresholds, root finding,
Carlson's symmetric elliptic integral and segment quadrature.

Everything downstream (geometry, dynamics, curve models, verification) is
built on the primitives in this module: values that may be the point at
infinity, the comparison thresholds, polynomial root finding, the integral
R_F that gives the elliptic models their periods in closed form, and
Gauss-Legendre segment quadrature with global square-root branch tracking.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Sequence

import numpy as np

__all__ = [
    "SpherePoleError",
    "principal_sqrt",
    "SphereValue",
    "INF",
    "ABS_EPS",
    "REL_EPS",
    "INF_THRESHOLD",
    "sphere_eq",
    "chordal_distance",
    "roots",
    "carlson_rf",
    "segment_integrate",
    "BranchedSqrt",
    "plan_route",
    "lattice_reduce",
]


class SpherePoleError(ArithmeticError):
    """Raised for an indeterminate value on the sphere (0/0, or the finite
    part of infinity)."""


class SphereValue:
    """A point of the Riemann sphere: a finite complex number or infinity.

    It carries no arithmetic: ``value`` gives the finite part and
    ``is_inf`` tells infinity apart; equality is exact.
    """

    __slots__ = ("_v",)

    def __init__(self, value: complex | None = None, *, infinite: bool = False):
        if infinite:
            self._v = None
        else:
            if value is None:
                raise ValueError("finite SphereValue needs a value")
            self._v = complex(value)

    @property
    def is_inf(self) -> bool:
        return self._v is None

    @property
    def value(self) -> complex:
        if self._v is None:
            raise SpherePoleError("infinite value has no finite part")
        return self._v

    @staticmethod
    def coerce(x: "SphereValue | complex | float | int") -> "SphereValue":
        if isinstance(x, SphereValue):
            return x
        v = _finite_part(x)
        return INF if v is None else SphereValue(v)

    def __eq__(self, other):
        try:
            other = SphereValue.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        if self.is_inf or other.is_inf:
            return self.is_inf and other.is_inf
        return self._v == other._v

    def __hash__(self):
        return hash(self._v)

    def __repr__(self):
        return "inf" if self.is_inf else repr(self._v)


INF = SphereValue(infinite=True)


#: finite values within ABS_EPS, or within REL_EPS relative to the larger
#: modulus, compare equal
ABS_EPS = 1e-10
REL_EPS = 1e-9
#: values of modulus at least this compare equal to the point at infinity
INF_THRESHOLD = 1e12


def principal_sqrt(x: complex) -> complex:
    """Principal square root with signed zeros canonicalized to +0.

    Adding 0.0 flushes IEEE negative zeros so values that land exactly on
    the branch cut resolve to the upper side deterministically.
    """
    x = complex(x)
    return cmath.sqrt(complex(x.real + 0.0, x.imag + 0.0))


def _finite_part(x: SphereValue | complex) -> complex | None:
    """x as a plain complex number; None for the point at infinity."""
    if isinstance(x, SphereValue):
        return x._v
    x = complex(x)
    return x if cmath.isfinite(x) else None


def chordal_distance(a: SphereValue | complex, b: SphereValue | complex) -> float:
    """Chordal metric on the Riemann sphere, d(a, inf) = 1/sqrt(1+|a|^2)."""
    a = _finite_part(a)
    b = _finite_part(b)
    if a is None or b is None:
        if a is b:
            return 0.0
        v = a if b is None else b
        return 1.0 / math.sqrt(1.0 + abs(v) ** 2)
    return abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


def sphere_eq(a, b) -> bool:
    """Tolerant equality on the sphere.

    Finite values compare with the ABS_EPS/REL_EPS rule; values of modulus
    at least INF_THRESHOLD are classified as infinite, so e.g. 1e18 compares
    equal to infinity.
    """
    a = SphereValue.coerce(a)
    b = SphereValue.coerce(b)
    if not a.is_inf and not b.is_inf:
        av, bv = a.value, b.value
        if abs(av - bv) <= max(ABS_EPS, REL_EPS * max(abs(av), abs(bv))):
            return True
    a_inf = a.is_inf or abs(a.value) >= INF_THRESHOLD
    b_inf = b.is_inf or abs(b.value) >= INF_THRESHOLD
    return a_inf and b_inf


def _horner(cs: Sequence[complex], t: complex) -> complex:
    """The polynomial with ascending coefficients cs at t."""
    acc = 0j
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def roots(coeffs: Sequence[complex]) -> list[complex]:
    """All roots with multiplicity of the polynomial with ascending
    coefficients ``coeffs`` (trailing zeros are trimmed).

    Closed forms for degree 1 and 2; companion-matrix eigenvalues above,
    followed by one Newton polish step.
    """
    c = [complex(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    deg = len(c) - 1
    if deg < 1:
        raise ValueError("root finding needs degree >= 1")
    if deg == 1:
        return [-c[0] / c[1]]
    if deg == 2:
        a, b, cc = c[2], c[1], c[0]
        disc = cmath.sqrt(b * b - 4 * a * cc)
        # pick the sign that avoids cancellation in -b -/+ disc
        if (b.conjugate() * disc).real > 0:
            disc = -disc
        q = -(b - disc) / 2
        r1 = q / a
        r2 = cc / q if q != 0 else -b / a - r1
        return [r1, r2]
    rts = list(np.roots(list(reversed(c))))
    dc = [k * ck for k, ck in enumerate(c)][1:]
    polished = []
    for r in rts:
        r = complex(r)
        for _ in range(2):
            d = _horner(dc, r)
            if abs(d) == 0:
                break
            step = _horner(c, r) / d
            if abs(step) > 1e-2 * max(1.0, abs(r)):
                break
            r = r - step
        polished.append(r)
    return polished


# ---------------------------------------------------------------------------
# Carlson's symmetric elliptic integral of the first kind


def carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """R_F(x, y, z) = 1/2 int_0^inf dtau / sqrt((tau + x)(tau + y)(tau + z)).

    Carlson's duplication algorithm (B. C. Carlson, Numer. Algorithms 10
    (1995) 13-26; DLMF 19.36.1) with his stopping rule at r = machine
    epsilon: duplicate until 4^-n Q < |A_n|, Q = (3r)^(-1/6) max |A_0 - x|,
    then sum the fifth-order series.  Every square root is
    :func:`principal_sqrt`, so an argument on the negative real axis reads
    as the limit from above whatever the sign of its zero imaginary part.
    """
    if [x, y, z].count(0) > 1:
        raise ValueError("R_F diverges when two of its arguments vanish")
    a = (x + y + z) / 3.0
    dx, dy = a - x, a - y
    q = (3.0 * sys.float_info.epsilon) ** (-1.0 / 6.0) * max(abs(dx), abs(dy), abs(a - z))
    while q >= abs(a):
        sx, sy, sz = principal_sqrt(x), principal_sqrt(y), principal_sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z, a = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0, (a + lam) / 4.0
        q, dx, dy = q / 4.0, dx / 4.0, dy / 4.0
    X, Y = dx / a, dy / a
    Z = -X - Y
    e2, e3 = X * Y - Z * Z, X * Y * Z
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / principal_sqrt(a)


# ---------------------------------------------------------------------------
# quadrature

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
#: two successive dyadic refinements must agree to this relative accuracy
QUAD_REL = 1e-10
#: quadrature gives up after this many dyadic refinements
QUAD_MAX_SPLITS = 12
#: panels per integrand call: 4096 complex nodes (64 KiB) stay below the
#: array size at which numpy reuses temporaries in place and rounds
#: chained products differently
_PANEL_BLOCK = 64


def _panels(f, nodes: list[complex]) -> list[complex]:
    """The 64-node Gauss-Legendre panels between successive nodes, each
    with the bits of a panel evaluated alone."""
    out = []
    for lo in range(0, len(nodes) - 1, _PANEL_BLOCK):
        ends = nodes[lo:lo + _PANEL_BLOCK + 1]
        halves = [(b - a) / 2.0 for a, b in zip(ends, ends[1:])]
        mids = np.array([(a + b) / 2.0 for a, b in zip(ends, ends[1:])])
        ts = mids[:, None] + np.array(halves)[:, None] * _GL_NODES
        vals = np.asarray(f(ts.ravel()), dtype=complex).reshape(ts.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand blew up inside a quadrature panel")
        sums = np.sum(_GL_WEIGHTS * vals, axis=1)
        out += [complex(h * s) for h, s in zip(halves, sums)]
    return out


def _refine(f, a: complex, b: complex) -> complex:
    prev = None
    prev_abs = None
    incs: list[float] = []
    n = 1
    for _ in range(QUAD_MAX_SPLITS):
        panels = _panels(f, [a + (b - a) * k / n for k in range(n + 1)])
        total = sum(panels)
        total_abs = sum(abs(p) for p in panels)
        inc = abs(total_abs - prev_abs) if prev_abs is not None else None
        if prev is not None and abs(total - prev) <= QUAD_REL * max(1.0, abs(total)):
            # guard against a principal-value pole on the path: the value
            # series can cancel to convergence while the magnitude series
            # keeps growing by a constant per refinement, so accept only a
            # settled or twice-decaying magnitude series
            settled = inc <= 1e3 * QUAD_REL * max(1.0, total_abs)
            decaying = (
                len(incs) >= 2
                and inc <= 0.6 * incs[-1]
                and incs[-1] <= 0.6 * incs[-2]
            )
            if settled or decaying:
                return total
        if inc is not None:
            incs.append(inc)
        prev = total
        prev_abs = total_abs
        n *= 2
    raise ValueError(
        "quadrature did not converge; a singularity may sit on the path"
    )


def segment_integrate(f, a: complex, b: complex) -> complex:
    """Integral of f(t) dt over the straight segment [a, b].

    64 Gauss-Legendre nodes per panel with dyadic panel refinement until two
    successive refinements agree to QUAD_REL.  f must accept a flat ndarray
    of up to 4096 points (the nodes of up to 64 panels of one refinement)
    and be finite along the segment.
    """
    d = b - a
    return _refine(lambda s: f(a + d * s) * d, 0.0, 1.0)


# ---------------------------------------------------------------------------
# global square-root branches and path planning

class BranchedSqrt:
    """A global branch of sqrt(p(t)) cut below each root of p.

    The branch is the product of per-root square roots, each cut along the
    downward vertical ray from its root, times the square root of the leading
    coefficient.  It is continuous on the plane minus those rays and can be
    evaluated at arbitrary points in any order, which makes it suitable for
    quadrature.  Crossings of the cut rays by a straight segment are exactly
    enumerable via :meth:`segment_crossings`, so a piecewise sign factor
    restores continuity along any polyline.
    """

    def __init__(self, coeffs: Sequence[complex]):
        self.coeffs = np.asarray([complex(c) for c in coeffs], dtype=complex)
        if len(self.coeffs) < 2:
            raise ValueError("need a non-constant polynomial")
        self.roots = [complex(r) for r in np.roots(self.coeffs)]
        self._lead = cmath.sqrt(complex(self.coeffs[0]))
        self._phase = cmath.exp(1j * math.pi / 4 * len(self.roots))

    def __call__(self, t):
        t = np.asarray(t, dtype=complex)
        vals = np.full(t.shape, self._lead * self._phase, dtype=complex)
        for r in self.roots:
            vals = np.multiply(vals, np.sqrt(-1j * (t - r)))
        return vals

    def at(self, t: complex) -> complex:
        return complex(self(np.asarray([t]))[0])

    def segment_crossings(self, a: complex, b: complex) -> list[float]:
        """Parameters s in (0,1) where [a,b] crosses a cut ray."""
        out = []
        d = b - a
        if d.real == 0:
            return out
        for r in self.roots:
            s = (r.real - a.real) / d.real
            if 0.0 < s < 1.0 and a.imag + s * d.imag < r.imag:
                out.append(s)
        return sorted(out)


#: a segment is bent at most this many times around obstacles
ROUTE_MAX_DEPTH = 8


def plan_route(
    path: Sequence[complex], obstacles: Sequence[complex], clearance: float
) -> list[complex]:
    """Bend a polyline so no segment passes within ``clearance`` of an obstacle.

    Detours always go above the obstacle (cuts in :class:`BranchedSqrt`
    point downward).  Segment endpoints themselves are allowed to coincide
    with obstacles: only interior near-approaches trigger a detour.
    """
    pts = [complex(p) for p in path]
    out = [pts[0]]
    for i in range(len(pts) - 1):
        seg = [pts[i], pts[i + 1]]
        for _ in range(ROUTE_MAX_DEPTH):
            changed = False
            refined = [seg[0]]
            for k in range(len(seg) - 1):
                p, q = seg[k], seg[k + 1]
                d = q - p
                L = abs(d)
                if L > 0:
                    for r in obstacles:
                        s = ((r - p) / d).real if L else 0.0
                        if 0.02 < s < 0.98:
                            foot = p + s * d
                            if (
                                abs(foot - r) < clearance
                                and abs(r - p) > 1e-13
                                and abs(r - q) > 1e-13
                            ):
                                refined.append(r + 1.5j * clearance)
                                changed = True
                                break
                refined.append(q)
            seg = refined
            if not changed:
                break
        out.extend(seg[1:])
    return out


def lattice_reduce(v: complex, w1: complex, w2: complex) -> complex:
    """Reduce v modulo the lattice Z*w1 + Z*w2: v minus the lattice point
    whose coordinates in the basis (w1, w2) are those of v rounded to the
    nearest integers, half to even.  In a skewed basis that point need not
    be the lattice point nearest to v: for w1 = 1, w2 = 0.9 + 0.1i and
    v = 0.45 + 0.05i the residual has modulus 0.453, where v is 0.354 from
    2 w1 - 2 w2.  The 2 x 2 real system is solved by Cramer's rule; generators
    with a zero determinant raise ValueError, and a NaN or infinite
    coordinate gives a NaN residual."""
    det = w1.real * w2.imag - w2.real * w1.imag
    if det == 0:
        raise ValueError("lattice generators are degenerate")
    x0 = (v.real * w2.imag - w2.real * v.imag) / det
    x1 = (w1.real * v.imag - v.real * w1.imag) / det
    try:
        return v - (round(x0) * w1 + round(x1) * w2)
    except (ValueError, OverflowError):  # nan or inf
        return complex(math.nan, math.nan)
