"""Routed quadrature of dt/sqrt(p(t)): the reference that the library's
straight-segment legs are tested against.

A global branch of sqrt(p) cut straight down from each root, and the
integral of dt/y along a polyline on it, with a sign that flips at each
cut-ray crossing.  Paths come from ``numerics.plan_route``.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from dualbill.numerics import segment_integrate


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
