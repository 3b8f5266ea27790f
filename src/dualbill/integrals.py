"""The seven rational first integrals: exact coefficient tables, evaluation
on the projective plane, gradients and Hessians, indeterminacy sets, and the
critical value / critical point tables.

Each integral is a ratio of bivariate polynomials whose coefficients are
exact rationals, expanded once from the factored closed forms.  Evaluation
at infinite points goes through homogenization to the common degree; near a
base point (where numerator and denominator share a zero) evaluation is
refused inside a guard radius.

The polynomial factors of each integral are tabulated here, one entry per
family; the base points and the critical value table are read from the
family's record in :mod:`dualbill.families`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .billiards import BilliardFamily
from .geometry import ProjectivePoint
from .numerics import INF, SphereValue

__all__ = [
    "IndeterminacyError",
    "BiPoly",
    "RationalIntegral",
    "coefficients_a1",
    "coefficients_a2",
    "first_integral",
    "eval_integral",
    "gradient",
    "hessian",
    "gradient_projective",
    "hessian_projective",
    "indeterminacy_set",
    "critical_values",
    "true_critical_points",
    "critical_indeterminacies",
    "CriticalTable",
    "critical_table",
]

#: evaluation is refused within this distance of a base point
BASE_POINT_GUARD = 1e-8


class IndeterminacyError(ValueError):
    """Evaluation at (or too near) a common zero of numerator and denominator."""


def _is_exact(c) -> bool:
    return isinstance(c, (int, Fraction))


class BiPoly:
    """Bivariate polynomial in (z, w) as a sparse coefficient table.

    Coefficients are exact (int/Fraction) where possible and complex
    otherwise; arithmetic stays exact as long as both operands are exact.
    """

    __slots__ = ("coeffs", "_dense")

    def __init__(self, coeffs: Mapping[tuple[int, int], object]):
        table = {}
        for (i, j), c in coeffs.items():
            if c == 0:
                continue
            table[(int(i), int(j))] = c if _is_exact(c) else complex(c)
        self.coeffs = table
        self._dense = None

    # -- constructors -------------------------------------------------------
    @staticmethod
    def const(c) -> "BiPoly":
        return BiPoly({(0, 0): c})

    @staticmethod
    def var_z() -> "BiPoly":
        return BiPoly({(1, 0): 1})

    @staticmethod
    def var_w() -> "BiPoly":
        return BiPoly({(0, 1): 1})

    @staticmethod
    def from_terms(*terms) -> "BiPoly":
        """from_terms((c, i, j), ...) builds sum of c * z^i * w^j."""
        table = {}
        for c, i, j in terms:
            table[(i, j)] = table.get((i, j), 0) + c
        return BiPoly(table)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "BiPoly") -> "BiPoly":
        table = dict(self.coeffs)
        for k, c in other.coeffs.items():
            table[k] = table.get(k, 0) + c
        return BiPoly(table)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        table = dict(self.coeffs)
        for k, c in other.coeffs.items():
            table[k] = table.get(k, 0) - c
        return BiPoly(table)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            return self.scale(other)
        table = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                table[k] = table.get(k, 0) + c1 * c2
        return BiPoly(table)

    __rmul__ = __mul__

    def scale(self, c) -> "BiPoly":
        if c == 0:
            return BiPoly({})
        return BiPoly({k: v * c for k, v in self.coeffs.items()})

    def power(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ------------------------------------------------------------
    def diff_z(self) -> "BiPoly":
        return BiPoly({(i - 1, j): i * c for (i, j), c in self.coeffs.items() if i})

    def diff_w(self) -> "BiPoly":
        return BiPoly({(i, j - 1): j * c for (i, j), c in self.coeffs.items() if j})

    # -- structure -----------------------------------------------------------
    @property
    def total_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(i + j for i, j in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self.coeffs.values())

    # -- evaluation ----------------------------------------------------------
    def _dense_array(self) -> np.ndarray:
        if self._dense is None:
            d = max(self.total_degree, 0)
            arr = np.zeros((d + 1, d + 1), dtype=complex)
            for (i, j), c in self.coeffs.items():
                arr[i, j] = complex(c)
            self._dense = arr
        return self._dense

    def __call__(self, z, w):
        arr = self._dense_array()
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        acc = np.zeros(np.broadcast(z, w).shape, dtype=complex)
        for row in arr[::-1]:
            inner = np.zeros_like(acc)
            for c in row[::-1]:
                inner = inner * w + c
            acc = acc * z + inner
        if acc.shape == ():
            return complex(acc)
        return acc

    def eval_exact(self, z: Fraction, w: Fraction):
        acc = Fraction(0)
        for (i, j), c in sorted(self.coeffs.items()):
            acc += c * z**i * w**j
        return acc

    def homogenized_chart(self, degree: int, chart: int) -> "BiPoly":
        """Dehomogenization of the degree-``degree`` homogenization.

        chart 0 sets z = 1 (coords w, t); chart 1 sets w = 1 (coords z, t);
        chart 2 sets t = 1 (returns self).  The remaining exponent of t is
        degree - i - j.
        """
        if degree < self.total_degree:
            raise ValueError("homogenization degree too small")
        if chart == 2:
            return self
        table: dict[tuple[int, int], object] = {}
        for (i, j), c in self.coeffs.items():
            k = degree - i - j
            key = (j, k) if chart == 0 else (i, k)
            table[key] = table.get(key, 0) + c
        return BiPoly(table)

    def restrict_line(self, p0: tuple[complex, complex], direction: tuple[complex, complex]):
        """Coefficients (ascending) of s -> self(p0 + s*direction)."""
        z_line = np.array([complex(p0[0]), complex(direction[0])])
        w_line = np.array([complex(p0[1]), complex(direction[1])])
        deg = max(self.total_degree, 0)
        z_pows = [np.array([1.0 + 0j])]
        w_pows = [np.array([1.0 + 0j])]
        for _ in range(deg):
            z_pows.append(np.convolve(z_pows[-1], z_line))
            w_pows.append(np.convolve(w_pows[-1], w_line))
        out = np.zeros(deg + 1, dtype=complex)
        for (i, j), c in self.coeffs.items():
            term = np.convolve(z_pows[i], w_pows[j]) * complex(c)
            out[: len(term)] += term
        return list(out)

    def proportional_residual(self, other: "BiPoly") -> float:
        """Worst relative coefficient mismatch after the best scalar match."""
        keys = set(self.coeffs) | set(other.coeffs)
        if not keys:
            return 0.0
        pivot = max(keys, key=lambda k: abs(complex(self.coeffs.get(k, 0))))
        a = complex(self.coeffs.get(pivot, 0))
        b = complex(other.coeffs.get(pivot, 0))
        if a == 0 or b == 0:
            return math.inf
        scale = b / a
        top = max(
            abs(complex(self.coeffs.get(k, 0)) * scale - complex(other.coeffs.get(k, 0)))
            for k in keys
        )
        norm = max(abs(complex(other.coeffs.get(k, 0))) for k in keys)
        return top / norm

    def proportional_to(self, other: "BiPoly") -> bool:
        """Exact proportionality test (both tables must be exact)."""
        if not (self.is_exact() and other.is_exact()):
            raise ValueError("exact proportionality needs exact coefficients")
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        keys = set(self.coeffs) | set(other.coeffs)
        pivot = next(iter(self.coeffs))
        if pivot not in other.coeffs:
            return False
        scale = Fraction(other.coeffs[pivot]) / Fraction(self.coeffs[pivot])
        return all(
            Fraction(self.coeffs.get(k, 0)) * scale == Fraction(other.coeffs.get(k, 0))
            for k in keys
        )

    def __repr__(self):
        terms = ", ".join(
            f"{c}*z^{i}*w^{j}" for (i, j), c in sorted(self.coeffs.items())
        )
        return f"BiPoly({terms})"


_Z = BiPoly.var_z()
_W = BiPoly.var_w()
_ONE = BiPoly.const(1)
_CONIC = _W - _Z * _Z  # w - z^2


def coefficients_a1(n: int) -> list[Fraction]:
    """Denominator coefficients c_j of the a1(N) integral (all finite, != 1)."""
    if n < 1:
        raise ValueError("need N >= 1")
    return [
        Fraction(-4 * j * (2 * n + 1 - j), (2 * n + 1 - 2 * j) ** 2)
        for j in range(1, n + 1)
    ]


def coefficients_a2(n: int) -> list[Fraction]:
    """Denominator coefficients c_j of the a2(N) integral."""
    if n < 1:
        raise ValueError("need N >= 1")
    return [Fraction(-j * (2 * n + 2 - j), (n + 1 - j) ** 2) for j in range(1, n + 1)]


Factors = tuple[tuple[BiPoly, int], ...]


def _eval_factored(factors: Factors, common_degree: int, chart: int, a: complex, b: complex) -> complex:
    """Evaluate the common-degree homogenization of a factored polynomial in
    an affine chart.  Keeping the factors unexpanded avoids the catastrophic
    cancellation an expanded table suffers near its zero divisor."""
    val = 1.0 + 0j
    degsum = 0
    for poly, mult in factors:
        d_i = poly.total_degree
        pv = poly.homogenized_chart(d_i, chart)(a, b)
        val *= pv**mult
        degsum += d_i * mult
    pad = common_degree - degsum
    if pad:
        tcoord = b if chart in (0, 1) else 1.0 + 0j
        val *= tcoord**pad
    return val


@dataclass(frozen=True)
class RationalIntegral:
    """A first integral numerator/denominator pair with exact coefficients.

    Expanded tables drive gradients and polynomial identities; evaluation
    itself goes through the factored forms.
    """

    family: BilliardFamily
    num: BiPoly
    den: BiPoly
    zero_order: int  # power of (w - z^2) in the numerator
    num_factors: Factors
    den_factors: Factors

    @property
    def degree(self) -> int:
        return max(self.num.total_degree, self.den.total_degree)

    def reciprocal(self) -> "RationalIntegral":
        return RationalIntegral(
            self.family, self.den, self.num, 0, self.den_factors, self.num_factors
        )

    def chart_pair(self, chart: int) -> tuple[BiPoly, BiPoly]:
        d = self.degree
        return (
            self.num.homogenized_chart(d, chart),
            self.den.homogenized_chart(d, chart),
        )

    def eval(self, point: ProjectivePoint, *, guard: float = BASE_POINT_GUARD) -> SphereValue:
        for bp in self.family.spec.base_points:
            cross = np.cross(point.coords, bp.coords)
            if float(np.linalg.norm(cross)) <= guard:
                raise IndeterminacyError(
                    f"{point} is within {guard:g} of the base point {bp}"
                )
        chart, a, b = _chart_coords(point)
        d = self.degree
        nv = _eval_factored(self.num_factors, d, chart, a, b)
        dv = _eval_factored(self.den_factors, d, chart, a, b)
        if dv == 0:
            if nv == 0:
                raise IndeterminacyError(f"0/0 at {point}")
            return INF
        return SphereValue(nv / dv)

    def eval_affine(self, z: complex, w: complex) -> SphereValue:
        return self.eval(ProjectivePoint.affine(z, w))

    def level_polynomial(self, lam) -> BiPoly:
        """num - lam * den (lam exact Fraction keeps the table exact)."""
        return self.num - self.den.scale(lam)


_CUBIC_C2 = BiPoly.from_terms((8, 3, 0), (-8, 2, 1), (-8, 2, 0), (-1, 0, 2), (-1, 0, 1), (10, 1, 1))
# w + 8z^2 + 4w^2 + 5wz^2 - 14zw - 4z^3
_CUBIC_D = BiPoly.from_terms((1, 0, 1), (8, 2, 0), (4, 0, 2), (5, 2, 1), (-14, 1, 1), (-4, 3, 0))

#: per family: the power of (w - z^2) in the numerator and the denominator's
#: factors with their multiplicities, as functions of N
_FACTORS: dict[str, Callable[[int | None], tuple[int, Factors]]] = {
    "a1": lambda n: (2 * n + 1, tuple((_W - _Z * _Z * c, 2) for c in coefficients_a1(n))),
    "a2": lambda n: (
        n + 1,
        ((_Z, 1),) + tuple((_W - _Z * _Z * c, 1) for c in coefficients_a2(n)),
    ),
    "b1": lambda n: (2, ((_W + _Z * _Z * 3, 1), (_Z - _ONE, 1), (_Z - _W, 1))),
    "b2": lambda n: (2, ((_Z * _Z + _W * _W + _W + _ONE, 1), (_Z * _Z + _ONE, 1))),
    "c1": lambda n: (3, ((_ONE + _W.power(3) - _Z * _W * 2, 2),)),
    "c2": lambda n: (3, ((_CUBIC_C2, 2),)),
    "d": lambda n: (3, ((_W + _Z * _Z * 8, 1), (_Z - _ONE, 1), (_CUBIC_D, 1))),
}


@lru_cache(maxsize=None)
def _integral_cached(tag: str, n: int | None) -> RationalIntegral:
    k, den_f = _FACTORS[tag](n)
    den = _ONE
    for poly, mult in den_f:
        den = den * poly.power(mult)
    return RationalIntegral(BilliardFamily(tag, n), _CONIC.power(k), den, k, ((_CONIC, k),), den_f)


def first_integral(family: BilliardFamily) -> RationalIntegral:
    return _integral_cached(family.tag, family.n)


def eval_integral(family: BilliardFamily, point: ProjectivePoint) -> SphereValue:
    """Value of the family's first integral at a projective point."""
    return first_integral(family).eval(point)


def gradient(family: BilliardFamily, point: ProjectivePoint) -> tuple[complex, complex]:
    """(dR/dz, dR/dw) at an affine point away from indeterminacies."""
    z, w = point.affine_pair()
    integ = first_integral(family)
    r = integ.eval(point)
    if r.is_inf:
        raise ValueError("gradient of R at a pole; use the reciprocal integral")
    return _gradient_pair(integ.num, integ.den, z, w, r.value)


def _gradient_pair(num: BiPoly, den: BiPoly, a, b, r) -> tuple[complex, complex]:
    dv = den(a, b)
    rz = (num.diff_z()(a, b) - r * den.diff_z()(a, b)) / dv
    rw = (num.diff_w()(a, b) - r * den.diff_w()(a, b)) / dv
    return rz, rw


def _hessian_pair(num: BiPoly, den: BiPoly, a, b, r) -> np.ndarray:
    dv = den(a, b)
    rz, rw = _gradient_pair(num, den, a, b, r)
    dz, dw = den.diff_z()(a, b), den.diff_w()(a, b)
    rzz = (num.diff_z().diff_z()(a, b) - 2 * rz * dz - r * den.diff_z().diff_z()(a, b)) / dv
    rzw = (
        num.diff_z().diff_w()(a, b)
        - rz * dw
        - rw * dz
        - r * den.diff_z().diff_w()(a, b)
    ) / dv
    rww = (num.diff_w().diff_w()(a, b) - 2 * rw * dw - r * den.diff_w().diff_w()(a, b)) / dv
    return np.array([[rzz, rzw], [rzw, rww]], dtype=complex)


def hessian(family: BilliardFamily, point: ProjectivePoint) -> np.ndarray:
    """Hessian of R in the affine chart at a finite-value point."""
    z, w = point.affine_pair()
    integ = first_integral(family)
    r = integ.eval(point)
    if r.is_inf:
        raise ValueError("Hessian of R at a pole; use the reciprocal integral")
    return _hessian_pair(integ.num, integ.den, z, w, r.value)


def _chart_coords(point: ProjectivePoint) -> tuple[int, complex, complex]:
    chart = int(np.argmax(np.abs(point.coords)))
    zc, wc, tc = point.coords
    pivot = point.coords[chart]
    if chart == 0:
        return chart, wc / pivot, tc / pivot
    if chart == 1:
        return chart, zc / pivot, tc / pivot
    return chart, zc / pivot, wc / pivot


def gradient_projective(
    family: BilliardFamily, point: ProjectivePoint, *, reciprocal: bool = False
) -> tuple[complex, complex]:
    """Gradient in the affine chart where the point has largest coordinate.

    With ``reciprocal`` the gradient of 1/R is returned (for lambda = inf).
    """
    integ = first_integral(family)
    if reciprocal:
        integ = integ.reciprocal()
    chart, a, b = _chart_coords(point)
    pn, pd = integ.chart_pair(chart)
    dv = pd(a, b)
    if dv == 0:
        raise ValueError("gradient at a pole of the (possibly reciprocal) integral")
    r = pn(a, b) / dv
    return _gradient_pair(pn, pd, a, b, r)


def hessian_projective(
    family: BilliardFamily, point: ProjectivePoint, *, reciprocal: bool = False
) -> np.ndarray:
    integ = first_integral(family)
    if reciprocal:
        integ = integ.reciprocal()
    chart, a, b = _chart_coords(point)
    pn, pd = integ.chart_pair(chart)
    dv = pd(a, b)
    if dv == 0:
        raise ValueError("Hessian at a pole of the (possibly reciprocal) integral")
    r = pn(a, b) / dv
    return _hessian_pair(pn, pd, a, b, r)


# ---------------------------------------------------------------------------
# tables

def indeterminacy_set(family: BilliardFamily) -> list[ProjectivePoint]:
    """Base points of the integral (= singularities of the billiard)."""
    return list(family.spec.base_points)


def critical_values(family: BilliardFamily) -> list[SphereValue]:
    """All critical values of the integral, in the general sense (including
    critical indeterminacy values)."""
    return [row.value for row in family.spec.critical]


def _critical_row(family: BilliardFamily, lam):
    lam = SphereValue.coerce(lam)
    for row in family.spec.critical:
        if row.value == lam:
            return row
    raise ValueError(f"{lam!r} is not a critical value of family {family.label()}")


def true_critical_points(family: BilliardFamily, lam) -> list[ProjectivePoint]:
    """Isolated critical points of R away from indeterminacies, per value."""
    return list(_critical_row(family, lam).points)


def critical_indeterminacies(family: BilliardFamily, lam) -> list[ProjectivePoint]:
    """Base points that are critical for the given value."""
    return list(_critical_row(family, lam).indeterminacies)


@dataclass(frozen=True)
class CriticalTable:
    """All critical values with their true critical points and critical
    indeterminacies for one family."""

    family: BilliardFamily
    rows: tuple[tuple[SphereValue, tuple[ProjectivePoint, ...], tuple[ProjectivePoint, ...]], ...]


def critical_table(family: BilliardFamily) -> CriticalTable:
    rows = tuple((r.value, r.points, r.indeterminacies) for r in family.spec.critical)
    return CriticalTable(family, rows)
