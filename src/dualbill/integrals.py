"""The seven rational first integrals: exact coefficient tables, evaluation
on the projective plane, gradients and Hessians, indeterminacy sets, and the
critical value / critical point tables.

Each integral is a ratio of bivariate polynomials whose coefficients are
exact rationals, expanded once from the factored closed forms.  Evaluation
homogenizes both factored forms to the common degree and multiplies them
out exactly in integers at the float point, so its value is the true ratio
correctly rounded, at infinite points too; near a base point (where
numerator and denominator share a zero) evaluation is refused inside a
guard radius.  Each integral evaluates by one function written out on its
first call: the guard, with each base point's coordinates written in, the
scaling of the float point to Gaussian integers, and the products kernel
of the pivot, the coordinate that is 1.  There is one kernel per real
coordinate, written out on first use, in which the products with that
coordinate, a real integer, have no cross terms.  R also has a float
form by its factors, with an estimate of its rounding error, that runs on
numpy lanes at any point and on a tangent line of the parabola, where the
conic factor is -u^2 at the offset u; the conservation and equivalences
checks run it.  On a tangent line it has an exact form at a float offset
state as well, by the kernel with t real.

The polynomial factors of each integral are tabulated here, one entry per
family; the base points and the critical value table are read from the
family's record in :mod:`dualbill.families`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Mapping

import numpy as np

from .billiards import BilliardFamily
from .geometry import ProjectivePoint, cross_norm
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
    "gradient_hessian_projective",
    "indeterminacy_set",
    "critical_values",
]

#: evaluation is refused within this distance of a base point
BASE_POINT_GUARD = 1e-8


class IndeterminacyError(ValueError):
    """Evaluation at (or too near) a common zero of numerator and denominator:
    args are the point and the base point, or the point alone at 0/0."""

    def __str__(self) -> str:
        point, *base = self.args
        if base:
            return f"{point} is within {BASE_POINT_GUARD:g} of the base point {base[0]}"
        return f"0/0 at {point}"


def _is_exact(c) -> bool:
    return isinstance(c, (int, Fraction))


class BiPoly:
    """Bivariate polynomial in (z, w) as a sparse coefficient table.

    Coefficients are exact (int/Fraction) where possible and complex
    otherwise; arithmetic stays exact as long as both operands are exact.
    """

    __slots__ = ("coeffs", "_horner")

    def __init__(self, coeffs: Mapping[tuple[int, int], object]):
        table = {}
        for (i, j), c in coeffs.items():
            if c == 0:
                continue
            table[(int(i), int(j))] = c if _is_exact(c) else complex(c)
        self.coeffs = table
        self._horner = None

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
    def _rows(self) -> list[list[complex]]:
        """Horner table: row i holds the coefficients of z^i w^j by j,
        trailing zeros dropped."""
        if self._horner is None:
            rows = [[] for _ in range(max(self.total_degree, 0) + 1)]
            for (i, j), c in self.coeffs.items():
                row = rows[i]
                row.extend([0j] * (j + 1 - len(row)))
                row[j] = complex(c)
            self._horner = rows
        return self._horner

    def __call__(self, z: complex, w: complex) -> complex:
        """Value at one point, by Horner's rule in z over Horner in w."""
        acc = 0j
        for row in reversed(self._rows()):
            inner = 0j
            for c in reversed(row):
                inner = inner * w + c
            acc = acc * z + inner
        return acc

    def at(self, z, w, t):
        """Value at [z : w : t] of the homogenization to the polynomial's
        own degree, by the Horner rule of ``__call__`` with each coefficient
        times its power of t; on Python numbers or numpy lanes."""
        d = self.total_degree
        powers = [1.0]
        for _ in range(d):
            powers.append(powers[-1] * t)
        acc = 0j
        for i, row in reversed(list(enumerate(self._rows()))):
            inner = 0j
            for j in range(len(row) - 1, -1, -1):
                inner = inner * w
                if row[j]:
                    term = row[j] * powers[d - i - j]
                    inner = inner + term
            acc = acc * z + inner
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


def _integer_factors(factors: Factors, degree: int) -> tuple[int, list]:
    """The homogenization to ``degree`` of a factored polynomial as factors
    with integer coefficients, each a list of (coefficient, exponents of z,
    w and t) with its multiplicity, and the positive integer by which their
    product exceeds the polynomial.  The padding power of t is one more
    factor."""
    scale, out, pad = 1, [], degree
    for poly, mult in factors:
        d = poly.total_degree
        lcm = math.lcm(*(Fraction(c).denominator for c in poly.coeffs.values()))
        out.append(([(int(c * lcm), (i, j, d - i - j)) for (i, j), c in poly.coeffs.items()], mult))
        scale *= lcm**mult
        pad -= d * mult
    if pad:
        out.append(([(1, (0, 0, pad))], 1))
    return scale, out


#: the source of :meth:`RationalIntegral.eval`, given the source of the
#: guard (:func:`_guard`) and its end (:meth:`_IntegerForms._quotient`)
_EVAL = """\
def eval(point):
    coords = point.coords
    z, w, t = coords
    guard = integrals.BASE_POINT_GUARD
{guard}
    # the pivot coordinate is exactly 1 (only the NaN point has none); each
    # part of the other two, u and v, is m 2^e with 2^53 m an integer, so
    # for n the least e and 53 they become Gaussian integers over
    # 2^(53 - n), and the pivot 2^(53 - n)
    if t == 1:
        u, v, pivot = z, w, 2
    elif w == 1:
        u, v, pivot = z, t, 1
    elif z == 1:
        u, v, pivot = w, t, 0
    else:
        return SphereValue(NAN)
    ur, ure = frexp(u.real)
    ui, uie = frexp(u.imag)
    vr, vre = frexp(v.real)
    vi, vie = frexp(v.imag)
    n = ure if ure < 53 else 53  # min(ure, uie, vre, vie, 53)
    if uie < n:
        n = uie
    if vre < n:
        n = vre
    if vie < n:
        n = vie
    try:
        ar, ai = int(ur * 2.0 ** 53) << ure - n, int(ui * 2.0 ** 53) << uie - n
        br, bi = int(vr * 2.0 ** 53) << vre - n, int(vi * 2.0 ** 53) << vie - n
    except (ValueError, OverflowError):  # nan or inf
        return SphereValue(NAN)
    nr, ni, dr, di = (kernels[pivot] or kernel(pivot))(ar, ai, br, bi, 1 << 53 - n)
{quotient}"""

_QUOTIENT = """\
    if not (dr or di):
        if nr or ni:
            return INF
        {zero}
    # R = (N / num_scale) / (D / den_scale) = N conj(D) den_scale / (|D|^2 num_scale)
    q = (dr * dr + di * di){num_scale}
    try:
        return SphereValue(complex((nr * dr + ni * di){den_scale} / q,
                                   (ni * dr - nr * di){den_scale} / q))
    except OverflowError:  # |R| beyond the largest float
        return INF"""


class _IntegerForms:
    """The tables of exact evaluation: the numerator and the denominator
    homogenized to one degree, as products of factors with integer
    coefficients over integer scales, and one products kernel per real
    coordinate.

    ``kernel(k)`` takes the Gaussian integers (re, im) of the two
    coordinates other than coordinate k, in their order, and the integer s
    of coordinate k, which is real, and returns the Gaussian integers of the
    numerator and the denominator, (nr, ni, dr, di).  Its source is written
    out on its first call: every monomial the factors take, as one product
    of an earlier monomial and a coordinate, then each factor, its power by
    squaring and the two products, so that an evaluation reads no table.  A
    product with a real operand, s or a power of it, has no cross terms, a
    square takes two multiplications, and a coefficient 1 or -1 none.  The
    arithmetic is exact, so the order of the operations does not change the
    integers.  ``quotient(nr, ni, dr, di)`` is R from those integers, as
    the end of :meth:`RationalIntegral.eval` computes it, with None at 0/0.
    """

    __slots__ = ("num", "den", "num_scale", "den_scale", "kernels", "quotient")

    def __init__(self, num_factors: Factors, den_factors: Factors, degree: int):
        self.num_scale, self.num = _integer_factors(num_factors, degree)
        self.den_scale, self.den = _integer_factors(den_factors, degree)
        self.kernels: list[Callable | None] = [None, None, None]
        namespace = {"SphereValue": SphereValue, "INF": INF}
        exec(f"def quotient(nr, ni, dr, di):\n{self._quotient('return None')}", namespace)
        self.quotient = namespace["quotient"]

    def _quotient(self, zero: str) -> str:
        """The source that ends an exact evaluation: R from the Gaussian
        integers of the forms, (nr, ni) and (dr, di), correctly rounded,
        INF at a pole or beyond the largest float, and ``zero`` at 0/0."""
        scales = [f" * {c}" if c != 1 else "" for c in (self.num_scale, self.den_scale)]
        return _QUOTIENT.format(zero=zero, num_scale=scales[0], den_scale=scales[1])

    def kernel(self, k: int) -> Callable:
        """The products kernel with coordinate k real."""
        if self.kernels[k] is None:
            a, b = (axis for axis in range(3) if axis != k)
            names = {_unit(a): ("ar", "ai"), _unit(b): ("br", "bi"), _unit(k): ("s", None)}
            lines = ["def products(ar, ai, br, bi, s):"]
            for e in sorted({e for f, _ in self.num + self.den for _, e in f}, key=sum):
                _monomial(e, names, lines)
            products = []
            for forms in (self.num, self.den):
                product = None
                for terms, mult in forms:
                    f = _combination(lines, [(c, names[e]) for c, e in terms])
                    power = None
                    while True:
                        if mult & 1:
                            power = f if power is None else _times(lines, power, f)
                        mult >>= 1
                        if not mult:
                            break
                        f = _times(lines, f, f)
                    product = power if product is None else _times(lines, product, power)
                products.append(product)
            (nr, ni), (dr, di) = products
            lines.append(f"    return {nr}, {ni or 0}, {dr}, {di or 0}")
            namespace: dict = {}
            exec("\n".join(lines), namespace)
            self.kernels[k] = namespace["products"]
        return self.kernels[k]

    def evaluation(self, base_points) -> Callable[[ProjectivePoint], SphereValue]:
        """The function :meth:`RationalIntegral.eval` for the base points,
        which reads BASE_POINT_GUARD at each call."""
        namespace = {"integrals": sys.modules[__name__], "cross_norm": cross_norm,
                     "IndeterminacyError": IndeterminacyError, "SphereValue": SphereValue,
                     "INF": INF, "NAN": complex(math.nan, math.nan), "frexp": math.frexp,
                     "kernels": self.kernels, "kernel": self.kernel}
        guard = "\n".join(_guard(i, bp, namespace) for i, bp in enumerate(base_points))
        exec(_EVAL.format(guard=guard, quotient=self._quotient("raise IndeterminacyError(point)")),
             namespace)
        return namespace["eval"]


def _guard(i: int, bp: ProjectivePoint, namespace: dict) -> str:
    """The source of the guard of base point i, bp: the components of the
    cross product of the point and bp, (w b2 - t b1, t b0 - z b2,
    z b1 - w b0), each within the guard (one beyond it puts their norm
    beyond it), and then their norm.  A product with a coordinate b_j of 0
    or 1 is written out as 0 or the point's coordinate; the others, and bp,
    are put in the namespace."""
    namespace[f"p{i}"] = bp

    def times(x: str, j: int) -> str | None:
        c = bp.coords[j]
        if c == 0 or c == 1:
            return x if c else None
        namespace[f"b{i}_{j}"] = c
        return f"{x} * b{i}_{j}"

    tests = []
    for m in range(3):
        left, right = times("zwt"[(m + 1) % 3], (m + 2) % 3), times("zwt"[(m + 2) % 3], (m + 1) % 3)
        term = f"{left} - {right}" if left and right else left or right
        tests.append(f"abs({term}) <= guard" if term else "0.0 <= guard")
    tests.append(f"cross_norm(coords, p{i}.coords) <= guard")
    return f"    if {' and '.join(tests)}:\n        raise IndeterminacyError(point, p{i})"


def _unit(axis: int) -> tuple[int, int, int]:
    return tuple(int(a == axis) for a in range(3))


def _let(lines: list[str], re: str, im: str | None) -> tuple[str, str | None]:
    """Append the assignment of a Gaussian integer to new names, and return
    the names of its real and imaginary parts; ``im`` None is a real
    integer, whose imaginary name is None."""
    name = f"g{len(lines)}"
    if im is None:
        lines.append(f"    {name}r = {re}")
        return f"{name}r", None
    lines.append(f"    {name}r = {re}; {name}i = {im}")
    return f"{name}r", f"{name}i"


def _times(lines: list[str], x: tuple, y: tuple) -> tuple[str, str | None]:
    """Append the product of the Gaussian integers named x and y."""
    (xr, xi), (yr, yi) = x, y
    if xi is None:
        return _let(lines, f"{xr} * {yr}", yi and f"{xr} * {yi}")
    if yi is None:
        return _times(lines, y, x)
    if x == y:
        return _let(lines, f"({xr} + {xi}) * ({xr} - {xi})", f"{xr} * {xi} << 1")
    return _let(lines, f"{xr} * {yr} - {xi} * {yi}", f"{xr} * {yi} + {xi} * {yr}")


def _combination(lines: list[str], terms: list[tuple[int, tuple]]) -> tuple[str, str | None]:
    """Append the sum of c x over the terms (c, x), x the names of a Gaussian
    integer; a lone term 1 x is x itself."""
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    parts = []
    for part in (0, 1):
        source = ""
        for c, x in terms:
            if x[part] is not None:
                sign = (" - " if c < 0 else " + ") if source else "-" if c < 0 else ""
                source += sign + (x[part] if abs(c) == 1 else f"{abs(c)} * {x[part]}")
        parts.append(source or None)
    return _let(lines, *parts)


def _monomial(e: tuple[int, int, int], names: dict, lines: list[str]) -> tuple[str, str | None]:
    """The names of the monomial with exponents e of (z, w, t), written out
    on first use as one product of an earlier monomial and a coordinate."""
    if e not in names:
        parents = [(e[:a] + (e[a] - 1,) + e[a + 1:], a) for a in range(3) if e[a]]
        parent, axis = next((p for p in parents if p[0] in names), parents[0])
        names[e] = _times(lines, _monomial(parent, names, lines), names[_unit(axis)])
    return names[e]


@dataclass(frozen=True)
class RationalIntegral:
    """A first integral numerator/denominator pair with exact coefficients.

    Expanded tables drive gradients and polynomial identities; evaluation
    itself multiplies out the factored forms exactly.
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

    @cached_property
    def _derivative_tables(self) -> tuple[tuple[tuple[BiPoly, ...], tuple[BiPoly, ...]], ...]:
        """Per chart (see :meth:`BiPoly.homogenized_chart`), the numerator
        and the denominator homogenized to one degree and dehomogenized
        there, each with its partials (p, p_z, p_w, p_zz, p_zw, p_ww) in the
        chart's two coordinates."""

        def partials(p: BiPoly) -> tuple[BiPoly, ...]:
            pz, pw = p.diff_z(), p.diff_w()
            return p, pz, pw, pz.diff_z(), pz.diff_w(), pw.diff_w()

        d = self.degree
        return tuple(
            (partials(self.num.homogenized_chart(d, chart)),
             partials(self.den.homogenized_chart(d, chart)))
            for chart in range(3)
        )

    @cached_property
    def _den_magnitudes(self) -> tuple[BiPoly, ...]:
        """Each denominator factor with the moduli of its coefficients."""
        return tuple(
            BiPoly({k: abs(complex(c)) for k, c in poly.coeffs.items()})
            for poly, _ in self.den_factors
        )

    @cached_property
    def _exact(self) -> _IntegerForms:
        """The integer forms of :meth:`eval`, built on first use."""
        return _IntegerForms(self.num_factors, self.den_factors, self.degree)

    @cached_property
    def eval(self) -> Callable[[ProjectivePoint], SphereValue]:
        """R at a point, exact and then correctly rounded, by one function
        written out for the integral on first use.

        A point within BASE_POINT_GUARD of a base point raises
        IndeterminacyError: the guard tests the three components of the
        point's cross product with each base point, whose coordinates are
        written in, and then their norm (:func:`cross_norm`).  The float
        coordinates are Gaussian integers over one power of two, which
        cancels from the ratio of two forms of equal degree, so both forms
        are multiplied out in integers, by the kernel of the pivot, the
        coordinate that is 1, and divided once at the end.  A non-finite
        coordinate gives a NaN value.
        """
        return self._exact.evaluation(self.family.spec.base_points)

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


def _on_tangent(z0, u):
    """The point (z0 + u, z0^2 + 2 z0 u) at offset u of the tangent line at
    (z0, z0^2)."""
    return z0 + u, z0 * z0 + 2.0 * z0 * u


def _factored(family: BilliardFamily, z, w, t, conic, bounds=None, conic_cond=None):
    """R at the point [z : w : t] by the factors of the family's table, on
    Python numbers, jets or numpy lanes: conic^k / prod f_i(z, w, t)^m_i,
    with ``conic`` the value of w t - z^2 there and each factor homogenized
    to its own degree, times the power of t that brings numerator and
    denominator to one degree.  ``t = None`` is the affine point (z, w),
    where the factors are evaluated by :meth:`BiPoly.__call__` and no power
    of t enters.  Unlike :func:`eval_integral` it is not exact and has no
    base-point guard; a pole or 0/0 raises on Python numbers and is not
    finite on a lane.

    With ``bounds`` of (|z|, |w|), and of |t| for a projective point, it
    also returns an estimate, in units of the machine epsilon, of the
    value's relative rounding error: k ``conic_cond``, the conic's own
    relative error, plus m_i |f_i|(bounds) / |f_i(z, w, t)| for each
    denominator factor, where |f_i| has the moduli of the factor's
    coefficients.  It is large only near a base point, where the factors
    cancel.  Without bounds the estimate is None.  Returns the value and
    the estimate.
    """
    integ = first_integral(family)
    k = integ.zero_order
    # every product and quotient takes named operands: numpy would compute
    # one in place into a temporary right operand past 256 KiB, and round
    # it otherwise than on a shorter array
    num, den = conic**k, 1.0
    cond = None if bounds is None else k * conic_cond
    for (poly, mult), bound in zip(integ.den_factors, integ._den_magnitudes):
        f = poly(z, w) if t is None else poly.at(z, w, t)
        power = f**mult
        den = den * power
        if bounds is not None:
            size = bound(*bounds) if t is None else bound.at(*bounds)
            cond = cond + mult * size.real / abs(f)
    if t is not None:
        pad = integ.den.total_degree - 2 * k
        if pad:
            power = t ** abs(pad)
            if pad > 0:
                num = num * power
            else:
                den = den * power
    return num / den, cond


def _on_tangent_factored(family: BilliardFamily, z0, u):
    """R at Q = (z0 + u, z0^2 + 2 z0 u), the point at offset u of the tangent
    line at P = (z0, z0^2), on Python numbers or numpy lanes, with an
    estimate, in units of the machine epsilon, of its relative rounding
    error (:func:`_factored`): there w - z^2 = -u^2, so
    R = (-u^2)^k / prod f_i(Q)^m_i.  Returns the value and the estimate.

    The numerator's share of the estimate is 2k (|z0| + |z|) / |u|, the
    error of u were it the difference of two rounded parameters (the
    conservation check reads every Q at an offset that
    ``billiards._offset_orbit`` carries: the start's, or Q_k at
    -u_k = u'_{k-1} on the tangent line at P_{k-1}, so there this term is a
    margin); each denominator factor's bound takes Z = |z0| + |u| and
    W = |z0|^2 + 2 |z0| |u|, which bound |z| and |w|.  The estimate is large
    only near a base point, where the factors cancel.
    """
    z, w = _on_tangent(z0, u)
    az0, au = abs(z0), abs(u)
    return _factored(family, z, w, None, u * u * -1.0, _on_tangent(az0, au), 2 * (az0 + abs(z)) / au)


def _tangent_point(z0: complex, u: complex | SphereValue) -> ProjectivePoint:
    """The point Q = (z0 + u, z0^2 + 2 z0 u) of the tangent line at
    (z0, z0^2) as a ProjectivePoint, its infinite point [1 : 2 z0 : 0] for
    u = INF."""
    return ProjectivePoint(1.0, 2.0 * z0, 0.0) if u is INF else ProjectivePoint(*_on_tangent(z0, u))


def _exact_on_tangent(family: BilliardFamily, z0: complex, u: complex | SphereValue) -> SphereValue:
    """R at the point at offset u of the tangent line at (z0, z0^2), exact
    at the floats z0 and u and then correctly rounded; u = INF is the
    line's infinite point [1 : 2 z0 : 0].

    The floats are Gaussian integers over one power of two, 2^n, so z0 + u,
    z0^2 + 2 z0 u and 1 times 2^(2n) are Gaussian integers, and R is the
    ratio of the integral's forms there, by the products kernel with t real
    (:meth:`RationalIntegral.eval` rounds the point's coordinates first).
    There is no base-point guard: 0/0 raises IndeterminacyError, and a
    non-finite input gives a NaN value.
    """
    parts = (z0.real, z0.imag) if u is INF else (z0.real, z0.imag, u.real, u.imag)
    try:
        ratios = [x.as_integer_ratio() for x in parts]
    except (ValueError, OverflowError):  # nan or inf
        return SphereValue(complex(math.nan, math.nan))
    n = max(q for _, q in ratios).bit_length() - 1  # the denominators are powers of two
    ar, ai, *b = (p << n + 1 - q.bit_length() for p, q in ratios)  # the parts times 2^n
    d = 1 << n
    forms = first_integral(family)._exact
    if u is INF:
        products = forms.kernel(2)(d, 0, 2 * ar, 2 * ai, 0)
    else:
        br, bi = b
        cr, ci = ar + 2 * br, ai + 2 * bi  # (z0 + 2u) 2^n
        products = forms.kernel(2)((ar + br) * d, (ai + bi) * d,
                                   ar * cr - ai * ci, ar * ci + ai * cr, d * d)
    value = forms.quotient(*products)
    if value is None:
        raise IndeterminacyError(_tangent_point(z0, u))
    return value


def _jet(num: tuple, den: tuple, a, b, r=None) -> tuple[tuple[complex, complex], np.ndarray]:
    """Gradient and Hessian of R = N/D at (a, b) in one chart.

    ``num`` and ``den`` are derivative tables (see
    :attr:`RationalIntegral._derivative_tables`).  The value r of R enters
    both; it is the floating quotient N/D unless given.
    """
    n, nz, nw, nzz, nzw, nww = (p(a, b) for p in num)
    dv, dz, dw, dzz, dzw, dww = (p(a, b) for p in den)
    if dv == 0:
        raise ValueError("derivatives at a pole of the (possibly reciprocal) integral")
    if r is None:
        r = n / dv
    rz = (nz - r * dz) / dv
    rw = (nw - r * dw) / dv
    rzz = (nzz - 2 * rz * dz - r * dzz) / dv
    rzw = (nzw - rz * dw - rw * dz - r * dzw) / dv
    rww = (nww - 2 * rw * dw - r * dww) / dv
    return (rz, rw), np.array([[rzz, rzw], [rzw, rww]], dtype=complex)


def gradient(family: BilliardFamily, point: ProjectivePoint) -> tuple[complex, complex]:
    """(dR/dz, dR/dw) at an affine point away from indeterminacies."""
    z, w = point.affine_pair()
    integ = first_integral(family)
    r = integ.eval(point)
    if r.is_inf:
        raise ValueError("gradient of R at a pole; use the reciprocal integral")
    num, den = integ._derivative_tables[2]
    return _jet(num, den, z, w, r.value)[0]


def _chart_coords(point: ProjectivePoint) -> tuple[int, complex, complex]:
    """The chart of the point's largest coordinate, which the canonical
    representative sets to exactly 1, and the other two coordinates."""
    coords = point.coords
    mags = [abs(c) for c in coords]
    chart = mags.index(max(mags))
    a, b = coords[:chart] + coords[chart + 1:]
    return chart, a, b


def gradient_hessian_projective(
    family: BilliardFamily, point: ProjectivePoint, *, reciprocal: bool = False
) -> tuple[tuple[complex, complex], np.ndarray]:
    """Gradient and Hessian in the affine chart where the point has its
    largest coordinate.

    With ``reciprocal`` those of 1/R are returned (for lambda = inf).
    """
    chart, a, b = _chart_coords(point)
    num, den = first_integral(family)._derivative_tables[chart]
    if reciprocal:
        num, den = den, num
    return _jet(num, den, a, b)


# ---------------------------------------------------------------------------
# tables

def indeterminacy_set(family: BilliardFamily) -> list[ProjectivePoint]:
    """Base points of the integral (= singularities of the billiard)."""
    return list(family.spec.base_points)


def critical_values(family: BilliardFamily) -> list[SphereValue]:
    """All critical values of the integral, in the general sense (including
    critical indeterminacy values)."""
    return [row.value for row in family.spec.critical]
