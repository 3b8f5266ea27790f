import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbill import numerics
from dualbill.numerics import (
    INF,
    SphereValue,
    SpherePoleError,
    carlson_rf,
    chordal_distance,
    lattice_reduce,
    plan_route,
    principal_sqrt,
    roots,
    segment_integrate,
    sphere_eq,
)
from routed import BranchedSqrt, branched_leg_integral


class TestSphereValue:
    def test_examples(self):
        assert sphere_eq(INF, INF)
        assert sphere_eq(1 + 0j, 1 + 0j)
        assert sphere_eq(1e18, INF)

    def test_not_equal(self):
        assert not sphere_eq(1.0, 2.0)
        assert not sphere_eq(1.0, INF)

    def test_infinite_value_has_no_finite_part(self):
        assert INF.is_inf and not SphereValue(0.0).is_inf
        assert SphereValue(2).value == 2 + 0j
        with pytest.raises(SpherePoleError):
            _ = INF.value

    def test_sphere_conventions(self):
        assert SphereValue.coerce(INF) is INF
        assert SphereValue.coerce(complex("inf")).is_inf
        assert SphereValue.coerce(math.nan).is_inf
        assert SphereValue.coerce(1.5) == SphereValue(1.5 + 0j)
        assert SphereValue(1.0) == 1.0 and INF == complex("inf")
        assert SphereValue(1.0) != INF and INF != SphereValue(0.0)
        assert len({SphereValue(1.0), SphereValue(1 + 0j), INF}) == 2
        with pytest.raises(TypeError):  # no arithmetic: take .value first
            _ = SphereValue(1.0) + 1.0

    @given(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
    def test_reflexive(self, z):
        assert sphere_eq(z, z)

    @given(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    )
    def test_symmetric(self, a, b):
        assert sphere_eq(a, b) == sphere_eq(b, a)

    def test_chordal(self):
        assert chordal_distance(INF, INF) == 0.0
        assert chordal_distance(0.0, INF) == 1.0
        assert chordal_distance(1e9, INF) < 2e-9


def _horner(coeffs, t):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class TestRoots:
    def test_quadratic_example(self):
        got = sorted(roots([8, -8, 1]), key=lambda r: r.real)
        want = [4 - 2 * math.sqrt(2), 4 + 2 * math.sqrt(2)]
        assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))

    def test_double_root(self):
        got = roots([4, -4, 1])
        assert all(abs(g - 2) < 1e-7 for g in got)

    def test_linear(self):
        assert roots([4, 1]) == [-4.0]

    def test_zero_poly(self):
        with pytest.raises(ValueError):
            roots([0.0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10**9))
    def test_residuals(self, deg, seed):
        rng = random.Random(seed)
        coeffs = [
            complex(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(deg)
        ] + [1.0]
        norm = max(abs(c) for c in coeffs)
        for r in roots(coeffs):
            scale = max(norm, norm * abs(r) ** deg)
            assert abs(_horner(coeffs, r)) <= 1e-10 * scale


def _rf_gap(args):
    """Relative gap of carlson_rf to mpmath's R_F at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = complex(mpmath.elliprf(*(mpmath.mpc(a.real, a.imag) for a in args)))
    return abs(carlson_rf(*args) - want) / abs(want)


class TestCarlsonRF:
    def test_matches_mpmath_on_seeded_triples(self):
        rng = random.Random("carlson rf")
        for _ in range(200):
            args = [
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.uniform(-3, 3)
                for _ in range(3)
            ]
            assert _rf_gap(args) <= 1e-14, args

    def test_a_zero_argument(self):
        rng = random.Random("carlson rf zero")
        for _ in range(50):
            y, z = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
            assert _rf_gap((0j, y, z)) <= 1e-14
        assert carlson_rf(0.0, 1.0, 1.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_negative_real_arguments_read_from_above(self):
        # an argument on the cut takes the limit from above, mpmath's value,
        # whichever sign its zero imaginary part carries; the roots of b1's
        # model at lambda = 2 are all real, so its half-periods take such
        # arguments, and so do seeded ones
        es = [4 - 2 * math.sqrt(2), 2.0, 4 + 2 * math.sqrt(2)]
        triples = [(0.0, e - es[k - 1], e - es[k - 2]) for k, e in enumerate(es)]
        rng = random.Random("carlson rf cut")
        triples += [(rng.uniform(-3, 3), rng.uniform(-3, 0), rng.uniform(-3, 3)) for _ in range(30)]
        for args in triples:
            upper = [complex(a, 0.0) for a in args]
            lower = [complex(a, -0.0) for a in args]
            assert _rf_gap(upper) <= 1e-14, args
            assert repr(carlson_rf(*lower)) == repr(carlson_rf(*upper))

    def test_widely_spread_magnitudes(self):
        rng = random.Random("carlson rf spread")
        for _ in range(50):
            args = [
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.uniform(-100, 100)
                for _ in range(3)
            ]
            assert _rf_gap(args) <= 1e-14, args
        assert _rf_gap((1e-300j, 1.0, 1e300)) <= 1e-14

    def test_two_zero_arguments_diverge(self):
        with pytest.raises(ValueError, match="diverges"):
            carlson_rf(0.0, 0j, 1.0)


class TestQuadrature:
    def test_constant(self):
        val = segment_integrate(lambda t: np.ones_like(t), 0.0, 1.0)
        assert abs(val - 1.0) < 1e-12

    def test_sqrt_endpoint(self):
        # int_0^1 dt/sqrt(t) = 2 with the branch point t = 0 desingularized
        br = BranchedSqrt([1.0, 0.0])
        val = branched_leg_integral(br, [1.0, 0.0], br.at(1.0), end_at_branch=0.0)
        assert abs(val + 2.0) < 1e-10  # oriented 1 -> 0

    def test_period_against_adaptive_oracle(self):
        # cycle enclosing {0, 1} for dt/sqrt(t(t-1)(t-2))
        br = BranchedSqrt([1.0, -3.0, 2.0, 0.0])
        mid = 0.5 + 0.4j
        ymid = br.at(mid)
        i0 = branched_leg_integral(br, [mid, 0.0], ymid, end_at_branch=0.0)
        i1 = branched_leg_integral(br, [mid, 1.0], ymid, end_at_branch=1.0)
        period = 2 * (i1 - i0)
        import mpmath

        mpmath.mp.dps = 30
        oracle = 2 * mpmath.quad(
            lambda t: 1 / mpmath.sqrt(t * (t - 1) * (t - 2)), [0, 1]
        )
        # both are the full cycle period (twice the segment); compare moduli
        assert abs(abs(period) - abs(complex(oracle))) < 1e-8

    def test_additive_and_antisymmetric(self):
        f = lambda t: np.exp(t) / (np.asarray(t) + 3.0)  # noqa: E731
        a, b, c = 0.0, 0.5 + 0.2j, 1.5 + 0.6j  # b on the segment [a, c]
        whole = segment_integrate(f, a, c)
        parts = segment_integrate(f, a, b) + segment_integrate(f, b, c)
        assert abs(whole - parts) < 1e-11
        assert abs(segment_integrate(f, c, a) + whole) < 1e-10

    def test_blowup_detected(self):
        with pytest.raises(ValueError):
            segment_integrate(lambda t: 1.0 / np.asarray(t - 0.5), 0.0, 1.0)


def _one_panel(f, a, b):
    """A 64-node Gauss-Legendre panel evaluated on its own."""
    mid = (a + b) / 2.0
    half = (b - a) / 2.0
    vals = np.asarray(f(mid + half * numerics._GL_NODES), dtype=complex)
    return complex(half * np.sum(numerics._GL_WEIGHTS * vals))


_BR3 = BranchedSqrt([1.0, -0.4 - 0.7j, -0.2 + 0.5j, 0.25j])
_A, _D = -1.5 + 0.9j, 3.1 - 0.2j
_TB, _AMP = 0.3 + 0.2j, 0.8 - 0.6j
INTEGRANDS = {
    "segment": lambda s: _D / _BR3(_A + _D * s),
    "endpoint": lambda v: 2.0 * v * _AMP / _BR3(_TB + _AMP * v * v),
}


class TestPanelBlocks:
    """A refinement level is evaluated in blocks of panels, one integrand
    call per block, with each panel's bits those of the panel alone."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 2048])
    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    def test_panels_match_single_panels_bit_for_bit(self, name, n):
        f = INTEGRANDS[name]
        nodes = [k / n for k in range(n + 1)]  # the nodes _refine makes on [0, 1]
        got = numerics._panels(f, nodes)
        alone = [_one_panel(f, nodes[k], nodes[k + 1]) for k in range(n)]
        assert np.array(got).tobytes() == np.array(alone).tobytes()

    def test_one_flat_call_per_block(self):
        sizes = []

        def f(t):
            assert t.ndim == 1
            sizes.append(t.size)
            return 1.0 / (t - 0.5)  # never converges: every level runs

        with pytest.raises(ValueError, match="did not converge"):
            segment_integrate(f, 0.0, 1.0)
        levels = [2**k for k in range(numerics.QUAD_MAX_SPLITS)]
        # one call of 64 n nodes per level up to 64 panels, then 4096 per call
        assert sizes == [64 * min(n, 64) for n in levels for _ in range(0, n, 64)]

    def test_non_finite_block_raises(self):
        with pytest.raises(ValueError, match="blew up"):
            numerics._panels(lambda t: np.where(t > 0.9, np.inf, 1.0), [0.0, 0.5, 1.0])


class TestBranchedSqrtBits:
    def test_same_bits_at_every_array_size(self):
        # numpy may reuse a large temporary in place, which must not change
        # the rounding of the chained product
        rng = np.random.default_rng(11)
        t = rng.uniform(-3, 3, 40_000) + 1j * rng.uniform(-3, 3, 40_000)
        whole = _BR3(t)
        blocks = np.concatenate([_BR3(t[k:k + 1000]) for k in range(0, t.size, 1000)])
        assert whole.tobytes() == blocks.tobytes()
        for k in range(0, t.size, 997):
            assert repr(complex(whole[k])) == repr(_BR3.at(t[k]))


class TestBranchTracking:
    def test_principal_sqrt_signed_zero(self):
        assert principal_sqrt(complex(-64.0, -0.0)) == 8j

    def test_crossing_count(self):
        br = BranchedSqrt([1.0, 0.0, 1.0])  # roots +/- i
        # below both roots the segment crosses both (overlapping) cut rays
        assert len(br.segment_crossings(-1.0 - 2j, 1.0 - 2j)) == 2
        # between the roots only the cut hanging from +i is crossed
        assert len(br.segment_crossings(-1.0, 1.0)) == 1
        assert not br.segment_crossings(-1.0 + 2j, 1.0 + 2j)

    def test_plan_route_avoids_obstacles(self):
        route = plan_route([0.0, 4.0], [2.0], 0.5)
        assert len(route) > 2
        for p, q in zip(route, route[1:]):
            for k in range(1, 20):
                t = p + (q - p) * k / 20
                assert abs(t - 2.0) > 0.3

    def test_lattice_reduce(self):
        w1, w2 = 1.0 + 0j, 0.5 + 1.2j
        v = 3 * w1 - 2 * w2 + 1e-9
        assert abs(lattice_reduce(v, w1, w2)) < 2e-9
        with pytest.raises(ValueError):
            lattice_reduce(1.0, 1.0, 2.0)  # real-proportional generators


def _solved_reduce(v: complex, w1: complex, w2: complex) -> complex:
    """v minus the lattice point of its rounded coordinates, the system
    solved by numpy."""
    m = np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
    n0, n1 = np.round(np.linalg.solve(m, np.array([v.real, v.imag])))
    return v - (n0 * w1 + n1 * w2)


class TestLatticeReduce:
    """lattice_reduce solves its 2 x 2 system in closed form, with the
    residuals of numpy's solver."""

    @pytest.mark.parametrize("skew", [1.0, 1e-3, 1e-6])
    def test_matches_the_solved_system(self, skew):
        # the second generator leans towards the first by the skew
        rng = random.Random(f"lattice:{skew}")
        for _ in range(300):
            w1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            w2 = w1 * complex(rng.uniform(-2, 2), skew * rng.choice((-1, 1)) * rng.uniform(0.5, 2))
            v = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            assert lattice_reduce(v, w1, w2) == _solved_reduce(v, w1, w2), (v, w1, w2)

    def test_rounds_the_coordinates_not_to_the_nearest_point(self):
        v, w2 = 0.45 + 0.05j, 0.9 + 0.1j
        assert abs(abs(lattice_reduce(v, 1.0, w2)) - 0.4528) < 1e-4
        assert abs(v - (2 - 2 * w2)) < 0.3536

    def test_nan_gives_a_nan_residual(self):
        for v, w1, w2 in ((complex(math.nan, 0.0), 1.0, 1j), (0.5, complex(1.0, math.nan), 1j)):
            r = lattice_reduce(v, w1, w2)
            assert math.isnan(r.real) and math.isnan(r.imag)
        with np.errstate(invalid="ignore"):
            r = _solved_reduce(complex(math.nan, 0.0), 1.0, 1j)
        assert math.isnan(r.real) and math.isnan(r.imag)

    @pytest.mark.parametrize("w1, w2", [(1.0, 2.0), (1 + 1j, -3 - 3j), (0.3 + 0.7j, 0j), (0j, 0j)])
    def test_degenerate_generators_raise(self, w1, w2):
        with pytest.raises(np.linalg.LinAlgError):
            _solved_reduce(1.0 + 2j, w1, w2)
        with pytest.raises(ValueError, match="degenerate"):
            lattice_reduce(1.0 + 2j, w1, w2)
