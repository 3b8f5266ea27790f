import cmath
import math
import random

import numpy as np
import pytest

from dualbill.billiards import BilliardFamily, _point_on_tangent
from dualbill.geometry import (
    E_INFINITY,
    EPS_CUBE_ROOT,
    OnConicError,
    PhasePoint,
    ProjectiveMap,
    ProjectivePoint,
    b_family_equivalence,
    c_family_equivalence,
    conic_point,
    cross_norm,
    line_contains,
    on_conic,
    tangency_points,
    _point,
)
from dualbill.integrals import eval_integral, indeterminacy_set
from dualbill.numerics import INF


def _compose(f: ProjectiveMap, g: ProjectiveMap) -> ProjectiveMap:
    return ProjectiveMap(f.matrix @ g.matrix)


def _is_projective_identity(m: ProjectiveMap, rel: float = 1e-12) -> bool:
    """Whether the matrix of m is a scalar multiple of the identity."""
    a = m.matrix
    return float(np.max(np.abs(a - a[0, 0] * np.eye(3)))) <= rel * float(np.max(np.abs(a)))


class TestProjectivePoint:
    def test_canonical_representative(self):
        p = ProjectivePoint(2.0, 4.0, 1.0)
        assert max(abs(c) for c in p.coords) == 1.0

    def test_pivot_is_exactly_one(self):
        rng = random.Random(11)
        for _ in range(1000):
            v = [
                10.0 ** rng.uniform(-150, 150) * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(3)
            ]
            mags = [abs(c) for c in v]
            k = mags.index(max(mags))
            p = ProjectivePoint(*v)
            assert all(type(c) is complex for c in p.coords)
            assert p.coords[k] == 1 + 0j
            assert all(p.coords[i] == v[i] / v[k] for i in range(3) if i != k)

    def test_ties_pick_the_first_coordinate(self):
        assert ProjectivePoint(1j, -1.0, 1.0).coords == (1, 1j, -1j)
        assert ProjectivePoint(0.5, 2.0, -2.0).coords == (0.25, 1, -1)
        assert ProjectivePoint(0.0, 0.0, 3j).coords == (0, 0, 1)

    def test_nan_coordinate_gives_nan_coordinates(self):
        for v in ((math.nan, 1.0, 1.0), (1.0, complex(0.0, math.nan), 1.0), (0.0, 0.0, math.nan)):
            assert all(c != c for c in ProjectivePoint(*v).coords)

    def test_infinite_inputs(self):
        # two infinite inputs divide to NaN: every coordinate is NaN, and
        # the point is not on the infinity line
        p = ProjectivePoint(math.inf, math.inf, 1.0)
        assert all(c != c for c in p.coords) and not p.is_infinite
        # one infinite input is the point at infinity in its direction
        assert ProjectivePoint(math.inf, 1.0, 1.0).coords == (1, 0, 0)

    def test_projective_equality(self):
        assert ProjectivePoint(1, 2, 3).eq(ProjectivePoint(2, 4, 6))
        assert not ProjectivePoint(1, 2, 3).eq(ProjectivePoint(1, 2, 4))

    def test_cross_norm_matches_numpy(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u, v = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2))
            want = np.linalg.norm(np.cross(u, v))
            assert abs(cross_norm(u.tolist(), v.tolist()) - want) <= 1e-14 * want
            assert cross_norm(u.tolist(), (-0.5j * u).tolist()) == 0.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint(0, 0, 0)

    def test_affine_pair_at_infinity(self):
        with pytest.raises(ValueError):
            E_INFINITY.affine_pair()

    def test_conic_point_far_out(self):
        p = conic_point(1e8)
        assert on_conic(p)
        assert abs(p.z_sphere().value - 1e8) < 1e-3


#: values where a construction could differ: signed zeros, moduli exactly 1,
#: tiny and huge moduli, infinities and NaNs
_SPECIAL = [
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    1 + 0j, complex(1.0, -0.0), complex(-1.0, 0.0), complex(-0.0, 1.0), -1j,
    0.6 + 0.8j, complex(-0.96, 0.28), 2 + 0j, -3j, 1e300 + 1e300j, 1e-300j, 5e-324 + 0j,
    complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0),
    complex(math.nan, math.nan), complex(math.inf, math.nan),
]


def _construction_pair(rng: random.Random) -> tuple[complex, complex]:
    """Two Python complex numbers, often special, often of equal modulus."""

    def one() -> complex:
        if rng.random() < 0.3:
            return rng.choice(_SPECIAL)
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        return v * 10.0 ** rng.uniform(-200, 200) if rng.random() < 0.3 else v

    z = one()
    # multiplying by a unit of the Gaussian integers keeps the modulus exactly
    w = z * rng.choice((1j, -1, -1j)) if rng.random() < 0.2 else one()
    return z, w


def _built(make, *args) -> str:
    try:
        return repr(make(*args).coords)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__


class TestPhaseMapConstruction:
    """The phase map builds Q' and P' without ProjectivePoint.__init__'s
    conversions: their coordinates must be that constructor's, bit for bit
    (compared by repr, so signed zeros count)."""

    def test_point_is_the_constructor(self):
        rng = random.Random(29)
        for _ in range(4000):
            z, w = _construction_pair(rng)
            t = 1 + 0j if rng.random() < 0.5 else _construction_pair(rng)[0]
            assert _built(_point, z, w, t) == _built(ProjectivePoint, z, w, t), (z, w, t)

    def test_q_image_is_the_affine_point(self):
        rng = random.Random(31)
        for _ in range(4000):
            z0, z1 = _construction_pair(rng)
            want = _built(ProjectivePoint, z1, 2.0 * z0 * z1 - z0 * z0, 1.0)
            assert _built(_point_on_tangent, z0, z1) == want, (z0, z1)

    def test_conic_point_is_the_scale_robust_representative(self):
        rng = random.Random(37)
        for _ in range(4000):
            v, _ = _construction_pair(rng)
            if not cmath.isfinite(v):
                assert conic_point(v) is E_INFINITY
                continue
            if abs(v) > 1.0:
                want = _built(ProjectivePoint, 1.0 / v, 1.0, 1.0 / (v * v))
            else:
                want = _built(ProjectivePoint, v, v * v, 1.0)
            assert _built(conic_point, v) == want, v


def _tangent(p: ProjectivePoint) -> tuple[complex, complex, complex]:
    """The covector (-2z, t, w) of the tangent line to the parabola at
    p = [z : w : t], the gradient of w t - z^2 there."""
    z, w, t = p.coords
    return (-2.0 * z, t, w)


class TestTangentLine:
    """The tangent line at P as a phase point's incidence test states it."""

    @staticmethod
    def _on_tangent(q: ProjectivePoint, p: ProjectivePoint) -> bool:
        try:
            PhasePoint(q, p).validate()
        except ValueError:
            return False
        return True

    def test_vertex(self):
        # the line w = 0
        p = conic_point(0.0)
        assert self._on_tangent(ProjectivePoint.affine(1.0, 0.0), p)
        assert self._on_tangent(ProjectivePoint(1.0, 0.0, 0.0), p)
        assert not self._on_tangent(ProjectivePoint.affine(1.0, 1e-6), p)

    def test_at_one(self):
        # w = 2z - 1 contains (1, 1) and (0, -1)
        p = conic_point(1.0)
        assert self._on_tangent(ProjectivePoint.affine(1.0, 1.0), p)
        assert self._on_tangent(ProjectivePoint.affine(0.0, -1.0), p)
        assert not self._on_tangent(ProjectivePoint.affine(0.0, 0.0), p)

    def test_at_infinity(self):
        # the infinity line t = 0
        assert self._on_tangent(ProjectivePoint(1.0, 3.0, 0.0), E_INFINITY)
        assert not self._on_tangent(ProjectivePoint.affine(1.0, 3.0), E_INFINITY)

    def test_off_conic_rejected(self):
        assert not self._on_tangent(ProjectivePoint.affine(0.0, 0.0), ProjectivePoint.affine(1.0, 2.0))


class TestTangencyPoints:
    def test_example_basic(self):
        zs = sorted(z.real for z in tangency_points(ProjectivePoint.affine(0.0, -1.0)))
        assert zs == pytest.approx([-1.0, 1.0])

    def test_example_8i(self):
        assert tangency_points(ProjectivePoint.affine(8j, 0.0)) == (16j, 0j)

    def test_symmetric_pair(self):
        got = set(tangency_points(ProjectivePoint.affine(0.0, 1.0)))
        assert any(abs(g - 1j) < 1e-14 for g in got)
        assert any(abs(g + 1j) < 1e-14 for g in got)

    def test_on_conic_rejected(self):
        with pytest.raises(OnConicError):
            tangency_points(conic_point(1.5))

    def test_infinity_line_point(self):
        # [1 : c : 0] has the tangency parameters inf (the point E) and c/2
        zp, zm = tangency_points(ProjectivePoint(1.0, 4.0, 0.0))
        assert zp is INF and zm == 2.0

    def test_incidence_property(self):
        rng = random.Random(5)
        checked = 0
        while checked < 1000:
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            w = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z * z - w) < 1e-4:
                continue
            q = ProjectivePoint.affine(z, w)
            for z0 in tangency_points(q):
                line = _tangent(conic_point(z0))
                res = abs(np.dot(line, q.coords))
                scale = float(np.linalg.norm(line) * np.linalg.norm(q.coords))
                assert res <= 1e-10 * scale
            checked += 1


class TestEquivalences:
    def test_b_matrix_affine_action(self):
        psi = b_family_equivalence()
        rng = random.Random(1)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            img = psi(ProjectivePoint.affine(z, w))
            den = 2 * z - w - 1
            want = ProjectivePoint.affine(1j * (w - 1) / den, (2 * z + w + 1) / den)
            assert img.eq(want)

    def test_b_invertible(self):
        psi = b_family_equivalence()
        assert abs(np.linalg.det(psi.matrix)) > 1e-6
        assert _is_projective_identity(_compose(psi, psi.inverse()))

    def test_b_integral_identity(self):
        psi = b_family_equivalence()
        b1, b2 = BilliardFamily("b1"), BilliardFamily("b2")
        rng = random.Random(2)
        checked = 0
        while checked < 100:
            pt = ProjectivePoint.affine(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            try:
                v1 = eval_integral(b1, pt)
                v2 = eval_integral(b2, psi(pt))
            except Exception:
                continue
            if v1.is_inf or v2.is_inf:
                continue
            assert abs(v1.value - v2.value) <= 1e-9 * max(1.0, abs(v1.value))
            checked += 1

    def test_c_integral_identity(self):
        mc = c_family_equivalence()
        c1, c2 = BilliardFamily("c1"), BilliardFamily("c2")
        rng = random.Random(3)
        checked = 0
        while checked < 100:
            pt = ProjectivePoint.affine(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            try:
                v2 = eval_integral(c2, pt)
                v1 = eval_integral(c1, mc(pt))
            except Exception:
                continue
            if v1.is_inf or v2.is_inf:
                continue
            assert abs(-3 * v2.value - v1.value) <= 1e-9 * max(1.0, abs(v1.value))
            checked += 1

    def test_c_maps_base_points(self):
        mc = c_family_equivalence()
        sigma_c1 = indeterminacy_set(BilliardFamily("c1"))
        for bp in indeterminacy_set(BilliardFamily("c2")):
            img = mc(bp)
            assert any(img.eq(t) for t in sigma_c1)

    def test_c_inverse_identity(self):
        mc = c_family_equivalence()
        rng = random.Random(4)
        both = _compose(mc, mc.inverse())
        for _ in range(10):
            pt = ProjectivePoint.affine(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            assert both(pt).eq(pt)


class TestOrder3Symmetries:
    """Generators of the order-3 symmetries of the two c-family integrals:
    (z, w) -> (eps z, eps^2 w) for c1, and for c2 the cyclic permutation
    (0,0) -> E -> (1,1) of its base points."""

    C1 = ProjectiveMap(np.diag([EPS_CUBE_ROOT, EPS_CUBE_ROOT * EPS_CUBE_ROOT, 1.0]))
    C2 = ProjectiveMap([[-1.0, 1.0, 0.0], [-2.0, 1.0, 1.0], [0.0, 1.0, 0.0]])

    def test_cubes_are_identity(self):
        for s in (self.C1, self.C2):
            assert _is_projective_identity(_compose(_compose(s, s), s))

    def test_c1_symmetry_preserves_integral(self):
        s1 = self.C1
        c1 = BilliardFamily("c1")
        rng = random.Random(6)
        checked = 0
        while checked < 50:
            pt = ProjectivePoint.affine(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            try:
                a = eval_integral(c1, pt)
                b = eval_integral(c1, s1(pt))
            except Exception:
                continue
            if a.is_inf or b.is_inf:
                continue
            assert abs(a.value - b.value) <= 1e-9 * max(1.0, abs(a.value))
            checked += 1

    def test_c2_symmetry_permutes_base_points(self):
        s2 = self.C2
        origin = ProjectivePoint.affine(0.0, 0.0)
        one_one = ProjectivePoint.affine(1.0, 1.0)
        assert s2(origin).eq(E_INFINITY)
        assert s2(E_INFINITY).eq(one_one)
        assert s2(one_one).eq(origin)


class TestPhasePoint:
    def test_validate(self):
        p = conic_point(1.0)
        PhasePoint(ProjectivePoint.affine(0.0, -1.0), p).validate()
        with pytest.raises(ValueError):
            PhasePoint(ProjectivePoint.affine(0.0, 0.5), p).validate()

    @staticmethod
    def _affine_incidence(x):
        """The incidence test with the tangent covector taken in the affine
        chart: the infinity line at E, else (-2 z0, 1, z0^2)."""
        if x.p.eq(E_INFINITY):
            line = (0j, 0j, 1 + 0j)
        else:
            z, _, t = x.p.coords
            z0 = z / t
            line = (-2.0 * z0, 1 + 0j, z0 * z0)
        return line_contains(line, x.q)

    @staticmethod
    def _displaced(q, p, rel):
        """q moved off the tangent line at p, along its normal, by rel |q|."""
        u = _tangent(p)
        nu = math.hypot(*map(abs, u))
        nq = math.hypot(*map(abs, q.coords))
        return ProjectivePoint(*(c + rel * nq * a.conjugate() / nu for c, a in zip(q.coords, u)))

    def _cases(self):
        rng = random.Random(67)
        for _ in range(400):
            # tangency points out to |z0| = 1e8, Q affine or on the infinity line
            z0 = 10 ** rng.uniform(-2, 8) * cmath.exp(2j * math.pi * rng.random())
            if rng.random() < 0.2:
                yield ProjectivePoint(1.0, 2 * z0, 0.0), conic_point(z0)
                continue
            u = max(1.0, abs(z0)) * 10 ** rng.uniform(-2, 1) * cmath.exp(2j * math.pi * rng.random())
            z = z0 + u
            yield ProjectivePoint.affine(z, 2 * z0 * z - z0 * z0), conic_point(z0)
        for _ in range(50):  # P = E: Q on the infinity line
            yield ProjectivePoint(1.0, complex(rng.gauss(0, 3), rng.gauss(0, 3)), 0.0), E_INFINITY
        yield E_INFINITY, E_INFINITY

    def _accepts(self, x):
        try:
            x.validate()
        except ValueError:
            return False
        return True

    def test_incidence_matches_the_affine_formula(self):
        rng = random.Random(68)
        outcomes = set()
        for q, p in self._cases():
            for rel in (0.0, 10 ** rng.uniform(-12, -6)):
                x = PhasePoint(self._displaced(q, p, rel) if rel else q, p)
                got = self._accepts(x)
                assert got == self._affine_incidence(x), (x, rel)
                outcomes.add(got)
        assert outcomes == {True, False}

    def test_displaced_q_is_rejected(self):
        for q, p in self._cases():
            assert self._accepts(PhasePoint(q, p))
            assert not self._accepts(PhasePoint(self._displaced(q, p, 1e-6), p))
