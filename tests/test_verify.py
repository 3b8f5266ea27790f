import cmath
import json
import math
import random
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualbill import cli, integrals, verify
from dualbill.billiards import (
    BilliardFamily,
    _involution_z,
    billiard_map,
    involution,
    orbit,
)
from dualbill.curves import critical_fiber_components, lift_fiber
from dualbill.families import FAMILIES
from dualbill.forms import _area_defect, _chart_derivative, _chart_offset, halfstep_jacobian
from dualbill.geometry import (
    E_INFINITY,
    PhasePoint,
    ProjectiveMap,
    ProjectivePoint,
    b_family_equivalence,
    c_family_equivalence,
    conic_point,
)
from dualbill.integrals import BiPoly
from dualbill.numerics import INF, INF_THRESHOLD, SphereValue
from dualbill.verify import (
    TRANSLATION_CASES,
    CheckReport,
    check_abel_translation,
    check_area_form,
    check_conservation,
    check_equivalences,
    check_involution,
    check_jacobian,
    check_tables,
    check_translation,
    default_suite,
    run_suite,
)

B1 = BilliardFamily("b1")
D = BilliardFamily("d")
A1 = BilliardFamily("a1", 1)
A2 = BilliardFamily("a2", 3)


class TestReports:
    def test_fail_needs_witness(self):
        with pytest.raises(ValueError):
            CheckReport("x", None, {}, "fail", 1.0, None)

    def test_to_dict_roundtrip(self):
        r = CheckReport("x", "b1", {"seed": 1}, "pass", 0.5)
        assert json.loads(json.dumps(r.to_dict()))["name"] == "x"


class TestChecksPass:
    def test_involution(self):
        assert check_involution(B1, 200, 3).status == "pass"
        assert check_involution(A1, 200, 3).status == "pass"

    def test_conservation(self):
        assert check_conservation(B1, 2.0, 120, 3).status == "pass"
        assert check_conservation(BilliardFamily("c1"), 1.0, 120, 3).status == "pass"

    def test_translation_shift_values(self):
        r = check_translation(A2, 2.0, 50, 3)
        assert r.status == "pass"
        r = check_translation(A1, 1.0, 50, 3)
        assert r.status == "pass"

    def test_translation_needs_a_family(self):
        with pytest.raises(ValueError):
            check_translation(B1, 2.0)

    def test_abel(self):
        assert check_abel_translation(B1, 2.0, 8, 3).status == "pass"

    def test_area_and_jacobian(self):
        assert check_area_form(D, 40, 3).status == "pass"
        assert check_jacobian(D, 40, 3).status == "pass"

    def test_tables_and_equivalences(self):
        assert check_tables(BilliardFamily("c2"), 3).status == "pass"
        assert check_equivalences(3).status == "pass"

    def test_jacobian_where_the_map_expands(self):
        # sample 18 of seed 9701 maps Q about 41 times farther from the
        # tangency point than it was; a stencil step that ignored the
        # expansion left a finite-difference error of 1.5e-6 there
        r = check_jacobian(BilliardFamily("c1"), 200, 9701)
        assert r.status == "pass"
        assert r.worst <= 1e-7


#: the critical cells of b1, b2 and d with more than one component
_CELLS_OF_SEVERAL = [
    ("b1", 1), ("b1", Fraction(4, 3)), ("b1", INF),
    ("b2", 1), ("b2", Fraction(4, 3)), ("b2", INF),
    ("d", Fraction(-1, 3)), ("d", Fraction(-9, 32)), ("d", INF),
]


class TestNegativeInjection:
    """Every check must fail (with a witness) when its hook corrupts it."""

    def test_involution(self):
        r = check_involution(B1, 50, 3, corrupt=True)
        assert r.status == "fail" and r.witness is not None

    def test_conservation(self):
        r = check_conservation(B1, 2.0, 40, 3, corrupt=True)
        assert r.status == "fail" and r.witness is not None

    def test_translation(self):
        r = check_translation(A1, 1.0, 20, 3, corrupt=True)
        assert r.status == "fail" and r.witness is not None

    def test_abel(self):
        r = check_abel_translation(B1, 2.0, 4, 3, corrupt=True)
        assert r.status == "fail" and r.witness is not None

    def test_area(self):
        r = check_area_form(B1, 10, 3, corrupt=True)
        assert r.status == "fail" and r.witness is not None

    def test_jacobian(self):
        r = check_jacobian(B1, 10, 3, corrupt=True)
        assert r.status == "fail" and r.witness is not None

    def test_tables(self):
        r = check_tables(B1, 3, corrupt=True)
        assert r.status == "fail" and r.witness is not None

    def test_equivalences(self):
        r = check_equivalences(3, corrupt=True)
        assert r.status == "fail" and r.witness is not None

    @pytest.mark.parametrize("tag,lam", _CELLS_OF_SEVERAL, ids=[f"{t}@{lam}" for t, lam in _CELLS_OF_SEVERAL])
    def test_tables_with_a_cell_cut_to_its_first_component(self, monkeypatch, tag, lam):
        # a critical point of a reducible cell is where two of its
        # components meet: with one component left it has no second one,
        # and its residual is infinite
        real = verify.critical_fiber_components
        cut = SphereValue.coerce(lam)

        def first_only(family, value):
            comps = real(family, value)
            return comps[:1] if (family.tag, value) == (tag, cut) else comps

        monkeypatch.setattr(verify, "critical_fiber_components", first_only)
        r = check_tables(BilliardFamily(tag), 3)
        assert r.status == "fail" and r.worst == math.inf

    def test_the_cut_cells_are_every_cell_of_several_components(self):
        several = [
            (tag, row.value)
            for tag in ("b1", "b2", "d")
            for row in FAMILIES[tag].critical
            if len(critical_fiber_components(BilliardFamily(tag), row.value)) > 1
        ]
        assert several == [(tag, SphereValue.coerce(lam)) for tag, lam in _CELLS_OF_SEVERAL]

    @pytest.mark.parametrize("tag", ["a1", "a2", "b1", "b2", "c1", "c2", "d"])
    def test_jacobian_checks_the_library_closed_form(self, monkeypatch, tag):
        real = verify.halfstep_jacobian
        monkeypatch.setattr(verify, "halfstep_jacobian", lambda *args: 2 * real(*args))
        r = check_jacobian(BilliardFamily.parse(tag), 20, 42)
        assert r.status == "fail" and r.witness is not None


class TestSkips:
    def test_singular_start_is_skipped(self):
        r = check_conservation(B1, 2.0, 10, 3, start=2.0)  # t0 = lam/(lam-1) -> (0,0)
        assert r.status == "skipped"
        assert r.witness["reason"] in ("hit-singularity", "left-numeric-domain")


class TestDeterminism:
    def test_subset_byte_identical(self):
        names = ["involution:b1", "translation", "tables:d", "equivalences"]
        a = [r.to_dict() for r in run_suite(default_suite(7), names)]
        b = [r.to_dict() for r in run_suite(default_suite(7), names)]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_changes_stream(self):
        a = check_involution(B1, 50, 1)
        b = check_involution(B1, 50, 2)
        assert a.worst != b.worst


class TestNothingEvaluated:
    """A sampling check whose every sample raises fails; it never passes
    with worst = 0 on no evidence."""

    @staticmethod
    def boom(*args, **kwargs):
        raise ZeroDivisionError("forced")

    @pytest.mark.parametrize(
        "target,run,count",
        [
            # the lane kernels: one raising call drops every lane of its batch
            ("_involution_z", lambda: verify.check_involution(B1, 5, 1), 5),
            ("_area_defect", lambda: verify.check_area_form(B1, 5, 1), 5),
            ("_chart_derivative", lambda: verify.check_jacobian(B1, 5, 1), 5),
            ("_on_tangent_factored", lambda: verify.check_conservation(D, 1.0, 5, start=1.3), 6),
            # the equivalences' lane call raises once for its 100 points
            ("_factored", lambda: verify.check_equivalences(3), 100),
        ],
    )
    def test_every_sample_raising_fails(self, monkeypatch, target, run, count):
        monkeypatch.setattr(verify, target, self.boom)
        report = run()
        assert report.status == "fail"
        assert report.witness == {"evaluated": 0, "dropped": {"ZeroDivisionError": count}}
        assert {k: report.params[k] for k in ("evaluated", "dropped")} == report.witness

    @pytest.mark.parametrize(
        "run",
        [
            lambda: verify.check_involution(B1, 0, 1),
            lambda: verify.check_area_form(B1, 0, 1),
            lambda: verify.check_jacobian(B1, 0, 1),
        ],
        ids=["involution", "area", "jacobian"],
    )
    def test_no_samples_fails(self, run):
        # half of no samples is no floor: nothing evaluated is still too few
        report = run()
        assert report.status == "fail"
        assert report.witness == {"evaluated": 0, "dropped": {}}

    @pytest.mark.parametrize(
        "run,evaluated",
        [
            (lambda: verify.check_translation(A1, 1.0, steps=0), 0),
            (lambda: verify.check_abel_translation(B1, 2.0, steps=0), 0),
            # one Abel step is only step 0 against itself
            (lambda: verify.check_abel_translation(B1, 2.0, steps=1), 1),
        ],
        ids=["translation, 0 steps", "abel, 0 steps", "abel, 1 step"],
    )
    def test_too_few_orbit_steps_fails(self, run, evaluated):
        report = run()
        assert report.status == "fail"
        assert report.witness == {"evaluated": evaluated, "dropped": {}}

    def test_two_abel_steps_are_enough(self):
        report = verify.check_abel_translation(B1, 2.0, steps=2)
        assert report.status == "pass" and report.params["evaluated"] == 2


class TestCountsInParams:
    """Every report says how many samples it evaluated and how many it
    dropped, by exception class, passing reports included."""

    def test_passing_report_counts(self):
        report = check_involution(B1, 50, 1)
        assert report.status == "pass"
        assert (report.params["evaluated"], report.params["dropped"]) == (50, {})

    @staticmethod
    def refuse_lanes(monkeypatch, refused):
        """The area kernel gives NaN on the lanes k with refused(k), and the
        scalar path that evaluates them again raises."""
        real = verify._area_defect

        def kernel(family, z0, z):
            res, dependent, off_img = real(family, z0, z)
            return np.where([refused(k) for k in range(len(res))], math.nan, res), dependent, off_img

        def scalar(family, z0, z):
            raise ZeroDivisionError("forced")

        monkeypatch.setattr(verify, "_area_defect", kernel)
        monkeypatch.setattr(verify, "_area_residual", scalar)

    def test_dropped_samples_counted_by_class(self, monkeypatch):
        self.refuse_lanes(monkeypatch, lambda k: k % 3 == 2)
        report = verify.check_area_form(B1, 9, 1)
        assert report.status == "pass"
        assert report.params["evaluated"] == 6
        assert report.params["dropped"] == {"ZeroDivisionError": 3}

    def test_fewer_than_half_evaluated_fails(self, monkeypatch):
        self.refuse_lanes(monkeypatch, lambda k: k % 3 != 2)
        report = verify.check_area_form(B1, 9, 1)
        assert report.status == "fail"
        assert report.witness == {"evaluated": 3, "dropped": {"ZeroDivisionError": 6}}

    def test_table_checks_count_what_they_evaluate(self):
        report = verify.check_tables(D, 1)
        assert report.status == "pass" and report.params["evaluated"] > 0


class TestNaNResidual:
    """A NaN residual becomes the worst and fails its check with a witness;
    comparisons with NaN are false, so a plain running maximum misses it."""

    @pytest.mark.parametrize(
        "patches,run",
        [
            ({"_involution_z": complex(math.nan, 0.0)}, lambda: verify.check_involution(B1, 5, 1)),
            # a NaN lane is evaluated again by the scalar path, NaN as well
            ({"_area_defect": (np.full(5, math.nan), np.zeros(5, bool), np.zeros(5, complex)),
              "_area_residual": math.nan},
             lambda: verify.check_area_form(B1, 5, 1)),
            # a NaN closed form against the finite determinant of the jets
            ({"halfstep_jacobian": complex(math.nan, 0.0)}, lambda: verify.check_jacobian(B1, 5, 1)),
            # a NaN lane is evaluated again by the exact path, NaN as well
            ({"_on_tangent_factored": (np.full(6, complex(math.nan, 0.0)), np.zeros(6)),
              "_exact_on_tangent": SphereValue(math.nan)},
             lambda: verify.check_conservation(B1, 2.0, 5, 1)),
            # a NaN lane is evaluated again by the exact scalar path, NaN as well
            ({"_factored": (np.full(100, complex(math.nan, 0.0)), np.zeros(100)),
              "eval_integral": SphereValue(math.nan)},
             lambda: verify.check_equivalences(1)),
        ],
        ids=["involution", "area", "jacobian", "conservation", "equivalences"],
    )
    def test_nan_residual_fails(self, monkeypatch, patches, run):
        for target, value in patches.items():
            monkeypatch.setattr(verify, target, lambda *args, value=value, **kwargs: value)
        report = run()
        assert report.status == "fail"
        assert math.isnan(report.worst)
        assert report.witness is not None and "evaluated" not in report.witness


class TestInvolutionFixedPointTerm:
    def test_nan_fixed_point_term_fails(self, monkeypatch):
        """A NaN in the sigma_P(P) = P term alone fails the check."""
        real = verify._involution_z
        nan = complex(math.nan, 0.0)
        monkeypatch.setattr(
            verify, "_involution_z", lambda family, z0, z1: nan if z1 is z0 else real(family, z0, z1)
        )
        report = check_involution(B1, 20, 1)
        assert report.status == "fail"
        assert math.isnan(report.worst)


class TestCaseTable:
    def test_checks_run_through_module_globals(self, monkeypatch, capsys):
        # the benchmark times each check by replacing verify.check_* in place
        calls = []
        original = verify.check_tables

        def counting(*args, **kwargs):
            calls.append(args[0].label())
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "check_tables", counting)
        reports = run_suite(default_suite(1), ["tables"])
        assert len(calls) == len(reports) == 7
        calls.clear()
        assert cli.main(["check", "tables", "--family", "b1"]) == 0
        capsys.readouterr()
        assert calls == ["b1"]

    def test_fallback_cases(self):
        # no frozen case: translation runs lambda = 1.0, b2's Abel check b1's level
        a1_4 = BilliardFamily("a1", 4)
        assert [n for n, _ in verify.checks_for("translation", a1_4, 1)] == [
            "translation:a1(4):lam=1.0"
        ]
        assert [n for n, _ in verify.checks_for("abel", BilliardFamily("b2"), 1)] == [
            "abel:b2:lam=2.0"
        ]


INSTANCES = [BilliardFamily(tag, n) for tag in ("a1", "a2") for n in (1, 2, 3)] + [
    BilliardFamily(tag) for tag in ("b1", "b2", "c1", "c2", "d")
]


def _attempt(fam, rng, conditioned):
    """One attempt of the draws, the reference of TestDraws: four
    ``rng.random()`` calls, z0 and z = z0 + u built from them on Python
    numbers, and its guard and window decided on one-lane arrays.  Returns
    (z0, z) when the attempt is kept, else None."""
    square, turn, u_square, u_turn = (rng.random() for _ in range(4))
    z0 = math.sqrt(0.1**2 + (3.0**2 - 0.1**2) * square) * cmath.exp(2j * math.pi * turn)
    z = z0 + math.sqrt(0.05**2 + (2.0**2 - 0.05**2) * u_square) * cmath.exp(2j * math.pi * u_turn)
    z0_lane, z_lane = np.array([z0]), np.array([z])
    if any(abs(z0_lane - s)[0] < verify.SINGULAR_GUARD for s in fam.spec.singular_finite):
        return None
    if conditioned:
        with np.errstate(all="ignore"):
            dist = abs(_involution_z(fam, z0_lane, z_lane) - z0_lane)[0]
        if not verify._WINDOW[0] <= dist <= verify._WINDOW[1]:
            return None
    return z0, z


def _involution_lanes(fam, n=200):
    rng = verify._rng_for(5, f"lanes:{fam.label()}")
    return tuple(map(np.array, verify._draws(fam, rng, n, conditioned=False)))


def _draw_lanes(fam, purpose, n=100):
    """(z0, z) of the draws that the jacobian and area checks take."""
    rng = verify._rng_for(5, f"{purpose} lanes:{fam.label()}")
    return tuple(map(np.array, verify._draws(fam, rng, n, conditioned=True)))


#: per kernel, its lane outputs at the points z1 of the tangent lines at z0
LANE_KERNELS = {
    "involution": lambda fam, z0, z1: verify._involution_residual(fam, z0, z1),
    "jacobian": lambda fam, z0, z1: verify._jacobian_residual(fam, z0, z1),
    "tangent R": lambda fam, z0, z1: integrals._on_tangent_factored(fam, z0, z1 - z0),
    "area": lambda fam, z0, z1: _area_defect(fam, z0, z1),
}


def _pole(fam):
    """(z0, u) with z1 = z0 + u exactly on the pole of the involution at z0:
    the scalar kernel on Python numbers returns INF there.  Rounding decides
    which (z0, u) hit it, so a few real z0 and nearby z1 are tried."""
    for j in range(400):
        z0 = complex(0.5 + j / 97)
        try:
            f = fam.spec.coefficient(fam.n)(z0)
        except ZeroDivisionError:
            continue
        if f == 0:
            continue
        pole = z0 - 1 / f
        for step in range(-3, 4):
            u = complex(pole.real + step * math.ulp(pole.real), pole.imag) - z0
            if _involution_z(fam, z0, z0 + u) is INF:
                return z0, u
    raise AssertionError(f"no exact pole found for {fam.label()}")


class TestLanes:
    """The lane kernels of the involution, jacobian, conservation and area
    checks: a lane's value does not depend on the size or order of its
    batch; the involution and jacobian kernels agree with themselves on
    Python numbers, and a lane on the involution's pole gets the verdict of
    the scalar path."""

    @staticmethod
    def assert_order_free(residual, cols):
        n = len(cols[0])
        full = residual(*cols)
        one = np.concatenate([residual(*(c[k:k + 1] for c in cols)) for k in range(n)])
        # lanes are always fresh contiguous arrays: numpy's complex abs takes
        # another loop, with other roundings, on a strided view
        reversed_ = residual(*(c[::-1].copy() for c in cols))[::-1]
        offset = residual(*(c[3:] for c in cols))
        assert full.shape == (n,) and np.isfinite(full).all()
        assert full.tobytes() == one.tobytes()
        assert full.tobytes() == np.ascontiguousarray(reversed_).tobytes()
        assert full[3:].tobytes() == offset.tobytes()

    @pytest.mark.parametrize("fam", INSTANCES, ids=BilliardFamily.label)
    def test_involution_lanes_are_order_free(self, fam):
        cols = _involution_lanes(fam)
        self.assert_order_free(lambda z0, z1: verify._involution_residual(fam, z0, z1)[0], cols)

    @pytest.mark.parametrize("fam", INSTANCES, ids=BilliardFamily.label)
    def test_jacobian_lanes_are_order_free(self, fam):
        cols = _draw_lanes(fam, "jacobian")
        self.assert_order_free(lambda z0, z: verify._jacobian_residual(fam, z0, z)[0], cols)

    @pytest.mark.parametrize("fam", INSTANCES, ids=BilliardFamily.label)
    def test_tangent_line_lanes_are_order_free(self, fam):
        z0, z1 = _involution_lanes(fam)
        for part in (0, 1):  # R and its rounding estimate
            self.assert_order_free(
                lambda z0, u: integrals._on_tangent_factored(fam, z0, u)[part], (z0, z1 - z0)
            )

    @pytest.mark.parametrize("fam", INSTANCES, ids=BilliardFamily.label)
    def test_area_lanes_are_order_free(self, fam):
        cols = _draw_lanes(fam, "area")
        self.assert_order_free(lambda z0, z: _area_defect(fam, z0, z)[0], cols)

    @pytest.mark.parametrize("tag,image", [("b1", None), ("b2", "psi"), ("c2", None), ("c1", "m_c")])
    def test_equivalence_lanes_are_order_free(self, tag, image):
        # R by its factors and its estimate at the equivalences' points or
        # their images, as canonical coordinates of 100 random points
        fam = BilliardFamily(tag)
        m = {"psi": b_family_equivalence(), "m_c": c_family_equivalence()}.get(image)
        rng = np.random.default_rng(7)
        cols = tuple(rng.uniform(-2, 2, 100) + 1j * rng.uniform(-2, 2, 100) for _ in range(2))

        def lanes(z, w, part):
            p = verify._canonical(z, w, np.ones_like(z))
            return verify._integral_lanes(fam, p if m is None else verify._mapped(m.matrix, p))[part]

        for part in (0, 1):
            self.assert_order_free(lambda z, w: lanes(z, w, part), cols)

    @pytest.mark.parametrize("label", ["a1(1)", "b1", "c2", "d"])
    def test_lane_bits_do_not_depend_on_batch_size(self, label):
        # 20 000 complex lanes (320 KB) pass the size from which numpy
        # reuses temporaries in place; blocks of 1000 stay below it
        fam = next(f for f in INSTANCES if f.label() == label)
        cols = _involution_lanes(fam, 20_000)
        for kernel in LANE_KERNELS.values():
            with np.errstate(all="ignore"):
                whole = kernel(fam, *cols)
                blocks = [kernel(fam, *(c[k:k + 1000] for c in cols)) for k in range(0, 20_000, 1000)]
            for j, lanes in enumerate(whole):  # each output of the kernel
                assert lanes.tobytes() == np.concatenate([b[j] for b in blocks]).tobytes()

    @pytest.mark.parametrize("fam", INSTANCES, ids=BilliardFamily.label)
    def test_involution_lanes_match_python_numbers(self, fam):
        z0, z1 = _involution_lanes(fam)
        lanes = _involution_z(fam, z0, z1)
        for k in range(len(z0)):
            scalar = _involution_z(fam, complex(z0[k]), complex(z1[k]))
            assert abs(lanes[k] - scalar) <= 1e-13 * abs(scalar)

    @pytest.mark.parametrize("fam", INSTANCES, ids=BilliardFamily.label)
    def test_jacobian_lanes_match_python_numbers(self, fam):
        z0, z = _draw_lanes(fam, "jacobian")
        z_img, mat = _chart_derivative(fam, z0, z)
        for k in range(len(z0)):
            s_img, s_mat = _chart_derivative(fam, complex(z0[k]), complex(z[k]))
            assert abs(z_img[k] - s_img) <= 1e-13 * abs(s_img)
            entries = [(row[j][k], s_row[j]) for row, s_row in zip(mat, s_mat) for j in (0, 1)]
            scale = max(abs(s) for _, s in entries)
            assert all(abs(v - s) <= 1e-13 * scale for v, s in entries)

    @pytest.mark.parametrize("fam", INSTANCES, ids=BilliardFamily.label)
    def test_pole_lane_gets_the_scalar_verdict(self, fam, monkeypatch):
        z0, u = _pole(fam)
        z1 = z0 + u
        # the scalar path: the public involution on projective points
        p = conic_point(z0)
        q = ProjectivePoint.affine(z1, 2 * z0 * z1 - z0 * z0)
        once = involution(fam, p, q)
        assert once.is_infinite
        back = involution(fam, p, once).z_sphere().value
        fixed = involution(fam, p, p).z_sphere().value
        scalar = max(abs(back - z1) / max(1.0, abs(z1)), abs(fixed - z0) / max(1.0, abs(z0)))

        real = verify._draws

        def draws(family, rng, n, *, conditioned):
            z0s, zs = real(family, rng, n, conditioned=conditioned)
            z0s[3], zs[3] = z0, z1
            return z0s, zs

        monkeypatch.setattr(verify, "_draws", draws)
        report = verify.check_involution(fam, 10, 1)
        assert report.params["evaluated"] == 10
        assert (report.status == "pass") == (scalar <= 1e-9)

        # the jacobian residual drops a pole lane under the scalar path's class
        with pytest.raises(ValueError):
            halfstep_jacobian(fam, z0, z1)
        acc = verify._laned(
            lambda a, b: verify._jacobian_residual(fam, a, b),
            ([z0, 0.5 + 0.5j], [z1, 0.5 + 0.5j + 0.3]), lambda k: {},
        )
        assert (acc.evaluated, acc.dropped) == (1, {"ValueError": 1})


class TestAreaImage:
    """The area check takes the image from the jets: Q' at z*, and P' at
    2 z* - z0, the other tangency parameter of Q', so the image's chart
    offset is z0 - z*.  billiard_map chooses the same P'."""

    @pytest.mark.parametrize("fam", INSTANCES, ids=BilliardFamily.label)
    def test_billiard_map_has_the_image_of_the_jets(self, fam):
        for seed in (42, 9501, 9701):
            rng = verify._rng_for(seed, f"image:{fam.label()}")
            z0s, zs = verify._draws(fam, rng, 500, conditioned=True)
            offsets = _area_defect(fam, np.array(z0s), np.array(zs))[2]
            for z0, z, off in zip(z0s, zs, offsets.tolist()):
                z_img = _chart_derivative(fam, z0, z)[0]
                x_img = billiard_map(fam, verify._phase_point(z0, z))
                assert abs(_chart_offset(x_img) - off) <= 1e-10 * abs(off)
                p_img = x_img.p.z_sphere().value
                assert abs(p_img - (2 * z_img - z0)) <= 1e-10 * abs(p_img)

    @pytest.mark.parametrize("tag", ["a1", "a2", "b1", "b2", "c1", "c2", "d"])
    def test_area_check_takes_no_phase_map_step(self, tag, monkeypatch):
        from dualbill import billiards, forms

        def boom(*args):
            raise AssertionError("the phase map was stepped")

        for module in (billiards, forms, verify):
            monkeypatch.setattr(module, "billiard_map", boom)
        report = check_area_form(BilliardFamily.parse(tag), 200, 42)
        assert report.status == "pass" and report.params["evaluated"] == 200


def _hex(values) -> list[tuple[str, str]]:
    return [(v.real.hex(), v.imag.hex()) for v in values]


class TestDraws:
    """``verify._draws`` takes attempt k from randoms 4k to 4k + 3 and keeps
    the first n that pass the guard and, for a conditioned draw, the window,
    decided on lanes: the draws of any n are prefixes of one sequence, the
    attempts of one at a time on one-lane arrays, and a conditioned draw
    has its involution image, on projective points, within the window."""

    @pytest.mark.parametrize("seed", [42, 9501])
    @pytest.mark.parametrize("fam", INSTANCES, ids=BilliardFamily.label)
    def test_same_draws_as_on_projective_points(self, fam, seed):
        name = f"draws:{fam.label()}"
        lo, hi = verify._WINDOW
        z0s, zs = verify._draws(fam, verify._rng_for(seed, name), 2000, conditioned=True)
        for z0, z in zip(z0s.tolist(), zs.tolist()):
            assert all(abs(z0 - s) >= verify.SINGULAR_GUARD for s in fam.spec.singular_finite)
            x = verify._phase_point(z0, z)
            z_img = involution(fam, x.p, x.q).z_sphere()
            assert not z_img.is_inf
            assert lo * (1 - 1e-9) <= abs(z_img.value - z0) <= hi * (1 + 1e-9)
        bits = lambda x: np.array([*x.q.coords, *x.p.coords]).tobytes()  # noqa: E731
        for k in range(50):  # sample_phase_point takes the first draw
            rng, one = (verify._rng_for(seed + k, name) for _ in range(2))
            z0, z = (lane[0].item() for lane in verify._draws(fam, rng, 1, conditioned=True))
            assert bits(verify.sample_phase_point(fam, one)) == bits(verify._phase_point(z0, z))

    @pytest.mark.parametrize("seed", [42, 9501, 9701])
    @pytest.mark.parametrize("fam", INSTANCES, ids=BilliardFamily.label)
    def test_blocks_give_the_draws_one_at_a_time(self, fam, seed):
        name = f"blocks:{fam.label()}"
        for conditioned in (False, True):
            # 2500 draws take more than one block
            runs = {
                n: verify._draws(fam, verify._rng_for(seed, name), n, conditioned=conditioned)
                for n in (1, 7, 1000, 2500)
            }
            longest = [_hex(lanes) for lanes in runs[2500]]
            for n, lanes in runs.items():
                assert [_hex(lane) for lane in lanes] == [hexes[:n] for hexes in longest], n
            ref, expected = verify._rng_for(seed, name), []
            while len(expected) < 2500:
                draw = _attempt(fam, ref, conditioned)
                if draw is not None:
                    expected.append(draw)
            assert longest == [_hex(z0 for z0, _ in expected), _hex(z for _, z in expected)]

    @pytest.mark.parametrize("seed", [0, 42, 9501])
    def test_randoms_are_random_calls(self, seed):
        # bit for bit the floats of random(), leaving the same state, also
        # when the pulls are chained on one stream
        rng, ref = random.Random(seed), random.Random(seed)
        for size in (0, 1, 2, 4095, 8192, 3, 0, 1):
            got = verify._randoms(rng, size)
            assert got.dtype == np.float64
            assert got.tobytes() == np.array([ref.random() for _ in range(size)], dtype=float).tobytes()
            assert rng.getstate() == ref.getstate()


def _laned_one_by_one(residual, lanes, where, fallback):
    """The lane loop of ``verify._laned`` with ``note`` of each lane in lane
    order after its fallback: the reference of TestLaneReduction."""
    acc = verify._Residuals()
    with np.errstate(all="ignore"):
        res, image = residual(*map(np.array, lanes))
        again = ~(np.isfinite(res) & (abs(image) < INF_THRESHOLD))
    for k, r in enumerate(res.tolist()):
        if again[k]:
            try:
                r = fallback(k)
            except Exception as exc:
                acc.dropped[type(exc).__name__] += 1
                continue
            if r is None:
                acc.dropped["infinite value"] += 1
                continue
        acc.note(r, lambda: where(k))
    return acc


#: residuals with ties, signed zeros, infinities and NaNs of either sign
_RESIDUALS = st.sampled_from(
    [0.0, -0.0, 1e-12, 0.5, 0.5, 3.0, 3.0, -1.0, math.inf, -math.inf, math.nan, -math.nan]
) | st.floats(allow_nan=True, allow_infinity=True)
#: a lane's verdict of its fallback: a value, None (an infinite value) or an
#: exception of either class
_FALLBACKS = _RESIDUALS | st.sampled_from([None, ValueError, ZeroDivisionError])


class TestLaneReduction:
    """``_laned`` records its residuals in one step; the worst (as bits),
    its witness, the evaluated count and the dropped counts are those of
    ``note`` lane by lane."""

    @staticmethod
    def both(lanes):
        res = np.array([r for r, _, _ in lanes], dtype=float)
        image = np.array([INF_THRESHOLD if again else 0.0 for _, again, _ in lanes])

        def fallback(k):
            verdict = lanes[k][2]
            if isinstance(verdict, type):
                raise verdict("lane")
            return verdict

        args = (lambda lane: (res, image), (list(range(len(lanes))),), lambda k: {"lane": k}, fallback)
        return verify._laned(*args), _laned_one_by_one(*args)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_RESIDUALS, st.booleans(), _FALLBACKS), max_size=40))
    @example([])
    @example([(0.0, False, 0.0)] * 5)
    @example([(0.0, True, None), (-0.0, False, 0.0), (0.0, True, ValueError)])
    def test_same_as_note_lane_by_lane(self, lanes):
        got, want = self.both(lanes)
        assert struct.pack("<d", got.worst) == struct.pack("<d", want.worst)
        assert got.witness == want.witness
        assert (got.evaluated, got.dropped) == (want.evaluated, want.dropped)


    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_RESIDUALS, _RESIDUALS, st.booleans()), max_size=30))
    @example([(0.5, 0.5, False), (0.25, 0.5, True), (0.5, 3.0, False)])
    def test_rows_are_noted_in_order(self, lanes):
        # a lane with two residuals, the equivalences' b and c: both noted
        # in order, the lane counted once
        res = np.array([(b, c) for b, c, _ in lanes], dtype=float).reshape(len(lanes), 2)
        kept = np.array([k for _, _, k in lanes], dtype=bool)
        got, want = verify._Residuals(), verify._Residuals()
        got.note_lanes(res, kept, lambda k: {"at": k})
        for k, (b, c, keep) in enumerate(lanes):
            if keep:
                want.note(b, lambda: {"at": 2 * k})
                want.note(c, lambda: {"at": 2 * k + 1}, count=False)
        assert struct.pack("<d", got.worst) == struct.pack("<d", want.worst)
        assert (got.witness, got.evaluated) == (want.witness, want.evaluated)


def _sequential_equivalences(rng, psi, mc):
    """The integral half of the equivalences check one point at a time
    with ``eval_integral`` on its 100 points: the reference of
    TestEquivalenceLanes."""
    acc = verify._Residuals()
    b1, b2 = BilliardFamily("b1"), BilliardFamily("b2")
    c1, c2 = BilliardFamily("c1"), BilliardFamily("c2")
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        pt = ProjectivePoint.affine(z, w)
        try:
            rb1 = integrals.eval_integral(b1, pt)
            rb2 = integrals.eval_integral(b2, psi(pt))
            rc2 = integrals.eval_integral(c2, pt)
            rc1 = integrals.eval_integral(c1, mc(pt))
        except Exception as exc:
            acc.dropped[type(exc).__name__] += 1
            continue
        if rb1.is_inf or rb2.is_inf or rc1.is_inf or rc2.is_inf:
            acc.dropped["infinite value"] += 1
            continue
        b_res = abs(rb1.value - rb2.value) / max(1.0, abs(rb1.value))
        acc.note(b_res, lambda: {"what": "b-integral equivalence", "where": repr(pt)})
        c_res = abs(-3 * rc2.value - rc1.value) / max(1.0, abs(rc1.value))
        acc.note(c_res, lambda: {"what": "c-integral equivalence", "where": repr(pt)}, count=False)
    return acc


class _Scripted(random.Random):
    """A stream that gives chosen randoms first and then those of its
    seed: ``random()`` and ``getrandbits`` take the same 32-bit words, the
    first one's top 27 bits over the second one's top 26, as CPython's
    Mersenne Twister does."""

    def __init__(self, chosen, seed):
        self.words = []
        for r in chosen:
            m = int(r * 2**53)
            self.words += [(m >> 26) << 5, (m & (2**26 - 1)) << 6]
        super().__init__(seed)

    def _word(self):
        return self.words.pop(0) if self.words else super().getrandbits(32)

    def random(self):
        a, b = self._word() >> 5, self._word() >> 6
        return (a * 67108864.0 + b) * 2.0**-53

    def getrandbits(self, k):
        assert k % 32 == 0
        return sum(self._word() << 32 * i for i in range(k // 32))

    def getstate(self):
        return len(self.words), super().getstate()


def _part(x):
    """The random that rng.uniform(-2, 2) turns into x."""
    r = (x + 2) / 4
    assert -2 + 4 * r == x
    return r


#: points (z, w) that force each verdict of the exact path: b1's base
#: point (0, 0); points 1e-8 * (1 -+ 4e-9) from it, within rounding of the
#: guard radius, inside and outside; and b1's pole (1, 0)
_FORCED = {
    "base point": (0j, 0j),
    "inside the guard": (complex(22517998 * 2.0**-51), 0j),
    "outside the guard": (complex(22517999 * 2.0**-51), 0j),
    "pole": (1 + 0j, 0j),
}


def _stream(points, seed):
    return _Scripted([_part(x) for z, w in points for x in (z.real, z.imag, w.real, w.imag)], seed)


class TestEquivalenceLanes:
    """The integral half of the equivalences check on lanes gives the
    counts, drops and stream state of the loop over points one at a time,
    and its witness where the residuals stand apart."""

    @staticmethod
    def both(make_rng, corrupt=False):
        psi, mc = b_family_equivalence(), c_family_equivalence()
        if corrupt:
            m = psi.matrix.copy()
            m[0, 0] += 1e-3
            psi = ProjectiveMap(m)
        rng, ref = make_rng(), make_rng()
        got = verify._integral_equivalences(rng, psi, mc)
        want = _sequential_equivalences(ref, psi, mc)
        assert (got.evaluated, got.dropped) == (want.evaluated, want.dropped)
        assert rng.getstate() == ref.getstate()
        return got, want

    @pytest.mark.parametrize("seed", [0, 1, 3, 42, 9501, 9502, 9701])
    def test_same_as_one_point_at_a_time(self, seed):
        got, want = self.both(lambda: verify._rng_for(seed, "equivalences"))
        assert got.worst <= 1e-12 and want.worst <= 1e-12
        got, want = self.both(lambda: verify._rng_for(seed, "equivalences"), corrupt=True)
        assert got.witness == want.witness
        assert abs(got.worst - want.worst) <= 1e-9 * want.worst

    @pytest.mark.parametrize("kind", list(_FORCED))
    def test_a_forced_verdict(self, kind):
        points = [_FORCED[kind]] * 3
        got, want = self.both(lambda: _stream(points, 5))
        assert got.fallbacks == 3
        if kind == "outside the guard":
            assert (got.evaluated, got.dropped) == (100, {})
        else:
            reason = "infinite value" if kind == "pole" else "IndeterminacyError"
            assert dict(got.dropped) == {reason: 3}
        got, want = self.both(lambda: _stream(points, 5), corrupt=True)
        assert got.witness == want.witness

    def test_every_verdict_among_random_points(self):
        points = list(_FORCED.values()) * 25  # the 100 points, one verdict after another
        got, _ = self.both(lambda: _stream(points, 8))
        assert (got.evaluated, dict(got.dropped)) == (25, {"IndeterminacyError": 50, "infinite value": 25})

    def test_every_point_dropped(self, monkeypatch):
        # every point is the base point: none is replaced, the stream moves
        # by 400 randoms, and the report fails with the loop's counts
        points = [_FORCED["base point"]] * 100
        got, want = self.both(lambda: _stream(points, 0))
        assert (got.evaluated, got.dropped) == (0, {"IndeterminacyError": 100})
        # the 400 scripted randoms are taken, and none of the seed's
        rng = _stream(points, 0)
        verify._integral_equivalences(rng, b_family_equivalence(), c_family_equivalence())
        assert rng.getstate() == (0, random.Random(0).getstate())
        monkeypatch.setattr(verify, "_rng_for", lambda seed, name: _stream(points, seed))
        report = check_equivalences(1)
        assert report.status == "fail"
        assert report.witness == {"evaluated": 0, "dropped": {"IndeterminacyError": 100}}

    def test_one_base_point_distance_serves_b1_and_c2(self, monkeypatch):
        # b1 and c2 have the same base points, so their distances at the
        # same lanes are one computation
        c2 = BilliardFamily("c2")
        assert [bp.coords for bp in B1.spec.base_points] == [bp.coords for bp in c2.spec.base_points]
        tags = []
        real = verify._base_point_distance

        def counting(family, coords):
            tags.append(family.tag)
            return real(family, coords)

        monkeypatch.setattr(verify, "_base_point_distance", counting)
        assert check_equivalences(42).status == "pass"
        assert tags[:3] == ["b1", "b2", "c1"] and "c2" not in tags


class TestConservationOnLanes:
    """check_conservation evaluates R on the tangent line of every iterate
    at once; the exact evaluation takes the iterates where that form may
    round badly."""

    @pytest.fixture
    def bent_d(self, monkeypatch):
        """d's integral with the coefficient 8 of its factor w + 8 z^2
        raised by 1e-6."""
        real = integrals._FACTORS["d"]

        def bent(n):
            k, ((first, mult), *rest) = real(n)
            return k, ((first + BiPoly({(2, 0): Fraction(1, 10**6)}), mult), *rest)

        monkeypatch.setitem(integrals._FACTORS, "d", bent)
        integrals._integral_cached.cache_clear()
        yield
        integrals._integral_cached.cache_clear()

    def test_bent_factor_fails(self, bent_d):
        report = check_conservation(D, 1.0, 100, 3)
        assert report.status == "fail" and report.worst > 1e-7
        assert report.params["evaluated"] == 101

    def test_unbent_control_passes(self):
        report = check_conservation(D, 1.0, 100, 3)
        assert report.status == "pass" and report.params["evaluated"] == 101

    def test_cancelling_factors_take_the_exact_path(self):
        # on step 255 of this orbit R on the tangent line is off by 1.5e-5;
        # the exact value drifts by 8e-11
        lam = 2.5820515583761385 + 0.7175757711452591j
        report = check_conservation(D, lam, 500, 1, start=2.391503104274424 + 0.1307735262541977j, branch="-")
        assert report.status == "pass" and report.worst <= 1e-9

    @pytest.mark.parametrize("fam", [A1, BilliardFamily("a2", 1)], ids=BilliardFamily.label)
    def test_guard_is_decided_on_lanes(self, fam, monkeypatch):
        # the lanes drop an iterate under IndeterminacyError, as the exact
        # evaluation does, exactly when its base-point distance on the lanes
        # is at most BASE_POINT_GUARD
        distances = []
        real = verify._base_point_distance

        def recording(family, coords):
            distances.append(real(family, coords))
            return distances[-1]

        monkeypatch.setattr(verify, "_base_point_distance", recording)
        for lam, start, branch in verify.CONSERVATION_CASES[fam.tag]:
            distances.clear()
            report = check_conservation(fam, lam, 500, 42, start=start, branch=branch)
            (dist,) = distances
            inside = int(np.count_nonzero(dist <= integrals.BASE_POINT_GUARD))
            assert inside > 0 and report.params["dropped"] == {"IndeterminacyError": inside}
            assert report.params["evaluated"] == len(dist) - inside

    def test_a_step_to_e_takes_the_exact_path(self, monkeypatch):
        # on b1 at z0 = 0.4, u = -1/f(z0) makes 1 + f u = 0 in floats: the
        # step goes to E, and its Q, the infinite point [1 : 2 z0 : 0] of
        # the tangent line, is evaluated exactly
        z0 = 0.4 + 0j
        u = -1.0 / B1.spec.coefficient()(z0)
        x0 = PhasePoint(ProjectivePoint.affine(z0 + u, z0 * z0 + 2 * z0 * u), conic_point(z0))
        lam = integrals.eval_integral(B1, x0.q).value
        monkeypatch.setattr(verify, "_start_point", lambda *args: x0)
        offsets = []
        exact = verify._exact_on_tangent

        def counting(family, z0, u):
            offsets.append(u)
            return exact(family, z0, u)

        monkeypatch.setattr(verify, "_exact_on_tangent", counting)
        report = check_conservation(B1, lam, 1)
        assert report.status == "pass" and report.params["evaluated"] == 2
        assert offsets == [INF]
        assert check_conservation(B1, lam, 1, corrupt=True).status == "fail"
        report = check_conservation(B1, lam, 2)
        assert report.status == "skipped" and report.witness["steps_taken"] == 1

    def test_a_later_step_to_e_is_on_the_last_line(self, monkeypatch):
        # from this b1 start the second step goes to E: its Q is the
        # infinite point of the tangent line at P_1, where R is lam, and
        # not of the line at P_0, where Q_1 is evaluated
        z0, z = -0.29917943522856777 + 0j, 0.09337271385711543 + 0j
        x0 = PhasePoint(ProjectivePoint.affine(z, 2 * z0 * z - z0 * z0), conic_point(z0))
        lam = integrals.eval_integral(B1, x0.q).value
        states, _, _, _, taken = verify._offset_orbit(B1, z0, x0.q.z_sphere().value - z0, 2)
        assert taken == len(states) == 2 and states[1] != states[0]
        monkeypatch.setattr(verify, "_start_point", lambda *args: x0)
        calls = []
        exact = verify._exact_on_tangent

        def counting(family, z0, u):
            calls.append((z0, u))
            return exact(family, z0, u)

        monkeypatch.setattr(verify, "_exact_on_tangent", counting)
        report = check_conservation(B1, lam, 2)
        assert report.status == "pass" and report.params["evaluated"] == 3
        assert calls == [(states[1], INF)]
        assert check_conservation(B1, lam, 2, corrupt=True).status == "fail"

    @pytest.mark.parametrize("z0", [1.3 + 0j, 2.5 + 0.5j])
    def test_an_image_far_along_its_line_keeps_q(self, z0, monkeypatch):
        # u = -1/f(z0) read back through a ProjectivePoint leaves 1 + f u
        # near 1e-16, so u' is near 1e16.  The next state z0 + 2u' is
        # rounded to an ulp of 2u', which moves Q_1 = (z0 + 2u') - u' along
        # its line and R by 0.04; Q_1 at offset u' on the line at z0 is
        # exact to rounding
        u = -1.0 / B1.spec.coefficient()(z0)
        x0 = PhasePoint(ProjectivePoint.affine(z0 + u, z0 * z0 + 2 * z0 * u), conic_point(z0))
        lam = integrals.eval_integral(B1, x0.q).value
        monkeypatch.setattr(verify, "_start_point", lambda *args: x0)
        report = check_conservation(B1, lam, 1)
        assert report.status == "pass" and report.params["evaluated"] == 2
        assert report.worst <= 1e-14

    @pytest.mark.parametrize("tag", ["a1", "a2", "b1", "b2", "c1", "c2", "d"])
    def test_bent_map_fails(self, tag, bend):
        # conservation is the sampled check that ties the map's coefficient
        # to the integral: residues scaled by 1 + 1e-6 fail every frozen case
        fam = BilliardFamily.parse(tag)
        bend(tag, 1 + Fraction(1, 10**6))
        for lam, start, branch in verify.CONSERVATION_CASES[tag]:
            report = check_conservation(fam, lam, 500, 1, start=start, branch=branch)
            assert report.status == "fail" and report.worst > verify.CONSERVATION_BOUND, lam

    def test_counts_of_the_suite_are_pinned(self):
        # evaluated and dropped of every report of check --all on the seeds
        # that CI runs; they are the same on each.  The lanes count what
        # exact evaluation of every iterate, and the scalar residual of
        # every sample, count
        a_family = {
            "a1(1)": ((333, 168), (296, 205), (327, 174)),
            "a2(1)": ((139, 362), (116, 385), (135, 366)),
        }
        tables = {"a1(1)": 6, "a2(1)": 6, "b1": 29, "b2": 23, "c1": 24, "c2": 24, "d": 26}
        evaluated = {
            "involution": 1000, "conservation": 501, "translation": 50, "abel": 20,
            "area": 200, "jacobian": 200, "equivalences": 100,
        }
        for seed in (42, 9501, 9701):
            reports = run_suite(default_suite(seed))
            assert len(reports) == 62
            for r in reports:
                kind = r.name.split(":")[0]
                counts = (r.params["evaluated"], r.params["dropped"])
                if kind == "conservation" and r.family in a_family:
                    lams = [lam for lam, _, _ in verify.CONSERVATION_CASES[r.family[:2]]]
                    kept, dropped = a_family[r.family][lams.index(complex(r.params["lam"]))]
                    assert counts == (kept, {"IndeterminacyError": dropped}), (seed, r.name)
                else:
                    expected = tables[r.family] if kind == "tables" else evaluated[kind]
                    assert counts == (expected, {}), (seed, r.name)
                assert r.status == "pass"


def _without_parameter(detail: str) -> str:
    """A stop detail with the repr of the tangency parameter taken out."""
    return re.sub(r"^tangency parameter \S+ ", "", detail)


class TestOrbitPoints:
    """The iterates that the translation and Abel checks read come from the
    offset kernel, listed as ``orbit`` lists them."""

    @staticmethod
    def start(kind):
        if kind == "completed":
            return B1, lift_fiber(B1, 2.0, 2.7, "+"), 50
        if kind == "singular":  # the lifted start of CI's a1(2) orbit
            a1 = BilliardFamily("a1", 2)
            return a1, lift_fiber(a1, 1.0, 1.7, "+"), 300
        # u = -1/f(z0) makes 1 + f u = 0 in floats: the first step goes to E
        z0 = 0.4 + 0j
        u = -1.0 / B1.spec.coefficient()(z0)
        return B1, PhasePoint(ProjectivePoint.affine(z0 + u, z0 * z0 + 2 * z0 * u), conic_point(z0)), 3

    @pytest.mark.parametrize(
        "kind,reason,taken",
        [("completed", "completed", 50), ("singular", "hit-singularity", 265), ("to E", "hit-singularity", 1)],
    )
    def test_the_iterates_of_orbit(self, kind, reason, taken):
        fam, x0, n = self.start(kind)
        points, got_reason, detail, got_taken = verify._orbit_points(fam, x0, n)
        rec = orbit(fam, x0, n)
        assert (got_reason, got_taken) == (rec.reason, rec.steps_taken) == (reason, taken)
        assert len(points) == len(rec.points) == taken + 1
        for got, want in zip(points, rec.points):
            assert got.q.eq(want.q) and got.p.eq(want.p)
        if kind == "singular":
            # the detail names the last tangency parameter, which each path
            # computes in its own arithmetic: 1015581750891.0969j on the
            # kernel against (-0+1015581750887.5077j) on orbit
            assert _without_parameter(detail) == _without_parameter(rec.detail)
        else:
            assert detail == rec.detail
        if kind == "to E":
            z0 = points[-2].p.z_sphere().value
            assert points[-1].p is E_INFINITY
            assert points[-1].q.eq(ProjectivePoint(1.0, 2.0 * z0, 0.0))  # the line's infinite point

    @pytest.mark.parametrize("tag,n,lam,tau", TRANSLATION_CASES)
    def test_translation_cases_hold_to_1e_12(self, tag, n, lam, tau):
        report = check_translation(BilliardFamily(tag, n), lam, 50, 42, start=tau)
        assert report.status == "pass" and report.worst <= 1e-12, report.worst

    @pytest.mark.parametrize("tag,n,lam,tau", TRANSLATION_CASES)
    def test_a_bent_residue_fails_translation(self, tag, n, lam, tau, bend):
        # the fiber parameter steps by 2 - rho for whatever rho the map
        # uses, so the step is checked against the integral's, not the map's
        bend(tag, Fraction(1001, 1000))
        report = check_translation(BilliardFamily(tag, n), lam, 50, 42, start=tau)
        assert report.status == "fail" and report.worst > 1e-4, report.worst
