import json
import math

import numpy as np
import pytest

from dualbill import cli, verify
from dualbill.billiards import BilliardFamily, _involution_z, f_coefficient, involution
from dualbill.forms import _chart_derivative, halfstep_jacobian
from dualbill.geometry import PhasePoint, ProjectivePoint, conic_point
from dualbill.numerics import INF, SphereValue
from dualbill.verify import (
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
            ("area_pullback_residual", lambda: verify.check_area_form(B1, 5, 1), 5),
            ("_chart_derivative", lambda: verify.check_jacobian(B1, 5, 1), 5),
            ("eval_integral", lambda: verify.check_conservation(D, 1.0, 5, start=1.3), 6),
            ("eval_integral", lambda: verify.check_equivalences(3), 2000),
        ],
    )
    def test_every_sample_raising_fails(self, monkeypatch, target, run, count):
        monkeypatch.setattr(verify, target, self.boom)
        report = run()
        assert report.status == "fail"
        assert report.witness == {"evaluated": 0, "dropped": {"ZeroDivisionError": count}}
        assert {k: report.params[k] for k in ("evaluated", "dropped")} == report.witness


class TestCountsInParams:
    """Every report says how many samples it evaluated and how many it
    dropped, by exception class, passing reports included."""

    def test_passing_report_counts(self):
        report = check_involution(B1, 50, 1)
        assert report.status == "pass"
        assert (report.params["evaluated"], report.params["dropped"]) == (50, {})

    def test_dropped_samples_counted_by_class(self, monkeypatch):
        real = verify.area_pullback_residual
        calls = []

        def flaky(family, x):
            calls.append(x)
            if len(calls) % 3 == 0:
                raise ZeroDivisionError("forced")
            return real(family, x)

        monkeypatch.setattr(verify, "area_pullback_residual", flaky)
        report = verify.check_area_form(B1, 9, 1)
        assert report.status == "pass"
        assert report.params["evaluated"] == 6
        assert report.params["dropped"] == {"ZeroDivisionError": 3}

    def test_fewer_than_half_evaluated_fails(self, monkeypatch):
        real = verify.area_pullback_residual
        calls = []

        def flaky(family, x):
            calls.append(x)
            if len(calls) % 3:
                raise ZeroDivisionError("forced")
            return real(family, x)

        monkeypatch.setattr(verify, "area_pullback_residual", flaky)
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
        "target,value,run",
        [
            ("_involution_z", complex(math.nan, 0.0), lambda: verify.check_involution(B1, 5, 1)),
            ("area_pullback_residual", math.nan, lambda: verify.check_area_form(B1, 5, 1)),
            # a NaN image makes the closed form NaN; the determinant stays 1
            ("_chart_derivative", (complex(math.nan, 0.0), ((1.0, 0.0), (0.0, 1.0))),
             lambda: verify.check_jacobian(B1, 5, 1)),
            ("eval_integral", SphereValue(math.nan),
             lambda: verify.check_conservation(B1, 2.0, 5, 1)),
            ("eval_integral", SphereValue(math.nan), lambda: verify.check_equivalences(1)),
        ],
        ids=["involution", "area", "jacobian", "conservation", "equivalences"],
    )
    def test_nan_residual_fails(self, monkeypatch, target, value, run):
        monkeypatch.setattr(verify, target, lambda *args, **kwargs: value)
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


def _involution_lanes(fam, n=200):
    rng = verify._rng_for(5, f"lanes:{fam.label()}")
    draws = [verify._draw(fam, rng) for _ in range(n)]
    return np.array([z0 for z0, _ in draws]), np.array([z0 + u for z0, u in draws])


def _jacobian_lanes(fam, n=100):
    rng = verify._rng_for(5, f"jacobian lanes:{fam.label()}")
    xs = [verify.sample_phase_point(fam, rng) for _ in range(n)]
    return (
        np.array([x.p.z_sphere().value for x in xs]),
        np.array([x.q.z_sphere().value for x in xs]),
    )


def _pole(fam):
    """(z0, u) with z1 = z0 + u exactly on the pole of the involution at z0:
    the scalar kernel on Python numbers returns INF there.  Rounding decides
    which (z0, u) hit it, so a few real z0 and nearby z1 are tried."""
    for j in range(400):
        z0 = complex(0.5 + j / 97)
        f = f_coefficient(fam, z0)
        if f.is_inf or f.value == 0:
            continue
        pole = z0 - 1 / f.value
        for step in range(-3, 4):
            u = complex(pole.real + step * math.ulp(pole.real), pole.imag) - z0
            if _involution_z(fam, z0, z0 + u) is INF:
                return z0, u
    raise AssertionError(f"no exact pole found for {fam.label()}")


class TestLanes:
    """The involution and jacobian residuals on numpy lanes: a lane's value
    does not depend on the size or order of its batch, agrees with the
    scalar kernel on Python numbers, and a lane on the involution's pole
    gets the verdict of the scalar path."""

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
        cols = _jacobian_lanes(fam)
        self.assert_order_free(lambda z0, z: verify._jacobian_residual(fam, z0, z)[0], cols)

    @pytest.mark.parametrize("fam", INSTANCES, ids=BilliardFamily.label)
    def test_involution_lanes_match_python_numbers(self, fam):
        z0, z1 = _involution_lanes(fam)
        lanes = _involution_z(fam, z0, z1)
        for k in range(len(z0)):
            scalar = _involution_z(fam, complex(z0[k]), complex(z1[k]))
            assert abs(lanes[k] - scalar) <= 1e-13 * abs(scalar)

    @pytest.mark.parametrize("fam", INSTANCES, ids=BilliardFamily.label)
    def test_jacobian_lanes_match_python_numbers(self, fam):
        z0, z = _jacobian_lanes(fam)
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

        real = verify._draw
        calls = []

        def draw(family, rng):
            calls.append(None)
            pair = real(family, rng)
            return (z0, u) if len(calls) == 4 else pair

        monkeypatch.setattr(verify, "_draw", draw)
        report = verify.check_involution(fam, 10, 1)
        assert report.params["evaluated"] == 10
        assert (report.status == "pass") == (scalar <= 1e-9)

        # the jacobian residual drops a pole lane under the scalar path's class
        with pytest.raises(ValueError):
            halfstep_jacobian(fam, PhasePoint(q, p))
        report = verify._laned(
            "jacobian", fam, 1, 1e-6, lambda a, b: verify._jacobian_residual(fam, a, b),
            ([z0, 0.5 + 0.5j], [z1, 0.5 + 0.5j + 0.3]), lambda k: {},
        )
        assert report.params["dropped"] == {"ValueError": 1}
