import json
import math
from types import SimpleNamespace

import pytest

from dualbill import cli, verify
from dualbill.billiards import BilliardFamily
from dualbill.numerics import SphereValue
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
            ("involution", lambda: verify.check_involution(B1, 5, 1), 5),
            ("area_pullback_residual", lambda: verify.check_area_form(B1, 5, 1), 5),
            ("halfstep_jacobian", lambda: verify.check_jacobian(B1, 5, 1), 5),
            ("eval_integral", lambda: verify.check_conservation(D, 1.0, 5, start=1.3), 6),
            ("eval_integral", lambda: verify.check_equivalences(3), 2000),
        ],
    )
    def test_every_sample_raising_fails(self, monkeypatch, target, run, count):
        monkeypatch.setattr(verify, target, self.boom)
        report = run()
        assert report.status == "fail"
        assert report.witness == {"evaluated": 0, "dropped": {"ZeroDivisionError": count}}


class TestNaNResidual:
    """A NaN residual becomes the worst and fails its check with a witness;
    comparisons with NaN are false, so a plain running maximum misses it."""

    @pytest.mark.parametrize(
        "target,value,run",
        [
            ("involution", SimpleNamespace(z_sphere=lambda: SphereValue(math.nan)),
             lambda: verify.check_involution(B1, 5, 1)),
            ("area_pullback_residual", math.nan, lambda: verify.check_area_form(B1, 5, 1)),
            ("halfstep_jacobian", complex(math.nan, 0.0), lambda: verify.check_jacobian(B1, 5, 1)),
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
