import csv
import io
import json
import math

import pytest

from dualbill.cli import RecordWriter, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_jsonl(text):
    return [json.loads(line) for line in text.strip().splitlines() if line]


class TestOrbit:
    def test_a1_csv_example(self, capsys, tmp_path):
        code, out = run_cli(
            [
                "orbit", "--family", "a1", "--n", "1", "--lambda", "1",
                "--start-tau", "1", "--steps", "5", "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        taus = [float(r["parameter_re"]) for r in rows]
        diffs = [b - a for a, b in zip(taus, taus[1:])]
        assert all(abs(abs(d) - 2.0 / 3.0) < 1e-9 for d in diffs)

    def test_integral_constant_json(self, capsys):
        code, out = run_cli(
            ["orbit", "--family", "d", "--lambda", "1", "--steps", "100"], capsys
        )
        assert code == 0
        records = parse_jsonl(out)
        assert len(records) == 101
        for rec in records:
            v = rec["integral"]
            if v is None or v == "inf":
                continue
            assert abs(complex(v["re"], v["im"]) - 1.0) <= 1e-8

    def test_zero_steps_single_row(self, capsys):
        code, out = run_cli(
            ["orbit", "--family", "b1", "--lambda", "2", "--steps", "0"], capsys
        )
        assert code == 0
        assert len(parse_jsonl(out)) == 1

    def test_singular_start_exit3(self, capsys):
        code, _ = run_cli(
            [
                "orbit", "--family", "b1", "--lambda", "2",
                "--start-tau", "2", "--steps", "5",
            ],
            capsys,
        )
        assert code == 3  # t0 = lam/(lam-1) starts at the base point (0, 0)

    def test_missing_lambda_exit2(self, capsys):
        code, _ = run_cli(["orbit", "--family", "b1", "--steps", "5"], capsys)
        assert code == 2

    ORBIT_COLUMNS = [
        "index", "q_z_re", "q_z_im", "q_w_re", "q_w_im", "p_z_re", "p_z_im",
        "integral_re", "integral_im", "parameter_re", "parameter_im",
    ]

    @pytest.mark.parametrize("tag, n", [("a1", 2), ("a1", 3), ("a2", 2), ("a2", 3)])
    def test_csv_columns_stay_fixed_at_base_points(self, tag, n, capsys):
        # these orbits pass through base points, where the integral has no value
        code, out = run_cli(
            ["orbit", "--family", tag, "--n", str(n), "--lambda", "3",
             "--steps", "60", "--format", "csv"],
            capsys,
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == self.ORBIT_COLUMNS
        assert rows and all(len(r) == len(header) for r in rows)
        blank = [r for r in rows if r[7] == r[8] == ""]
        assert blank and all(r[1] != "" for r in blank)

    def test_c_family_csv_has_the_same_columns(self, capsys):
        code, out = run_cli(
            ["orbit", "--family", "c1", "--lambda", "1", "--steps", "3", "--format", "csv"],
            capsys,
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == self.ORBIT_COLUMNS
        assert all(r[9] == r[10] == "" for r in rows)

    def test_csv_json_payload_identity(self, capsys):
        _, out_json = run_cli(
            ["orbit", "--family", "b1", "--lambda", "2", "--steps", "10",
             "--start-tau", "2.7"],
            capsys,
        )
        _, out_csv = run_cli(
            ["orbit", "--family", "b1", "--lambda", "2", "--steps", "10",
             "--start-tau", "2.7", "--format", "csv"],
            capsys,
        )
        jrecs = parse_jsonl(out_json)
        crecs = list(csv.DictReader(io.StringIO(out_csv)))
        assert len(jrecs) == len(crecs)
        for jr, cr in zip(jrecs, crecs):
            for key in ("q_z", "q_w", "p_z"):
                jv = jr[key]
                assert complex(float(cr[f"{key}_re"]), float(cr[f"{key}_im"])) == complex(
                    jv["re"], jv["im"]
                )


class TestCheck:
    def test_single_named_check(self, capsys):
        code, out = run_cli(
            ["check", "translation", "--family", "a2", "--n", "3", "--lambda", "2"],
            capsys,
        )
        assert code == 0
        rec = parse_jsonl(out)[0]
        assert rec["status"] == "pass"

    def test_prefix_filter(self, capsys):
        code, out = run_cli(["check", "tables:b1", "--all"], capsys)
        assert code == 0
        recs = parse_jsonl(out)
        assert len(recs) == 1
        assert recs[0]["name"] == "tables:b1"

    def test_unknown_check_exit2(self, capsys):
        code, _ = run_cli(["check", "nonsense", "--family", "b1"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "named,suite_name",
        [
            (["translation", "--family", "a1", "--n", "2"], "translation:a1(2):lam=3.0"),
            (["tables", "--family", "b1"], "tables:b1"),
            (["abel", "--family", "d"], "abel:d:lam=1.0"),
        ],
    )
    def test_named_check_is_the_suite_line(self, named, suite_name, capsys):
        # without --lambda a named check runs the suite's frozen case
        code, out = run_cli(["check", *named, "--seed", "5"], capsys)
        assert code == 0
        code, suite_out = run_cli(["check", suite_name, "--all", "--seed", "5"], capsys)
        assert code == 0
        assert json.loads(suite_out)["name"] == suite_name
        assert out == suite_out


class TestCurve:
    def test_branch_points(self, capsys):
        code, out = run_cli(
            ["curve", "--family", "b1", "--lambda", "2", "--branch-points"], capsys
        )
        assert code == 0
        recs = parse_jsonl(out)
        assert len(recs) == 4
        finite = sorted(
            r["parameter"]["re"] for r in recs if r["parameter"] != "inf"
        )
        assert finite == pytest.approx([4 - 2 * math.sqrt(2), 2.0, 4 + 2 * math.sqrt(2)])

    def test_components_at_infinity(self, capsys):
        code, out = run_cli(
            ["curve", "--family", "d", "--lambda", "inf", "--components"], capsys
        )
        assert code == 0
        assert len(parse_jsonl(out)) == 3

    def test_periods(self, capsys):
        code, out = run_cli(
            ["curve", "--family", "b1", "--lambda", "2", "--periods"], capsys
        )
        assert code == 0
        rec = parse_jsonl(out)[0]
        assert rec["lattice_closure_residual"] <= 1e-7
        w1 = complex(rec["period1"]["re"], rec["period1"]["im"])
        w2 = complex(rec["period2"]["re"], rec["period2"]["im"])
        assert abs(w1) > 0 and abs(w2) > 0

    def test_parametrize_c_family_exit2(self, capsys):
        code, _ = run_cli(
            ["curve", "--family", "c1", "--lambda", "2", "--parametrize", "5"], capsys
        )
        assert code == 2

    def test_parametrize_points_on_curve(self, capsys):
        code, out = run_cli(
            ["curve", "--family", "b1", "--lambda", "2", "--parametrize", "5"], capsys
        )
        assert code == 0
        assert len(parse_jsonl(out)) == 5


class TestFamilies:
    def test_lists_seven(self, capsys):
        code, out = run_cli(["families"], capsys)
        assert code == 0
        recs = parse_jsonl(out)
        assert [r["family"] for r in recs] == ["a1", "a2", "b1", "b2", "c1", "c2", "d"]
        b2 = next(r for r in recs if r["family"] == "b2")
        assert len(b2["base_points"]) == 3
        assert "inf" in b2["critical_values"]

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "fams.jsonl"
        code, _ = run_cli(["families", "--output", str(path)], capsys)
        assert code == 0
        assert len(path.read_text().strip().splitlines()) == 7


class TestFormatting:
    def test_seventeen_significant_digits(self, capsys):
        _, out = run_cli(
            ["curve", "--family", "b1", "--lambda", "2", "--periods"], capsys
        )
        rec = parse_jsonl(out)[0]
        # round-trip: parsing the emitted digits reproduces the double
        w1 = rec["period1"]
        assert float(repr(w1["im"])) == w1["im"]

    def test_non_finite_floats_are_json_strings(self):
        def strict(token):
            raise ValueError(f"bare {token} is not JSON")

        stream = io.StringIO()
        RecordWriter("json", stream).write(
            {"worst": math.inf, "low": -math.inf, "bad": math.nan,
             "z": complex(math.inf, math.nan), "ok": 0.5}
        )
        rec = json.loads(stream.getvalue(), parse_constant=strict)
        assert rec == {"worst": "inf", "low": "-inf", "bad": "nan",
                       "z": {"re": "inf", "im": "nan"}, "ok": 0.5}
        stream = io.StringIO()
        RecordWriter("csv", stream).write({"worst": math.inf, "z": complex(math.nan, 1.0)})
        assert stream.getvalue().splitlines()[1] == "inf,nan,1"

    def test_lambda_parsing(self, capsys):
        code, out = run_cli(
            ["curve", "--family", "b1", "--lambda", "0.5,0.5", "--branch-points"],
            capsys,
        )
        assert code == 0
        assert len(parse_jsonl(out)) == 4


class TestSelfTest:
    def test_corrupt_run_exits_one(self, capsys):
        code, out = run_cli(
            ["check", "involution", "--family", "b1", "--corrupt"], capsys
        )
        assert code == 1
        rec = parse_jsonl(out)[0]
        assert rec["status"] == "fail"
        assert rec["witness"] is not None

    def test_check_usage_error_exit2(self, capsys):
        code, _ = run_cli(
            ["check", "conservation", "--family", "c1", "--lambda", "0"], capsys
        )
        assert code == 2


class TestCFamilyOrbit:
    def test_sliced_start(self, capsys):
        code, out = run_cli(
            ["orbit", "--family", "c1", "--lambda", "1", "--steps", "5"], capsys
        )
        assert code == 0
        recs = parse_jsonl(out)
        assert len(recs) == 6
        for rec in recs:
            v = rec["integral"]
            if v in (None, "inf"):
                continue
            assert abs(complex(v["re"], v["im"]) - 1.0) <= 1e-7

    @pytest.mark.parametrize("family", ["c1", "c2"])
    def test_no_curve_parameter(self, family, capsys):
        # elliptic level curves have no rational parameter to report
        code, out = run_cli(
            ["orbit", "--family", family, "--lambda", "1", "--steps", "2"], capsys
        )
        assert code == 0
        recs = parse_jsonl(out)
        assert len(recs) == 3
        assert all(rec["parameter"] is None for rec in recs)

    def test_reducible_components_listing(self, capsys):
        code, out = run_cli(
            ["curve", "--family", "b1", "--lambda", "1", "--components"], capsys
        )
        assert code == 0
        recs = parse_jsonl(out)
        assert {r["name"] for r in recs} == {"line z = 0", "cubic"}


class TestCheckFamilyRequired:
    def test_named_check_without_family(self, capsys):
        code, _ = run_cli(["check", "conservation"], capsys)
        assert code == 2

    def test_c_family_parametrized_start_is_usage_error(self, capsys):
        code, _ = run_cli(
            ["orbit", "--family", "c1", "--lambda", "1", "--start-tau", "1"], capsys
        )
        assert code == 2


class TestEarlyTermination:
    # this a1 orbit on the minus component walks into the vertex tangency
    # after two steps and stops with hit-singularity
    ARGS = [
        "orbit", "--family", "a1", "--n", "1", "--lambda", "1",
        "--start-tau", "2.3333333333333335", "--branch", "-", "--steps", "10",
    ]

    def test_csv_keeps_single_schema(self, capsys):
        code, out = run_cli(self.ARGS + ["--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert 0 < len(rows) < 11
        assert all(None not in row.values() for row in rows)

    def test_json_reports_termination(self, capsys):
        code, out = run_cli(self.ARGS, capsys)
        assert code == 0
        recs = parse_jsonl(out)
        assert recs[-1]["index"] == "termination"
        assert recs[-1]["reason"] == "hit-singularity"


class TestEnvSeed:
    def test_dualbill_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DUALBILL_SEED", "7")
        _, out_env = run_cli(["check", "involution", "--family", "b1"], capsys)
        monkeypatch.delenv("DUALBILL_SEED")
        _, out_flag = run_cli(
            ["check", "involution", "--family", "b1", "--seed", "7"], capsys
        )
        assert out_env == out_flag
        _, out_default = run_cli(["check", "involution", "--family", "b1"], capsys)
        assert out_default != out_env  # default seed is 42


class TestBadInput:
    """Bad input exits 2 with one line on stderr and no traceback."""

    @staticmethod
    def usage_error(args, capsys):
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2, err
        assert len(err.strip().splitlines()) == 1, err
        assert "Traceback" not in err
        return err

    def test_nan_lambda(self, capsys):
        err = self.usage_error(["orbit", "--family", "b1", "--lambda", "nan"], capsys)
        assert "lambda" in err and "critical" not in err

    def test_unwritable_output(self, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "out.jsonl"
        err = self.usage_error(
            ["orbit", "--family", "b1", "--lambda", "2", "--output", str(path)], capsys
        )
        assert "cannot write" in err

    @pytest.mark.parametrize(
        "kind,family", [("conservation", "b1"), ("translation", "a1"), ("abel", "b1")]
    )
    def test_check_needs_a_finite_lambda(self, kind, family, capsys):
        err = self.usage_error(["check", kind, "--family", family, "--lambda", "inf"], capsys)
        assert "lambda" in err

    def test_negative_steps(self, capsys):
        self.usage_error(
            ["orbit", "--family", "b1", "--lambda", "2", "--steps", "-3"], capsys
        )

    def test_negative_parametrize(self, capsys):
        self.usage_error(
            ["curve", "--family", "b1", "--lambda", "2", "--parametrize", "-3"], capsys
        )

    def test_zero_tolerance(self, capsys):
        self.usage_error(
            ["orbit", "--family", "b1", "--lambda", "2", "--abs-eps", "0"], capsys
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "involution", "--family", "b1", "--n", "2"],
            ["orbit", "--family", "b1", "--n", "3", "--lambda", "2"],
            ["curve", "--family", "d", "--n", "2", "--lambda", "1", "--branch-points"],
        ],
        ids=["check", "orbit", "curve"],
    )
    def test_n_for_a_family_without_one(self, args, capsys):
        err = self.usage_error(args, capsys)
        assert "takes no N" in err

    @pytest.mark.parametrize("kind", ["involution", "area", "jacobian", "tables", "equivalences"])
    def test_lambda_for_a_check_without_a_level(self, kind, capsys):
        err = self.usage_error(["check", kind, "--family", "b1", "--lambda", "2"], capsys)
        assert "no level" in err

    @pytest.mark.parametrize(
        "args,option",
        [
            (["check", "--all", "--family", "b1", "--lambda", "2", "--n", "3"], "--family"),
            (["check", "--family", "b1"], "--family"),
            (["check", "--all", "--n", "2"], "--n"),
            (["check", "--lambda", "2"], "--lambda"),
            (["check", "tables", "--all", "--corrupt"], "--corrupt"),
        ],
        ids=["all-family-lambda-n", "family", "n", "lambda", "corrupt"],
    )
    def test_full_suite_takes_no_options(self, args, option, capsys):
        err = self.usage_error(args, capsys)
        assert "full suite" in err and option in err

    @pytest.mark.parametrize("args", [["check", "foo", "--all"], ["check", "tables", "fo", "--all"]])
    def test_suite_name_that_selects_nothing(self, args, capsys):
        err = self.usage_error(args, capsys)
        assert "no check of the suite is named" in err

    @pytest.mark.parametrize(
        "args",
        [["check", "tables", "--family", "b1"], ["orbit", "--family", "c1", "--lambda", "1"]],
        ids=["check", "orbit"],
    )
    def test_seed_variable_that_is_not_an_integer(self, args, capsys, monkeypatch):
        monkeypatch.setenv("DUALBILL_SEED", "abc")
        err = self.usage_error(args, capsys)
        assert err.startswith("DUALBILL_SEED must be an integer")

    def test_zero_n(self, capsys):
        self.usage_error(["orbit", "--family", "a1", "--n", "0", "--lambda", "1"], capsys)

    def test_start_that_overflows(self, capsys):
        err = self.usage_error(["orbit", "--family", "a1", "--n", "1000", "--lambda", "1"], capsys)
        assert "cannot build the start point" in err

    @pytest.mark.parametrize("family", ["b1", "b2", "d"])
    def test_start_parameter_that_overflows(self, family, capsys):
        err = self.usage_error(
            ["orbit", "--family", family, "--lambda", "2", "--start-tau", "1e300"], capsys
        )
        assert err.startswith("cannot build the start point")

    @pytest.mark.parametrize(
        "family,lam", [("c1", "0"), ("c1", "0.421875"), ("c2", "0"), ("c2", "-0.140625")]
    )
    def test_c_family_orbit_at_a_critical_level(self, family, lam, capsys):
        err = self.usage_error(["orbit", "--family", family, f"--lambda={lam}"], capsys)
        assert err.startswith("cannot build the start point") and "critical value" in err

    @pytest.mark.parametrize("family,lam", [("b1", "1.000001"), ("d", "-0.2812")])
    def test_periods_that_do_not_converge(self, family, lam, capsys):
        err = self.usage_error(
            ["curve", "--family", family, f"--lambda={lam}", "--periods"], capsys
        )
        assert "cannot compute the periods" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "involution", "--family", "b1"],
            ["curve", "--family", "b1", "--lambda", "2", "--branch-points"],
            ["families"],
            ["orbit", "--family", "b1", "--lambda", "2"],
        ],
    )
    def test_no_subcommand_takes_tolerance_flags(self, args, capsys):
        self.usage_error(args + ["--abs-eps", "1e-10"], capsys)
