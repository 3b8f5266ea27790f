"""Self-tests of the benchmark: seeded inputs, self-time and reference-loop
arithmetic, span nesting, and failures that must be counted.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_inputs_are_deterministic_per_seed():
    assert workloads.build_orbits(5) == workloads.build_orbits(5)
    assert workloads.build_orbits(5) != workloads.build_orbits(6)
    assert workloads.build_elliptic(5) == workloads.build_elliptic(5)
    assert workloads.build_elliptic(5) != workloads.build_elliptic(6)
    cases = workloads.build_orbits(5)
    assert len(cases) == workloads.ORBITS_PER_INSTANCE * len(workloads.FAMILY_INSTANCES)


def test_suite_checks_are_the_default_suite():
    from dualbill import verify

    names = tuple(name for name, _ in verify.default_suite(7).entries)
    assert names == workloads.SUITE_CHECKS and len(names) == 62


def test_meter_counts_operation_time_in_reference_loops(monkeypatch):
    loops = iter([2.0, 4.0, 6.0])
    monkeypatch.setattr(speed, "reference_loop", lambda: next(loops))
    clock = iter([0.0, 0.2, 1.0, 1.5, 2.0, 2.1])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(clock))
    meter = speed.Meter()
    meter.timed(lambda: meter.timed(lambda: None))  # 0.2 s; the inner op counts once
    meter.timed(lambda: None)  # 0.5 s, then a loop of 4 s closes 0.7 s
    meter.timed(lambda: None)  # 0.1 s, closed by the pass's end
    timing = meter.finish(1.0 + 4.0)  # 0.2 s outside the operations
    assert [round(t, 12) for t in timing.op_seconds] == [0.2, 0.5, 0.1]
    assert abs(timing.seconds - 1.0) < 1e-12
    # 0.7 s over the mean loop (2 + 4) / 2, then 0.3 s over (4 + 6) / 2
    assert abs(timing.units - (0.7 / 3 + 0.3 / 5)) < 1e-12
    expected = [0.2 / 3, 0.5 / 3, 0.1 / 5]
    assert all(abs(a - b) < 1e-12 for a, b in zip(timing.op_units, expected, strict=True))
    assert timing.ref_seconds == [2.0, 4.0, 6.0]


def test_self_time_subtracts_direct_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("leaf", 2.0, 3.0, 1, 1),
        Span("b", 5.0, 9.0, 0, 1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracing.count_under(spans, "leaf", "root") == 1
    assert tracing.count_under(spans, "b", "a") == 0


def test_layer_metrics_on_a_synthetic_tree():
    # two passes, each one orbit of 4 steps with two maps, one in a stencil
    spans = []
    for t in (0.0, 100e-6):
        base = len(spans)
        spans += [
            Span("billiards.orbit", t, t + 40e-6, -1, 1, info=(4, "completed")),
            Span("billiards.billiard_map", t + 1e-6, t + 11e-6, base, 1),
            Span("forms.chart_jacobian", t + 12e-6, t + 30e-6, base, 1),
            Span("billiards.billiard_map", t + 13e-6, t + 23e-6, base + 2, 1),
        ]
    m = tracing.layer_metrics(spans, 2)
    # orbit self time 40 - 10 - 18 = 12 us per pass, over 4 steps per pass
    assert abs(m["billiards.orbit_us_per_step"][0] - 3.0) < 1e-6
    assert m["billiards.orbit_steps"] == (4.0, "count")
    assert m["billiards.billiard_map_calls"] == (2.0, "count")
    assert abs(m["billiards.billiard_map_us"][0] - 10.0) < 1e-6
    assert abs(m["forms.chart_jacobian_us"][0] - 8.0) < 1e-6
    assert m["forms.map_calls_per_chart_jacobian"] == (1.0, "ratio")
    assert m["verify.area_s"] == (0.0, "s")


def test_recorder_wraps_every_binding_and_keeps_nesting():
    from dualbill import billiards, curves, forms, numerics, verify

    case = next(c for c in workloads.build_orbits(3) if c.family.tag == "b1")
    start = workloads.orbit_start(case)
    original = billiards.billiard_map
    recorder = tracing.SpanRecorder()
    patched = recorder.install()
    try:
        assert forms.billiard_map is billiards.billiard_map is verify.billiard_map
        assert billiards.billiard_map is not original
        assert curves.poly_roots is numerics.roots
        billiards.orbit(case.family, start, 3)
    finally:
        recorder.uninstall(patched)
    assert billiards.billiard_map is original and forms.billiard_map is original
    spans = recorder.spans
    names = [s.name for s in spans]
    assert names[0] == "billiards.orbit" and spans[0].info == (3, "completed")
    chain = next(s for s in spans if s.name == "geometry.tangency_points")
    up = []
    p = chain.parent
    while p >= 0:
        up.append(spans[p].name)
        p = spans[p].parent
    assert up == ["billiards.billiard_map", "billiards.orbit"]
    assert names.count("billiards.billiard_map") == 3


def test_shifted_reference_counts_as_failed_operation():
    case = next(
        c for c in workloads.build_orbits(11)
        if c.family.tag == "d" and workloads.check_orbit(c).failure is None
    )
    bad = workloads.check_orbit(case, lam_ref=case.lam * (1 + 1e-3))
    assert bad.failure == "conservation"
    assert workloads.check_orbit(case, lam_ref=complex("nan")).failure == "conservation"
    res = workloads.PassResult([workloads.check_orbit(case), bad], None)
    problems = []
    attempted, failed, failures = run.judge(workloads.WORKLOADS["orbits"], [(1.0, res)], problems)
    assert (attempted, failed, dict(failures)) == (2, 1, {"conservation": 1})
    assert problems  # one of two failed is over the allowance


def test_failed_elliptic_case_counts_no_work():
    from dualbill import curves

    fam = workloads.ELLIPTIC_FAMILIES[0]
    critical = next(c.value for c in curves.critical_values(fam) if not c.is_inf)
    out = workloads.check_elliptic(workloads.EllipticCase(fam, critical, 1.5 + 0j, "+"))
    assert (out.work, out.failure) == (0, "ValueError")


def test_report_without_a_check_makes_the_run_incorrect(monkeypatch, tmp_path):
    def main(argv):
        lines = [f'{{"name":"{n}","status":"pass"}}\n' for n in workloads.SUITE_CHECKS[:-1]]
        Path(argv[argv.index("--output") + 1]).write_text("".join(lines))
        return 0

    monkeypatch.setattr(workloads.cli, "main", main)
    monkeypatch.setattr(speed, "reference_loop", lambda: 1.0)
    inp = workloads.build_check_suite(1, tmp_path)
    res = workloads.run_check_suite(inp, speed.Meter())
    assert res.problems == ["the report does not hold the 62 checks of the suite"]
    assert len(res.outcomes) == 61 and all(o.failure is None for o in res.outcomes)


def test_differing_pass_output_makes_the_run_incorrect():
    ok = workloads.Outcome(10, None, (10, "completed", 11, 0.0))
    first = workloads.PassResult([ok], (1,))
    second = workloads.PassResult([ok], (2,))
    problems = []
    run.judge(workloads.WORKLOADS["orbits"], [(1.0, first), (1.0, second)], problems)
    assert problems == ["pass 2 output differs from pass 1"]


def test_counts_do_not_follow_the_number_of_passes():
    ok = workloads.Outcome(10, None, (10, "completed", 11, 0.0))
    bad = workloads._failed("conservation", (3, "completed", 4, 1.0))
    res = workloads.PassResult([ok, ok, ok, bad], (1,))
    counts = []
    for n in (1, 2, 3):
        problems = []
        counts.append(run.judge(workloads.WORKLOADS["elliptic"], [(1.0, res)] * n, problems)[:2])
    assert counts == [(4, 1)] * 3


def test_benchmark_json_names_what_the_runs_print():
    import json

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    emitted = tracing.layer_metrics([], 1)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in emitted.items()
    ]


def test_failed_operations_add_no_time():
    ok = workloads.Outcome(5, None, ())
    bad = workloads.Outcome(0, "conservation", ())
    timing = speed.PassTiming(3.0, 10.0, [1.0, 1.0], [4.0, 5.0], [1.0, 1.0])
    problems = []
    assert run.passed_units(timing, workloads.PassResult([ok, bad], None), problems) == 5.0
    assert run.passed_units(timing, workloads.PassResult([ok, ok], None), problems) == 10.0
    assert problems == []
    run.passed_units(timing, workloads.PassResult([bad], None), problems)
    assert problems == ["operations timed do not match the outcomes"]
