"""dualbill benchmark: one command that times a workload, checks every output
it times and prints the metrics by name with their units.

    python3 perfbench/run.py --workload check-suite --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``check-suite``: ``dualbill check --all`` through ``cli.main``;
* ``orbits``: long orbits on seeded levels of all eleven family instances,
  with the first integral checked on every iterate;
* ``elliptic``: elliptic model, lattice closure, lift, short orbit and Abel
  steps on seeded levels of b1, b2 and d.

The library is built from ``src/`` of the checkout this file sits in.  One
process and one thread do the work; the BLAS and OpenMP pools are pinned to
one thread.  A run repeats passes over the same inputs for ``--seconds``
(at least two passes, so that every pass can be compared with the first).

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s``: import, input building and cache warm-up in a fresh
  interpreter, median over SETUP_PROBES interpreters.  Each probe's time is
  scaled by the reference loop timed in the same interpreter right after,
  to the seconds it takes when that loop takes REF_NOMINAL_S (see
  ``speed.py``: a shared machine's speed drifts by tens of percent within
  minutes, and the scaling cancels the drift);
* ``work_per_ref_loop``: work done by the operations that passed (checks,
  phase-map steps or elliptic cases) over their time in reference loops,
  the loop being timed between the operations of each pass; median over
  passes.  A failed operation adds neither work nor time: failures are
  gated by their count, and an elliptic case that fails costs about three
  that pass, so counting its time would make the metric follow the
  failure count of the seed;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` one untraced pass is followed by two passes with a span
around every public function of each layer, and the last line reports the
per-layer metrics; the spans are written to ``.perfbench_out/``.  The line
before the last carries the machine, the unscaled times, the workload's own
named metric (``check_suite_s``, ``orbit_steps_per_s`` or
``elliptic_cases_per_s``), per-operation tail latency, the failed operations
by class and, when traced, the tracing overhead.

The run is correct when no output differs between passes, the CLI's exit
code matches its report, and the share of failed operations stays within
the workload's allowance.  Otherwise the result says ``"correct": false``
and the exit code is 1; exit code 2 means the benchmark could not run.
``attempted`` and ``failed`` count the operations of one pass, so they
depend on the seed alone, not on how many passes fit in the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("check-suite", "orbits", "elliptic")
SETUP_PROBES = 11
#: reference loops a set-up probe times, after its set-up
PROBE_REF_LOOPS = 4
#: the reference loop's time to which set-up times are scaled
REF_NOMINAL_S = 0.04
MIN_PASSES = 2
PINNED_POOLS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: the workload's own headline metric, derived from the median pass
NAMED_METRIC = {
    "check-suite": ("check_suite_s", "s"),
    "orbits": ("orbit_steps_per_s", "1/s"),
    "elliptic": ("elliptic_cases_per_s", "1/s"),
}


def setup(workload: str, seed: int, workdir: Path):
    """Import dualbill, build the workload's inputs and warm the caches.

    Returns the seconds it took, the workloads module and the inputs.
    """
    t0 = perf_counter()
    import workloads

    inputs = workloads.WORKLOADS[workload].build(seed, workdir)
    workloads.warm_caches()
    return perf_counter() - t0, workloads, inputs


def setup_probes(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, reference loop seconds) of fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        probes.append((probe["setup_s"], probe["ref_loop_s"]))
    return probes


def timed_passes(run, inputs, seconds: float, recorder=None, min_passes: int = MIN_PASSES):
    """Repeat passes while another one fits in ``seconds``.

    Returns the (timing, result) of each pass.
    """
    passes = []
    start = perf_counter()
    while True:
        meter = speed.Meter(recorder)
        t0 = perf_counter()
        res = run(inputs, meter)
        passes.append((meter.finish(perf_counter() - t0), res))
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def tail(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples) if samples else None}
    if len(samples) >= 20:
        pct = int(100 * (1 - 10 / len(samples)))
        out[f"p{pct}"] = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return out


def machine() -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for f in sorted((SRC / "dualbill").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def judge(wl, results, problems: list[str]) -> tuple[int, int, Counter]:
    """Count the operations of one pass and their failures; note inconsistencies.

    Every pass repeats the same operations on the same inputs, and a later
    pass must reproduce the first one's outputs and failures, so the counts
    are those of the first pass: they follow from the seed alone, not from
    how many passes fit in the run's time.
    """
    first = results[0][1]
    attempted = len(first.outcomes)
    failures: Counter = Counter(o.failure for o in first.outcomes if o.failure is not None)
    first_failures = [o.failure for o in first.outcomes]
    for k, (_, res) in enumerate(results):
        problems.extend(res.problems)
        same_failures = [o.failure for o in res.outcomes] == first_failures
        if res.fingerprint != first.fingerprint or not same_failures:
            problems.append(f"pass {k + 1} output differs from pass 1")
    failed = sum(failures.values())
    if attempted == 0:
        problems.append("no operation ran")
    elif failed / attempted > wl.failure_allowance:
        problems.append(
            f"{failed} of {attempted} operations failed, over the allowance "
            f"{wl.failure_allowance}"
        )
    return attempted, failed, failures


def traced_run(wl, inputs, args, problems: list[str]):
    """One untraced pass, then MIN_PASSES traced ones (spans of more passes
    would only cost memory); returns the passes, the per-layer metrics and
    what the summary line adds."""
    import tracing

    untraced = timed_passes(wl.run, inputs, 0.0, min_passes=1)
    recorder = tracing.SpanRecorder()
    marks = [0]

    def run_marked(inp, meter):
        res = wl.run(inp, meter)
        marks.append(len(recorder.spans))
        return res

    patched = recorder.install()
    try:
        traced = timed_passes(run_marked, inputs, 0.0, recorder)
    finally:
        recorder.uninstall(patched)
    spans = recorder.spans
    counts = [tracing.pass_counts(spans[a:b]) for a, b in zip(marks, marks[1:])]
    if any(c != counts[0] for c in counts):
        problems.append("exact counts differ between traced passes")
    metrics = tracing.layer_metrics(spans, len(traced))
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracing.write_spans(span_file, spans)
    base = untraced[0][0]
    extra = {
        "untraced_pass_s": base.seconds,
        "traced_pass_s": [t.seconds for t, _ in traced],
        # the traced passes' time in reference loops over the untraced one's
        "trace_overhead_ratio": statistics.median(t.units for t, _ in traced) / base.units - 1,
        "spans": len(spans),
        "span_file": str(span_file.relative_to(ROOT)),
    }
    return untraced + traced, metrics, extra


def passed_units(timing, res, problems: list[str]) -> float:
    """The pass's time in reference loops, less that of failed operations."""
    failed = [k for k, o in enumerate(res.outcomes) if o.failure is not None]
    if failed and len(timing.op_units) != len(res.outcomes):
        problems.append("operations timed do not match the outcomes")
        return timing.units
    return timing.units - sum(timing.op_units[k] for k in failed)


def untraced_run(wl, inputs, args, problems: list[str]):
    """Timed passes; returns the passes, the end-to-end metrics and what the
    summary line adds."""
    passes = timed_passes(wl.run, inputs, args.seconds)
    probes = setup_probes(args.workload, args.seed)
    work = [sum(o.work for o in res.outcomes) for _, res in passes]
    pass_s = [t.seconds for t, _ in passes]
    work_per_s = statistics.median(w / s for w, s in zip(work, pass_s))
    metrics = {
        "setup_s": (statistics.median(s / r for s, r in probes) * REF_NOMINAL_S, "s"),
        "work_per_ref_loop": (
            statistics.median(w / passed_units(t, res, problems)
                              for w, (t, res) in zip(work, passes)),
            "1/ref_loop",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    name, unit = NAMED_METRIC[args.workload]
    named = statistics.median(pass_s) if unit == "s" else work_per_s
    refs = [r for t, _ in passes for r in t.ref_seconds]
    extra = {
        name: {"value": named, "unit": unit},
        "work_unit": wl.work_unit,
        "work_per_s": work_per_s,
        "pass_s": tail(pass_s) | {"samples": pass_s},
        "op_s": tail([s for t, _ in passes for s in t.op_seconds]),
        "ref_loop_s": tail(refs),
        "setup_probes": [{"setup_s": s, "ref_loop_s": r} for s, r in probes],
    }
    return passes, metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in PINNED_POOLS:
        os.environ[var] = "1"
    if not (SRC / "dualbill" / "__init__.py").is_file():
        print(f"no dualbill sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setup_s, workloads, inputs = setup(args.workload, args.seed, Path(workdir))
        origin = Path(sys.modules["dualbill"].__file__).resolve()
        if SRC.resolve() not in origin.parents:
            print(f"dualbill was imported from {origin}, not from {SRC}", file=sys.stderr)
            return 2
        if args.setup_probe:
            refs = [speed.reference_loop() for _ in range(PROBE_REF_LOOPS)]
            print(json.dumps({"setup_s": setup_s, "ref_loop_s": statistics.median(refs)}))
            return 0
        wl = workloads.WORKLOADS[args.workload]
        problems: list[str] = []
        if args.trace:
            passes, metrics, extra = traced_run(wl, inputs, args, problems)
        else:
            passes, metrics, extra = untraced_run(wl, inputs, args, problems)
    attempted, failed, failures = judge(wl, passes, problems)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "machine": machine(), "setup_s_this_process": setup_s, **extra,
               "passes": len(passes), "attempted": attempted, "failed": failed,
               "ops_failed_ratio": failed / attempted if attempted else None,
               "failures": dict(failures), "problems": problems}
    correct = not problems
    print(json.dumps(summary))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
