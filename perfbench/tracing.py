"""Span recording around the public functions of each dualbill layer.

The recorder replaces, in every ``dualbill`` module that binds it, each
function listed in :data:`TRACED` with a wrapper that records one span per
call: name, start, end, parent span and operation id.  A module that imports
a function under its own name (``verify`` and ``forms`` bind ``orbit`` and
``billiard_map``; ``curves`` binds ``numerics.roots`` as ``poly_roots``) gets
the same wrapper, so nesting such as ``orbit -> billiard_map -> involution
-> tangency_points`` stays visible.  Spans stay in memory until the run ends.  The operation id is advanced by
the pass's meter, once per operation of the workload.

Per-layer metrics are derived from the spans: times are self time (span
duration minus the durations of its child spans) per call in microseconds,
counts are per traced pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

#: public functions that get a span, by layer module
TRACED: dict[str, tuple[str, ...]] = {
    "numerics": ("segment_integrate", "plan_route", "roots"),
    "geometry": ("tangency_points", "tangency_near"),
    "billiards": ("involution", "billiard_map", "orbit"),
    "integrals": ("eval_integral",),
    "curves": (
        "elliptic_model",
        "lattice_closure_residual",
        "lift_fiber",
        "curve_parameter",
        "sheet_sqrt",
        "point_on_level",
    ),
    "forms": ("chart_jacobian", "area_pullback_residual", "halfstep_jacobian", "abel_steps"),
    "verify": (
        "run_suite",
        "sample_phase_point",
        "check_involution",
        "check_conservation",
        "check_translation",
        "check_abel_translation",
        "check_area_form",
        "check_jacobian",
        "check_tables",
        "check_equivalences",
    ),
    "cli": ("main",),
}

#: check kinds of the suite, each reported as seconds per pass
CHECK_KINDS = {
    "involution": "check_involution",
    "conservation": "check_conservation",
    "translation": "check_translation",
    "abel": "check_abel_translation",
    "area": "check_area_form",
    "jacobian": "check_jacobian",
    "tables": "check_tables",
    "equivalences": "check_equivalences",
}


def _orbit_info(rec) -> tuple[int, str]:
    return rec.steps_taken, rec.reason


#: results summarised into the span, for counts that need the return value
INFO = {"billiards.orbit": _orbit_info, "forms.abel_steps": len}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    op: int
    error: str | None = None  # exception class the call raised
    info: object = None


class SpanRecorder:
    """Collects spans from the wrapped functions of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def next_op(self) -> None:
        self.op += 1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                raise
            finally:
                stack.pop()
            span.end = perf_counter()
            if info is not None:
                span.info = info(out)
            return out

        return traced

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every traced function in every dualbill module binding it.

        Returns the replaced bindings for :func:`uninstall`.
        """
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "dualbill" or name.startswith("dualbill.")
        ]
        patched = []
        for layer, names in TRACED.items():
            home = importlib.import_module(f"dualbill.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return patched

    @staticmethod
    def uninstall(patched) -> None:
        for mod, attr, original in patched:
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Calls in one thread nest, so the children of a span are disjoint
    intervals inside it and cover the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def count_under(spans: list[Span], name: str, ancestor: str) -> int:
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    n = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != ancestor:
            p = spans[p].parent
        n += p >= 0
    return n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``passes`` identical traced passes.

    Times are self time in microseconds per call, except the ``verify``
    check kinds and ``cli.write_s``, which are inclusive seconds per pass.
    Counts are per pass.  A function the workload never calls reports 0.
    """
    selfs = self_times(spans)
    self_total: Counter[str] = Counter()
    incl_total: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for s, own in zip(spans, selfs):
        self_total[s.name] += own
        incl_total[s.name] += s.end - s.start
        calls[s.name] += 1
    orbit_info = [s.info for s in spans if s.name == "billiards.orbit" and s.info is not None]
    orbit_steps = sum(steps for steps, _ in orbit_info)
    stops = Counter(reason for _, reason in orbit_info)
    abel_steps = sum(s.info for s in spans if s.name == "forms.abel_steps" and s.info is not None)
    indeterminate = sum(
        1 for s in spans if s.name == "integrals.eval_integral" and s.error == "IndeterminacyError"
    )

    def us(name: str) -> tuple[float, str]:
        return _ratio(self_total[name] * 1e6, calls[name]), "us"

    def per_pass(n: float, unit: str = "count") -> tuple[float, str]:
        return n / passes, unit

    m: dict[str, tuple[float, str]] = {
        "billiards.orbit_us_per_step": (_ratio(self_total["billiards.orbit"] * 1e6, orbit_steps), "us"),
        "billiards.orbit_steps": per_pass(orbit_steps),
        "billiards.orbit_stops.hit-singularity": per_pass(stops["hit-singularity"]),
        "billiards.orbit_stops.left-numeric-domain": per_pass(stops["left-numeric-domain"]),
        "billiards.billiard_map_us": us("billiards.billiard_map"),
        "billiards.billiard_map_calls": per_pass(calls["billiards.billiard_map"]),
        "billiards.involution_us": us("billiards.involution"),
        "billiards.involution_calls": per_pass(calls["billiards.involution"]),
        "integrals.eval_integral_us": us("integrals.eval_integral"),
        "integrals.eval_integral_calls": per_pass(calls["integrals.eval_integral"]),
        "integrals.indeterminacy_errors": per_pass(indeterminate),
        "geometry.tangency_points_us": us("geometry.tangency_points"),
        "geometry.tangency_points_calls": per_pass(calls["geometry.tangency_points"]),
        "geometry.tangency_near_us": us("geometry.tangency_near"),
        "forms.chart_jacobian_us": us("forms.chart_jacobian"),
        "forms.map_calls_per_chart_jacobian": (
            _ratio(
                count_under(spans, "billiards.billiard_map", "forms.chart_jacobian"),
                calls["forms.chart_jacobian"],
            ),
            "ratio",
        ),
        "forms.area_pullback_residual_us": us("forms.area_pullback_residual"),
        "forms.halfstep_jacobian_us": us("forms.halfstep_jacobian"),
        "forms.abel_steps_us_per_step": (_ratio(self_total["forms.abel_steps"] * 1e6, abel_steps), "us"),
    }
    for fn in TRACED["curves"]:
        m[f"curves.{fn}_us"] = us(f"curves.{fn}")
    m.update({
        "numerics.segment_integrate_us": us("numerics.segment_integrate"),
        "numerics.segment_integrate_calls_per_abel_step": (
            _ratio(count_under(spans, "numerics.segment_integrate", "forms.abel_steps"), abel_steps),
            "ratio",
        ),
        "numerics.segment_integrate_calls_per_model": (
            _ratio(
                count_under(spans, "numerics.segment_integrate", "curves.elliptic_model"),
                calls["curves.elliptic_model"],
            ),
            "ratio",
        ),
        "numerics.plan_route_us": us("numerics.plan_route"),
        "numerics.roots_us": us("numerics.roots"),
    })
    for kind, fn in CHECK_KINDS.items():
        m[f"verify.{kind}_s"] = per_pass(incl_total[f"verify.{fn}"], "s")
    m["verify.sample_phase_point_us"] = us("verify.sample_phase_point")
    m["cli.write_s"] = per_pass(incl_total["cli.main"] - incl_total["verify.run_suite"], "s")
    return m


def pass_counts(spans: list[Span]) -> Counter:
    """Exact counters of one pass: calls, raised exceptions and orbit stops."""
    c: Counter = Counter()
    for s in spans:
        c[s.name] += 1
        if s.error is not None:
            c[f"{s.name}!{s.error}"] += 1
        if s.info is not None:
            c[f"{s.name}:{s.info!r}"] += 1
    return c


def write_spans(path, spans: list[Span]) -> None:
    """Tab-separated spans, one per line: id, name, start, end, parent, op,
    raised exception class, summary of the result."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("id\tname\tstart\tend\tparent\top\terror\tinfo\n")
        for k, s in enumerate(spans):
            out.write(
                f"{k}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.parent}\t{s.op}\t"
                f"{s.error or ''}\t{'' if s.info is None else s.info}\n"
            )
