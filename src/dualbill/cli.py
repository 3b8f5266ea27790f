"""Command-line front end: orbits, checks, curve data and period
computations, emitted as JSON lines or RFC-4180 CSV.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage error
(one line on stderr), 3 dynamic singularity at the requested start.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import math
import os
import random
import sys
import time
from contextlib import contextmanager

from .billiards import ALL_FAMILY_TAGS, BilliardFamily, SingularTangencyError, orbit
from .curves import (
    branch_points,
    critical_fiber_components,
    curve_parameter,
    elliptic_model,
    is_regular,
    lattice_closure_residual,
    lift_by_sheet,
    lift_fiber,
    parametrize_level,
    point_on_level,
)
from .integrals import (
    IndeterminacyError,
    critical_values,
    eval_integral,
    indeterminacy_set,
)
from .numerics import INF, SphereValue
from .verify import CheckSuite, check_equivalences, checks_for, default_suite, run_suite

USAGE_ERROR = 2
SINGULAR_ERROR = 3


class UsageError(Exception):
    """Bad input: reported as one line on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


#: a complex value an orbit iterate lacks: null in JSON and two empty
#: columns in CSV, so that every row of an orbit has the same columns
_NO_VALUE = object()


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _json_value(v) -> str:
    if v is None or v is _NO_VALUE:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        # JSON has no inf or nan: spell them as strings, like the point at infinity
        return _fmt_float(v) if math.isfinite(v) else f'"{_fmt_float(v)}"'
    if isinstance(v, complex):
        return '{"re":%s,"im":%s}' % (_json_value(v.real), _json_value(v.imag))
    if isinstance(v, SphereValue):
        return '"inf"' if v.is_inf else _json_value(v.value)
    if isinstance(v, str):
        out = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(v, dict):
        inner = ",".join(f"{_json_value(str(k))}:{_json_value(x)}" for k, x in v.items())
        return "{%s}" % inner
    if isinstance(v, (list, tuple)):
        return "[%s]" % ",".join(_json_value(x) for x in v)
    return _json_value(str(v))


def _flatten_csv(v, key: str, row: dict) -> None:
    if isinstance(v, complex):
        row[f"{key}_re"] = _fmt_float(v.real)
        row[f"{key}_im"] = _fmt_float(v.imag)
    elif isinstance(v, SphereValue):
        if v.is_inf:
            row[f"{key}_re"] = "inf"
            row[f"{key}_im"] = "inf"
        else:
            _flatten_csv(v.value, key, row)
    elif isinstance(v, float):
        row[key] = _fmt_float(v)
    elif isinstance(v, (dict, list, tuple)):
        row[key] = _json_value(v)
    elif v is None:
        row[key] = ""
    elif v is _NO_VALUE:
        row[f"{key}_re"] = row[f"{key}_im"] = ""
    else:
        row[key] = str(v)


class RecordWriter:
    """Streams records as JSON lines or CSV with identical numeric payloads."""

    def __init__(self, fmt: str, stream):
        self.fmt = fmt
        self.stream = stream
        self._csv = None

    def write(self, *records: dict) -> None:
        """Write the records in order.  The first call that writes CSV sets
        its header: the union of its records' flattened fields, in the order
        they are first seen; a row leaves the fields it lacks empty."""
        if self.fmt == "json":
            for record in records:
                inner = ",".join(f"{_json_value(str(k))}:{_json_value(v)}" for k, v in record.items())
                self.stream.write("{%s}\n" % inner)
            return
        rows = []
        for record in records:
            row: dict = {}
            for k, v in record.items():
                _flatten_csv(v, k, row)
            rows.append(row)
        if not rows:
            return
        if self._csv is None:
            fields = dict.fromkeys(k for row in rows for k in row)
            self._csv = csv.DictWriter(self.stream, fieldnames=list(fields), lineterminator="\r\n")
            self._csv.writeheader()
        self._csv.writerows(rows)


def _parse_lambda(text: str) -> SphereValue:
    text = text.strip().lower()
    if text == "inf":
        return INF
    parts = text.split(",")
    try:
        re_part = float(parts[0])
        im_part = float(parts[1]) if len(parts) > 1 else 0.0
        finite = math.isfinite(re_part) and math.isfinite(im_part)
    except ValueError:
        finite = False
    if not finite:
        raise argparse.ArgumentTypeError(
            "lambda must be finite RE, RE,IM, or the token 'inf'"
        )
    return SphereValue(complex(re_part, im_part))


def _finite_lambda(text: str) -> complex:
    lam = _parse_lambda(text)
    if lam.is_inf:
        raise argparse.ArgumentTypeError("checks need a finite lambda: RE or RE,IM")
    return lam.value


def _checked(kind, ok, what: str):
    """Argument type: a ``kind`` number for which ``ok`` holds."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


@contextmanager
def _writer_for(path: str | None, fmt: str):
    """A record writer in ``fmt`` on the file ``path`` (closed on exit), or
    on stdout."""
    if not path:
        yield RecordWriter(fmt, sys.stdout)
        return
    try:
        stream = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc
    with stream:
        yield RecordWriter(fmt, stream)


def _same_file(a: str, b: str) -> bool:
    """Whether the paths a and b name one file: the same file on disk when
    both exist, else the same path once links and dots are resolved."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


_N_TYPE = _checked(int, lambda n: n >= 1, "an integer N >= 1")


def _add_common(sub):
    sub.add_argument("--family", choices=ALL_FAMILY_TAGS, required=True)
    sub.add_argument("--n", type=_N_TYPE, default=None, help="N for the a-families")
    sub.add_argument(
        "--lambda", dest="lam", type=_parse_lambda, default=None,
        help="level value: RE, RE,IM or 'inf'",
    )
    _add_output(sub)


def _add_output(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--output", default=None, help="path (default: stdout)")
    sub.add_argument("--seed", type=int, default=None)


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DUALBILL_SEED")
    if not env:
        return 42
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"DUALBILL_SEED must be an integer, not {env!r}") from None


def _family_of(args) -> BilliardFamily:
    try:
        return BilliardFamily.parse(args.family, args.n)
    except ValueError as exc:  # an N given to a family without one
        raise UsageError(str(exc)) from exc


def cmd_orbit(args) -> int:
    family = _family_of(args)
    if args.lam is None or args.lam.is_inf:
        raise UsageError("orbit needs a finite --lambda")
    lam = args.lam.value
    try:
        if args.start_tau is not None:
            x0 = lift_fiber(family, lam, args.start_tau, args.branch)
        elif family.spec.level_curves == "elliptic":
            q = point_on_level(family, lam, random.Random(_seed_of(args)))
            x0 = lift_by_sheet(q, args.branch)
        else:
            x0 = lift_fiber(family, lam, 1.7 if family.is_a else 2.7, args.branch)
        x0.validate()  # a lift that overflowed has NaN coordinates
    except SingularTangencyError as exc:
        print(f"start point is singular: {exc}", file=sys.stderr)
        return SINGULAR_ERROR
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        raise UsageError(f"cannot build the start point: {exc}") from exc
    with _writer_for(args.output, args.format) as writer:  # before the orbit runs
        rec = orbit(family, x0, args.steps)
        if rec.reason == "hit-singularity" and rec.steps_taken == 0:
            print(f"start point is singular: {rec.detail}", file=sys.stderr)
            return SINGULAR_ERROR
        for k, x in enumerate(rec.points):
            record: dict = {"index": k}
            record["q_z"] = x.q.z_sphere()
            record["q_w"] = (
                SphereValue(x.q.w / x.q.t) if x.q.t != 0 else INF
            )
            record["p_z"] = x.p.z_sphere()
            try:
                record["integral"] = eval_integral(family, x.q)
            except IndeterminacyError:
                record["integral"] = _NO_VALUE
            try:
                record["parameter"] = curve_parameter(family, x)
            except ValueError:
                record["parameter"] = _NO_VALUE
            if args.format == "csv":  # the last row carries the orbit's stop reason
                record["stop"] = rec.reason if k == rec.steps_taken else None
            writer.write(record)
        if rec.reason != "completed":
            if args.format == "json":
                writer.write(
                    {"index": "termination", "reason": rec.reason, "detail": rec.detail}
                )
            else:
                # CSV rows share one schema; report the early stop on stderr
                print(
                    f"orbit stopped early: {rec.reason} ({rec.detail})",
                    file=sys.stderr,
                )
    return 0


def _named_checks(name: str, args, seed: int):
    """The suite entries of one named check kind, as ``checks_for`` gives
    them."""
    if name == "equivalences":
        if args.lam is not None:
            raise ValueError("check 'equivalences' has no level: it takes no lambda")
        return [(name, lambda: check_equivalences(seed, corrupt=args.corrupt))]
    if args.family is None:
        raise ValueError(
            f"check {name!r} needs --family (or use --all for the full suite)"
        )
    family = BilliardFamily.parse(args.family, args.n)
    return checks_for(name, family, seed, args.lam, args.corrupt)


def _timed(suite: CheckSuite, timings: list[dict] | None) -> CheckSuite:
    """The suite whose entries, as they run, add to ``timings`` their
    report's name, wall seconds, evaluated samples (null for a report that
    counts none) and fallbacks, the lanes evaluated again on the scalar or
    exact path; the suite itself when ``timings`` is None.  Each entry
    still looks its check function up when it runs."""
    if timings is None:
        return suite

    def timed(fn):
        def run():
            start = time.perf_counter()
            report = fn()
            seconds = time.perf_counter() - start
            timings.append({
                "name": report.name, "seconds": seconds,
                "evaluated": report.params.get("evaluated"), "fallbacks": report._fallbacks,
            })
            return report
        return run

    return CheckSuite(suite.seed, [(name, timed(fn)) for name, fn in suite.entries])


def cmd_check(args) -> int:
    seed = _seed_of(args)
    named = bool(args.names) and not args.all
    if not named:
        options = {"--family": args.family, "--n": args.n, "--lambda": args.lam,
                   "--corrupt": args.corrupt or None}
        given = [opt for opt, v in options.items() if v is not None]
        if given:
            raise UsageError(
                f"the full suite (--all, or no check named) takes no {', '.join(given)}"
            )
        suite = default_suite(seed)
        for name in args.names:
            if not any(entry.startswith(name) for entry, _ in suite.entries):
                raise UsageError(f"no check of the suite is named {name!r}")
    else:
        try:
            entries = [entry for name in args.names for entry in _named_checks(name, args, seed)]
        except (ValueError, RuntimeError, AttributeError, TypeError) as exc:
            raise UsageError(str(exc)) from exc
        if all(name == "equivalences" for name in args.names):
            given = [opt for opt, v in (("--family", args.family), ("--n", args.n)) if v is not None]
            if given:
                raise UsageError(
                    f"check 'equivalences' runs on no family: it takes no {', '.join(given)}"
                )
        suite = CheckSuite(seed, entries)
    if args.output and args.timings and _same_file(args.output, args.timings):
        raise UsageError(f"--output and --timings name one file: {args.timings}")
    timings = [] if args.timings else None
    # both files are opened before any check runs, so an unwritable one
    # fails fast; without --timings the second writer writes nothing
    with _writer_for(args.output, args.format) as writer, \
            _writer_for(args.timings, "json") as timings_writer:
        try:
            reports = run_suite(_timed(suite, timings), None if named else args.names or None)
        except (ValueError, RuntimeError, AttributeError, TypeError) as exc:
            if not named:
                raise
            # a named check validates its level when it runs
            raise UsageError(str(exc)) from exc
        for r in reports:
            writer.write(r.to_dict())
        for t in timings or ():
            timings_writer.write(t)
    return 0 if all(r.status == "pass" for r in reports) else 1


def cmd_curve(args) -> int:
    family = _family_of(args)
    if args.lam is None:
        raise UsageError("curve needs --lambda")
    lam = args.lam
    # the output opens before any work, and every requested section is built
    # before a row is written, so a section that cannot be built leaves no rows
    with _writer_for(args.output, args.format) as writer:
        records: list[dict] = []
        if args.branch_points:
            try:
                pts = branch_points(family, lam.value if not lam.is_inf else lam)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            records += [{"kind": "branch-point", "index": k, "parameter": b} for k, b in enumerate(pts)]
        if args.components:
            try:
                comps = critical_fiber_components(family, lam)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            records += [
                {"kind": "component", "index": k, "name": c.name, "degree": c.degree,
                 "multiplicity": c.multiplicity, "parametrized": c.parametrize is not None}
                for k, c in enumerate(comps)
            ]
        if args.periods:
            if not family.spec.elliptic_fiber or lam.is_inf or not is_regular(family, lam):
                raise UsageError("periods need a b/d family at a regular value")
            try:
                model = elliptic_model(family, lam.value)
                closure = lattice_closure_residual(model)
            except (ValueError, RuntimeError) as exc:
                raise UsageError(f"cannot compute the periods: {exc}") from exc
            w1, w2 = model.periods
            records.append(
                {"kind": "periods", "period1": w1, "period2": w2, "lattice_closure_residual": closure}
            )
        if args.parametrize:
            if family.spec.level_curves == "elliptic":
                raise UsageError(
                    "c-family level curves are elliptic: no rational parametrization"
                )
            if lam.is_inf or not is_regular(family, lam):
                raise UsageError("--parametrize needs a regular value")
            rng = random.Random(_seed_of(args))
            for k in range(args.parametrize):
                t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                pt = parametrize_level(family, lam.value, t)
                w = SphereValue(pt.w / pt.t) if pt.t != 0 else INF
                records.append({"kind": "point", "index": k, "t": t, "z": pt.z_sphere(), "w": w})
        writer.write(*records)
    return 0


def cmd_families(args) -> int:
    with _writer_for(args.output, args.format) as writer:
        for tag in ALL_FAMILY_TAGS:
            fam = BilliardFamily.parse(tag)
            record = {
                "family": tag,
                "takes_n": fam.spec.takes_n,
                "base_points": [
                    {"z": p.coords[0], "w": p.coords[1], "t": p.coords[2]}
                    for p in indeterminacy_set(fam)
                ],
                "critical_values": list(critical_values(fam)),
            }
            writer.write(record)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dualbill",
        description="Rationally integrable dual billiards on the parabola: "
        "orbits, invariants, curve data and property checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbit = sub.add_parser("orbit", help="iterate the billiard map")
    _add_common(p_orbit)
    p_orbit.add_argument(
        "--steps", type=_checked(int, lambda n: n >= 0, "a step count >= 0"), default=100
    )
    p_orbit.add_argument(
        "--start-tau", "--start-t", dest="start_tau", default=None,
        type=_checked(complex, cmath.isfinite, "a finite complex number"),
        help="start parameter on the level curve",
    )
    p_orbit.add_argument("--branch", choices=("+", "-"), default="+")
    p_orbit.set_defaults(func=cmd_orbit)

    p_check = sub.add_parser("check", help="run property checks")
    p_check.add_argument("names", nargs="*", help="check kinds or name prefixes")
    p_check.add_argument("--all", action="store_true")
    p_check.add_argument("--family", choices=ALL_FAMILY_TAGS, default=None)
    p_check.add_argument("--n", type=_N_TYPE, default=None)
    p_check.add_argument("--lambda", dest="lam", type=_finite_lambda, default=None)
    p_check.add_argument(
        "--corrupt", action="store_true",
        help="harness self-test: run the named checks with corrupted inputs "
        "(they must fail and the exit code must be 1)",
    )
    p_check.add_argument(
        "--timings", default=None, metavar="FILE",
        help="write one JSON line per report to FILE: its name, wall seconds, "
        "evaluated samples and lanes evaluated again on the scalar or exact "
        "path (the report stream is unchanged)",
    )
    _add_output(p_check)
    p_check.set_defaults(func=cmd_check)

    p_curve = sub.add_parser("curve", help="level-curve data")
    _add_common(p_curve)
    p_curve.add_argument("--branch-points", action="store_true")
    p_curve.add_argument("--components", action="store_true")
    p_curve.add_argument("--periods", action="store_true")
    p_curve.add_argument(
        "--parametrize", type=_checked(int, lambda n: n >= 0, "a point count >= 0"),
        default=0, metavar="N",
        help="emit N sampled curve points",
    )
    p_curve.set_defaults(func=cmd_curve)

    p_fam = sub.add_parser("families", help="list the seven families")
    _add_output(p_fam)
    p_fam.set_defaults(func=cmd_families)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
