"""Command-line front end: orbits, checks, curve data and period
computations, emitted as JSON lines or RFC-4180 CSV.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage error
(one line on stderr), 3 dynamic singularity at the requested start.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import random
import sys
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
from .verify import check_equivalences, checks_for, default_suite, run_suite

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
        self._fields: list[str] | None = None

    def write(self, record: dict) -> None:
        if self.fmt == "json":
            inner = ",".join(
                f"{_json_value(str(k))}:{_json_value(v)}" for k, v in record.items()
            )
            self.stream.write("{%s}\n" % inner)
            return
        row: dict = {}
        for k, v in record.items():
            _flatten_csv(v, k, row)
        if self._csv is None:
            self._fields = list(row)
            self._csv = csv.DictWriter(
                self.stream, fieldnames=self._fields, lineterminator="\r\n"
            )
            self._csv.writeheader()
        self._csv.writerow(row)


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
def _writer_for(args):
    """A record writer on --output (closed on exit), or on stdout."""
    if not args.output:
        yield RecordWriter(args.format, sys.stdout)
        return
    try:
        stream = open(args.output, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc.strerror}") from exc
    with stream:
        yield RecordWriter(args.format, stream)


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
    rec = orbit(family, x0, args.steps)
    if rec.reason == "hit-singularity" and rec.steps_taken == 0:
        print(f"start point is singular: {rec.detail}", file=sys.stderr)
        return SINGULAR_ERROR
    with _writer_for(args) as writer:
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


def _named_check(name: str, args, seed: int):
    if name == "equivalences":
        if args.lam is not None:
            raise ValueError("check 'equivalences' has no level: it takes no lambda")
        return [check_equivalences(seed, corrupt=args.corrupt)]
    if args.family is None:
        raise ValueError(
            f"check {name!r} needs --family (or use --all for the full suite)"
        )
    family = BilliardFamily.parse(args.family, args.n)
    return [fn() for _, fn in checks_for(name, family, seed, args.lam, args.corrupt)]


def cmd_check(args) -> int:
    seed = _seed_of(args)
    if args.all or not args.names:
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
        reports = run_suite(suite, args.names or None)
    else:
        try:
            reports = [r for name in args.names for r in _named_check(name, args, seed)]
        except (ValueError, RuntimeError, AttributeError, TypeError) as exc:
            raise UsageError(str(exc)) from exc
    with _writer_for(args) as writer:
        for r in reports:
            writer.write(r.to_dict())
    return 0 if all(r.status == "pass" for r in reports) else 1


def cmd_curve(args) -> int:
    family = _family_of(args)
    if args.lam is None:
        raise UsageError("curve needs --lambda")
    lam = args.lam
    with _writer_for(args) as writer:
        if args.branch_points:
            try:
                pts = branch_points(family, lam.value if not lam.is_inf else lam)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            for k, b in enumerate(pts):
                writer.write({"kind": "branch-point", "index": k, "parameter": b})
        if args.components:
            try:
                comps = critical_fiber_components(family, lam)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            for k, comp in enumerate(comps):
                writer.write(
                    {
                        "kind": "component",
                        "index": k,
                        "name": comp.name,
                        "degree": comp.degree,
                        "multiplicity": comp.multiplicity,
                        "parametrized": comp.parametrize is not None,
                    }
                )
        if args.periods:
            if not family.spec.elliptic_fiber or lam.is_inf or not is_regular(family, lam):
                raise UsageError("periods need a b/d family at a regular value")
            try:
                model = elliptic_model(family, lam.value)
                closure = lattice_closure_residual(model)
            except (ValueError, RuntimeError) as exc:
                raise UsageError(f"cannot compute the periods: {exc}") from exc
            w1, w2 = model.periods
            writer.write(
                {
                    "kind": "periods",
                    "period1": w1,
                    "period2": w2,
                    "lattice_closure_residual": closure,
                }
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
                writer.write(
                    {
                        "kind": "point",
                        "index": k,
                        "t": t,
                        "z": pt.z_sphere(),
                        "w": SphereValue(pt.w / pt.t) if pt.t != 0 else INF,
                    }
                )
    return 0


def cmd_families(args) -> int:
    with _writer_for(args) as writer:
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
        "--start-tau", "--start-t", dest="start_tau", type=complex, default=None,
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
