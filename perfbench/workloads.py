"""The three benchmark workloads: input generation from a seed, one timed
pass over the inputs, and the check of every output the pass produces.

Each workload turns the benchmark seed into inputs with its own
``random.Random`` and no call into the library, so a change to the library
cannot change what is timed; the library receives only those inputs.  One pass runs
every operation of the workload once.  An operation is one check of the
suite, one orbit or one elliptic case, and its :class:`Outcome` records the
work it did, the reason it failed (``None`` when every check held) and an
exact record that must repeat bit for bit when the pass is repeated.  Every
operation runs through the pass's :class:`speed.Meter`, which times it.

The library is reached through module attributes at call time
(``billiards.orbit``, not a name imported once) so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from dualbill import billiards, cli, curves, forms, integrals, verify
from dualbill.billiards import BilliardFamily
from dualbill.geometry import PhasePoint, conic_point
from dualbill.integrals import IndeterminacyError
from dualbill.numerics import principal_sqrt

#: the eleven family instances of the default check suite
FAMILY_INSTANCES = tuple(
    BilliardFamily(tag, n)
    for tag, n in (
        ("a1", 1), ("a1", 2), ("a1", 3), ("a2", 1), ("a2", 2), ("a2", 3),
        ("b1", None), ("b2", None), ("c1", None), ("c2", None), ("d", None),
    )
)
ELLIPTIC_FAMILIES = tuple(BilliardFamily(tag) for tag in ("b1", "b2", "d"))

#: conservation bound, the default threshold of verify.check_conservation
CONSERVATION_BOUND = 1e-7
#: Abel-translation defect and lattice-closure bounds of acceptance test C10
ABEL_BOUND = 1e-5
CLOSURE_BOUND = 1e-7

#: levels are drawn from this box of the complex plane (real, imaginary)
LEVEL_BOX = ((0.3, 3.0), (-1.0, 1.0))
ORBITS_PER_INSTANCE = 6
ORBIT_STEPS = 500
#: one elliptic case per family in each cell of this grid over LEVEL_BOX:
#: a case's cost depends on its level, and spreading the levels evenly
#: keeps the cost of a pass from changing much with the seed
ELLIPTIC_GRID = (8, 5)
ELLIPTIC_ORBIT_STEPS = 20


@dataclass(frozen=True)
class Outcome:
    work: int  # checks, phase-map steps or elliptic cases done
    failure: str | None  # check or exception class that failed the operation
    record: tuple  # exact result; repeats bit for bit across passes


@dataclass
class PassResult:
    outcomes: list[Outcome]
    fingerprint: object  # exact output of the pass, free of nan; repeats across passes
    problems: list[str] = field(default_factory=list)  # inconsistent outputs


def warm_caches() -> None:
    """Fill the first-integral cache of every family instance."""
    for fam in FAMILY_INSTANCES:
        integrals.first_integral(fam)


def _level(rng: random.Random, cell=(0, 0), grid=(1, 1)) -> complex:
    """A level drawn uniformly from one cell of a grid over LEVEL_BOX.

    The critical values of every family are finitely many points, which a
    continuous draw misses; a level the library rejects is a failed operation.
    """
    (re0, re1), (im0, im1) = LEVEL_BOX
    return complex(
        re0 + (re1 - re0) * (cell[0] + rng.random()) / grid[0],
        im0 + (im1 - im0) * (cell[1] + rng.random()) / grid[1],
    )


def _fiber_parameter(rng: random.Random) -> complex:
    return complex(rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5))


def _failed(failure: str, record: tuple) -> Outcome:
    """A failed operation counts no work, so failing faster is not a gain."""
    return Outcome(0, failure, record)


# --------------------------------------------------------------------------
# check-suite

_REPORT = re.compile(rb'^\{"name":"([^"]*)".*"status":"(\w+)"', re.M)


#: the checks of ``dualbill check --all``, in report order (any seed)
SUITE_CHECKS = (
    tuple(f"involution:{f.label()}" for f in FAMILY_INSTANCES)
    + tuple(
        f"conservation:{fam}:lam={lam}"
        for fam, lams in (
            ("a1(1)", ("1.0", "2.0", "(0.5+1j)")),
            ("a2(1)", ("1.0", "2.0", "(0.5+1j)")),
            ("b1", ("2.0", "3.0", "(0.5+0.5j)")),
            ("b2", ("2.0", "2.5", "(0.5+0.5j)")),
            ("c1", ("1.0", "2.0", "(0.3+0.4j)")),
            ("c2", ("1.0", "2.0", "(0.3+0.4j)")),
            ("d", ("1.0", "3.0", "(0.5+0.3j)")),
        )
        for lam in lams
    )
    + (
        "translation:a1(1):lam=1.0", "translation:a1(2):lam=3.0",
        "translation:a1(3):lam=1.0", "translation:a2(1):lam=1.0",
        "translation:a2(2):lam=1.0", "translation:a2(3):lam=2.0",
        "abel:b1:lam=2.0", "abel:d:lam=1.0",
    )
    + tuple(
        f"{kind}:{fam}"
        for kind in ("area", "jacobian", "tables")
        for fam in ("a1(1)", "a2(1)", "b1", "b2", "c1", "c2", "d")
    )
    + ("equivalences",)
)


#: the check functions the suite calls, one operation per call
SUITE_CHECK_FUNCTIONS = (
    "check_involution", "check_conservation", "check_translation",
    "check_abel_translation", "check_area_form", "check_jacobian",
    "check_tables", "check_equivalences",
)


@dataclass(frozen=True)
class CheckSuiteInputs:
    seed: int
    report: Path


def build_check_suite(seed: int, workdir: Path) -> CheckSuiteInputs:
    return CheckSuiteInputs(seed, workdir / "check-report.jsonl")


def run_check_suite(inp: CheckSuiteInputs, meter) -> PassResult:
    """``dualbill check --all``: the report must hold the 62 checks of
    SUITE_CHECKS, every one with status pass, and the exit code must say so.

    The suite's entries call the check functions through the ``verify``
    module, so each check runs through the meter while the pass lasts.
    """
    originals = {name: getattr(verify, name) for name in SUITE_CHECK_FUNCTIONS}
    for name, fn in originals.items():
        setattr(verify, name, functools.partial(meter.timed, fn))
    try:
        code = cli.main(["check", "--all", "--seed", str(inp.seed), "--output", str(inp.report)])
    finally:
        for name, fn in originals.items():
            setattr(verify, name, fn)
    data = inp.report.read_bytes()
    found = _REPORT.findall(data)
    outcomes = [
        Outcome(1, None, (name, status)) if status == b"pass"
        else _failed(f"status-{status.decode()}", (name, status))
        for name, status in found
    ]
    problems = []
    if len(found) != data.count(b"\n"):
        problems.append("report line without a name and a status")
    if tuple(name.decode() for name, _ in found) != SUITE_CHECKS:
        problems.append(f"the report does not hold the {len(SUITE_CHECKS)} checks of the suite")
    all_pass = bool(found) and all(o.failure is None for o in outcomes)
    if (code == 0) != all_pass:
        problems.append(f"exit code {code} disagrees with the report statuses")
    # the whole report stream must repeat byte for byte (acceptance C12)
    return PassResult(outcomes, (code, data), problems)


# --------------------------------------------------------------------------
# orbits

@dataclass(frozen=True)
class OrbitCase:
    family: BilliardFamily
    lam: complex
    branch: str
    t: complex  # fiber parameter of the start (a, b and d families)
    slice_seed: int  # seed of the slicing lines of the start (c families)


def build_orbits(seed: int, workdir: Path | None = None) -> list[OrbitCase]:
    """ORBITS_PER_INSTANCE seeded levels and starts per instance."""
    rng = random.Random(f"orbits:{seed}")
    return [
        OrbitCase(fam, _level(rng), rng.choice("+-"), _fiber_parameter(rng), rng.getrandbits(64))
        for fam in FAMILY_INSTANCES
        for _ in range(ORBITS_PER_INSTANCE)
    ]


def orbit_start(case: OrbitCase) -> PhasePoint:
    """The lifted start, or on a c-family level curve, which has no rational
    parametrization, a sliced point of the curve and one of its two
    tangency points."""
    fam, lam = case.family, case.lam
    if fam.tag in ("c1", "c2"):
        q = curves.point_on_level(fam, lam, random.Random(case.slice_seed))
        z, w = q.affine_pair()
        s = principal_sqrt(z * z - w)
        x0 = PhasePoint(q, conic_point(z + s if case.branch == "+" else z - s))
    else:
        x0 = curves.lift_fiber(fam, lam, case.t, case.branch)
    x0.validate()
    return x0


def check_orbit(case: OrbitCase, lam_ref: complex | None = None) -> Outcome:
    """Build the start, iterate the phase map and evaluate the integral on
    every iterate.

    The relative conservation residual against ``lam_ref`` (the level by
    default) must stay within CONSERVATION_BOUND.  An iterate where the
    integral is indeterminate (a base point) or infinite has no value and is
    passed over, as in ``check_conservation``.
    """
    fam = case.family
    target = case.lam if lam_ref is None else lam_ref
    scale = max(1.0, abs(target))
    try:
        rec = billiards.orbit(fam, orbit_start(case), ORBIT_STEPS)
        worst = 0.0
        evaluated = 0
        for x in rec.points:
            try:
                val = integrals.eval_integral(fam, x.q)
            except IndeterminacyError:
                continue
            if val.is_inf:
                continue
            evaluated += 1
            res = abs(val.value - target) / scale
            if res > worst or res != res:  # a nan residual is kept and fails
                worst = res
    except Exception as exc:  # any library error fails the operation
        return _failed(type(exc).__name__, (type(exc).__name__, str(exc)))
    record = (rec.steps_taken, rec.reason, evaluated, worst)
    if evaluated == 0:
        return _failed("no-iterate-evaluated", record)
    if not worst <= CONSERVATION_BOUND:
        return _failed("conservation", record)
    return Outcome(rec.steps_taken, None, record)


def run_orbits(cases: list[OrbitCase], meter) -> PassResult:
    return _run_cases(cases, check_orbit, meter)


# --------------------------------------------------------------------------
# elliptic

@dataclass(frozen=True)
class EllipticCase:
    family: BilliardFamily
    lam: complex
    t: complex
    branch: str


def build_elliptic(seed: int, workdir: Path | None = None) -> list[EllipticCase]:
    """A seeded level and start per family in each cell of ELLIPTIC_GRID."""
    rng = random.Random(f"elliptic:{seed}")
    return [
        EllipticCase(fam, _level(rng, (i, j), ELLIPTIC_GRID), _fiber_parameter(rng),
                     rng.choice("+-"))
        for fam in ELLIPTIC_FAMILIES
        for i in range(ELLIPTIC_GRID[0])
        for j in range(ELLIPTIC_GRID[1])
    ]


def check_elliptic(case: EllipticCase) -> Outcome:
    """Elliptic model, lattice closure, a short orbit and its Abel steps.

    The extra cycle must close on the period lattice within CLOSURE_BOUND
    and every Abel step must agree with the first modulo the lattice within
    ABEL_BOUND.
    """
    fam, lam = case.family, case.lam
    try:
        model = curves.elliptic_model(fam, lam)
        closure = curves.lattice_closure_residual(model)
        x0 = curves.lift_fiber(fam, lam, case.t, case.branch)
        rec = billiards.orbit(fam, x0, ELLIPTIC_ORBIT_STEPS)
        vals = forms.abel_steps(fam, lam, rec.points, model)
        defects = [abs(model.lattice_reduce(v - vals[0])) for v in vals]
    except Exception as exc:  # any library error fails the operation
        return _failed(type(exc).__name__, (type(exc).__name__, str(exc)))
    record = (closure, rec.steps_taken, rec.reason, tuple(defects))
    # written as "not <=" so that a nan residual fails
    if not closure <= CLOSURE_BOUND:
        return _failed("lattice-closure", record)
    if not defects:
        return _failed("no-abel-step", record)
    if not all(d <= ABEL_BOUND for d in defects):
        return _failed("abel-defect", record)
    return Outcome(1, None, record)


def run_elliptic(cases: list[EllipticCase], meter) -> PassResult:
    return _run_cases(cases, check_elliptic, meter)


def _run_cases(cases, check, meter) -> PassResult:
    outcomes = [meter.timed(check, case) for case in cases]
    return PassResult(outcomes, repr([o.record for o in outcomes]))


@dataclass(frozen=True)
class Workload:
    build: Callable  # (seed, workdir) -> inputs
    run: Callable  # (inputs, meter) -> PassResult
    work_unit: str  # what Outcome.work counts
    #: most operations that may fail, as a share of those attempted, before
    #: the run counts as incorrect.  The suite must pass in full.  Orbits and
    #: elliptic carry the library's present failures, which stay counted,
    #: with a small margin over the worst seed seen, so that a new failure
    #: mode in one family instance (6 of 66 orbits) or a rise in the elliptic
    #: failures shows.  Drift past the conservation bound fails 0 or 1 of
    #: 66 orbits on each of 50 seeds (allowed: 3); about 3% of elliptic
    #: cases, 9 of 120 on the worst of 30 seeds, raise "quadrature did not
    #: converge" (allowed: 12).
    failure_allowance: float


WORKLOADS = {
    "check-suite": Workload(build_check_suite, run_check_suite, "checks", 0.0),
    "orbits": Workload(build_orbits, run_orbits, "steps", 0.05),
    "elliptic": Workload(build_elliptic, run_elliptic, "cases", 0.1),
}
