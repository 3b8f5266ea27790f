"""Seeded, deterministic property checks packaging every invariant of the
library into named reports.

Every check draws its own RNG stream from (suite seed, check name), so the
full suite gives byte-identical reports for a fixed seed regardless of
execution order.  Each check also has a corruption hook used by the
harness's negative tests: with ``corrupt=True`` it must fail.

Every check turns residuals into a verdict by one rule: it keeps the worst
residual with a witness of its sample and passes when that worst is within
its bound.  A NaN residual becomes the worst and stays the worst, so it
fails.  A sample whose residual cannot be computed is dropped and counted
per exception class; a check that evaluates no sample fails, with those
counts as its witness.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .billiards import (
    ALL_FAMILY_TAGS,
    BilliardFamily,
    PhasePoint,
    billiard_map,
    involution,
    orbit,
)
from .curves import (
    critical_fiber_components,
    curve_parameter,
    elliptic_model,
    is_regular,
    lift_by_sheet,
    lift_fiber,
    point_on_level,
)
from .forms import abel_steps, area_pullback_residual, chart_jacobian, halfstep_jacobian
from .geometry import (
    E_INFINITY,
    ProjectiveMap,
    ProjectivePoint,
    b_family_equivalence,
    c_family_equivalence,
    conic_point,
)
from .integrals import (
    eval_integral,
    first_integral,
    gradient_projective,
    hessian_projective,
    indeterminacy_set,
)
from .numerics import INF, SphereValue

__all__ = [
    "CheckReport",
    "CheckSuite",
    "checks_for",
    "default_suite",
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
    "CONSERVATION_CASES",
    "TRANSLATION_CASES",
    "ABEL_CASES",
]


@dataclass
class CheckReport:
    name: str
    family: str | None
    params: dict
    status: str  # "pass" | "fail" | "skipped"
    worst: float
    witness: dict | None = None

    def __post_init__(self):
        if self.status == "fail" and self.witness is None:
            raise ValueError("failing reports must carry a witness")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "family": self.family,
            "params": self.params,
            "status": self.status,
            "worst": self.worst,
            "witness": self.witness,
        }


def _rng_for(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class _Residuals:
    """The verdict rule of every check (see the module docstring); the
    witness is built only when the worst residual changes."""

    worst: float = 0.0
    witness: dict | None = None
    evaluated: int = 0
    dropped: Counter = field(default_factory=Counter)

    def note(self, res: float, witness: Callable[[], dict], *, count: bool = True) -> None:
        """Record one residual; ``count`` makes it an evaluated sample."""
        self.evaluated += count
        if not math.isnan(self.worst) and not res <= self.worst:
            self.worst = res
            self.witness = witness()

    def report(
        self, name: str, family: BilliardFamily | None, params: dict, bound: float
    ) -> CheckReport:
        """Pass when the worst residual is within ``bound``; with nothing
        evaluated, fail whatever the worst is."""
        if not self.evaluated:
            status, witness = "fail", {"evaluated": 0, "dropped": dict(sorted(self.dropped.items()))}
        elif self.worst <= bound:
            status, witness = "pass", None
        else:
            status, witness = "fail", self.witness
        label = None if family is None else family.label()
        return CheckReport(name, label, params, status, self.worst, witness)


#: radius of the disks around singular tangency parameters that samples avoid
SINGULAR_GUARD = 0.2


def sample_phase_point(
    family: BilliardFamily, rng: random.Random, *, conditioned: bool = True
) -> PhasePoint:
    """Random phase point: tangency parameter uniform on the annulus
    0.1 <= |z0| <= 3 minus the ``SINGULAR_GUARD`` disks, offset uniform on
    0.05 <= |u| <= 2.

    With ``conditioned`` the involution image must stay at a moderate
    distance from the tangency point, which keeps finite differences and
    form evaluations well scaled.
    """
    while True:
        r = math.sqrt(rng.uniform(0.1**2, 3.0**2))
        z0 = r * cmath.exp(2j * math.pi * rng.random())
        if any(
            (not s.is_inf) and abs(z0 - s.value) < SINGULAR_GUARD
            for s in family.singular_tangency_parameters()
        ):
            continue
        ur = math.sqrt(rng.uniform(0.05**2, 2.0**2))
        u = ur * cmath.exp(2j * math.pi * rng.random())
        z = z0 + u
        x = PhasePoint(
            ProjectivePoint.affine(z, 2 * z0 * z - z0 * z0), conic_point(z0)
        )
        if not conditioned:
            return x
        try:
            q_img = involution(family, x.p, x.q)
        except Exception:
            continue
        z_img = q_img.z_sphere()
        if z_img.is_inf:
            continue
        if 0.05 <= abs(z_img.value - z0) <= 25.0:
            return x


def _sampled(
    kind: str, family: BilliardFamily, samples: int, seed: int, bound: float,
    residual: Callable[[PhasePoint], float], *, conditioned: bool = True,
    where: Callable[[PhasePoint], dict] = lambda x: {"q": repr(x.q), "p": repr(x.p)},
) -> CheckReport:
    """Evaluate ``residual`` on random phase points; a sample whose residual
    raises is dropped, and the witness is ``where`` of the worst sample."""
    name = f"{kind}:{family.label()}"
    rng = _rng_for(seed, name)
    acc = _Residuals()
    for k in range(samples):
        x = sample_phase_point(family, rng, conditioned=conditioned)
        try:
            res = residual(x)
        except Exception as exc:
            acc.dropped[type(exc).__name__] += 1
            continue
        acc.note(res, lambda: {"sample": k, **where(x)})
    return acc.report(name, family, {"samples": samples, "seed": seed}, bound)


def _skipped(name: str, family: BilliardFamily, params: dict, rec, worst=0.0) -> CheckReport:
    """The report of an orbit check whose orbit stopped early."""
    witness = {"reason": rec.reason, "detail": rec.detail, "steps_taken": rec.steps_taken}
    return CheckReport(name, family.label(), params, "skipped", worst, witness)


def check_involution(
    family: BilliardFamily, samples: int = 1000, seed: int = 0, *, corrupt: bool = False
) -> CheckReport:
    """sigma_P o sigma_P = id and sigma_P(P) = P on random samples."""

    def residual(x: PhasePoint) -> float:
        once = involution(family, x.p, x.q)
        twice = involution(family, x.p, once)
        z_in = x.q.z_sphere()
        z_back = twice.z_sphere()
        if z_in.is_inf or z_back.is_inf:
            res = 0.0 if z_in.is_inf and z_back.is_inf else math.inf
        else:
            back = z_back.value + (1e-3 if corrupt else 0.0)
            res = abs(back - z_in.value) / max(1.0, abs(z_in.value))
        fixed = involution(family, x.p, x.p)
        z0 = x.p.z_sphere().value
        return max(res, abs(fixed.z_sphere().value - z0) / max(1.0, abs(z0)))

    return _sampled(
        "involution", family, samples, seed, 1e-9, residual, conditioned=False,
        where=lambda x: {"z0": repr(x.p.z_sphere().value), "z1": repr(x.q.z_sphere())},
    )


#: frozen (lambda, start parameter, branch) conservation cases per family
CONSERVATION_CASES: dict[str, list[tuple[complex, complex | None, str]]] = {
    "a1": [(1.0, 1.7, "+"), (2.0, 1.7, "+"), (0.5 + 1.0j, 1.3, "+")],
    "a2": [(1.0, 1.7, "+"), (2.0, 1.7, "+"), (0.5 + 1.0j, 1.3, "+")],
    "b1": [(2.0, 2.7, "+"), (3.0, 2.7, "+"), (0.5 + 0.5j, 2.7, "+")],
    "b2": [(2.0, 0.3, "+"), (2.5, 2.7, "+"), (0.5 + 0.5j, 2.7, "+")],
    "c1": [(1.0, None, "+"), (2.0, None, "+"), (0.3 + 0.4j, None, "+")],
    "c2": [(1.0, None, "+"), (2.0, None, "+"), (0.3 + 0.4j, None, "+")],
    "d": [(1.0, 1.3, "+"), (3.0, 1.3, "+"), (0.5 + 0.3j, 1.3, "+")],
}


def _start_point(
    family: BilliardFamily, lam: complex, t0: complex | None, branch: str, rng: random.Random
) -> PhasePoint:
    if t0 is not None:
        return lift_fiber(family, lam, t0, branch)
    return lift_by_sheet(point_on_level(family, lam, rng), branch)


#: relative drift of the integral along an orbit that conservation allows
CONSERVATION_BOUND = 1e-7


def check_conservation(
    family: BilliardFamily,
    lam: complex,
    steps: int = 500,
    seed: int = 0,
    *,
    start: complex | None = None,
    branch: str = "+",
    corrupt: bool = False,
) -> CheckReport:
    """The integral is constant along orbits: max |R(Q_k) - lam| rel."""
    if not is_regular(family, lam):
        raise ValueError(
            f"conservation checks need a regular level value, got {lam!r}"
        )
    name = f"conservation:{family.label()}:lam={lam}"
    rng = _rng_for(seed, name)
    if start is None:
        for cl, ct, cb in CONSERVATION_CASES[family.tag]:
            if cl == lam:
                start, branch = ct, cb
                break
    x0 = _start_point(family, lam, start, branch, rng)
    rec = orbit(family, x0, steps)
    target = lam * (1 + 1e-3) if corrupt else lam
    acc = _Residuals()
    for k, x in enumerate(rec.points):
        try:
            val = eval_integral(family, x.q)
        except Exception as exc:
            acc.dropped[type(exc).__name__] += 1
            continue
        if val.is_inf:
            acc.dropped["infinite value"] += 1
            continue
        res = abs(val.value - target) / max(1.0, abs(target))
        acc.note(res, lambda: {"step": k, "q": repr(x.q)})
    params = {"lam": repr(lam), "steps": steps, "seed": seed}
    if rec.reason != "completed":
        return _skipped(name, family, params, rec, acc.worst)
    return acc.report(name, family, params, CONSERVATION_BOUND)


#: frozen translation-dynamics cases: (family tag, N, lambda, start tau)
TRANSLATION_CASES: list[tuple[str, int, complex, complex]] = [
    ("a1", 1, 1.0, 1.7),
    ("a1", 2, 3.0, 1.7),
    ("a1", 3, 1.0, 1.7),
    ("a2", 1, 1.0, 1.7),
    ("a2", 2, 1.0, 1.7),
    ("a2", 3, 2.0, 1.7),
]


def check_translation(
    family: BilliardFamily,
    lam: complex,
    steps: int = 50,
    seed: int = 0,
    *,
    start: complex = 1.7,
    branch: str = "+",
    corrupt: bool = False,
) -> CheckReport:
    """a-family orbits are arithmetic progressions in the fiber parameter.

    The parameter is recovered from each phase point through the tangency
    point (which fixes the square-root branch of z/sqrt(z^2 - w)); the
    common difference must match 2/(2N+1) resp. 1/(N+1) to 1e-9.
    """
    if family.spec.shift is None:
        raise ValueError("translation dynamics applies to the a-families")
    name = f"translation:{family.label()}:lam={lam}"
    x0 = lift_fiber(family, lam, start, branch)
    rec = orbit(family, x0, steps)
    params = {"lam": repr(lam), "steps": steps, "seed": seed, "start": repr(start)}
    if rec.reason != "completed":
        return _skipped(name, family, params, rec)
    taus = [curve_parameter(family, x).value for x in rec.points]
    diffs = [b - a for a, b in zip(taus, taus[1:])]
    expected = family.spec.shift(family.n)
    shift = float(expected) * (1 + 1e-3 if corrupt else 1)
    acc = _Residuals()
    for k, dv in enumerate(diffs):
        acc.note(min(abs(dv - shift), abs(dv + shift)), lambda: {"step": k, "diff": repr(dv)})
    params["measured_shift"] = repr(sum(diffs) / len(diffs))
    params["expected_shift"] = f"{expected.numerator}/{expected.denominator}"
    return acc.report(name, family, params, 1e-9)


#: frozen Abel-translation cases: (family tag, lambda, start t, branch)
ABEL_CASES: list[tuple[str, complex, complex, str]] = [
    ("b1", 2.0, 2.7, "+"),
    ("d", 1.0, 1.3, "+"),
]


def check_abel_translation(
    family: BilliardFamily,
    lam: complex,
    steps: int = 20,
    seed: int = 0,
    *,
    start: complex = 2.7,
    branch: str = "+",
    corrupt: bool = False,
) -> CheckReport:
    """Orbit steps integrate the fiber differential to a constant mod lattice."""
    if not family.spec.elliptic_fiber:
        raise ValueError("Abel translation applies to the b and d families")
    name = f"abel:{family.label()}:lam={lam}"
    params = {"lam": repr(lam), "steps": steps, "seed": seed, "start": repr(start)}
    x0 = lift_fiber(family, lam, start, branch)
    rec = orbit(family, x0, steps)
    if rec.reason != "completed":
        return _skipped(name, family, params, rec)
    model = elliptic_model(family, lam)
    rts = model.sorted_roots()
    for x in rec.points:
        t = curve_parameter(family, x).value
        if min(abs(t - r) for r in rts) < 1e-9:
            return CheckReport(
                name, family.label(), params, "skipped", 0.0,
                {"reason": "orbit parameter on a branch point"},
            )
    vals = abel_steps(family, lam, rec.points, model)
    if corrupt:
        vals = [v + 1e-3 * k for k, v in enumerate(vals)]
    acc = _Residuals()
    for k, v in enumerate(vals):
        acc.note(abs(model.lattice_reduce(v - vals[0])), lambda: {"step": k, "value": repr(v)})
    return acc.report(name, family, params, 1e-5)


def check_area_form(
    family: BilliardFamily, samples: int = 200, seed: int = 0, *, corrupt: bool = False
) -> CheckReport:
    """Finite-difference pullback test of the invariant area form."""

    def residual(x: PhasePoint) -> float:
        res = area_pullback_residual(family, x)
        return res + 1e-3 if corrupt else res

    return _sampled("area", family, samples, seed, 1e-6, residual)


def check_jacobian(
    family: BilliardFamily, samples: int = 200, seed: int = 0, *, corrupt: bool = False
) -> CheckReport:
    """Closed-form half-step Jacobian against central finite differences."""

    def residual(x: PhasePoint) -> float:
        closed = halfstep_jacobian(family, x)
        mat, _ = chart_jacobian(family, x)
        fd = complex(np.linalg.det(mat))
        if corrupt:
            closed *= 1 + 1e-3
        return abs(closed - fd) / max(1.0, abs(closed))

    return _sampled("jacobian", family, samples, seed, 1e-6, residual)


# --------------------------------------------------------------------------
# table verification

_aff = ProjectivePoint.affine
_e = cmath.exp(-2j * math.pi / 3)
_eb = _e.conjugate()
#: per family: (lam, point, how many listed components must contain it)
_INCIDENCE: dict[str, list[tuple]] = {
    "b1": [
        (INF, _aff(1.0, -3.0), 2),
        (INF, _aff(-1 / 3, -1 / 3), 2),
        (SphereValue(1), _aff(0.0, -1.0), 2),
        (SphereValue(1), _aff(0.0, 0.0), 2),
        (SphereValue(1), E_INFINITY, 2),
        (Fraction(4, 3), _aff(1 / 3, 1.0), 2),
        (Fraction(4, 3), _aff(0.0, 0.0), 2),
        (Fraction(4, 3), _aff(1.0, 1.0), 2),
        (Fraction(4, 3), E_INFINITY, 2),
    ],
    "b2": [
        (INF, _aff(1j, 0.0), 2),
        (INF, _aff(-1j, 0.0), 2),
    ],
    "c1": [
        (Fraction(27, 64), p, 2)
        for p in (
            _aff(_eb / 2, _e), _aff(0.5, 1.0), _aff(_e / 2, _eb),
            _aff(_eb, _e), _aff(_e, _eb), _aff(1.0, 1.0),
        )
    ],
    "c2": [
        (Fraction(-9, 64), p, 2)
        for p in (
            _aff(1.25, 1.0), _aff(-0.25, -0.5), _aff(0.5, -2.0),
            _aff(0.0, 0.0), _aff(1.0, 1.0), E_INFINITY,
        )
    ],
    "d": [
        (Fraction(-1, 3), _aff(2 / 5, 8 / 5), 2),
        (Fraction(-9, 32), _aff(1 / 10, -4 / 5), 2),
        (INF, _aff(1.0, -8.0), 2),
        (INF, _aff(-0.5, -2.0), 2),
        (INF, _aff(1.0, 1.0), 2),
        (INF, E_INFINITY, 3),
    ],
}


def _component_value(poly, point: ProjectivePoint) -> float:
    """Scaled modulus of the homogenized component polynomial at the point."""
    d = poly.total_degree
    zc, wc, tc = point.coords
    total = 0j
    scale = 0.0
    for (i, j), c in poly.coeffs.items():
        term = complex(c) * zc**i * wc**j * tc ** (d - i - j)
        total += term
        scale = max(scale, abs(complex(c)))
    return abs(total) / max(scale, 1e-300)


def check_tables(family: BilliardFamily, seed: int = 0, *, corrupt: bool = False) -> CheckReport:
    """Re-verify every tabulated critical value, critical point, base point
    and component-intersection point by direct evaluation."""
    name = f"tables:{family.label()}"
    acc = _Residuals()
    shift = 1e-3 if corrupt else 0.0
    by_kind: dict[str, float] = {}

    def note(res: float, what: str, where):
        kind = what.split(":")[0]
        by_kind[kind] = max(by_kind.get(kind, 0.0), res)
        acc.note(res, lambda: {"what": what, "where": repr(where)})

    def displaced(p: ProjectivePoint) -> ProjectivePoint:
        if shift == 0.0:
            return p
        return ProjectivePoint(p.coords[0] + shift, p.coords[1], p.coords[2])

    integ = first_integral(family)
    for bp in indeterminacy_set(family):
        pt = displaced(bp)
        z, w, t = pt.coords
        note(abs(w * t - z * z), "incidence: base point on parabola", bp)
        for label, poly in (("num", integ.num), ("den", integ.den)):
            note(_component_value(poly, pt), f"incidence: base point kills {label}", bp)
    for row in family.spec.critical:
        lam = row.value
        for cp in row.points:
            pt = displaced(cp)
            recip = lam.is_inf
            if not recip:
                val = integ.eval(pt)
                vres = (
                    abs(val.value - lam.value) / max(1.0, abs(lam.value))
                    if not val.is_inf
                    else math.inf
                )
                note(vres, "value: critical value", cp)
            gz, gw = gradient_projective(family, pt, reciprocal=recip)
            note(max(abs(gz), abs(gw)), "gradient: at critical point", cp)
            hess = hessian_projective(family, pt, reciprocal=recip)
            deth = abs(np.linalg.det(hess))
            note(0.0 if deth >= 1e-6 else 1.0, "hessian: Morse nondegeneracy", cp)
        for ip in row.indeterminacies:
            if not any(ip.eq(bp) for bp in indeterminacy_set(family)):
                note(1.0, "incidence: critical indeterminacy is a base point", ip)
    for lam, point, expected in _INCIDENCE.get(family.tag, []):
        comps = critical_fiber_components(family, SphereValue.coerce(lam))
        pt = displaced(point)
        residuals = sorted(_component_value(c.poly, pt) for c in comps)
        note(residuals[min(expected, len(residuals)) - 1], f"incidence: on {expected} components", point)
    params = {"checks": acc.evaluated, "seed": seed, "worst_by_kind": by_kind}
    return acc.report(name, family, params, 1e-8)


def check_equivalences(seed: int = 0, *, corrupt: bool = False) -> CheckReport:
    """The two projective equivalences intertwine integrals and billiards."""
    name = "equivalences"
    rng = _rng_for(seed, name)
    psi = b_family_equivalence()
    mc = c_family_equivalence()
    if corrupt:
        m = psi.matrix.copy()
        m[0, 0] += 1e-3
        psi = ProjectiveMap(m)
    b1, b2 = BilliardFamily("b1"), BilliardFamily("b2")
    c1, c2 = BilliardFamily("c1"), BilliardFamily("c2")
    acc = _Residuals()

    def note(res: float, what: str, where, count: bool = False):
        acc.note(res, lambda: {"what": what, "where": repr(where)}, count=count)

    attempts = 0
    while acc.evaluated < 100 and attempts < 2000:
        attempts += 1
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        pt = ProjectivePoint.affine(z, w)
        try:
            rb1 = eval_integral(b1, pt)
            rb2 = eval_integral(b2, psi(pt))
            rc2 = eval_integral(c2, pt)
            rc1 = eval_integral(c1, mc(pt))
        except Exception as exc:
            acc.dropped[type(exc).__name__] += 1
            continue
        if rb1.is_inf or rb2.is_inf or rc1.is_inf or rc2.is_inf:
            acc.dropped["infinite value"] += 1
            continue
        # one evaluated sample per point; the map commutation below counts none
        b_res = abs(rb1.value - rb2.value) / max(1.0, abs(rb1.value))
        note(b_res, "b-integral equivalence", pt, count=True)
        c_res = abs(-3 * rc2.value - rc1.value) / max(1.0, abs(rc1.value))
        note(c_res, "c-integral equivalence", pt)
        note(abs(eval_integral(b1, pt).value - rb1.value), "identity sanity", pt)
    # lifted-map commutation on phase points
    count = 0
    attempts = 0
    while count < 25 and attempts < 500:
        attempts += 1
        x = sample_phase_point(b1, rng)
        try:
            fx = billiard_map(b1, x)
            lifted = PhasePoint(psi(x.q), psi(x.p))
            fy = billiard_map(b2, lifted)
        except Exception:
            # a corrupted equivalence throws the lift off the parabola;
            # count that as a failing residual rather than spinning
            note(1.0, "billiard-map lift rejected", x.q)
            continue
        img = PhasePoint(psi(fx.q), psi(fx.p))
        qres = float(np.linalg.norm(np.cross(img.q.coords, fy.q.coords)))
        pres = float(np.linalg.norm(np.cross(img.p.coords, fy.p.coords)))
        note(max(qres, pres), "billiard-map commutation", x.q)
        count += 1
    return acc.report(name, None, {"samples": 100, "seed": seed}, 1e-9)


# --------------------------------------------------------------------------
# suite assembly

@dataclass
class CheckSuite:
    """Ordered list of named checks with one seed; running the same suite
    twice gives byte-identical reports."""

    seed: int
    entries: list[tuple[str, Callable[[], CheckReport]]] = field(default_factory=list)

    def add(self, name: str, fn: Callable[[], CheckReport]) -> None:
        self.entries.append((name, fn))


def checks_for(
    kind: str,
    family: BilliardFamily,
    seed: int,
    lam: complex | None = None,
    corrupt: bool = False,
) -> list[tuple[str, Callable[[], CheckReport]]]:
    """The named checks of one kind on one family.

    Without ``lam`` these are the frozen cases of the family; with it, that
    level.  A family with no frozen translation case runs lambda = 1.0 from
    tau = 1.7, and b2's Abel check takes b1's case.  The entries look the
    check functions up in this module when they run.
    """
    label = family.label()
    single = {
        "involution": lambda: check_involution(family, 1000, seed, corrupt=corrupt),
        "area": lambda: check_area_form(family, 200, seed, corrupt=corrupt),
        "jacobian": lambda: check_jacobian(family, 200, seed, corrupt=corrupt),
        "tables": lambda: check_tables(family, seed, corrupt=corrupt),
    }
    if kind in single:
        return [(f"{kind}:{label}", single[kind])]
    if kind == "conservation":
        # a given level finds its frozen start inside check_conservation
        cases = CONSERVATION_CASES[family.tag] if lam is None else [(lam, None, "+")]
        def run(cl, ct, cb):
            return check_conservation(family, cl, 500, seed, start=ct, branch=cb, corrupt=corrupt)
    elif kind == "translation":
        frozen = [
            (cl, ct, "+") for tag, n, cl, ct in TRANSLATION_CASES if (tag, n) == (family.tag, family.n)
        ] or [(1.0, 1.7, "+")]
        cases = frozen if lam is None else [(lam, *frozen[0][1:])]
        def run(cl, ct, cb):
            return check_translation(family, cl, 50, seed, start=ct, branch=cb, corrupt=corrupt)
    elif kind == "abel":
        frozen = [c[1:] for c in ABEL_CASES if c[0] == family.tag] or [ABEL_CASES[0][1:]]
        cases = frozen if lam is None else [(lam, *frozen[0][1:])]
        def run(cl, ct, cb):
            return check_abel_translation(family, cl, 20, seed, start=ct, branch=cb, corrupt=corrupt)
    else:
        raise ValueError(f"unknown check {kind!r}")
    return [(f"{kind}:{label}:lam={c[0]}", lambda c=c: run(*c)) for c in cases]


def default_suite(seed: int = 42) -> CheckSuite:
    suite = CheckSuite(seed)
    # one instance per family (N = 1); the involution runs N = 1, 2, 3 too
    base = [BilliardFamily.parse(t) for t in ALL_FAMILY_TAGS]
    families = {
        "involution": [BilliardFamily(f.tag, n) for f in base if f.is_a for n in (1, 2, 3)]
        + [f for f in base if not f.is_a],
        "translation": [BilliardFamily(tag, n) for tag, n, _, _ in TRANSLATION_CASES],
        "abel": [BilliardFamily(tag) for tag, _, _, _ in ABEL_CASES],
    }
    for kind in ("involution", "conservation", "translation", "abel", "area", "jacobian", "tables"):
        for fam in families.get(kind, base):
            for name, fn in checks_for(kind, fam, seed):
                suite.add(name, fn)
    suite.add("equivalences", lambda: check_equivalences(seed))
    return suite


def run_suite(suite: CheckSuite, names: list[str] | None = None) -> list[CheckReport]:
    """Run (a filtered subset of) the suite in order."""
    reports = []
    for name, fn in suite.entries:
        if names is not None and not any(name.startswith(n) for n in names):
            continue
        reports.append(fn())
    return reports
