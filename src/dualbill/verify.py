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
per exception class; a check that evaluates fewer samples than its floor
fails, with those counts as its witness.  The floor is one sample, and half
the samples, but at least one, for the sampled checks (involution, area,
jacobian).

The involution, jacobian and area checks draw each sample (z0, z), the
tangency parameter and a point of its tangent line, and share one body,
:func:`_sampled`; the jacobian and area draws are conditioned on
``billiards._involution_z``.  One routine, :func:`_draws`, makes every draw
of these checks and of the equivalences check by one fixed rule: attempt k
takes randoms 4k to 4k + 3 of the check's stream, and the draws are the
first kept attempts.  Whether an attempt is kept, its z0 outside the guard
disks and, for a conditioned draw, its involution image within the window,
is decided on numpy lanes, so the draws do not depend on how many attempts
a block holds.  The integral half of the equivalences check takes its 100
points from randoms 0 to 399, four each, and replaces no dropped point.
The draws stay arrays up to the lane loop; Python numbers are built only
for a lane that the scalar path evaluates and for the witness.  These
three, the conservation check and the integral half of the equivalences
check share one lane loop, :func:`_laned`, which runs the residual once on
numpy arrays of every lane through the library's own arithmetic.  Every
operation is elementwise, so a lane's residual does not depend on the size
or order of its batch.  A lane whose residual is not
finite, or whose image is at infinity on the sphere, is evaluated again on
the scalar path: on Python numbers, where the involution's pole gives INF;
by ``forms._area_residual``, which raises there; by the exact
``integrals._exact_on_tangent``, which also takes every iterate with Q on
the infinity line or where the factors of the tangent-line form cancel; or,
for the equivalences, by ``eval_integral`` at the point's ProjectivePoint
(:func:`_integral_equivalences`).

The conservation, translation and abel checks run the orbit kernel
``billiards._offset_orbit``, one loop that tests each step for ``orbit``'s
stops before it takes the next, in the offset state (z0, u) from their
validated start (:func:`_offset_run`); the translation and abel checks read
its iterates as the phase points that ``orbit`` lists
(:func:`_orbit_points`).  The conservation check evaluates R with no
projective point, at Q_k's offset -u_k on the tangent line at P_{k-1},
which keeps Q_k where |u_k| is far above |z0|.  An iterate whose base-point
distance on the lanes is within ``BASE_POINT_GUARD`` is dropped under
``IndeterminacyError``, as the exact evaluation would drop it.  The
residuals of every lane are then recorded in one step, with the worst and
witness that recording them one by one gives.

The tables check reads its facts from the registry and the critical cells,
and states one table of its own, ``_BASE_POINT_COMPONENTS``.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .billiards import (
    ALL_FAMILY_TAGS,
    BilliardFamily,
    PhasePoint,
    _involution_z,
    _offset_orbit,
    _point_on_tangent,
    _z_param,
    billiard_map,
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
from .forms import _area_defect, _area_residual, _chart_derivative, abel_steps, halfstep_jacobian
from .geometry import (
    E_INFINITY,
    ProjectiveMap,
    ProjectivePoint,
    b_family_equivalence,
    c_family_equivalence,
    conic_point,
    cross_norm,
)
from .integrals import (
    BASE_POINT_GUARD,
    _exact_on_tangent,
    _factored,
    _on_tangent,
    _on_tangent_factored,
    _tangent_point,
    eval_integral,
    first_integral,
    gradient_hessian_projective,
    indeterminacy_set,
)
from .numerics import INF, INF_THRESHOLD, SphereValue

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
    #: lanes evaluated again on the scalar or exact path, for the timings
    #: side channel: not part of the report
    _fallbacks: int = field(default=0, repr=False, compare=False)

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
    fallbacks: int = 0

    def note(self, res: float, witness: Callable[[], dict], *, count: bool = True) -> None:
        """Record one residual; ``count`` makes it an evaluated sample."""
        self.evaluated += count
        if not math.isnan(self.worst) and not res <= self.worst:
            self.worst = res
            self.witness = witness()

    def note_lanes(self, res: np.ndarray, kept: np.ndarray, where: Callable[[int], dict]) -> None:
        """Record the residuals of the lanes that ``kept`` marks in one
        step, as ``note`` of each in lane order does, a lane's row of
        ``res`` in order when it has several: the first NaN, or else the
        first strict maximum above the worst so far, becomes the worst, and
        ``where`` of its index in the flattened ``res`` the witness."""
        self.evaluated += int(np.count_nonzero(kept))
        if math.isnan(self.worst) or not kept.any():
            return
        res = np.where(kept[:, None], np.reshape(res, (len(kept), -1)), -math.inf).ravel()
        nan = np.isnan(res)
        k = int(nan.argmax() if nan.any() else res.argmax())
        if nan[k] or res[k] > self.worst:
            self.worst = float(res[k])
            self.witness = where(k)

    def report(
        self, name: str, family: BilliardFamily | None, params: dict, bound: float,
        floor: float = 1,
    ) -> CheckReport:
        """Pass when the worst residual is within ``bound``; with fewer than
        ``floor`` samples evaluated, or none, fail whatever the worst is.
        The params gain the count of evaluated samples and the dropped ones
        by exception class."""
        counts = {"evaluated": self.evaluated, "dropped": dict(sorted(self.dropped.items()))}
        if self.evaluated < max(floor, 1):
            status, witness = "fail", counts
        elif self.worst <= bound:
            status, witness = "pass", None
        else:
            status, witness = "fail", self.witness
        label = None if family is None else family.label()
        return CheckReport(
            name, label, {**params, **counts}, status, self.worst, witness, _fallbacks=self.fallbacks
        )


def _worse(*residuals: float) -> float:
    """The largest of a sample's residuals, NaN when any is NaN; ``max``
    would return whichever argument comes first against a NaN."""
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


#: radius of the disks around singular tangency parameters that samples avoid
SINGULAR_GUARD = 0.2
#: conditioned draws keep |sigma_P(z) - z0| within this window
_WINDOW = (0.05, 25.0)
#: most randoms pulled at once: the lanes of a block stay far below the
#: 16 384 complex values from which numpy computes products in place
_DRAW_BLOCK = 8192


def _randoms(rng: random.Random, size: int) -> np.ndarray:
    """``size`` randoms of ``rng`` on a lane: the floats and the stream
    state of as many ``rng.random()`` calls, each built as CPython builds it
    from two 32-bit Mersenne Twister words, the first one's top 27 bits over
    the second one's top 26."""
    words = np.frombuffer(rng.getrandbits(64 * size).to_bytes(8 * size, "little"), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * 2.0**-53


def _draws(
    family: BilliardFamily, rng: random.Random, n: int, *, conditioned: bool
) -> tuple[np.ndarray, np.ndarray]:
    """n draws of a tangency parameter z0, uniform on the annulus
    0.1 <= |z0| <= 3 minus the ``SINGULAR_GUARD`` disks, and an offset u,
    uniform on 0.05 <= |u| <= 2: the arrays of z0 and of the point z = z0 + u
    of the tangent line, with ``conditioned`` keeping only draws whose
    involution image of z lies within ``_WINDOW`` of z0.

    Attempt k takes randoms 4k to 4k + 3 of the stream (:func:`_randoms`):
    the square of z0's modulus as a fraction of the annulus, z0's angle in
    turns, then the same two for u.  It is kept when z0 lies outside every
    guard disk and, for a conditioned draw, when |``_involution_z``(z0, z)
    - z0| lies in ``_WINDOW``; a distance that is not finite, at the
    involution's pole, is outside it.  Both tests run on numpy lanes, and
    the draws are the first n kept attempts.  The randoms are pulled in
    blocks of four per missing draw, at most ``_DRAW_BLOCK``; every
    operation is elementwise, so the draws do not depend on the block size.
    """
    z0s, zs = [np.empty(0, complex)], [np.empty(0, complex)]
    missing = n
    while missing:
        r = _randoms(rng, min(4 * missing, _DRAW_BLOCK))
        z0 = np.sqrt(0.1**2 + (3.0**2 - 0.1**2) * r[0::4]) * np.exp(2j * math.pi * r[1::4])
        z = z0 + np.sqrt(0.05**2 + (2.0**2 - 0.05**2) * r[2::4]) * np.exp(2j * math.pi * r[3::4])
        kept = np.ones(len(z0), dtype=bool)
        for s in family.spec.singular_finite:
            kept &= abs(z0 - s) >= SINGULAR_GUARD
        if conditioned:
            with np.errstate(all="ignore"):
                dist = abs(_involution_z(family, z0, z) - z0)
            kept &= (dist >= _WINDOW[0]) & (dist <= _WINDOW[1])
        hits = np.flatnonzero(kept)[:missing]
        z0s.append(z0[hits])
        zs.append(z[hits])
        missing -= len(hits)
    return np.concatenate(z0s), np.concatenate(zs)


def _phase_point(z0: complex, z: complex) -> PhasePoint:
    """The phase point (Q, P) with P = (z0, z0^2) and Q the point of its
    tangent line at z, built without the NamedTuple's Python-level
    ``__new__``."""
    return tuple.__new__(PhasePoint, (_point_on_tangent(z0, z), conic_point(z0)))


def sample_phase_point(family: BilliardFamily, rng: random.Random) -> PhasePoint:
    """Random phase point: tangency parameter uniform on the annulus
    0.1 <= |z0| <= 3 minus the ``SINGULAR_GUARD`` disks, offset uniform on
    0.05 <= |u| <= 2.

    The involution image must stay at a moderate distance from the tangency
    point, which keeps the form evaluations well scaled.
    """
    z0, z = _draws(family, rng, 1, conditioned=True)
    return _phase_point(z0[0].item(), z[0].item())


def _laned(
    residual: Callable, lanes: tuple[np.ndarray, ...], where: Callable[[int], dict],
    fallback: Callable[[int], float | None] | None = None,
) -> _Residuals:
    """The residuals of a check whose samples are lanes: ``residual``, which
    returns each lane's residual, or a row of them, and its image, runs once
    on fresh contiguous numpy arrays of every lane (numpy's complex ``abs``
    rounds differently on a strided view).

    A lane whose residuals are not finite or whose image has modulus
    INF_THRESHOLD or more is evaluated again by ``fallback(k)``, by default
    ``residual`` on the lane's Python numbers: on the involution's pole
    numpy gives a non-finite or huge image, and Python numbers give INF, as
    the scalar path does; the result's ``fallbacks`` counts these lanes.  A
    call that raises drops its lanes (the lane call all of them) under the
    exception class; a fallback that returns None drops its lane as an
    infinite value.  The residuals are then recorded in one step, and the
    witness is ``where`` of the first worst residual
    (:meth:`_Residuals.note_lanes`).
    """
    acc = _Residuals()
    lanes = tuple(map(np.array, lanes))
    if fallback is None:
        def fallback(k):
            return float(residual(*(lane[k].item() for lane in lanes))[0])
    try:
        with np.errstate(all="ignore"):
            res, image = residual(*lanes)
            finite = np.isfinite(res)
            if finite.ndim > 1:  # a row of residuals per lane
                finite = finite.all(axis=1)
            again = np.flatnonzero(~(finite & (abs(image) < INF_THRESHOLD))).tolist()
    except Exception as exc:
        acc.dropped[type(exc).__name__] += len(lanes[0])
        return acc
    res = np.array(res, dtype=float)
    kept = np.ones(len(res), dtype=bool)
    acc.fallbacks += len(again)
    for k in again:
        try:
            r = fallback(k)
        except Exception as exc:
            acc.dropped[type(exc).__name__] += 1
            kept[k] = False
            continue
        if r is None:
            acc.dropped["infinite value"] += 1
            kept[k] = False
        else:
            res[k] = r
    acc.note_lanes(res, kept, where)
    return acc


def _sampled(
    kind: str, family: BilliardFamily, samples: int, seed: int, bound: float, residual: Callable,
    *, conditioned: bool = True, scalar: Callable | None = None,
) -> CheckReport:
    """The report of a sampled check: its draws (z0, z), their residuals on
    lanes, ``scalar`` of a lane's Python numbers as the fallback, and the
    verdict with half the samples as the floor."""
    name = f"{kind}:{family.label()}"
    z0s, zs = _draws(family, _rng_for(seed, name), samples, conditioned=conditioned)
    fallback = None if scalar is None else lambda k: scalar(z0s[k].item(), zs[k].item())
    acc = _laned(
        residual, (z0s, zs),
        lambda k: {"sample": k, "z0": repr(z0s[k].item()), "z": repr(zs[k].item())}, fallback,
    )
    return acc.report(name, family, {"samples": samples, "seed": seed}, bound, samples / 2)


def _gap(value, target, shift: float = 0.0):
    """|value + shift - target| relative to max(1, |target|), on lanes or
    Python numbers; infinite when the value is INF."""
    if value is INF:
        return math.inf
    return abs(value + shift - target) / np.maximum(1.0, abs(target))


def _skipped(
    name: str, family: BilliardFamily, params: dict, reason: str, detail: str, steps_taken: int,
    acc: _Residuals | None = None,
) -> CheckReport:
    """The report of an orbit check whose orbit stopped early, with the
    worst residual of ``acc`` if its iterates were evaluated."""
    witness = {"reason": reason, "detail": detail, "steps_taken": steps_taken}
    acc = _Residuals() if acc is None else acc
    return CheckReport(
        name, family.label(), params, "skipped", acc.worst, witness, _fallbacks=acc.fallbacks
    )


def _involution_residual(family: BilliardFamily, z0, z1, shift: float = 0.0):
    """The worse of the relative defects of sigma_P o sigma_P = id at the
    point z1 of the tangent line at P = (z0, z0^2) and of sigma_P(P) = P;
    ``shift`` is added to the image of z1 twice mapped.  Returns that
    residual and the image of z1."""
    once = _involution_z(family, z0, z1)
    twice = _involution_z(family, z0, once)
    fixed = _involution_z(family, z0, z0)
    return np.maximum(_gap(twice, z1, shift), _gap(fixed, z0)), once


def check_involution(
    family: BilliardFamily, samples: int = 1000, seed: int = 0, *, corrupt: bool = False
) -> CheckReport:
    """sigma_P o sigma_P = id and sigma_P(P) = P on random samples."""
    shift = 1e-3 if corrupt else 0.0
    return _sampled(
        "involution", family, samples, seed, 1e-9,
        lambda z0, z: _involution_residual(family, z0, z, shift), conditioned=False,
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
#: an iterate whose value on the tangent line may be off by more than a
#: thousandth of the bound (see integrals._on_tangent_factored) is evaluated
#: exactly
_ROUNDING_LIMIT = 1e-3 * CONSERVATION_BOUND / sys.float_info.epsilon


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
    states, offsets, reason, detail, taken = _offset_run(family, x0, steps)
    # Q_k, k >= 1, is the point at offset u'_{k-1} = -u_k of the tangent
    # line at P_{k-1}, which keeps it where |u'| is far above |z0|
    z0s = states[:1] + states[:-1]
    us = offsets[:1] + [-u for u in offsets[1:]]
    if taken == len(states):  # the last step went to E: Q is the infinite point of the last line
        z0s.append(states[-1])
        us.append(INF)
    target = lam * (1 + 1e-3) if corrupt else lam
    # an infinite Q is a NaN lane, which the exact path evaluates
    z0_lanes, u_lanes = np.array(z0s), np.array([math.nan if u is INF else u for u in us])
    q = _canonical(*_on_tangent(z0_lanes, u_lanes), np.ones_like(z0_lanes))
    # the exact evaluation raises IndeterminacyError inside the base-point
    # guard; the lanes drop those iterates as it would
    inside = _base_point_distance(family, q) <= BASE_POINT_GUARD
    steps_left = np.flatnonzero(~inside).tolist()

    def residual(z0, u):
        val, cond = _on_tangent_factored(family, z0, u)
        return _gap(val, target), np.where(cond > _ROUNDING_LIMIT, math.nan, val)

    def exact(k):
        k = steps_left[k]
        val = _exact_on_tangent(family, z0s[k], us[k])
        return None if val.is_inf else float(_gap(val.value, target))

    def where(k):
        k = steps_left[k]
        return {"step": k, "q": repr(_tangent_point(z0s[k], us[k]))}

    acc = _laned(residual, (z0_lanes[~inside], u_lanes[~inside]), where, exact)
    if inside.any():
        acc.dropped["IndeterminacyError"] += int(np.count_nonzero(inside))
    params = {"lam": repr(lam), "steps": steps, "seed": seed}
    if reason != "completed":
        return _skipped(name, family, params, reason, detail, taken, acc)
    return acc.report(name, family, params, CONSERVATION_BOUND)


def _offset_run(
    family: BilliardFamily, x0: PhasePoint, n: int
) -> tuple[list[complex], list[complex | SphereValue], str, str, int]:
    """Up to n steps of ``billiards._offset_orbit`` from the phase point x0,
    validated and turned into its offset state (z0, u); a start with P at E
    has no offset state and is refused."""
    x0.validate()
    z0, z1 = _z_param(x0.p), _z_param(x0.q)
    if z0 is INF:
        raise ValueError(f"the start {x0} of an orbit check has its tangency point at E")
    return _offset_orbit(family, z0, INF if z1 is INF else z1 - z0, n)


def _orbit_points(family: BilliardFamily, x0: PhasePoint, n: int) -> tuple[list[PhasePoint], str, str, int]:
    """The iterates of up to n steps from x0 as ``orbit`` lists them, with
    its stop reason, detail and steps taken, from the offset kernel
    (:func:`_offset_run`): x0, then the phase point of each state, and,
    when the last step went to E, the infinite point of the last tangent
    line with E."""
    states, offsets, reason, detail, taken = _offset_run(family, x0, n)
    points = [x0] + [_phase_point(z0, z0 + u) for z0, u in zip(states[1:], offsets[1:])]
    if taken == len(states):
        points.append(PhasePoint(_point_on_tangent(states[-1], INF), E_INFINITY))
    return points, reason, detail, taken


def _canonical(z: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per lane, the canonical coordinates (see
    :class:`~dualbill.geometry.ProjectivePoint`) of [z : w : t], as rows
    z, w, t: the first coordinate of largest modulus becomes 1 and the
    others are divided by it."""
    one = np.ones_like(z)
    az, aw, at = abs(z), abs(w), abs(t)
    by_z = (az >= aw) & (az >= at)
    by_w = ~by_z & (aw >= at)
    with np.errstate(all="ignore"):
        return np.where(by_z, [one, w / z, t / z], np.where(by_w, [z / w, one, t / w], [z / t, w / t, one]))


def _base_point_distance(family: BilliardFamily, coords: np.ndarray) -> np.ndarray:
    """Per lane of projective coordinates (rows z, w, t), the least cross
    norm (:func:`~dualbill.geometry.cross_norm`) with a base point, which
    the exact evaluation's guard compares with BASE_POINT_GUARD."""
    z, w, t = coords
    dist = np.full(len(z), math.inf)
    for bp in family.spec.base_points:
        bz, bw, bt = bp.coords
        norm = np.hypot(np.hypot(abs(w * bt - t * bw), abs(t * bz - z * bt)), abs(z * bw - w * bz))
        dist = np.minimum(dist, norm)
    return dist


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
    common difference must match 2/(2N+1) resp. 1/(N+1) to 1e-9.  It is 2 -
    rho for any rho the map uses, so it is read off the integral: 2 minus
    the order at z = 0 of D(z, z^2) over the zero order k of R = C^k/D.
    """
    if not family.spec.takes_n:
        raise ValueError("translation dynamics applies to the a-families")
    name = f"translation:{family.label()}:lam={lam}"
    points, reason, detail, taken = _orbit_points(family, lift_fiber(family, lam, start, branch), steps)
    params = {"lam": repr(lam), "steps": steps, "seed": seed, "start": repr(start)}
    if reason != "completed":
        return _skipped(name, family, params, reason, detail, taken)
    taus = [curve_parameter(family, x).value for x in points]
    diffs = [b - a for a, b in zip(taus, taus[1:])]
    integ, on_parabola = first_integral(family), Counter()
    for (i, j), c in integ.den.coeffs.items():
        on_parabola[i + 2 * j] += c
    expected = 2 - Fraction(min(k for k, c in on_parabola.items() if c), integ.zero_order)
    shift = float(expected) * (1 + 1e-3 if corrupt else 1)
    acc = _Residuals()
    for k, dv in enumerate(diffs):
        acc.note(min(abs(dv - shift), abs(dv + shift)), lambda: {"step": k, "diff": repr(dv)})
    if diffs:  # with no step the report fails on its floor
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
    """Orbit steps integrate the fiber differential to a constant mod lattice;
    a model or steps that cannot be integrated drop every step and fail, and
    so does a run of fewer than two steps, whose one residual is step 0
    against itself."""
    if not family.spec.elliptic_fiber:
        raise ValueError("Abel translation applies to the b and d families")
    name = f"abel:{family.label()}:lam={lam}"
    params = {"lam": repr(lam), "steps": steps, "seed": seed, "start": repr(start)}
    points, reason, detail, taken = _orbit_points(family, lift_fiber(family, lam, start, branch), steps)
    if reason != "completed":
        return _skipped(name, family, params, reason, detail, taken)
    acc = _Residuals()
    try:
        model = elliptic_model(family, lam)
        for k, x in enumerate(points):
            t = curve_parameter(family, x).value
            if min(abs(t - r) for r in model.roots) < 1e-9:
                detail = f"step {k} at t = {t!r}"
                return _skipped(name, family, params, "orbit parameter on a branch point", detail, taken)
        vals = abel_steps(family, lam, points, model)
    except (ValueError, RuntimeError) as exc:
        acc.dropped[type(exc).__name__] += steps
        vals = []
    if corrupt:
        vals = [v + 1e-3 * k for k, v in enumerate(vals)]
    for k, v in enumerate(vals):
        acc.note(abs(model.lattice_reduce(v - vals[0])), lambda: {"step": k, "value": repr(v)})
    return acc.report(name, family, params, 1e-5, floor=2)


def check_area_form(
    family: BilliardFamily, samples: int = 200, seed: int = 0, *, corrupt: bool = False
) -> CheckReport:
    """Pullback test of the invariant area form under the chart Jacobian,
    with the image's chart offset z0 - z* from the jets and no step of the
    phase map (:func:`~dualbill.forms._area_defect`).  A lane whose offset
    is infinite, or whose residual is not finite, takes the scalar
    ``forms._area_residual``."""
    shift = 1e-3 if corrupt else 0.0

    def residual(z0, z):
        res, dependent, off_img = _area_defect(family, z0, z)
        return np.where(dependent, math.nan, res + shift), off_img

    return _sampled(
        "area", family, samples, seed, 1e-6, residual,
        scalar=lambda z0, z: _area_residual(family, z0, z) + shift,
    )


def _jacobian_residual(family: BilliardFamily, z0, z, corrupt: bool = False):
    """Relative defect between :func:`~dualbill.forms.halfstep_jacobian` and
    the determinant of the chart Jacobian of the implemented involution at
    the point z of the tangent line at z0; returns it and the image z*."""
    z_img, ((a, b), (c, d)) = _chart_derivative(family, z0, z)
    closed = halfstep_jacobian(family, z0, z)
    if corrupt:
        closed = closed * (1 + 1e-3)
    return abs(closed - (a * d - b * c)) / np.maximum(1.0, abs(closed)), z_img


def check_jacobian(
    family: BilliardFamily, samples: int = 200, seed: int = 0, *, corrupt: bool = False
) -> CheckReport:
    """Closed-form half-step Jacobian against the chart Jacobian of the
    implemented map."""
    return _sampled(
        "jacobian", family, samples, seed, 1e-6,
        lambda z0, z: _jacobian_residual(family, z0, z, corrupt),
    )


# --------------------------------------------------------------------------
# table verification

#: per (family, critical value): how many components of its cell pass
#: through each base point, in the order of ``spec.base_points``
_BASE_POINT_COMPONENTS: dict[tuple[str, SphereValue], tuple[int, ...]] = {
    ("b1", SphereValue(1)): (2, 1, 2),
    ("b1", SphereValue(Fraction(4, 3))): (2, 2, 2),
    ("c1", SphereValue(Fraction(27, 64))): (2, 2, 2),
    ("c2", SphereValue(Fraction(-9, 64))): (2, 2, 2),
    ("d", INF): (2, 2, 3),
}


def _component_value(poly, point: ProjectivePoint) -> float:
    """Modulus of the homogenized component polynomial at the point
    (:meth:`~dualbill.integrals.BiPoly.at`) over its largest coefficient
    modulus."""
    scale = max((abs(complex(c)) for c in poly.coeffs.values()), default=0.0)
    return abs(poly.at(*point.coords)) / max(scale, 1e-300)


def check_tables(family: BilliardFamily, seed: int = 0, *, corrupt: bool = False) -> CheckReport:
    """Re-verify every tabulated critical value, critical point, base point
    and component-intersection point by direct evaluation.

    A critical point of a reducible critical level curve is where two of
    its components meet: each row point must lie on two components of its
    cell, built once per row, and a base point on as many as
    ``_BASE_POINT_COMPONENTS`` gives; on a cell that lists fewer, its
    residual is infinite."""
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
            (gz, gw), hess = gradient_hessian_projective(family, pt, reciprocal=recip)
            note(max(abs(gz), abs(gw)), "gradient: at critical point", cp)
            (rzz, rzw), (rwz, rww) = hess
            deth = abs(rzz * rww - rzw * rwz)
            note(0.0 if deth >= 1e-6 else 1.0, "hessian: Morse nondegeneracy", cp)
        for ip in row.indeterminacies:
            if not any(ip.eq(bp) for bp in indeterminacy_set(family)):
                note(1.0, "incidence: critical indeterminacy is a base point", ip)
        counts = _BASE_POINT_COMPONENTS.get((family.tag, lam), ())
        if not (row.points or counts):
            continue
        comps = critical_fiber_components(family, lam)
        for point, k in [*((cp, 2) for cp in row.points), *zip(family.spec.base_points, counts)]:
            pt = displaced(point)
            residuals = sorted(_component_value(c.poly, pt) for c in comps) + [math.inf] * k
            note(residuals[k - 1], f"incidence: on {k} components", point)
    params = {"seed": seed, "worst_by_kind": by_kind}
    return acc.report(name, family, params, 1e-8)


#: the integral equivalences pass within this relative residual
_EQUIVALENCE_BOUND = 1e-9
#: a lane whose integral values may be off by more than a thousandth of the
#: bound (see integrals._factored) is evaluated exactly
_EQUIVALENCE_LIMIT = 1e-3 * _EQUIVALENCE_BOUND / sys.float_info.epsilon
#: a lane within this of a base point's BASE_POINT_GUARD is evaluated exactly:
#: its distance on lanes and the exact guard's may differ by rounding
_GUARD_ROUNDING = 1e-12
_EQUIVALENCE_KINDS = ("b-integral equivalence", "c-integral equivalence")


def _integral_lanes(family: BilliardFamily, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R of the family at lanes of canonical coordinates (rows z, w, t) by
    its factors, with the estimate of its relative rounding error
    (:func:`~dualbill.integrals._factored`); the conic w t - z^2 is off by
    about (|w| |t| + |z|^2) / |w t - z^2| machine epsilons of itself."""
    z, w, t = coords
    az, aw, at = abs(z), abs(w), abs(t)
    wt, zz = w * t, z * z
    conic = wt - zz
    return _factored(family, z, w, t, conic, (az, aw, at), (aw * at + az * az) / abs(conic))


def _mapped(m: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The canonical coordinates of the images of lanes of points under the
    projective map with matrix m, one elementwise sum per row (a matrix
    product may round a lane by its place in the batch)."""
    z, w, t = coords
    rows = []
    for a, b, c in m.tolist():
        x, y, s = a * z, b * w, c * t
        rows.append(x + y + s)
    return _canonical(*rows)


def _integral_equivalences(rng: random.Random, psi: ProjectiveMap, mc: ProjectiveMap) -> _Residuals:
    """The residuals of R_b1(p) = R_b2(psi(p)) and of -3 R_c2(p) =
    R_c1(m_c(p)), relative to max(1, |R_b1(p)|) and max(1, |R_c1(m_c(p))|),
    at 100 points p = (z, w).

    Point k takes randoms 4k to 4k + 3 of the stream (:func:`_randoms`) as
    the real and imaginary parts of z and then of w, each as -2 + 4 r, which
    is ``rng.uniform(-2, 2)``; a dropped point is not replaced.  The points,
    psi and m_c are applied on lanes of canonical coordinates, and R by its
    factors (:func:`_integral_lanes`).  A lane is evaluated again on the
    exact scalar path, ``eval_integral`` on ProjectivePoints, when a value's
    rounding estimate exceeds ``_EQUIVALENCE_LIMIT``, a value is not finite
    or reaches INF_THRESHOLD, or a point is within rounding of a base
    point's ``BASE_POINT_GUARD`` or inside it.  That path drops a point
    under the class of the first evaluation that raises, in the order b1,
    b2, c2, c1, and then as an infinite value.  A point's two residuals are
    noted in that order, the first counting the point as evaluated.
    """
    b1, b2 = BilliardFamily("b1"), BilliardFamily("b2")
    c1, c2 = BilliardFamily("c1"), BilliardFamily("c2")

    def residual(z, w):
        p = _canonical(z, w, np.ones_like(z))
        # b1 and c2 share their base points (0,0), (1,1) and E, so one
        # distance at p serves both
        at_p = _base_point_distance(b1, p)
        sure, values = True, []
        for family, coords in ((b1, p), (b2, _mapped(psi.matrix, p)), (c2, p), (c1, _mapped(mc.matrix, p))):
            val, cond = _integral_lanes(family, coords)
            dist = at_p if coords is p else _base_point_distance(family, coords)
            far = dist > BASE_POINT_GUARD + _GUARD_ROUNDING
            sure = sure & far & (cond <= _EQUIVALENCE_LIMIT) & (abs(val) < INF_THRESHOLD)
            values.append(val)
        rb1, rb2, rc2, rc1 = values
        b_gap, c_gap = rb1 - rb2, -3.0 * rc2 - rc1
        res = [abs(b_gap) / np.maximum(1.0, abs(rb1)), abs(c_gap) / np.maximum(1.0, abs(rc1))]
        return np.stack(res, axis=1), np.where(sure, 0.0, math.nan)

    # parts (z.re, z.im, w.re, w.im) of each point
    z, w = (_randoms(rng, 400) * 4.0 - 2.0).view(complex).reshape(100, 2).T

    def exact(k):
        pt = ProjectivePoint.affine(z[k].item(), w[k].item())
        rb1 = eval_integral(b1, pt)
        rb2 = eval_integral(b2, psi(pt))
        rc2 = eval_integral(c2, pt)
        rc1 = eval_integral(c1, mc(pt))
        if rb1.is_inf or rb2.is_inf or rc1.is_inf or rc2.is_inf:
            return None
        b_res = abs(rb1.value - rb2.value) / max(1.0, abs(rb1.value))
        return b_res, abs(-3 * rc2.value - rc1.value) / max(1.0, abs(rc1.value))

    def where(k):
        pt = ProjectivePoint.affine(z[k // 2].item(), w[k // 2].item())
        return {"what": _EQUIVALENCE_KINDS[k % 2], "where": repr(pt)}

    return _laned(residual, (z, w), where, exact)


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
    # one evaluated sample per point; the map commutation below counts none
    acc = _integral_equivalences(rng, psi, mc)

    def note(res: float, what: str, where):
        acc.note(res, lambda: {"what": what, "where": repr(where)}, count=False)
    # lifted-map commutation on 25 phase points
    z0s, zs = _draws(b1, rng, 25, conditioned=True)
    for x in map(_phase_point, z0s.tolist(), zs.tolist()):
        try:
            fx = billiard_map(b1, x)
            lifted = PhasePoint(psi(x.q), psi(x.p))
            fy = billiard_map(b2, lifted)
        except Exception:
            # a corrupted equivalence throws the lift off the parabola;
            # count that as a failing residual
            note(1.0, "billiard-map lift rejected", x.q)
            continue
        img = PhasePoint(psi(fx.q), psi(fx.p))
        qres = cross_norm(img.q.coords, fy.q.coords)
        pres = cross_norm(img.p.coords, fy.p.coords)
        note(_worse(qres, pres), "billiard-map commutation", x.q)
    return acc.report(name, None, {"samples": 100, "seed": seed}, _EQUIVALENCE_BOUND)


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
    level; the kinds without a level (involution, area, jacobian, tables)
    refuse one.  A family with no frozen translation case runs lambda = 1.0
    from tau = 1.7, and b2's Abel check takes b1's case.  The entries look
    the check functions up in this module when they run.
    """
    label = family.label()
    single = {
        "involution": lambda: check_involution(family, 1000, seed, corrupt=corrupt),
        "area": lambda: check_area_form(family, 200, seed, corrupt=corrupt),
        "jacobian": lambda: check_jacobian(family, 200, seed, corrupt=corrupt),
        "tables": lambda: check_tables(family, seed, corrupt=corrupt),
    }
    if kind in single:
        if lam is not None:
            raise ValueError(f"check {kind!r} has no level: it takes no lambda")
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
