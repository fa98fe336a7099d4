"""Alternating phase-walk search schedules.

Builders for the three search routes on a CIIN, all expressed as
chronological step lists (first element acts first; operator products in
standard notation apply rightmost-first, and the builders own that
translation):

* the approximate route: an oracle-pi iterate rotates |s> toward the fourth
  adjacency eigenvector, reaching the entangled target (|w> + |w~>)/sqrt(2)
  up to an integer-rounding residual, then a two-step coherent map lands
  near the marked vertex;
* the deterministic route (n divisible by 4): the same rotation slowed by a
  phase angle theta so an integer number of iterations lands exactly, then
  an exact two-query map from the entangled state to the marked vertex;
* the odd-n route: a simpler half-turn iterate rotating |s> toward an
  auxiliary state xi, with its own derandomization and finishing map.

Sign conventions that the closed-form parameter derivations leave ambiguous
(final walk phases, mapping reversals, quadrant branches) are pinned by
end-to-end numerical verification in the test suite; the corrections are
commented where they occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# schedule_matrix lives beside the walk it folds, and stays public here
from .dynamics import (
    FinishingRule,
    Schedule,
    ScheduleStep,
    StepKind,
    oracle_step,
    schedule_matrix,
    walk_step,
)
from .errors import (
    MappingUnavailableError,
    ThetaNotRealError,
    UnsupportedSizeError,
)
from .graphs import GraphSize, dual_basis

PI = math.pi


def nint(x: float) -> int:
    """Nearest integer, rounding half up (ties at .5 go to the larger value)."""
    return int(math.floor(x + 0.5))


def _arcsin_guarded(argument: float, context: str) -> float:
    # Valid parameter choices keep |argument| <= 1; allow rounding spill.
    if abs(argument) > 1.0 + 1e-9:
        raise ThetaNotRealError(f"{context}: arcsin argument {argument} out of range")
    return math.asin(max(-1.0, min(1.0, argument)))


# ---------------------------------------------------------------------------
# parameter sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxParams:
    """Walk times, phase rotation rate, and iteration count for the
    approximate route."""

    n: int
    t1: float
    t2: float
    t3: float
    lambda_plus: float
    p: int


def approx_params(size: GraphSize) -> ApproxParams:
    n = size.n
    if n < 3:
        raise UnsupportedSizeError(f"approximate schedule requires n >= 3, got {n}")
    k = nint(n / 4)
    t1 = 2.0 * PI * k / n
    if n % 4 == 0:
        # tan(t1) is singular at t1 = pi/2; use the exact simplification.
        t2 = PI / n
    else:
        t2 = -(2.0 / n) * math.atan((n - 2.0) / n * math.tan(t1))
    lambda_plus = math.asin(2.0 * math.sqrt(n - 1.0) / n * math.sin(t1))
    p = max(1, round(math.acos(1.0 / math.sqrt(n)) / lambda_plus))
    t3 = PI / (2.0 * n) - t2 / 2.0
    if 4 * k < n:
        # For t1 below pi/2 (n = 1 mod 4) the iterate leaves the fourth
        # eigenvector's phase a half-turn away from the nominal formula;
        # shift the tuning walk accordingly (verified end to end in tests).
        t3 += PI / n
    return ApproxParams(n=n, t1=t1, t2=t2, t3=t3, lambda_plus=lambda_plus, p=p)


@dataclass(frozen=True)
class DeterministicParams:
    """Slowed-rotation parameters making the entangled state exact after p
    iterations."""

    n: int
    p: int
    p_min: int
    theta: float
    gamma: float
    t3: float


def deterministic_p_min(size: GraphSize) -> int:
    n = size.n
    return math.ceil(
        math.acos(1.0 / math.sqrt(n)) / (2.0 * math.asin(2.0 * math.sqrt(n - 1.0) / n))
    )


def deterministic_params(size: GraphSize, p: int) -> DeterministicParams:
    n = size.n
    if n % 4 != 0:
        raise UnsupportedSizeError(f"deterministic schedule requires n = 0 mod 4, got {n}")
    p_min = deterministic_p_min(size)
    if p < p_min:
        raise ThetaNotRealError(f"p={p} is below p_min={p_min} for n={n}")
    half_angle = math.acos(1.0 / math.sqrt(n)) / (2.0 * p)
    theta = 2.0 * _arcsin_guarded(
        n / (2.0 * math.sqrt(n - 1.0)) * math.sin(half_angle), f"theta(n={n}, p={p})"
    )
    gamma = math.atan((n - 2.0) / n * math.tan(theta / 2.0))
    t3 = PI / (2.0 * n) - gamma / n
    return DeterministicParams(n=n, p=p, p_min=p_min, theta=theta, gamma=gamma, t3=t3)


@dataclass(frozen=True)
class MappingParams:
    """Integer walk-time pair and phases mapping |marked> to the entangled
    state in two oracle queries."""

    n: int
    j: int
    k: int
    phi: float
    gamma: float


def mapping_params(size: GraphSize) -> MappingParams:
    n = size.n
    if n < 8:
        raise MappingUnavailableError(f"no valid (j, k) walk-time pair for n={n} < 8")
    j = n // 8
    k = -(-n // 8)
    radicand = -math.cos(4.0 * PI * (j + k) / n) / math.cos(4.0 * PI * (j - k) / n)
    if radicand < -1e-12:
        raise MappingUnavailableError(
            f"(j, k)=({j}, {k}) gives negative radicand {radicand} for n={n}"
        )
    phi = 2.0 * math.atan(math.sqrt(max(radicand, 0.0)))
    denominator = math.cos(4.0 * PI * k / n)
    if denominator == 0.0:
        # limit of the arccot expression as its argument diverges
        return MappingParams(n=n, j=j, k=k, phi=phi, gamma=0.0)
    ratio = math.sin(4.0 * PI * j / n) / denominator
    squared = ratio * ratio - 1.0
    if squared < -1e-9:
        raise MappingUnavailableError(
            f"(j, k)=({j}, {k}) gives no real phase correction for n={n}"
        )
    gamma = math.atan2(1.0, math.sqrt(max(squared, 0.0)))
    return MappingParams(n=n, j=j, k=k, phi=phi, gamma=gamma)


@dataclass(frozen=True)
class OddPathParams:
    """Derandomized parameters for the odd-n route and its finishing map."""

    n: int
    p: int
    p_min: int
    theta: float
    phi: float
    gamma: float
    xi_unwind_time: float


def odd_p_min(size: GraphSize) -> int:
    n = size.n
    return math.ceil(PI / (4.0 * math.asin(2.0 * math.sqrt(n - 1.0) / n)))


def odd_params(size: GraphSize, p: int) -> OddPathParams:
    n = size.n
    if n % 2 == 0:
        raise UnsupportedSizeError(f"odd-path schedule requires odd n, got {n}")
    p_min = odd_p_min(size)
    if p < p_min:
        raise ThetaNotRealError(f"p={p} is below p_min={p_min} for n={n}")
    theta = 2.0 * _arcsin_guarded(
        n / (2.0 * math.sqrt(n - 1.0)) * math.sin(PI / (4.0 * p)), f"theta(n={n}, p={p})"
    )
    phi = 2.0 * math.asin(n ** 1.5 / (4.0 * (n - 2.0) * math.sqrt(n - 1.0)))
    # atan2 keeps the correct quadrant where n^2 - 8n + 8 < 0 (n = 3, 5).
    gamma = math.atan2(n * n / math.tan(phi / 2.0), n * n - 8.0 * n + 8.0)
    return OddPathParams(
        n=n,
        p=p,
        p_min=p_min,
        theta=theta,
        phi=phi,
        gamma=gamma,
        xi_unwind_time=-PI * n / 4.0,
    )


# ---------------------------------------------------------------------------
# schedule builders
# ---------------------------------------------------------------------------


def _approx_steps(params: ApproxParams) -> tuple[ScheduleStep, ...]:
    """The approximate iterate: O(pi) W(t1) O(pi) W(t2)."""
    return (oracle_step(PI), walk_step(params.t1), oracle_step(PI), walk_step(params.t2))


def _slowed_steps(n: int, theta: float) -> tuple[ScheduleStep, ...]:
    """One slowed iterate U(theta): O(theta) W(pi/2) O(theta) W(pi/n)."""
    return (oracle_step(theta), walk_step(PI / 2.0), oracle_step(theta), walk_step(PI / n))


def _half_turn_steps(theta: float) -> tuple[ScheduleStep, ...]:
    """The odd-n half-turn iterate: O(theta) W(pi/2)."""
    return (oracle_step(theta), walk_step(PI / 2.0))


def approx_schedule(size: GraphSize, finishing: str = "coherent") -> Schedule:
    """Approximate search schedule.

    finishing:
      "coherent"  append the two-step map to the marked vertex and confirm
                  the measured outcome with one extra query (the map is not
                  exact at finite n), so queries total 2p + 2;
      "measure"   stop at the entangled state and resolve it classically
                  (measure and confirm), 2p + 1 queries;
      "none"      stop at the entangled state coherently, 2p queries.

    The iteration count p, the nearest integer to
    arccos(1/sqrt(n)) / lambda_+, misses the rotation angle by at most
    lambda_+/2, so the state reached with
    finishing="none" has entangled fidelity
    cos^2(p * lambda_+ - arccos(1/sqrt(n))) >= cos^2(lambda_+/2), which
    equals 1 - 1/n for n = 0 mod 4 (there cos(lambda_+) = (n - 2)/n).  The
    fidelity is not monotonic in n: the rounding residual oscillates.
    """
    params = approx_params(size)
    iterate = _approx_steps(params)
    steps = iterate * params.p + (walk_step(params.t3),)
    if finishing == "coherent":
        k8 = nint(size.n / 8)
        steps += (oracle_step(PI / 2.0), walk_step(2.0 * PI * k8 / size.n))
        rule = FinishingRule.MEASURE_AND_CHECK
    elif finishing == "measure":
        rule = FinishingRule.MEASURE_AND_CHECK
    elif finishing == "none":
        rule = FinishingRule.NONE
    else:
        raise ValueError(f"unknown finishing mode {finishing!r}")
    return Schedule(steps, rule, n=size.n, variant="approx", p=params.p, iterate=iterate)


def marked_to_entangled(size: GraphSize) -> tuple[ScheduleStep, ...]:
    """Two-query fragment mapping |marked> to the entangled state exactly."""
    m = mapping_params(size)
    n = size.n
    return (
        walk_step(2.0 * PI * m.k / n),
        oracle_step(m.phi),
        walk_step(2.0 * PI * m.j / n),
        oracle_step(-m.gamma),
    )


def entangled_to_marked(size: GraphSize) -> tuple[ScheduleStep, ...]:
    """Exact two-query fragment mapping the entangled state to |marked>.

    The reverse of `marked_to_entangled`: same operators in reverse order
    with all parameters negated.
    """
    return tuple(
        ScheduleStep(step.kind, -step.parameter)
        for step in reversed(marked_to_entangled(size))
    )


def deterministic_schedule(size: GraphSize, p: int | None = None) -> Schedule:
    """Deterministic search schedule for n divisible by 4 (n >= 8).

    p iterations of the slowed double iterate, a tuning walk, then the exact
    entangled-to-marked map; the final state is the marked vertex with
    probability 1 up to rounding, using 4p + 2 oracle queries.
    """
    if p is None:
        p = deterministic_p_min(size)
    params = deterministic_params(size, p)
    finish = entangled_to_marked(size)
    n = size.n
    iterate = _slowed_steps(n, params.theta) + _slowed_steps(n, -params.theta)
    return Schedule(
        iterate * params.p + (walk_step(params.t3),) + finish,
        FinishingRule.COHERENT,
        n=n,
        variant="deterministic",
        p=params.p,
        iterate=iterate,
    )


def odd_schedule(size: GraphSize, deterministic: bool = True, p: int | None = None) -> Schedule:
    """Odd-n search schedule.

    Deterministic: p slowed iterations land exactly on the auxiliary state
    xi, a fixed unwinding walk moves its weight onto the marked vertex up to
    a two-query correction, ending at probability 1 (4p + 2 queries total).
    Approximate: p plain double iterates approach xi, the unwinding walk
    reaches marked-vertex probability about (n-1)/n, and the outcome is
    resolved classically (2p + 1 queries).
    """
    n = size.n
    if n % 2 == 0:
        raise UnsupportedSizeError(f"odd-path schedule requires odd n, got {n}")
    if deterministic:
        if p is None:
            p = odd_p_min(size)
        params = odd_params(size, p)
        iterate = _half_turn_steps(params.theta) * 2 + _half_turn_steps(-params.theta) * 2
        finish = (
            walk_step(params.xi_unwind_time),
            oracle_step(-params.gamma),
            walk_step(-PI),
            oracle_step(-params.phi),
            walk_step(-PI),
        )
        return Schedule(
            iterate * params.p + finish,
            FinishingRule.COHERENT,
            n=n,
            variant="odd-deterministic",
            p=p,
            iterate=iterate,
        )
    if p is None:
        p = max(1, round(PI / (4.0 * math.asin(1.0 / math.sqrt(n)))))
    elif p < 1:
        raise ValueError(f"p={p}: the approximate odd-n route needs p >= 1")
    iterate = _half_turn_steps(PI) * 2
    return Schedule(
        iterate * p + (walk_step(-PI * n / 4.0),),
        FinishingRule.MEASURE_AND_CHECK,
        n=n,
        variant="odd-approx",
        p=p,
        iterate=iterate,
    )


# ---------------------------------------------------------------------------
# iterate spectra
# ---------------------------------------------------------------------------


def xi_state(size: GraphSize, dual_coords: bool = False) -> np.ndarray:
    """The auxiliary rotation target of the odd-n route."""
    i_n = 1j ** (size.n % 4)
    coeffs = np.zeros(4, dtype=complex)
    coeffs[2] = (1.0 + i_n) / 2.0
    coeffs[3] = (1.0 + i_n) / 2.0 * i_n
    if dual_coords:
        return coeffs
    return dual_basis(size).from_dual(coeffs)


@dataclass(frozen=True)
class IterateSpectrum:
    """Closed-form eigenphases +-lambda_plus of an iterate's rotation block,
    with the corresponding eigenstates as columns (dual coordinates)."""

    lambda_plus: float
    eigenstates: np.ndarray


def iterate_spectrum(kind: str, size: GraphSize, theta: float | None = None) -> IterateSpectrum:
    n = size.n
    root = 2.0 * math.sqrt(n - 1.0) / n
    states = np.zeros((4, 2), dtype=complex)
    if kind == "approx":
        params = approx_params(size)
        lam = params.lambda_plus
        phase = np.exp(-1j * n * params.t2 / 2.0)
        # The +lambda eigenstate carries -phase on the first dual coordinate
        # when t1 sits below pi/2 (4 * nint(n/4) < n) and +phase otherwise;
        # same parity split as the t3 correction, pinned numerically.
        sign = -1.0 if 4 * nint(n / 4.0) < n else 1.0
        states[0, 0], states[3, 0] = sign * phase / np.sqrt(2.0), 1.0 / np.sqrt(2.0)
        states[0, 1], states[3, 1] = -sign * phase / np.sqrt(2.0), 1.0 / np.sqrt(2.0)
    elif kind == "deterministic":
        if theta is None:
            raise ValueError("deterministic spectrum requires theta")
        lam = 2.0 * math.asin(root * math.sin(theta / 2.0))
        gamma = math.atan((n - 2.0) / n * math.tan(theta / 2.0))
        phase = np.exp(-1j * gamma)
        states[0, 0], states[3, 0] = phase / np.sqrt(2.0), 1.0 / np.sqrt(2.0)
        states[0, 1], states[3, 1] = -phase / np.sqrt(2.0), 1.0 / np.sqrt(2.0)
    elif kind == "odd":
        if theta is None:
            theta = PI
        lam = 2.0 * math.asin(root * math.sin(theta / 2.0))
        delta = math.atan((n - 2.0) / n * math.tan(theta / 2.0))
        phase = np.exp(-1j * delta)
        xi = xi_state(size, dual_coords=True)
        states[:, 0] = xi / np.sqrt(2.0)
        states[0, 0] = -phase / np.sqrt(2.0)
        states[:, 1] = xi / np.sqrt(2.0)
        states[0, 1] = phase / np.sqrt(2.0)
    else:
        raise ValueError(f"unknown iterate kind {kind!r}")
    return IterateSpectrum(lambda_plus=lam, eigenstates=states)


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

_HEADER_TAG = "SCHEDULE"


def render_schedule(schedule: Schedule) -> str:
    """Line-based text form: a header with n, p, variant and finishing rule,
    then one `WALK <t>` or `ORACLE <theta>` line per step (17 significant
    digits)."""

    def field(value):
        return "-" if value is None else str(value)

    lines = [
        f"{_HEADER_TAG} n={field(schedule.n)} p={field(schedule.p)} "
        f"variant={field(schedule.variant)} finishing={schedule.finishing_rule.value}"
    ]
    for step in schedule.steps:
        lines.append(f"{step.kind.value} {format(step.parameter, '.17g')}")
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> Schedule:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith(_HEADER_TAG):
        raise ValueError(f"schedule text must start with a {_HEADER_TAG} header")
    fields = {}
    for token in lines[0].split()[1:]:
        key, _, value = token.partition("=")
        fields[key] = value
    def int_field(key):
        value = fields.get(key, "-")
        return None if value in ("-", "") else int(value)
    variant = fields.get("variant", "-")
    steps = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2 or parts[0] not in (StepKind.WALK.value, StepKind.ORACLE.value):
            raise ValueError(f"malformed schedule line: {line!r}")
        parameter = float(parts[1])
        if not math.isfinite(parameter):
            raise ValueError(f"non-finite parameter in schedule line: {line!r}")
        steps.append(ScheduleStep(StepKind(parts[0]), parameter))
    return Schedule(
        tuple(steps),
        FinishingRule(fields.get("finishing", "none")),
        n=int_field("n"),
        variant=None if variant in ("-", "") else variant,
        p=int_field("p"),
    )
