"""Alternating phase-walk search schedules.

Builders for the three search routes on a CIIN, all expressed as
chronological step lists (first element acts first; operator products in
standard notation apply rightmost-first, and the builders own that
translation).  Each builder makes its iterate once and returns a `Schedule`
of that block, its count p, its closed-form spectrum and a tail of at most
five steps; no builder builds the flat list of steps:

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

import cmath
import math
from dataclasses import dataclass

import numpy as np

# schedule_matrix lives beside the runner it applies to the identity; it
# stays importable here, where the bench's tracer wraps it
from .dynamics import (
    FinishingRule,
    IterateSpectrum,
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
from .graphs import DualBasis, GraphSize, dual_basis

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


def _no_exact_route(route: str, sizes: str, n: int) -> UnsupportedSizeError:
    """The refusal of an exact route at a size of the other class, or at
    n = 2 mod 4, where no exact route exists and the approximate one is
    the route to use."""
    if n % 4 == 2:
        use = "n = 2 mod 4 has no exact route; use approx_schedule"
    else:
        use = "use odd_schedule" if n % 2 else "use deterministic_schedule"
    return UnsupportedSizeError(f"{route} requires {sizes}, got {n}: {use}")


def deterministic_params(size: GraphSize, p: int) -> DeterministicParams:
    return _deterministic_params(size, p, deterministic_p_min(size))


def _deterministic_params(size: GraphSize, p: int, p_min: int) -> DeterministicParams:
    """`deterministic_params`, given `deterministic_p_min(size)`."""
    n = size.n
    if n % 4 != 0:
        raise _no_exact_route("deterministic schedule", "n = 0 mod 4", n)
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
        raise _no_exact_route("odd-path schedule", "odd n", n)
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
    oracle = ScheduleStep(StepKind.ORACLE, theta)
    return (oracle, ScheduleStep(StepKind.WALK, PI / 2.0), oracle,
            ScheduleStep(StepKind.WALK, PI / n))


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
    tail = (walk_step(params.t3),)
    if finishing == "coherent":
        k8 = nint(size.n / 8)
        tail += (oracle_step(PI / 2.0), walk_step(2.0 * PI * k8 / size.n))
        rule = FinishingRule.MEASURE_AND_CHECK
    elif finishing == "measure":
        rule = FinishingRule.MEASURE_AND_CHECK
    elif finishing == "none":
        rule = FinishingRule.NONE
    else:
        raise ValueError(f"unknown finishing mode {finishing!r}")
    return Schedule(tail, rule, n=size.n, variant="approx", p=params.p,
                    iterate=_approx_steps(params),
                    spectrum=_approx_spectrum(params, dual_basis(size)))


def marked_to_entangled(size: GraphSize) -> tuple[ScheduleStep, ...]:
    """Two-query fragment mapping |marked> to the entangled state exactly."""
    m = mapping_params(size)
    return (walk_step(2.0 * PI * m.k / size.n), oracle_step(m.phi),
            walk_step(2.0 * PI * m.j / size.n), oracle_step(-m.gamma))


def entangled_to_marked(size: GraphSize) -> tuple[ScheduleStep, ...]:
    """Exact two-query fragment mapping the entangled state to |marked>.

    The reverse of `marked_to_entangled`: same operators in reverse order
    with all parameters negated.
    """
    m = mapping_params(size)
    walk, oracle = StepKind.WALK, StepKind.ORACLE
    return (ScheduleStep(oracle, m.gamma), ScheduleStep(walk, -2.0 * PI * m.j / size.n),
            ScheduleStep(oracle, -m.phi), ScheduleStep(walk, -2.0 * PI * m.k / size.n))


def deterministic_schedule(size: GraphSize, p: int | None = None) -> Schedule:
    """Deterministic search schedule for n divisible by 4 (n >= 8).

    p iterations of the slowed double iterate, a tuning walk, then the exact
    entangled-to-marked map; the final state is the marked vertex with
    probability 1 up to rounding, using 4p + 2 oracle queries.
    """
    if size.n > 2**60:  # the largest n tested, where 1 - P is within 5e-15
        raise UnsupportedSizeError(
            f"deterministic schedule is tested up to n = 2^60, got {size.n}")
    p_min = deterministic_p_min(size)
    params = _deterministic_params(size, p_min if p is None else p, p_min)
    n = size.n
    iterate = _slowed_steps(n, params.theta) + _slowed_steps(n, -params.theta)
    return Schedule(
        (walk_step(params.t3),) + entangled_to_marked(size),
        FinishingRule.COHERENT,
        n=n,
        variant="deterministic",
        p=params.p,
        iterate=iterate,
        spectrum=_slowed_spectrum(dual_basis(size), params.theta),
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
        raise _no_exact_route("odd-path schedule", "odd n", n)
    if deterministic:
        # the largest n where a dense sweep keeps the 1e-9 claim: the
        # unwinding walk, -pi n/4 as a double, costs 1 - P up to 1e-10 below
        # about 2^36, 5.6e-10 below this bound and 8.9e-9 below 2^40
        if n > 2**38 + 1:
            raise UnsupportedSizeError(
                f"deterministic odd-path schedule is tested up to n = 2^38 + 1, got {n}")
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
            finish,
            FinishingRule.COHERENT,
            n=n,
            variant="odd-deterministic",
            p=p,
            iterate=iterate,
            spectrum=_odd_spectrum(n, params.theta),
        )
    if p is None:
        p = max(1, round(PI / (4.0 * math.asin(1.0 / math.sqrt(n)))))
    elif p < 1:
        raise ValueError(f"p={p}: the approximate odd-n route needs p >= 1")
    # this iterate is H(pi)^2 = W(pi/2)^2 R(pi) (see `_odd_spectrum`), whose
    # square is the theta = pi iterate: the same eigenstates, and its trace,
    # -4 (n-2)/n = -4 cos(lambda/2), puts the +-lambda states at
    # -+(pi - lambda/2) = -pi +- lambda/2
    spectrum = _odd_spectrum(n, PI)
    half = spectrum.lambda_plus / 2.0
    return Schedule(
        (walk_step(-PI * n / 4.0),),
        FinishingRule.MEASURE_AND_CHECK,
        n=n,
        variant="odd-approx",
        p=p,
        iterate=_half_turn_steps(PI) * 2,
        spectrum=IterateSpectrum(half, spectrum.eigenstates,
                                 np.array([[-PI] * 4, [half, -half, half, -half]])),
    )


# ---------------------------------------------------------------------------
# iterate spectra
# ---------------------------------------------------------------------------


# 1/sqrt(2): the weight of each dual coordinate in a balanced eigenstate
_HALF = math.sqrt(0.5)


def _slowed_spectrum(dual: DualBasis, theta: float) -> IterateSpectrum:
    """Spectrum of the deterministic iterate, U = W(pi/n) O(-theta) W(pi/2)
    O(-theta) W(pi/n) O(theta) W(pi/2) O(theta) as an operator product.

    At n = 0 mod 4, W(pi/2) is Z = diag(1, -1, -1, 1) in dual coordinates,
    which swaps the marked vertex and its opposite, so O(theta) Z O(theta) =
    Z R(theta), where R(theta) puts the phase e^{-i theta} on both.  The
    marked vertex is (a + b)/sqrt(2), with a = (1, -sqrt(n-1))/sqrt(n) on
    the dual pair (0, 3) and -a on (1, 2), so R, Z and W(pi/n) all keep the
    two pairs, and U = W(pi/n) R(-theta) W(pi/n) R(theta).  W(pi/n) is
    diag(-1, 1) on (0, 3) and e^{2i pi/n} diag(-1, 1) on (1, 2), so the
    (1, 2) block is e^{4i pi/n} times the (0, 3) block: eigenphases
    +-lambda and 4 pi/n +- lambda, with the same eigenstates on each pair.
    `dual` is the builder's `DualBasis` of the size n.
    """
    n = dual.size.n
    lam = 2.0 * math.asin(2.0 * math.sqrt(n - 1.0) / n * math.sin(theta / 2.0))
    gamma = math.atan((n - 2.0) / n * math.tan(theta / 2.0))
    lead = cmath.exp(-1j * gamma) * _HALF
    spin = 2.0 * dual.eigenphases(PI / n).item(2)
    states = [[lead, -lead, 0, 0], [0, 0, lead, -lead], [0, 0, _HALF, _HALF],
              [_HALF, _HALF, 0, 0]]
    return IterateSpectrum(lam, np.array(states, dtype=complex),
                           np.array([[0.0, 0.0, spin, spin], [lam, -lam, lam, -lam]]))


def _approx_spectrum(params: ApproxParams, dual: DualBasis) -> IterateSpectrum:
    """Spectrum of the approximate iterate, W(t2) O(pi) W(t1) O(pi).

    W(t1) is diag(1, w, w, 1) in dual coordinates, w = e^{2i t1}, because
    n t1 = 2 pi k.  With the marked vertex (a + b)/sqrt(2) as in
    `_slowed_spectrum`, O(pi) W(t1) O(pi) is the phase w on a in the pair
    (0, 3) and w times the phase 1/w on b in the pair (1, 2); W(t2) is
    diag(e^{-i tau}, 1) on (0, 3) and e^{2i t2} diag(e^{-i tau}, 1) on
    (1, 2), tau = n t2.  So each block is a global phase, e^{i(t1 - tau/2)}
    on (0, 3) and e^{2i t2} times that on (1, 2), times
    S = diag(e^{-i tau/2}, e^{i tau/2}) (cos t I + i sin t N), with t = t1 on
    (0, 3) and -t1 on (1, 2), and N = [[-g, -r], [-r, g]] the reflection
    through a, g = (n-2)/n, r = 2 sqrt(n-1)/n.

    For S = [[x, -conj(y)], [y, conj(x)]] the eigenphases are +-mu with
    sin mu = |(Im x, |y|)| and cos mu = Re x, and the e^{+i mu} and
    e^{-i mu} eigenvectors are (sin mu + Im x, -i y) and
    (-i conj(y), sin mu + Im x), over sqrt(2 sin mu (sin mu + Im x)).
    On (0, 3), t2 makes Im x = 0: the eigenstates are (-+e^{-i tau/2},
    1)/sqrt(2) and cos mu = sign(cos t1) sqrt(1 - r^2 sin^2 t1), so mu is
    lambda_+ where t1 < pi/2 (4k < n) and pi - lambda_+ elsewhere.  That
    decides which eigenstate carries +lambda_+.  On (1, 2),
    Im x = 2 g sin t1 cos(tau/2) >= 0 and |y| = r sin t1 > 0, so the
    formulas divide by no small number; mu is not lambda_+ unless
    n = 0 mod 4.  `dual` is the builder's `DualBasis` of the size n.
    """
    n, t1, lam = params.n, params.t1, params.lambda_plus
    minus_tau, _, double_t2, _ = dual.eigenphases(params.t2).tolist()
    half = -minus_tau / 2.0
    turn = cmath.exp(-1j * half)
    below = 4 * nint(n / 4.0) < n
    lead = (-turn if below else turn) * _HALF
    # the (0, 3) eigenphases t1 - tau/2 +- mu, where -+(pi - lambda) is
    # -pi +- lambda mod 2 pi
    base = t1 - half - (0.0 if below else PI)
    # the (1, 2) block: S with t = -t1
    x = turn * complex(math.cos(t1), (n - 2.0) / n * math.sin(t1))
    y = 2j * math.sqrt(n - 1.0) / n * math.sin(t1) / turn
    sine = math.hypot(x.imag, abs(y))
    mu = math.atan2(sine, x.real)
    top = sine + x.imag
    norm = math.sqrt(2.0 * sine * top)
    states = [[lead, -lead, 0, 0], [0, 0, top / norm, -1j * y.conjugate() / norm],
              [0, 0, -1j * y / norm, top / norm], [_HALF, _HALF, 0, 0]]
    side = t1 - half + double_t2
    return IterateSpectrum(lam, np.array(states, dtype=complex),
                           np.array([[base, base, side, side], [lam, -lam, mu, -mu]]))


def _odd_spectrum(n: int, theta: float) -> IterateSpectrum:
    """Spectrum of the odd-n iterate, H(-theta)^2 H(theta)^2 with
    H(theta) = W(pi/2) O(theta) as an operator product.

    W(pi/2) is diag(c, -c, -1, 1) in dual coordinates, c = (-i)^n, so the
    marked vertex m and W(pi/2)^dagger m are orthogonal, and H(theta)^2 =
    W(pi/2)^2 R(theta), where R(theta) puts the phase e^{-i theta} on their
    plane.  The unitary G = [[0, c], [-c, 0]] (+) diag(-1, 1) swaps m and
    W(pi/2)^dagger m, so it keeps that plane and commutes
    with W(pi/2)^2 = diag(-1, -1, 1, 1), hence with the iterate.  It maps
    the +-lambda eigenstates in the plane of the first dual vector and xi
    to eigenstates in the orthogonal plane, with the same eigenphases:
    each of e^{+-i lambda} is an eigenvalue twice.
    """
    lam = 2.0 * math.asin(2.0 * math.sqrt(n - 1.0) / n * math.sin(theta / 2.0))
    delta = math.atan((n - 2.0) / n * math.tan(theta / 2.0))
    lead = cmath.exp(-1j * delta) * _HALF
    i_n = 1j ** (n % 4)
    c = (-1j) ** (n % 4)
    x2 = (1.0 + i_n) / 2.0 * _HALF  # xi / sqrt(2), coordinates 2 and 3
    x3 = x2 * i_n
    states = [[-lead, lead, 0, 0], [0, 0, c * lead, -c * lead], [x2, x2, -x2, -x2],
              [x3, x3, x3, x3]]
    return IterateSpectrum(lam, np.array(states, dtype=complex),
                           np.array([[0.0, 0.0, 0.0, 0.0], [lam, -lam, lam, -lam]]))
