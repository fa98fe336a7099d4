"""Exact propagators and schedule execution.

States are plain complex ndarrays: length 4 in the walk basis (the marked
vertex is always coordinate 0) or length N = 2n over vertices.  Walk
propagators are evaluated in closed form through the known spectrum
(n, n-2, -2, 0), never by generic matrix exponentiation: the reduced walk is
a diagonal phase in the dual basis, and the full-space walk combines the four
spectral projectors with O(N) work.  Times are dimensionless (adjacency
spectral units); the integer spectrum makes every walk 2*pi-periodic.

`apply_schedule` runs an L-step schedule on a full-space state in O(N + L),
not O(N L).  It projects the state once onto the walk basis of the marked
vertex and runs the same 4-dim step loop as for reduced states.  The
complement of the walk subspace holds no amplitude on the marked vertex, so
every oracle leaves it alone, and it lies in the adjacency eigenspaces 0
(side-symmetric part) and -2 (side-antisymmetric part).  After a signed
total walk time tau it is therefore sym + e^{2i tau} asym, per side, and its
mass on each side needs three scalars only: ||sym||^2 + ||asym||^2 and the
complex <sym, asym>.  Full runs thus carry the same walk phases, and the
same phase precision, as reduced runs.

The step loop computes exp(-i t lambda) once per distinct walk time and
exp(-i theta) once per distinct oracle angle, and updates its own copy of
the 4 coefficients in place.  Each step runs the numpy operations of the
public `walk_reduced` and `oracle_phase`, in the same operand order, so its
outputs are bit-identical to stepping through those functions.  A cache
keyed by a float merges 0.0 and -0.0; their phases can differ only in the
sign of a zero imaginary part, which can change the sign of a zero
coefficient but no probability.

Endpoint-only runs skip the loop for the repeated block.  When a schedule
records its `iterate` and no sample falls inside the block
(`sample_every >= len(iterate) * p`), `apply_schedule` folds the iterate
once into its 4x4 unitary (`schedule_matrix`, O(len(iterate))), applies
`np.linalg.matrix_power(U, p)` (O(log p) 4x4 products), adds the block's
queries, walk time and signed time p times over, and steps through the
tail as usual.  The result agrees with the loop to about 1e-13 at the
tested sizes, not bit for bit: a rerun of an endpoint sweep such as
`sweep-determinism` can move in its last digits.  Trajectories, and
schedules without a recorded iterate (parsed ones), take the loop.

At n = 2 a full state (N = 4) has the shape of a reduced one, so
`apply_schedule`, `group_probabilities` and `measure_and_check` refuse
n = 2 rather than guess.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError
from .graphs import REDUCED_DIM, DualBasis, GraphSize, _check_vertex, dual_basis


class StepKind(Enum):
    WALK = "WALK"
    ORACLE = "ORACLE"


@dataclass(frozen=True)
class ScheduleStep:
    """One schedule step: a walk for time t or an oracle phase shift theta.

    Walk times reduced mod 2*pi are dynamically equivalent; they are stored
    un-reduced so that total walk time accounts for what was actually spent.
    """

    kind: StepKind
    parameter: float


def walk_step(t: float) -> ScheduleStep:
    return ScheduleStep(StepKind.WALK, float(t))


def oracle_step(theta: float) -> ScheduleStep:
    return ScheduleStep(StepKind.ORACLE, float(theta))


class FinishingRule(Enum):
    """How a schedule claims the marked vertex after its unitary steps.

    NONE: stop coherently, no claim.
    MEASURE_AND_CHECK: measure, spend one extra oracle query to confirm the
        outcome x, and claim x or its opposite (x + n) mod N.
    COHERENT: the unitary steps already end on the marked vertex; the final
        measurement needs no confirmation query.
    """

    NONE = "none"
    MEASURE_AND_CHECK = "measure-and-check"
    COHERENT = "coherent"


@dataclass(frozen=True)
class Schedule:
    """Ordered phase-walk program plus a classical finishing rule.

    Steps are chronological: steps[0] is applied first.  `n`, `variant` and
    `p` are metadata used by the text serialization and the circuit compiler.
    A builder also records its `iterate`, the step block that `steps` begins
    with, repeated p times; its unitary is `schedule_matrix(iterate, size)`.
    The text form does not carry it, so a parsed schedule has an empty
    `iterate` and still compares equal.
    """

    steps: tuple[ScheduleStep, ...]
    finishing_rule: FinishingRule = FinishingRule.NONE
    n: int | None = None
    variant: str | None = None
    p: int | None = None
    iterate: tuple[ScheduleStep, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.iterate and (
            self.p is None
            or self.p < 1
            or self.steps[: len(self.iterate) * self.p] != self.iterate * self.p
        ):
            raise ValueError(f"steps do not begin with the iterate repeated p={self.p} times")

    @property
    def oracle_queries(self) -> int:
        """Oracle steps, plus one confirmation query for measure-and-check."""
        count = sum(1 for s in self.steps if s.kind is StepKind.ORACLE)
        if self.finishing_rule is FinishingRule.MEASURE_AND_CHECK:
            count += 1
        return count

    @property
    def total_walk_time(self) -> float:
        return float(sum(abs(s.parameter) for s in self.steps if s.kind is StepKind.WALK))


# rows per `.tolist()` block in `RunReport.to_csv`
_CSV_BLOCK = 4096
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%d,%.17g\n"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A run's samples as four read-only columns, one row per sample.

    `step` and `queries_so_far` are int64 of length k, `probabilities` is
    float64 of shape (k, 4) and `walk_time_so_far` float64 of length k.
    `len()` is the sample count.  Arrays handed in of the right dtype
    become the columns without a copy, so a producer hands over arrays that
    it no longer writes.
    """

    step: np.ndarray
    probabilities: np.ndarray
    queries_so_far: np.ndarray
    walk_time_so_far: np.ndarray

    def __post_init__(self) -> None:
        k = len(self.step)
        for name, dtype, shape in (("step", np.int64, (k,)),
                                   ("probabilities", np.float64, (k, 4)),
                                   ("queries_so_far", np.int64, (k,)),
                                   ("walk_time_so_far", np.float64, (k,))):
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            if column.shape != shape:
                raise ValueError(f"{name} has shape {column.shape}, expected {shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.step)


@dataclass(frozen=True)
class RunReport:
    """Trajectory samples and final accounting for one schedule run."""

    trajectory: Trajectory
    final_success_probability: float
    oracle_queries: int
    total_walk_time: float

    CSV_HEADER = ("step", "p1", "p2", "p3", "p4", "queries_so_far", "walk_time_so_far")

    def to_csv(self) -> str:
        """Render the trajectory as CSV.

        Columns: step, p1..p4, queries_so_far, walk_time_so_far.  p1..p4 are
        the probabilities of the four vertex groups (marked, opposite,
        same-side rest, far-side rest) or dual-basis populations when the run
        sampled in the dual basis.  Floats are written as `.17g`, which
        round-trips a double; rows are formatted from the columns a block at
        a time.
        """
        t = self.trajectory
        parts = [",".join(self.CSV_HEADER) + "\n"]
        for start in range(0, len(t), _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            rows = zip(t.step[block].tolist(), *t.probabilities[block].T.tolist(),
                       t.queries_so_far[block].tolist(), t.walk_time_so_far[block].tolist())
            parts.append("".join([_CSV_ROW % row for row in rows]))
        return "".join(parts)

    def to_json(self) -> str:
        t = self.trajectory
        columns = zip(t.step.tolist(), t.probabilities.tolist(),
                      t.queries_so_far.tolist(), t.walk_time_so_far.tolist())
        payload = {
            "trajectory": [
                {
                    "step": step,
                    "probabilities": probabilities,
                    "queries_so_far": queries,
                    "walk_time_so_far": walk_time,
                }
                for step, probabilities, queries, walk_time in columns
            ],
            "final_success_probability": self.final_success_probability,
            "oracle_queries": self.oracle_queries,
            "total_walk_time": self.total_walk_time,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _is_reduced(state: np.ndarray) -> bool:
    return state.shape == (REDUCED_DIM,)


def _marked_index(state: np.ndarray, marked: int) -> int:
    """Index of the marked amplitude: 0 on a reduced state, else `marked`,
    which must lie in [0, N) rather than wrap."""
    if _is_reduced(state):
        return 0
    if not 0 <= marked < state.shape[0]:
        raise IndexError(f"marked vertex {marked} out of range for N={state.shape[0]}")
    return marked


def _check_unambiguous(size: GraphSize) -> None:
    if size.n == 2:
        raise DimensionMismatchError(
            "n = 2 is ambiguous: a full-space state (N = 4) has the shape of a "
            "reduced 4-vector in walk-basis coordinates"
        )


def _walk(coeffs: np.ndarray, phases: np.ndarray, to_dual: np.ndarray,
          from_dual: np.ndarray, out=None) -> np.ndarray:
    """exp(-i t A) on walk-basis coefficients, given the dual-basis phases
    exp(-i t lambda), `DualBasis.matrix.T` as `to_dual` and `DualBasis.matrix`
    as `from_dual`.  `coeffs` may also be a 4 x k block of columns, with the
    phases as a (4, 1) column.

    Real matrices are cast to complex inside each matmul.  C-contiguous
    complex copies give the same bits without the cast; F-ordered copies
    take another numpy loop and change the last bits.
    """
    dual_coeffs = to_dual @ coeffs
    dual_coeffs *= phases
    return np.matmul(from_dual, dual_coeffs, out=out)


def walk_reduced(state: np.ndarray, t: float, graph: DualBasis | GraphSize) -> np.ndarray:
    """Apply exp(-i t A) to a reduced state via the dual basis.

    Pass the `DualBasis` itself to reuse it across many steps.
    """
    state = np.asarray(state, dtype=complex)
    if not _is_reduced(state):
        raise DimensionMismatchError(f"expected a 4-vector, got shape {state.shape}")
    dual = graph if isinstance(graph, DualBasis) else dual_basis(graph)
    return _walk(state, np.exp(-1j * t * dual.eigenvalues), dual.matrix.T, dual.matrix)


def schedule_matrix(steps, graph: DualBasis | GraphSize) -> np.ndarray:
    """Fold chronological steps into a single 4x4 unitary (reduced space).

    Walks act on all four columns at once through the dual-basis formula
    of `walk_reduced`; an oracle scales the marked row.  Pass the
    `DualBasis` itself to reuse one already built.
    """
    dual = graph if isinstance(graph, DualBasis) else dual_basis(graph)
    m = np.eye(4, dtype=complex)
    for step in steps:
        if step.kind is StepKind.WALK:
            phases = np.exp(-1j * step.parameter * dual.eigenvalues)
            m = _walk(m, phases[:, np.newaxis], dual.matrix.T, dual.matrix)
        else:
            m[0] *= np.exp(-1j * step.parameter)
    return m


def walk_full(state: np.ndarray, t: float, size: GraphSize) -> np.ndarray:
    """Apply exp(-i t A_full) matrix-free through the four spectral projectors.

    The eigenspaces of the CIIN adjacency are: the all-ones vector (n), the
    side-antisymmetric uniform vector (n-2), side-antisymmetric zero-mean
    vectors (-2), and side-symmetric zero-mean vectors (0).  Splitting the
    state into symmetric/antisymmetric halves and their means applies all
    four projectors in O(N), writing both halves into one new array.
    """
    n = size.n
    state = np.asarray(state, dtype=complex)
    if state.shape != (size.N,):
        raise DimensionMismatchError(
            f"expected state of length {size.N}, got shape {state.shape}"
        )
    sym = np.add(state[:n], state[n:])
    sym /= 2.0
    asym = np.subtract(state[:n], state[n:])
    asym /= 2.0
    mean_sym = sym.mean()
    mean_asym = asym.mean()
    sym -= mean_sym
    sym += np.exp(-1j * t * n) * mean_sym
    asym -= mean_asym
    # phase first: complex multiply is not bitwise commutative under FMA
    np.multiply(np.exp(2j * t), asym, out=asym)
    asym += np.exp(-1j * t * (n - 2)) * mean_asym
    out = np.empty(size.N, dtype=complex)
    np.add(sym, asym, out=out[:n])
    np.subtract(sym, asym, out=out[n:])
    return out


def oracle_phase(state: np.ndarray, theta: float, marked: int = 0) -> np.ndarray:
    """Multiply the marked-vertex amplitude by exp(-i theta).

    For reduced states the marked vertex is coordinate 0 by construction and
    `marked` is ignored.
    """
    state = np.asarray(state, dtype=complex)
    out = state.copy()
    out[_marked_index(state, marked)] *= np.exp(-1j * theta)
    return out


def uniform_state(size: GraphSize, reduced: bool = True) -> np.ndarray:
    """The equal superposition, in reduced or full coordinates."""
    if reduced:
        return dual_basis(size).matrix[:, 0].astype(complex)
    return np.full(size.N, 1.0 / np.sqrt(size.N), dtype=complex)


def marked_state(size: GraphSize, reduced: bool = True, marked: int = 0) -> np.ndarray:
    if reduced:
        state = np.zeros(REDUCED_DIM, dtype=complex)
        state[0] = 1.0
    else:
        state = np.zeros(size.N, dtype=complex)
        state[marked] = 1.0
    return state


def success_probability(state: np.ndarray, marked: int = 0) -> float:
    """Probability of measuring the marked vertex."""
    state = np.asarray(state)
    return float(abs(state[_marked_index(state, marked)]) ** 2)


def entangled_fidelity(state: np.ndarray, marked: int = 0) -> float:
    """Squared overlap with (|marked> + |opposite>) / sqrt(2)."""
    state = np.asarray(state)
    if _is_reduced(state):
        a, b = state[0], state[1]
    else:
        marked = _marked_index(state, marked)
        n = state.shape[0] // 2
        a, b = state[marked], state[(marked + n) % state.shape[0]]
    return float(abs((a + b) / np.sqrt(2.0)) ** 2)


def group_probabilities(state: np.ndarray, size: GraphSize, marked: int = 0) -> np.ndarray:
    """Probability mass of the four vertex groups relative to the marked vertex."""
    _check_unambiguous(size)
    state = np.asarray(state)
    if _is_reduced(state):
        return np.abs(state) ** 2
    _check_vertex(size, marked)
    n = size.n
    opposite = size.opposite(marked)
    prob = np.abs(state) ** 2
    side = marked // n
    same = prob[side * n:(side + 1) * n].sum() - prob[marked]
    far = prob[(1 - side) * n:(2 - side) * n].sum() - prob[opposite]
    return np.array([prob[marked], prob[opposite], same, far])


def _split_full(state: np.ndarray, size: GraphSize, marked: int):
    """Project a full state onto the walk basis and summarise the rest.

    The residual r left by the projection reads, per side and aligned by
    index (vertex j against its opposite), sym + asym on the marked side and
    sym - asym on the far side.  Returns the 4 walk-basis coefficients,
    ||sym||^2 + ||asym||^2 and <sym, asym>.
    """
    n = size.n
    side, local = divmod(_check_vertex(size, marked), n)
    same = state[side * n:(side + 1) * n]
    far = state[(1 - side) * n:(2 - side) * n]
    scale = np.sqrt(n - 1.0)
    coeffs = np.array([
        same[local],
        far[local],
        (same.sum() - same[local]) / scale,
        (far.sum() - far[local]) / scale,
    ])
    rest_same = same - coeffs[2] / scale
    rest_far = far - coeffs[3] / scale
    rest_same[local] = rest_far[local] = 0.0
    sym = (rest_same + rest_far) / 2.0
    asym = (rest_same - rest_far) / 2.0
    return coeffs, np.vdot(sym, sym).real + np.vdot(asym, asym).real, np.vdot(sym, asym)


def apply_schedule(
    state: np.ndarray,
    schedule: Schedule,
    size: GraphSize,
    sample_every: int = 1,
    marked: int = 0,
    sample_basis: str = "walk",
) -> RunReport:
    """Run a schedule chronologically and record a trajectory.

    The trajectory is sampled before the first step, after every
    `sample_every` steps, and after the last step.  For measure-and-check
    schedules the final success probability is the chance the classical
    procedure outputs the marked vertex (mass on the marked vertex plus its
    opposite); otherwise it is the marked-vertex probability itself.

    A full-space state is projected once onto the walk basis of `marked`;
    its complement enters the samples through three scalars (see the module
    docstring), so a run costs O(N + L) for L steps.  When no sample falls
    inside the schedule's repeated iterate, the iterate is folded once and
    raised to p instead of stepped (see the module docstring).
    """
    _check_unambiguous(size)
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    if sample_basis not in ("walk", "dual"):
        raise ValueError(f"unknown sample basis {sample_basis!r}")
    coeffs = np.asarray(state, dtype=complex)
    if _is_reduced(coeffs):
        coeffs = coeffs.copy()
        rest_norm, rest_cross = 0.0, 0j
    elif coeffs.shape != (size.N,):
        raise DimensionMismatchError(
            f"state length {coeffs.shape} matches neither 4 nor N={size.N}"
        )
    elif sample_basis == "dual":
        raise ValueError("dual-basis sampling is only defined for reduced states")
    else:
        coeffs, rest_norm, rest_cross = _split_full(coeffs, size, marked)
    dual = dual_basis(size)
    # trajectory columns, one entry per sample
    sampled, rows, query_counts, walk_times = [], [], [], []
    queries = 0
    walk_time = 0.0
    tau = 0.0  # signed total walk time mod pi: the complement's period

    def record(step_index):
        if sample_basis == "dual":
            probs = np.abs(dual.to_dual(coeffs)) ** 2
        else:
            probs = group_probabilities(coeffs, size)
            swing = 2.0 * (np.exp(2j * tau) * rest_cross).real
            probs[2] += rest_norm + swing
            probs[3] += rest_norm - swing
        sampled.append(step_index)
        rows.append(probs)
        query_counts.append(queries)
        walk_times.append(walk_time)

    record(0)
    steps, last = schedule.steps, len(schedule.steps)
    done = 0
    iterate, p = schedule.iterate, schedule.p
    if iterate and sample_every >= len(iterate) * p:
        # no sample inside the repeated block: fold it once, raise it to p
        coeffs = np.linalg.matrix_power(schedule_matrix(iterate, dual), p) @ coeffs
        walks = [s.parameter for s in iterate if s.kind is StepKind.WALK]
        queries = p * (len(iterate) - len(walks))
        walk_time = p * sum(abs(t) for t in walks)
        tau = (tau + p * sum(walks)) % np.pi
        done = len(iterate) * p
        if done % sample_every == 0 or done == last:
            record(done)
    eigenvalues = dual.eigenvalues
    # C-ordered complex copies: the bits of the real matrix, no cast per step
    to_dual = np.ascontiguousarray(dual.matrix.T, dtype=complex)
    from_dual = np.ascontiguousarray(dual.matrix, dtype=complex)
    walk_phases = {}
    oracle_phases = {}
    for index, step in enumerate(steps[done:], start=done + 1):
        parameter = step.parameter
        if step.kind is StepKind.WALK:
            phases = walk_phases.get(parameter)
            if phases is None:
                phases = walk_phases[parameter] = np.exp(-1j * parameter * eigenvalues)
            _walk(coeffs, phases, to_dual, from_dual, out=coeffs)
            walk_time += abs(parameter)
            tau = (tau + parameter) % np.pi
        else:
            phase = oracle_phases.get(parameter)
            if phase is None:
                phase = oracle_phases[parameter] = np.exp(-1j * parameter)
            coeffs[0] *= phase
            queries += 1
        if index % sample_every == 0 or index == last:
            record(index)

    final = success_probability(coeffs)
    if schedule.finishing_rule is FinishingRule.MEASURE_AND_CHECK:
        queries += 1
        final += float(group_probabilities(coeffs, size)[1])
    return RunReport(
        trajectory=Trajectory(sampled, rows, query_counts, walk_times),
        final_success_probability=final,
        oracle_queries=queries,
        total_walk_time=walk_time,
    )


def measure_and_check(
    state: np.ndarray,
    size: GraphSize,
    marked: int,
    rng: np.random.Generator,
) -> tuple[int, bool]:
    """Classical finish: measure, confirm with one oracle query, claim a vertex.

    Measures the final distribution, queries the oracle on the outcome x, and
    returns x if marked, else (x + n) mod N.  The boolean reports whether the
    claimed vertex is in fact the marked one.
    """
    _check_unambiguous(size)
    state = np.asarray(state)
    marked = _check_vertex(size, marked)
    if _is_reduced(state):
        groups = np.abs(state) ** 2
        groups = groups / groups.sum()
        group = rng.choice(4, p=groups)
        n = size.n
        side, local = divmod(marked, n)
        if group == 0:
            outcome = marked
        elif group == 1:
            outcome = size.opposite(marked)
        else:
            # uniform over the n - 1 vertices of that side other than the
            # marked vertex or its opposite, which share the index `local`
            index = int(rng.integers(0, n - 1))
            if index >= local:
                index += 1
            outcome = (side if group == 2 else 1 - side) * n + index
    else:
        prob = np.abs(state) ** 2
        outcome = int(rng.choice(state.shape[0], p=prob / prob.sum()))
    if outcome == marked:
        claimed = outcome
    else:
        claimed = size.opposite(outcome)
    return claimed, claimed == marked
