import os

# one BLAS thread, set before numpy loads its BLAS: threaded OpenBLAS on a
# small host makes the tests' many small expm and vdot calls several times
# slower; a value set in the environment wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import csv  # noqa: E402
import dataclasses  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from functools import cached_property  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ciinwalk import circuit, dynamics  # noqa: E402
from ciinwalk.cg import cg_hamiltonian  # noqa: E402
from ciinwalk import schedules as sch  # noqa: E402
from ciinwalk.dynamics import (  # noqa: E402
    FinishingRule,
    IterateSpectrum,
    RunReport,
    StepKind,
    Trajectory,
    _check_unambiguous,
    _is_reduced,
    group_probabilities,
    oracle_phase,
    success_probability,
    walk_full,
    walk_reduced,
)
from ciinwalk.errors import DimensionMismatchError  # noqa: E402
from ciinwalk.graphs import REDUCED_DIM, GraphSize, _check_vertex, dual_basis  # noqa: E402

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def random_state(rng, dim):
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def fidelity(a, b):
    return abs(np.vdot(a, b)) ** 2


def bench_module(name):
    """The module bench/<name>.py, loaded once as `bench_<name>`; the bench
    is no package, and its modules import `ciinwalk` from the path the
    tests use."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules while the class is built
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def traced_peak(call, *args, **kwargs):
    """Run call(*args, **kwargs) under tracemalloc and return its result and
    the peak of the memory traced meanwhile, in bytes."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# ---------------------------------------------------------------------------
# dense oracles: the N x N adjacency and the walk basis that the closed forms
# of `ciinwalk.graphs` and `ciinwalk.dynamics` are checked against
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FullAdjacency:
    """Adjacency of a CIIN as a dense N x N matrix.

    The dense form is built lazily and is meant for small graphs: it is the
    reference that exact tests compare the closed-form propagators against.
    """

    size: GraphSize

    @cached_property
    def dense(self) -> np.ndarray:
        n = self.size.n
        block = np.ones((n, n)) - np.eye(n)
        eye = np.eye(n)
        return np.block([[block, eye], [eye, block]])


@dataclass(frozen=True)
class WalkBasis:
    """Orthonormal 4-vector basis of the invariant search subspace.

    Columns of `matrix` are, in order: the marked vertex, its opposite, the
    uniform superposition over the remaining same-side vertices, and the
    uniform superposition over the remaining far-side vertices.  The
    construction works for an arbitrary marked vertex by vertex transitivity.
    """

    size: GraphSize
    marked: int

    def __post_init__(self) -> None:
        _check_vertex(self.size, self.marked)
        object.__setattr__(self, "marked", int(self.marked))

    @property
    def opposite(self) -> int:
        return self.size.opposite(self.marked)

    @cached_property
    def matrix(self) -> np.ndarray:
        """N x 4 matrix whose columns are the basis vectors."""
        n, big_n = self.size.n, self.size.N
        b = np.zeros((big_n, REDUCED_DIM))
        b[self.marked, 0] = 1.0
        b[self.opposite, 1] = 1.0
        same_side = self.marked // n
        same = np.arange(same_side * n, (same_side + 1) * n)
        far = np.arange((1 - same_side) * n, (2 - same_side) * n)
        b[same, 2] = 1.0 / np.sqrt(n - 1)
        b[self.marked, 2] = 0.0
        b[far, 3] = 1.0 / np.sqrt(n - 1)
        b[self.opposite, 3] = 0.0
        return b

    def lift(self, coeffs: np.ndarray) -> np.ndarray:
        """Map reduced coordinates to the full N-dimensional space."""
        return self.matrix @ np.asarray(coeffs)

    def project(self, state: np.ndarray) -> np.ndarray:
        """Project a full state onto the walk basis (4 coefficients)."""
        if state.shape != (self.size.N,):
            raise DimensionMismatchError(
                f"expected state of length {self.size.N}, got shape {state.shape}"
            )
        return self.matrix.T @ state


def reduce_operator(operator: np.ndarray, basis: WalkBasis) -> np.ndarray:
    """Compress a Hermitian N x N operator to its 4x4 walk-basis block.

    For the CIIN adjacency this reproduces `reduced_adjacency` exactly; for
    any operator that leaves the walk subspace invariant the compression is
    faithful (powers, polynomials, propagators).
    """
    big_n = basis.size.N
    operator = np.asarray(operator)
    if operator.shape != (big_n, big_n):
        raise DimensionMismatchError(
            f"expected {big_n}x{big_n} operator, got shape {operator.shape}"
        )
    return basis.matrix.T @ operator @ basis.matrix


def xi_state(size: GraphSize, dual_coords: bool = False) -> np.ndarray:
    """The auxiliary rotation target of the odd-n route."""
    i_n = 1j ** (size.n % 4)
    coeffs = np.zeros(4, dtype=complex)
    coeffs[2] = (1.0 + i_n) / 2.0
    coeffs[3] = (1.0 + i_n) / 2.0 * i_n
    if dual_coords:
        return coeffs
    return dual_basis(size).from_dual(coeffs)


def spectrum_phases(spectrum: IterateSpectrum) -> np.ndarray:
    """The iterate's eigenphases phi, each the sum of its centre and split."""
    return spectrum.angles[0] + spectrum.angles[1]


def rotation_pair_gap(size: GraphSize, gamma: float) -> float:
    """Energy splitting of the two avoided-crossing eigenstates.

    Identifies the pair by overlap with (|b1> -+ |b3>) / sqrt(2) rather than
    by eigenvalue order, which is what the 2/sqrt(n) prediction refers to.
    """
    energies, vectors = np.linalg.eigh(cg_hamiltonian(size, gamma))
    minus = np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2)
    plus = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    i_minus = int(np.argmax(np.abs(vectors.T @ minus)))
    i_plus = int(np.argmax(np.abs(vectors.T @ plus)))
    if i_minus == i_plus:
        overlaps = np.abs(vectors.T @ plus)
        overlaps[i_minus] = -1.0
        i_plus = int(np.argmax(overlaps))
    return float(abs(energies[i_plus] - energies[i_minus]))


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


def every_builder(n):
    """Every schedule the builders make at side size n."""
    size = GraphSize(n)
    schedules = [sch.approx_schedule(size, finishing)
                 for finishing in ("coherent", "measure", "none")]
    if n % 4 == 0 and n >= 8:
        schedules.append(sch.deterministic_schedule(size))
    if n % 2 == 1:
        schedules += [sch.odd_schedule(size), sch.odd_schedule(size, deterministic=False)]
    return schedules


def flat(schedule):
    """The same steps and metadata with no recorded iterate (and so no
    spectrum): every step is in the tail, so `apply_schedule` steps through
    all of them."""
    return dataclasses.replace(schedule, tail=tuple(schedule.steps), iterate=(), spectrum=None)


def numeric_spectrum(iterate, size):
    """An `IterateSpectrum` of hand-made steps, computed numerically, for
    blocks that no builder makes: `Schedule` takes an iterate only with its
    spectrum.

    U, the steps' fold in dual coordinates, is normal, so it shares its
    eigenvectors with every Hermitian (conj(z) U + z U^dagger) / 2, |z| = 1,
    whose eigenvalues Re(conj(z) u) are U's eigenvalues u projected on z.
    Of 64 axes z, the one that keeps the projections of U's eigenvalues
    (`eigvals`, accurate for a normal matrix) furthest apart relative to
    their distances is taken, so no cluster of `eigh` eigenvalues mixes
    eigenvectors of far-apart eigenvalues; eigenvalues that coincide share
    one eigenspace, where any orthonormal basis serves.  The eigenphases are
    the angles of V^dagger U V's diagonal, kept in the centre row of the
    angles; `lambda_plus`, which no run reads, is 0.
    """
    dual = dual_basis(size).matrix
    unitary = dual.T @ sch.schedule_matrix(iterate, size) @ dual
    chords = [a - b for a, b in itertools.combinations(np.linalg.eigvals(unitary), 2) if a != b]
    axis = max(np.exp(1j * np.pi * np.arange(64) / 64),
               key=lambda z: min((abs((z.conjugate() * c).real) / abs(c) for c in chords),
                                 default=1.0))
    _, states = np.linalg.eigh((axis.conjugate() * unitary + axis * unitary.conj().T) / 2)
    phases = np.angle(np.einsum("ij,ik,kj->j", states.conj(), unitary, states))
    return IterateSpectrum(0.0, states, np.array([phases, np.zeros(4)]))


def exact_multiple(t, n):
    """The multiple q pi that the walk time t stands for, as a `Fraction` q
    of denominator 1, 2, 4, n, 2n or 4n, or None where t is no such multiple.

    Builders write their times as doubles: pi/2, pi/n, 2 pi k/n, -pi n/4 and
    so on.  A time counts as q pi when q pi, rounded, lies within four ulps
    of it; the smallest denominator that does is taken.
    """
    for denominator in (1, 2, 4, n, 2 * n, 4 * n):
        q = Fraction(round(t / math.pi * denominator), denominator)
        if abs(float(q) * math.pi - t) <= 4 * math.ulp(t):
            return q
    return None


def exact_phases(t, size):
    """exp(-i t lambda) over the dual eigenvalues (n, n-2, -2, 0), with a
    walk time that stands for q pi (`exact_multiple`) reduced exactly:
    exp(-i pi (q lambda mod 2))."""
    n = size.n
    q = exact_multiple(t, n)
    if q is None:
        return np.exp(-1j * t * dual_basis(size).eigenvalues)
    return np.exp(-1j * np.pi * np.array([float(q * lam % 2) for lam in (n, n - 2, -2, 0)]))


def exact_fold(steps, size):
    """`schedule_matrix` with `exact_phases`: the 4x4 unitary of the steps
    with every multiple of pi in a walk time exact."""
    dual = dual_basis(size).matrix
    matrix = np.eye(4, dtype=complex)
    for step in steps:
        if step.kind is StepKind.WALK:
            matrix = dual @ (exact_phases(step.parameter, size)[:, np.newaxis] * (dual.T @ matrix))
        else:
            matrix[0] *= np.exp(-1j * step.parameter)
    return matrix


def run_stepwise(state, schedule, size, marked=0, sample_every=1):
    """Reference executor: one O(N) full-space propagator per schedule step.

    Returns the final state and the (step, group probabilities) samples taken
    on the same cadence as `apply_schedule`.
    """
    samples = [(0, group_probabilities(state, size, marked))]
    for index, step in enumerate(schedule.steps, start=1):
        if step.kind is StepKind.WALK:
            state = walk_full(state, step.parameter, size)
        else:
            state = oracle_phase(state, step.parameter, marked)
        if index % sample_every == 0 or index == len(schedule.steps):
            samples.append((index, group_probabilities(state, size, marked)))
    return state, samples


def compile_stepwise(schedule, m, marked=0):
    """Reference compiler: one walk or oracle fragment per step of
    `schedule.steps`, in order.  `compile_schedule` must give the same gates."""
    gates = []
    for step in schedule.steps:
        if step.kind is StepKind.WALK:
            gates.extend(circuit.walk_circuit(m, step.parameter).gates)
        else:
            gates.extend(circuit.oracle_circuit(m, marked, step.parameter).gates)
    return circuit.CircuitProgram(m + 1, tuple(gates))


def apply_stepwise(state, schedule, size, sample_every=1, marked=0, sample_basis="walk"):
    """Reference 4-dim executor: `apply_schedule` stepping through the public
    `walk_reduced` and `oracle_phase`, one call per step, each with a fresh
    phase, and adding the walk times as `Fraction`s, each sample's rounded
    once by `float`.  `apply_schedule` must match it bit for bit.
    """
    coeffs = np.asarray(state, dtype=complex)
    if coeffs.shape == (4,):
        rest_norm, rest_cross = 0.0, 0j
    else:
        coeffs, rest_norm, rest_cross = dynamics._split_full(coeffs, size, marked)
    dual = dual_basis(size)
    sampled, rows, query_counts, walk_times = [], [], [], []
    queries = 0
    walk_time = Fraction(0)
    tau = 0.0

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
        walk_times.append(float(walk_time))

    record(0)
    for index, step in enumerate(schedule.steps, start=1):
        if step.kind is StepKind.WALK:
            coeffs = walk_reduced(coeffs, step.parameter, dual)
            walk_time += Fraction(abs(step.parameter))
            tau = (tau + step.parameter) % np.pi
        else:
            coeffs = oracle_phase(coeffs, step.parameter)
            queries += 1
        if index % sample_every == 0 or index == len(schedule.steps):
            record(index)

    final = success_probability(coeffs)
    if schedule.finishing_rule is FinishingRule.MEASURE_AND_CHECK:
        queries += 1
        final += float(group_probabilities(coeffs, size)[1])
    return RunReport(Trajectory(sampled, rows, query_counts, walk_times), final, queries,
                     float(walk_time))


def trajectory_rows(report):
    """The trajectory one sample at a time, as Python numbers."""
    t = report.trajectory
    return zip(t.step.tolist(), t.probabilities.tolist(), t.queries_so_far.tolist(),
               t.walk_time_so_far.tolist())


def reference_csv(report):
    """`RunReport.to_csv` as it was written sample by sample: `csv.writer`
    with `format(x, ".17g")` for every float."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.CSV_HEADER)
    for step, probabilities, queries, walk_time in trajectory_rows(report):
        writer.writerow(
            [step]
            + [format(p, ".17g") for p in probabilities]
            + [queries, format(walk_time, ".17g")]
        )
    return buf.getvalue()


def reference_json(report):
    """`RunReport.to_json` as it was written sample by sample."""
    payload = {
        "trajectory": [
            {
                "step": step,
                "probabilities": probabilities,
                "queries_so_far": queries,
                "walk_time_so_far": walk_time,
            }
            for step, probabilities, queries, walk_time in trajectory_rows(report)
        ],
        "final_success_probability": report.final_success_probability,
        "oracle_queries": report.oracle_queries,
        "total_walk_time": report.total_walk_time,
    }
    return json.dumps(payload, sort_keys=True, indent=2)
