"""Exact propagators and schedule execution.

States are plain complex ndarrays: length 4 in the walk basis (the marked
vertex is always coordinate 0) or length N = 2n over vertices.  Walk
propagators are evaluated in closed form through the known spectrum
(n, n-2, -2, 0), never by generic matrix exponentiation: the reduced walk is
a diagonal phase in the dual basis, and the full-space walk combines the four
spectral projectors with O(N) work.  Times are dimensionless (adjacency
spectral units); the integer spectrum makes every walk 2*pi-periodic.

`walk_full` builds the side-symmetric and side-antisymmetric halves in the
two halves of its output array and makes its two passes over them in
cache-sized blocks of `_WALK_BLOCK` index pairs, with one block-sized buffer
and no full-length temporary.  The two means in between stay sums over
whole halves, so they add in the same order as an unblocked evaluation.
Halving multiplies the float components by 0.5; on finite states that
matches a complex division by 2 bit for bit, except the sign of an
exactly-zero component, which no probability sees.

`apply_schedule` runs an L-step schedule on a full-space state in O(N + L),
not O(N L).  It projects the state once onto the walk basis of the marked
vertex and runs the same 4-dim steps as for reduced states.  The
complement of the walk subspace holds no amplitude on the marked vertex, so
every oracle leaves it alone, and it lies in the adjacency eigenspaces 0
(side-symmetric part) and -2 (side-antisymmetric part).  After a signed
total walk time tau it is therefore sym + e^{2i tau} asym, per side, and its
mass on each side needs three scalars only: ||sym||^2 + ||asym||^2 and the
complex <sym, asym>.  Full runs thus carry the same walk phases, and the
same phase precision, as reduced runs.  The projection (`_split_full`)
takes the four coefficients from whole-half sums, then makes one pass, in
the blocks of `walk_full`, over the residual halves a (marked side) and b
(far side) with two block-sized buffers.  It accumulates ||a||^2, ||b||^2
and <b, a> and returns (||a||^2 + ||b||^2)/2 and
(||a||^2 - ||b||^2)/4 + i Im<b, a>/2, which equal the three scalars for
sym = (a + b)/2 and asym = (a - b)/2; so it builds no full-length array.

One private runner, `_run_stack`, steps every 4-dim state: a run of
`apply_schedule` hands it one, and a sweep that needs only final
probabilities (`_final_probabilities`) a chunk of sizes from the uniform
state.  It runs k states under k schedules of one pattern of step kinds,
k along a leading axis of every operand (none for one state): the block
through the stacked spectra, then each walk step of the tail in one numpy
call for the whole stack and each oracle step in float arithmetic on each
state's coefficient 0.  No state's bits depend on the stack around it,
and each step has the bits of the public `walk_reduced` and
`oracle_phase`.  It returns the final success probabilities and the
states at the tail steps that the caller samples; the accounting, the
samples inside the block and the full-space complement stay with
`apply_schedule`.

A `Schedule` stores its repeated block once: `iterate`, its count `p` and
the `tail` that follows, which is all that `apply_schedule` reads.  Its
`steps` count `iterate * p + tail` in O(1) and iterate it with no flat
tuple, so building a schedule, counting its queries and asking for its
length cost O(len(iterate) + len(tail)), not O(L).

A walk time so far is the exact sum of |t| over the walk steps so far,
rounded once to nearest, ties to even.  With D the largest denominator of
the walk times' `as_integer_ratio()`, a power of two, every D |t| is an
integer, so the sums are Python ints and one `int / int` true division,
which CPython rounds correctly, gives the value.  So p repeats of the
block add p S for its sum S.  A schedule tallies its queries and walk
times once (`_tallies`), in O(len(iterate) + len(tail)) whatever p is.  A
sum beyond the largest double reads inf, as IEEE rounding gives.

A recorded iterate is never stepped.  A builder records its iterate's
closed-form spectrum (`IterateSpectrum`: eigenstates V and eigenphases phi
in dual coordinates), and the state after the block is
V e^{i p phi} V^dagger c.  A sample inside the block, at step
s = j len(iterate) + r, is P_r V e^{i j phi} V^dagger c, with P_r the fold
of the iterate's first r steps; one array of exponents serves every j.  Its
walk time is j S plus the exact sum of the iterate's first r walk times,
rounded once.  So a run costs O(len(iterate)) numpy calls, not
O(len(iterate) p), and time and memory in proportion to its samples.  Each
p phi is one rounded product, so the block's error does not grow with p;
its walk phases take their multiples of pi exactly, where a fold of the
float steps carries fl(pi) n in each.  So a `Schedule` refuses an iterate
without its spectrum; hand-built steps go in the tail.  Each sample's step,
query count and walk time are those of stepping every step.  Its
probabilities are not bit for bit those, and stepping's fl(pi) n makes
them differ by up to about 1e-11 at n near 4096.  Only the tail, at most
five steps for every builder, is stepped, and so are hand-built schedules
without a recorded iterate.

`RunReport.to_csv` renders its text in numpy, a block of rows at a time,
through the private `_csvtext` module, which it imports on first use.
Given a binary file, it writes each block's bytes there as it goes, so a
run holds the text of one block, not of the whole trajectory; the CLI
writes its CSV files that way.  The text is the same either way.

At n = 2 a full state (N = 4) has the shape of a reduced one, so
`apply_schedule` and `group_probabilities` refuse n = 2 rather than
guess.  `oracle_phase`, `success_probability` and `entangled_fidelity`
take no size: they read a 4-vector as a reduced state and refuse a
nonzero `marked` with it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from itertools import chain, repeat
from typing import BinaryIO

import numpy as np

from .errors import DimensionMismatchError
from .graphs import (
    REDUCED_DIM,
    DualBasis,
    GraphSize,
    _check_vertex,
    _dual_matrix,
    _eigenphases,
    _eigenvalues,
    dual_basis,
)


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

    def __post_init__(self) -> None:
        if not math.isfinite(self.parameter):
            raise ValueError(f"a {self.kind.value} step needs a finite parameter, "
                             f"got {self.parameter!r}")


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


class ScheduleSteps:
    """Chronological steps of `iterate * p + tail`, never stored flat.

    `len()` costs O(1), and iteration walks the block p times and then the
    tail.  The view has no index, slice or equality of its own: read the
    steps through `tuple(steps)`, or compare the `Schedule`s that own them.
    """

    __slots__ = ("_iterate", "_p", "_tail")

    def __init__(self, iterate, p, tail):
        self._iterate, self._tail = iterate, tail
        self._p = p if iterate else 0

    def __len__(self) -> int:
        return len(self._iterate) * self._p + len(self._tail)

    def __iter__(self):
        return chain(chain.from_iterable(repeat(self._iterate, self._p)), self._tail)


@dataclass(frozen=True)
class IterateSpectrum:
    """Closed-form eigendecomposition of an iterate, in dual coordinates.

    The iterate's unitary is V diag(e^{i phi}) V^dagger, with V the
    unitary `eigenstates` (one eigenvector per column).  The columns come
    in two pairs, (0, 1) and (2, 3), and each pair spans a plane that the
    iterate keeps, where it is a rotation times a phase: `angles` holds, per
    column, the centre of its pair (row 0) and its split (row 1), opposite
    within a pair, and the eigenphases phi are their sums.  Kept apart,
    j times a centre and j times a split round apart, so the phase between
    the states of a pair after j iterates, 2 j split, keeps the relative
    precision of the split.  Columns 0 and 1 are the +- states of the
    rotation that the search route makes, whose split is `lambda_plus`.

    A spectrum may also stack the spectra of several iterates along leading
    axes S: `eigenstates` of shape S + (4, 4), `angles` S + (2, 4) and
    `lambda_plus` S.
    """

    lambda_plus: float
    eigenstates: np.ndarray
    angles: np.ndarray

    def apply_powers(self, coeffs: np.ndarray, turns) -> np.ndarray:
        """U^j c = V e^{i j phi} V^dagger c for dual coordinates c: shape
        (4,) for one j, (4, k) for k of them.  A stack takes c of shape
        S + (4,) and turns of shape S + T, each iterate its own, and gives
        S + (4,) + T; each iterate's slice has the bits of its own call, as
        every product runs per slice with that call's operand layouts.
        V^dagger c is divided by the squared norms of V's columns as
        rounded: a column whose norm rounds off 1 would scale its share of
        the state."""
        lead = self.eigenstates.ndim - 2
        turns = np.asarray(turns)
        extra = (1,) * (turns.ndim - lead)
        angles = self.angles.swapaxes(0, lead)  # centre and split first
        turns = turns.reshape(turns.shape[:lead] + (1,) + turns.shape[lead:])
        centre, split = np.exp(1j * (angles.reshape(angles.shape + extra) * turns))
        left = self.eigenstates.conj().swapaxes(-1, -2)
        weights = ((left @ coeffs[..., np.newaxis])[..., 0]
                   / (left @ self.eigenstates).diagonal(0, -2, -1).real)
        rotated = centre * split * weights.reshape(weights.shape + extra)
        columns = rotated.reshape(rotated.shape[:lead + 1] + (-1,))
        return (self.eigenstates @ columns).reshape(rotated.shape)


@dataclass(frozen=True)
class Schedule:
    """Ordered phase-walk program plus a classical finishing rule.

    A schedule is a block of steps, `iterate`, repeated p times, then the
    steps of `tail`.  `steps` is the chronological `ScheduleSteps` view of
    `iterate * p + tail`, with only a length and an iteration, the first
    step applied first.  A builder records its iterate, whose unitary is
    `schedule_matrix(iterate, size)`, with that unitary's closed-form
    `spectrum`, and puts the tuning walk and the finishing map in the
    tail.  An iterate and its spectrum come together: either without the
    other is refused.  A hand-built
    `Schedule(steps, rule, ...)` has no iterate: its steps are all tail,
    and `p` is metadata only.  `n` and `variant` are metadata; the circuit
    compiler checks `n`.

    Two schedules are equal when their stored fields are: the same tail,
    finishing rule, n, variant, p and iterate.  So equality and the hash
    cost O(len(iterate) + len(tail)), and a blocked schedule does not equal
    its flat, all-tail form; compare `tuple(steps)` for the steps alone.
    The spectrum is a function of the iterate, so it takes no part in
    equality or the hash.
    """

    tail: tuple[ScheduleStep, ...]
    finishing_rule: FinishingRule = FinishingRule.NONE
    n: int | None = None
    variant: str | None = None
    p: int | None = None
    iterate: tuple[ScheduleStep, ...] = ()
    spectrum: IterateSpectrum | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.iterate and (self.p is None or self.p < 1):
            raise ValueError(f"an iterate needs p >= 1 repetitions, got p={self.p}")
        if bool(self.iterate) != (self.spectrum is not None):
            raise ValueError("an iterate and its spectrum come together: a spectrum needs "
                             "the iterate it decomposes, and an iterate its spectrum; "
                             "put hand-built steps in the tail")
        # tuples, so that steps given as lists compare and hash as well
        object.__setattr__(self, "tail", tuple(self.tail))
        object.__setattr__(self, "iterate", tuple(self.iterate))
        object.__setattr__(self, "steps", ScheduleSteps(self.iterate, self.p, self.tail))

    @property
    def oracle_queries(self) -> int:
        """Oracle steps, plus one confirmation query for measure-and-check."""
        _, _, tail = self._tallies
        return tail[-1][0] + (self.finishing_rule is FinishingRule.MEASURE_AND_CHECK)

    @property
    def total_walk_time(self) -> float:
        """The exact sum of |t| over the walk steps of `steps`, rounded once
        to nearest, ties to even: p times the iterate's exact sum plus the
        tail's, in O(len(iterate) + len(tail)).  inf past the largest
        double."""
        scale, _, tail = self._tallies
        return _rounded(tail[-1][1], scale)

    @cached_property
    def _tallies(self):
        """A run's accounting, made once: the scale D (see the module
        docstring), then for the iterate, from the start, and for the tail,
        from the end of the block, the row (queries, D times the walk time,
        signed walk time mod pi) after r steps, r = 0, 1, ...  The last is
        the complement's turn.  Only walk steps are read for D."""
        walk, half_turn = StepKind.WALK, np.pi
        ratios = [step.parameter.as_integer_ratio()
                  for step in self.iterate + self.tail if step.kind is walk]
        scale = max([den for _, den in ratios], default=1)
        lengths = iter([abs(num) * (scale // den) for num, den in ratios])

        def tally(steps, queries, units, tau):
            rows = [(queries, units, tau)]
            for step in steps:
                if step.kind is walk:
                    units += next(lengths)
                    tau = (tau + step.parameter) % half_turn
                else:
                    queries += 1
                rows.append((queries, units, tau))
            return rows

        block = tally(self.iterate, 0, 0, 0.0)
        p = self.p if self.iterate else 0
        queries, units, tau = block[-1]
        return scale, block, tally(self.tail, p * queries, p * units, (p * tau) % half_turn)


def _rounded(units: int, scale: int) -> float:
    """units / scale rounded once to nearest, ties to even, as CPython's int
    true division rounds it; inf past the largest double, where the
    division raises."""
    try:
        return units / scale
    except OverflowError:
        return math.inf


# rows per block in `RunReport.to_csv` and `RunReport.to_json`
_CSV_BLOCK = 4096
_JSON_SAMPLE = """    {
      "probabilities": [
        %s,
        %s,
        %s,
        %s
      ],
      "queries_so_far": %d,
      "step": %d,
      "walk_time_so_far": %s
    }"""


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

    def to_csv(self, file: BinaryIO | None = None) -> str | None:
        """Render the trajectory as CSV: return it as a `str`, or write it
        to the binary `file` as ASCII bytes and return None.

        Columns: step, p1..p4, queries_so_far, walk_time_so_far.  p1..p4 are
        the probabilities of the four vertex groups (marked, opposite,
        same-side rest, far-side rest) or dual-basis populations when the run
        sampled in the dual basis.  The text is that of `'%.17g'` for each
        float, which round-trips a double, and `'%d'` for each int.  Each
        block of `_CSV_BLOCK` rows is rendered in numpy by `_csvtext`, whose
        docstring gives the method.  Written to a file, each block goes out
        as soon as it is rendered, so memory stays in proportion to one
        block, whose temporaries every later block reuses; the bytes are
        those of the returned text.
        """
        from ._csvtext import csv_blocks

        text = chain([",".join(self.CSV_HEADER).encode("ascii") + b"\n"],
                     csv_blocks(self.trajectory, _CSV_BLOCK))
        if file is None:
            return b"".join(text).decode("ascii")
        file.writelines(text)
        return None

    def to_json(self) -> str:
        """Render the report as JSON.

        The text is that of `json.dumps(..., sort_keys=True, indent=2)` on
        the final accounting and one object per sample (probabilities,
        queries_so_far, step, walk_time_so_far).  With `indent`, `json`
        encodes in pure Python, so each sample is filled into a fixed
        template instead, a block of rows at a time; its floats are those
        of `json`'s C encoder (`float.__repr__`, NaN, Infinity).
        """
        t = self.trajectory
        samples = []
        for start in range(0, len(t), _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            probabilities = iter(_json_floats(t.probabilities[block].ravel()))
            rows = zip(probabilities, probabilities, probabilities, probabilities,
                       t.queries_so_far[block].tolist(), t.step[block].tolist(),
                       _json_floats(t.walk_time_so_far[block]))
            samples.append(",\n".join([_JSON_SAMPLE % row for row in rows]))
        trajectory = "[\n" + ",\n".join(samples) + "\n  ]" if samples else "[]"
        return (f'{{\n  "final_success_probability": {json.dumps(self.final_success_probability)},'
                f'\n  "oracle_queries": {json.dumps(self.oracle_queries)},'
                f'\n  "total_walk_time": {json.dumps(self.total_walk_time)},'
                f'\n  "trajectory": {trajectory}\n}}')


def _json_floats(column: np.ndarray) -> list[str]:
    """A non-empty float column's values as `json` writes them."""
    return json.dumps(column.tolist())[1:-1].split(", ")


def _is_reduced(state: np.ndarray) -> bool:
    return state.shape == (REDUCED_DIM,)


def _marked_index(state: np.ndarray, marked: int) -> int:
    """Index of the marked amplitude: 0 on a reduced state, else `marked`,
    which must lie in [0, N) rather than wrap.  A 4-vector is read as a
    reduced state, so there `marked` must be 0."""
    if _is_reduced(state):
        if marked != 0:
            raise DimensionMismatchError(
                f"marked vertex {marked} on a 4-vector: n = 2 is ambiguous, a full-space "
                "state (N = 4) has the shape of a reduced one, whose marked vertex is 0"
            )
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
    as `from_dual`.  A 4 x k block of columns takes the phases as a (4, 1)
    column; one 4-vector with (4, k) phases, a column per time, gives k.

    Real matrices are cast to complex inside each matmul.  C-contiguous
    complex copies give the same bits without the cast; F-ordered copies
    take another numpy loop and change the last bits.
    """
    dual_coeffs = to_dual @ coeffs
    if dual_coeffs.ndim < phases.ndim:
        dual_coeffs = dual_coeffs[:, np.newaxis]
    return np.matmul(from_dual, dual_coeffs * phases, out=out)


def walk_reduced(state: np.ndarray, t, graph: DualBasis | GraphSize) -> np.ndarray:
    """Apply exp(-i t A) to a reduced state via the dual basis; k times give 4 x k.

    Pass the `DualBasis` itself to reuse it across many steps.
    """
    state = np.asarray(state, dtype=complex)
    if not _is_reduced(state):
        raise DimensionMismatchError(f"expected a 4-vector, got shape {state.shape}")
    dual = graph if isinstance(graph, DualBasis) else dual_basis(graph)
    return _walk(state, np.exp(1j * dual.eigenphases(t)), dual.matrix.T, dual.matrix)


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
            phases = np.exp(1j * dual.eigenphases(step.parameter))
            m = _walk(m, phases[:, np.newaxis], dual.matrix.T, dual.matrix)
        else:
            m[0] *= np.exp(-1j * step.parameter)
    return m


# index pairs per block in `walk_full` and `_split_full`: the 128 KiB blocks
# that one pass touches (four at most) fit in L2 together.  `cg.cg_evolve`
# evolves its samples in the same blocks, not to fit L2 (a block's phases
# alone are 512 KiB to 1 MiB) but because none is short, which keeps the
# bits of one pass
_WALK_BLOCK = 8192


def _blocks(n: int) -> list[tuple[int, int]]:
    """The (lo, hi) ranges that cover [0, n) in blocks of `_WALK_BLOCK` index
    pairs or samples.  The last block runs to n, so it is the longest, and no
    block is short: elementwise numpy loops can round a short tail
    differently, and a one-column matrix product takes another path."""
    starts = range(0, max(n - _WALK_BLOCK + 1, 1), _WALK_BLOCK)
    return list(zip(starts, [*starts[1:], n]))


def walk_full(state: np.ndarray, t: float, size: GraphSize) -> np.ndarray:
    """Apply exp(-i t A_full) matrix-free through the four spectral projectors.

    The eigenspaces of the CIIN adjacency are: the all-ones vector (n), the
    side-antisymmetric uniform vector (n-2), side-antisymmetric zero-mean
    vectors (-2), and side-symmetric zero-mean vectors (0).  Splitting the
    state into symmetric/antisymmetric halves and their means applies all
    four projectors in O(N).

    The halves are built in the two halves of the output array, and both
    passes over them run in blocks of `_WALK_BLOCK` index pairs, so each
    block is still in cache for its next operation and the only temporary
    is one block-sized buffer.  Pass 1 writes a + b and a - b and halves
    their float64 components.  On finite states that gives the bits of a
    complex division by 2 (numpy divides by 2 + 0j with Smith's algorithm)
    except the sign of an exactly-zero component; no probability sees that
    sign.  (The division also turns an infinite component's zero partner
    into NaN; halving does not.)  The two means are taken over whole halves
    between the passes, because a per-block sum would add in another order
    and change the bits; each is the sum and division that `ndarray.mean`
    makes.  Pass 2 applies the projectors in place with the operations,
    and the operand order, of the unblocked formula.
    """
    n = size.n
    state = np.asarray(state, dtype=complex)
    if state.shape != (size.N,):
        raise DimensionMismatchError(
            f"expected state of length {size.N}, got shape {state.shape}"
        )
    out = np.empty(size.N, dtype=complex)
    sym, asym = out[:n], out[n:]
    # float components, one row per half: one multiply halves a block of each
    halves = out.view(np.float64).reshape(2, 2 * n)
    blocks = _blocks(n)
    for lo, hi in blocks:
        np.add(state[lo:hi], state[n + lo:n + hi], out=sym[lo:hi])
        np.subtract(state[lo:hi], state[n + lo:n + hi], out=asym[lo:hi])
        halves[:, 2 * lo:2 * hi] *= 0.5
    # ndarray.mean's own sum and division, without its Python-level wrapper
    mean_sym = np.add.reduce(sym) / n
    mean_asym = np.add.reduce(asym) / n
    top, mid, turn, _ = np.exp(1j * dual_basis(size).eigenphases(t))
    top *= mean_sym
    mid *= mean_asym
    buffer = np.empty(blocks[-1][1] - blocks[-1][0], dtype=complex)
    for lo, hi in blocks:
        s, d = sym[lo:hi], asym[lo:hi]
        s -= mean_sym
        s += top
        d -= mean_asym
        # phase first: complex multiply is not bitwise commutative under FMA
        np.multiply(turn, d, out=d)
        d += mid
        difference = buffer[:hi - lo]
        np.subtract(s, d, out=difference)
        s += d
        d[...] = difference
    return out


def oracle_phase(state: np.ndarray, theta: float, marked: int = 0) -> np.ndarray:
    """Multiply the marked-vertex amplitude by exp(-i theta).

    For reduced states the marked vertex is coordinate 0 by construction, so
    with a 4-vector `marked` must be 0 (see `_marked_index`).
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
    marked = _marked_index(state, marked)
    if _is_reduced(state):
        a, b = state[0], state[1]
    else:
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
    side = marked // n
    # one half at a time through one n-length buffer: the same values,
    # summed in the same order, as squaring the whole state at once
    prob = np.empty(n, dtype=state.real.dtype)
    groups = np.empty(4, dtype=prob.dtype)
    for slot, half, vertex in ((0, side, marked), (1, 1 - side, size.opposite(marked))):
        np.square(np.abs(state[half * n:(half + 1) * n], out=prob), out=prob)
        groups[slot] = prob[vertex - half * n]
        groups[slot + 2] = prob.sum() - groups[slot]
    return groups


def _split_full(state: np.ndarray, size: GraphSize, marked: int):
    """Project a full state onto the walk basis and summarise the rest.

    The residual r left by the projection reads, per side and aligned by
    index (vertex j against its opposite), sym + asym on the marked side and
    sym - asym on the far side.  Returns the 4 walk-basis coefficients,
    ||sym||^2 + ||asym||^2 and <sym, asym>.

    The coefficients come from the whole-half sums of an unblocked
    projection, so they keep its bits.  The three scalars come from one pass
    over the two residual halves a (marked side) and b (far side) in the
    blocks of `_blocks`, through two buffers as long as the longest block.
    With sym = (a + b)/2 and asym = (a - b)/2,
    ||sym||^2 + ||asym||^2 = (||a||^2 + ||b||^2)/2 and
    <sym, asym> = (||a||^2 - ||b||^2)/4 + i Im<b, a>/2,
    so neither sym nor asym is built and no complex number is divided.
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
    mean_same, mean_far = coeffs[2] / scale, coeffs[3] / scale
    blocks = _blocks(n)
    longest = blocks[-1][1] - blocks[-1][0]
    buffer_a, buffer_b = np.empty(longest, dtype=complex), np.empty(longest, dtype=complex)
    norm_a = norm_b = 0.0
    cross = 0j  # <b, a>
    for lo, hi in blocks:
        a = np.subtract(same[lo:hi], mean_same, out=buffer_a[:hi - lo])
        b = np.subtract(far[lo:hi], mean_far, out=buffer_b[:hi - lo])
        if lo <= local < hi:
            a[local - lo] = b[local - lo] = 0.0
        norm_a += np.vdot(a, a).real
        norm_b += np.vdot(b, b).real
        cross += np.vdot(b, a)
    return coeffs, (norm_a + norm_b) / 2.0, complex((norm_a - norm_b) / 4.0, cross.imag / 2.0)


def _run_block(coeffs: np.ndarray, schedule: Schedule, sample_every: int, dual: DualBasis,
               dual_samples: bool):
    """Sample a repeated block without stepping it.

    With L = len(iterate) and e = `sample_every`, the block is sampled at
    steps s = e, 2e, ... below L p.  With s = j L + r, the state there is
    P_r U^j c, where U is the iterate's unitary and P_r folds the first r
    steps of the iterate.  U^j c is V e^{i j phi} V^dagger c in dual
    coordinates (`spectrum`), one column per sample from one array of
    exponents, and each P_r is applied to the columns of offset r at once.
    Returns the samples (steps, the 4 x k block of states, in dual
    coordinates when `dual_samples` and in walk coordinates otherwise,
    queries, walk times, signed walk times mod pi); at least one sample
    falls inside the block.  Their accounting is j times the iterate's plus
    that of its first r steps (`Schedule._tallies`).
    """
    iterate, p, spectrum = schedule.iterate, schedule.p, schedule.spectrum
    scale, block, _ = schedule._tallies
    oracles, units, taus = zip(*block)
    width = len(iterate)
    stops = np.arange(sample_every, width * p, sample_every)
    turns, offsets = np.divmod(stops, width)
    # in dual coordinates, where the eigenstates are given
    states = spectrum.apply_powers(dual.to_dual(coeffs), turns)
    # samples L apart share their offset, so the first L show every one
    for offset in set(offsets[:width].tolist()) - {0}:
        at = offsets == offset
        prefix = schedule_matrix(iterate[:offset], dual)
        states[:, at] = dual.to_dual(prefix @ dual.from_dual(states[:, at]))
    if not dual_samples:
        states = dual.from_dual(states)
    total = units[-1]
    elapsed = [_rounded(j * total + units[r], scale)
               for j, r in zip(turns.tolist(), offsets.tolist())]
    return (stops, states, turns * oracles[-1] + np.array(oracles)[offsets],
            elapsed, (turns * taus[-1] + np.array(taus)[offsets]) % np.pi)


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
    opposite); otherwise it is the marked-vertex probability itself.  A
    schedule that records its size `n` runs at that size only.

    A full-space state is projected once onto the walk basis of `marked`;
    its complement enters the samples through three scalars (see the module
    docstring), so a full-space run costs O(N) once plus its 4-dim run,
    not O(N) a step.  A recorded iterate is never stepped: the state after
    the block and the samples inside it come from powers of the iterate
    through its closed-form spectrum (see the module docstring); only the
    tail is stepped, by the runner that also serves stacked sweeps.
    """
    _check_unambiguous(size)
    if schedule.n is not None and schedule.n != size.n:
        raise DimensionMismatchError(f"schedule built for n={schedule.n}, run at n={size.n}")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    if sample_basis not in ("walk", "dual"):
        raise ValueError(f"unknown sample basis {sample_basis!r}")
    coeffs = np.asarray(state, dtype=complex)
    if _is_reduced(coeffs):
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

    def probabilities(coeffs, tau, in_dual=False):
        """Sample probabilities of a 4-vector at one tau, or of the columns
        of a 4 x k block at a vector of k taus; dual-basis samples may come
        in dual coordinates already (`in_dual`)."""
        if sample_basis == "dual":
            return np.abs(coeffs if in_dual else dual.to_dual(coeffs)) ** 2
        probs = np.abs(coeffs) ** 2
        if rest_norm:  # else there is no complement, and adding zeros keeps the bits
            swing = 2.0 * (np.exp(1j * dual.eigenphases(tau)[2]) * rest_cross).real
            probs[2] += rest_norm + swing
            probs[3] += rest_norm - swing
        return probs

    last = len(schedule.steps)
    done = last - len(schedule.tail)  # the block's steps, none without an iterate
    # the samples after the block and after tail steps, as tail positions
    positions = [step - done for step in range(max(done, 1), last + 1)
                 if step % sample_every == 0 or step == last]
    (final,), states = _run_stack(coeffs[:, np.newaxis], [schedule], dual.matrix,
                                  dual.eigenvalues, schedule.spectrum, positions)
    scale, _, tallies = schedule._tallies
    steps, rows, counts, times = [0], [probabilities(coeffs, 0.0)], [0], [0.0]
    for state, r in zip(states, positions):
        queries, units, tau = tallies[r]
        steps.append(done + r)
        rows.append(probabilities(state, tau))
        counts.append(queries)
        times.append(_rounded(units, scale))
    columns = (steps, rows, counts, times)
    if sample_every < done:
        # the samples inside the block go between step 0 and the rest
        inside = _run_block(coeffs, schedule, sample_every, dual, sample_basis == "dual")
        stops, states, block_queries, block_times, block_taus = inside
        columns = [np.concatenate((column[:1], values, column[1:])) for column, values in
                   zip(map(np.asarray, columns), (stops, probabilities(states, block_taus, True).T,
                                                  block_queries, block_times))]
    return RunReport(
        trajectory=Trajectory(*columns),
        final_success_probability=final,
        oracle_queries=schedule.oracle_queries,
        total_walk_time=schedule.total_walk_time,
    )


def _run_stack(coeffs: np.ndarray, schedules, matrix: np.ndarray, eigenvalues: np.ndarray,
               spectrum: IterateSpectrum | None, stops=()):
    """Run 4-dim states, shape S + (4, 1) in walk coordinates, one under
    each of `schedules`, whose tails share one pattern of step kinds: one
    state with S = (), or k with S = (k,).  `matrix` (S + (4, 4)) and
    `eigenvalues` (S + (4,)) are each state's `DualBasis.matrix` and
    `.eigenvalues`; `spectrum` is the iterates' spectrum, stacked alike, or
    None without an iterate.  Returns each final success probability under
    its schedule's finishing rule (measure-and-check adds the opposite
    vertex's mass, squared as in `group_probabilities`), and the states,
    S + (4,), at the tail positions in `stops`: r after r tail steps.

    Every matrix product runs per state with the operand layouts of a run
    of one, and every elementwise operation rounds once per entry.  Two
    operations that numpy's array loops may round otherwise are spelt out:
    the oracle's product on coefficient 0, in float arithmetic per state as
    numpy's scalar complex product rounds it, and |c_0|^2, through a scalar
    `abs` and `**`.
    """
    stack = matrix.shape[:-2]
    # C-ordered complex copies: the bits of the real matrices, no cast per step
    to_dual = np.ascontiguousarray(np.swapaxes(matrix, -1, -2), dtype=complex)
    from_dual = matrix.astype(complex)
    if spectrum is None:
        coeffs = coeffs.copy()
    else:
        # one power per state, as a column: the block comes out as S + (4, 1)
        powers = np.array([schedule.p for schedule in schedules]).reshape(stack + (1,))
        coeffs = from_dual @ spectrum.apply_powers((to_dual @ coeffs)[..., 0], powers)
    tail = schedules[0].tail
    states = [coeffs[..., 0].copy()] if 0 in stops else []
    if tail:
        # each tail step's phases, formed at once as a walk (`turns`) and as
        # an oracle (`shifts`); a step reads its kind's.  One state's
        # eigenvalues, as shape (1, 4), broadcast against its times.
        parameters = np.array([[step.parameter for step in schedule.tail]
                               for schedule in schedules]).T.reshape((len(tail),) + stack)
        turns = np.exp(1j * _eigenphases(eigenvalues.reshape(-1, 4), parameters))[..., np.newaxis]
        shifts = np.exp(-1j * parameters).reshape(len(tail), len(schedules)).tolist()
        heads = coeffs.reshape(-1, 4)[:, 0]  # each state's coefficient 0, in place
    for index, step in enumerate(tail, 1):
        if step.kind is StepKind.WALK:
            _walk(coeffs, turns[index - 1], to_dual, from_dual, out=coeffs)
        else:
            # c e^{-i theta} in floats, each product and sum rounded once
            heads[:] = [complex(c.real * z.real - c.imag * z.imag,
                                c.real * z.imag + c.imag * z.real)
                        for c, z in zip(heads.tolist(), shifts[index - 1])]
        if index in stops:
            states.append(coeffs[..., 0].copy())
    finals = []
    for schedule, c in zip(schedules, coeffs.reshape(-1, 4)):
        final = float(abs(c[0]) ** 2)
        if schedule.finishing_rule is FinishingRule.MEASURE_AND_CHECK:
            final += float((np.abs(c) ** 2)[1])
        finals.append(final)
    return finals, states


def _final_probabilities(schedules) -> np.ndarray:
    """Each schedule's final success probability from the uniform state,
    bit for bit that of its endpoint `apply_schedule` run, in one stacked
    pass of `_run_stack`.  Each schedule has a recorded iterate and its `n`,
    all share one pattern of step kinds in the iterate and in the tail, and
    each has its own p, parameters and finishing rule."""
    def kinds(schedule):
        return [step.kind for step in schedule.iterate], [step.kind for step in schedule.tail]

    schedules = list(schedules)
    if not schedules:
        return np.empty(0)
    pattern = kinds(schedules[0])
    for schedule in schedules:
        if not schedule.iterate:
            raise ValueError("a stacked evaluation needs a recorded iterate in every schedule")
        if schedule.n is None:
            raise ValueError("a stacked evaluation needs the size n of every schedule")
        if kinds(schedule) != pattern:
            raise ValueError("a stacked evaluation needs one step pattern, but the "
                             "schedules mix step patterns")
    n = np.array([float(schedule.n) for schedule in schedules])[:, np.newaxis]
    matrix = _dual_matrix(n[..., np.newaxis])
    spectra = IterateSpectrum(np.array([s.spectrum.lambda_plus for s in schedules]),
                              np.array([s.spectrum.eigenstates for s in schedules]),
                              np.array([s.spectrum.angles for s in schedules]))
    finals, _ = _run_stack(matrix[..., :1].astype(complex), schedules, matrix, _eigenvalues(n),
                           spectra)
    return np.array(finals)
