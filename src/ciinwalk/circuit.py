"""Fast-forwarded gate-level walks and a statevector simulator.

For N = 2^(m+1) vertices the CIIN adjacency splits into two commuting terms:
a bit-flip coupling on the side wire (the interconnect matching) and a
complete-graph term on the remaining m wires.  Both exponentiate exactly
with a t-independent gate count: the side wire becomes H . P(2t) . H, a
phase on side bit 1 (the scalar e^{it} from K = J - I is folded into it),
and the complete-graph term becomes a phase on the all-zeros state
conjugated by Hadamards, which is the generalized diffusion layout.  The
resulting circuit reproduces exp(-i t A_full) exactly, global phase
included.  An oracle is one phase on the marked vertex's bits, so
`Hadamard` and `ControlledPhase` are the only gate kinds.

Wire 0 carries the side bit (most significant bit of the vertex index);
wires 1..m carry the within-side index, most significant first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Schedule, StepKind
from .errors import DimensionMismatchError, UnsupportedSizeError
from .graphs import GraphSize, dual_basis

CONDITION_CHARS = frozenset("01-")


@dataclass(frozen=True)
class Hadamard:
    wire: int


@dataclass(frozen=True)
class ControlledPhase:
    """Multiply amplitudes matching `condition` by e^{i phase}.

    `condition` has one character per wire: '0' or '1' to constrain that
    wire, '-' to leave it free.  The marked vertex's bits realize an
    oracle, side bit 1 the side-wire walk phase, and the free side wire
    with all-zero walk register the diffusion phase.
    """

    phase: float
    condition: str


Gate = Hadamard | ControlledPhase


@dataclass(frozen=True)
class CircuitProgram:
    """An ordered gate list on num_wires >= 1 wires."""

    num_wires: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.num_wires < 1:
            raise ValueError(f"a circuit needs at least one wire, got {self.num_wires}")
        for gate in self.gates:
            if isinstance(gate, ControlledPhase):
                if len(gate.condition) != self.num_wires:
                    raise ValueError(
                        f"condition {gate.condition!r} does not cover {self.num_wires} wires"
                    )
                if not set(gate.condition) <= CONDITION_CHARS:
                    raise ValueError(f"bad condition string {gate.condition!r}")
            elif not isinstance(gate, Hadamard):
                raise ValueError(f"unknown gate {gate!r}")
            elif not 0 <= gate.wire < self.num_wires:
                raise ValueError(f"gate wire {gate.wire} out of range")

    @property
    def dimension(self) -> int:
        return 2 ** self.num_wires


def walk_circuit(m: int, t: float) -> CircuitProgram:
    """Constant-size circuit realizing exp(-i t A_full) for n = 2^m."""
    if m < 1:
        raise UnsupportedSizeError(f"walk circuit requires m >= 1, got {m}")
    top, _, turn, _ = dual_basis(GraphSize(2 ** m)).eigenphases(t).tolist()
    gates: list[Gate] = [Hadamard(0), ControlledPhase(turn, "1" + "-" * m), Hadamard(0)]
    gates += [Hadamard(w) for w in range(1, m + 1)]
    gates.append(ControlledPhase(top, "-" + "0" * m))
    gates += [Hadamard(w) for w in range(1, m + 1)]
    return CircuitProgram(m + 1, tuple(gates))


def oracle_circuit(m: int, marked: int, theta: float) -> CircuitProgram:
    """Phase e^{-i theta} on the marked vertex: one phase on its bits."""
    num_wires = m + 1
    if not 0 <= marked < 2 ** num_wires:
        raise IndexError(f"marked vertex {marked} out of range for {2 ** num_wires} vertices")
    return CircuitProgram(num_wires, (ControlledPhase(-theta, format(marked, f"0{num_wires}b")),))


def _condition_slicer(condition: str):
    return tuple(slice(None) if c == "-" else int(c) for c in condition)


def _rotate(view: np.ndarray, index: tuple, angle: float) -> None:
    """Multiply view[index] by e^{i angle} in place.

    Where `index` fixes every wire, a single-vector call multiplies one
    complex scalar, whose real products are rounded one by one; numpy's loop
    over a complex array (here, that amplitude across a batch) may fuse a
    multiply-add and round differently.  That case is spelt out in real
    operations, which round as the scalar product does, so a batched column
    keeps the bits of the same column simulated alone.
    """
    phase = np.exp(1j * angle)
    if any(isinstance(i, slice) for i in index):
        view[index] *= phase
        return
    target = view[index + (...,)]
    re, im = target.real.copy(), target.imag.copy()
    target.real = re * phase.real - im * phase.imag
    target.imag = re * phase.imag + im * phase.real


def simulate(program: CircuitProgram, state: np.ndarray) -> np.ndarray:
    """Apply the gates in list order to a statevector of length 2^num_wires,
    or to every column of a (2^num_wires, k) block in one pass.

    Each gate costs O(2^num_wires k) with in-place amplitude updates on a
    view reshaped to (2,) * num_wires plus the batch axis; every column
    comes out bit for bit as a call on that column alone would give it.
    The input array is not modified.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim not in (1, 2) or state.shape[0] != program.dimension:
        raise DimensionMismatchError(
            f"state shape {state.shape} is neither (2^{program.num_wires},) "
            f"nor (2^{program.num_wires}, k)"
        )
    out = state.copy()
    view = out.reshape((2,) * program.num_wires + state.shape[1:])
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for gate in program.gates:
        if isinstance(gate, Hadamard):
            lo = [slice(None)] * program.num_wires
            hi = list(lo)
            lo[gate.wire], hi[gate.wire] = 0, 1
            lo, hi = tuple(lo), tuple(hi)
            a = view[lo].copy()
            b = view[hi]
            view[lo] = (a + b) * inv_sqrt2
            view[hi] = (a - b) * inv_sqrt2
        else:
            _rotate(view, _condition_slicer(gate.condition), gate.phase)
    return out


def reconstruct_unitary(program: CircuitProgram) -> np.ndarray:
    """Dense unitary of the program: every basis column in one batched
    `simulate` call (small wire counts)."""
    return simulate(program, np.eye(program.dimension, dtype=complex))


def compile_schedule(schedule: Schedule, m: int, marked: int = 0) -> CircuitProgram:
    """Concatenate walk and oracle fragments for a schedule built at n = 2^m.

    Every oracle step becomes exactly one controlled-phase gate, so the
    gate-level query count equals the schedule's oracle step count (a
    measure-and-check confirmation stays classical and is not compiled).
    The iterate is compiled once and its gates repeated p times, then the
    tail's gates follow: the gates of `schedule.steps` in order, with
    O(len(iterate) + len(tail)) fragments built.
    """
    n = 2 ** m
    if schedule.n is None or schedule.n != n:
        raise UnsupportedSizeError(
            f"schedule metadata n={schedule.n} does not match 2^{m} = {n}; "
            "only power-of-two side sizes compile to circuits"
        )
    repeats = schedule.p if schedule.iterate else 0
    gates = _step_gates(schedule.iterate, m, marked) * repeats
    return CircuitProgram(m + 1, gates + _step_gates(schedule.tail, m, marked))


def _step_gates(steps, m: int, marked: int) -> tuple[Gate, ...]:
    gates: list[Gate] = []
    for step in steps:
        if step.kind is StepKind.WALK:
            gates.extend(walk_circuit(m, step.parameter).gates)
        else:
            gates.extend(oracle_circuit(m, marked, step.parameter).gates)
    return tuple(gates)
