import numpy as np
import pytest
import scipy.linalg

from ciinwalk import circuit
from ciinwalk.circuit import (
    CircuitProgram,
    ControlledPhase,
    Hadamard,
    NotGate,
    TwoPhaseRotation,
    compile_schedule,
    oracle_circuit,
    parse_circuit,
    reconstruct_unitary,
    render_circuit,
    simulate,
    walk_circuit,
)
from ciinwalk.dynamics import Schedule, apply_schedule, oracle_step, uniform_state, walk_full, walk_step
from ciinwalk.errors import DimensionMismatchError, UnsupportedSizeError
from ciinwalk.graphs import FullAdjacency, GraphSize
from ciinwalk.schedules import deterministic_schedule

from conftest import random_state, run_stepwise


def dense_walk(m, t):
    adjacency = FullAdjacency(GraphSize(2 ** m)).dense
    return scipy.linalg.expm(-1j * t * adjacency)


def max_error_up_to_phase(left, right):
    anchor = np.unravel_index(np.argmax(np.abs(right)), right.shape)
    phase = left[anchor] / right[anchor]
    return float(np.max(np.abs(left - phase * right)))


class TestWalkCircuit:
    def test_rejects_m0(self):
        with pytest.raises(UnsupportedSizeError):
            walk_circuit(0, 1.0)

    def test_two_wire_circuit_matches_exponential(self):
        for t in (0.0, 0.31, 1.9, 2 * np.pi):
            error = max_error_up_to_phase(
                reconstruct_unitary(walk_circuit(1, t)), dense_walk(1, t)
            )
            assert error < 1e-12

    def test_zero_time_is_identity(self):
        unitary = reconstruct_unitary(walk_circuit(3, 0.0))
        assert max_error_up_to_phase(unitary, np.eye(16)) < 1e-12

    def test_full_period_is_identity(self):
        unitary = reconstruct_unitary(walk_circuit(2, 2 * np.pi))
        assert max_error_up_to_phase(unitary, np.eye(8)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_dense_exponential(self, m, rng):
        for t in rng.uniform(0, 2 * np.pi, size=5):
            error = max_error_up_to_phase(
                reconstruct_unitary(walk_circuit(m, float(t))), dense_walk(m, float(t))
            )
            assert error < 1e-10

    def test_unitarity_by_reconstruction(self):
        unitary = reconstruct_unitary(walk_circuit(3, 1.234))
        assert np.abs(unitary.conj().T @ unitary - np.eye(16)).max() < 1e-10

    def test_gate_count_independent_of_time(self):
        a = walk_circuit(4, 0.001).gates
        b = walk_circuit(4, 123.456).gates
        assert len(a) == len(b)
        assert [type(g) for g in a] == [type(g) for g in b]

    def test_large_register_construction_is_cheap(self):
        program = walk_circuit(20, 0.5)
        assert program.num_wires == 21
        assert len(program.gates) == 3 + 20 + 1 + 20


class TestOracleCircuit:
    def test_sign_flip_on_all_zeros(self):
        program = oracle_circuit(2, 0, np.pi)
        state = np.full(8, 1 / np.sqrt(8), dtype=complex)
        out = simulate(program, state)
        assert np.allclose(out[0], -state[0])
        assert np.allclose(out[1:], state[1:])

    def test_quarter_phase_on_vertex_five(self, rng):
        program = oracle_circuit(2, 5, np.pi / 2)
        state = random_state(rng, 8)
        out = simulate(program, state)
        assert abs(out[5] - state[5] * np.exp(-1j * np.pi / 2)) < 1e-12
        mask = np.arange(8) != 5
        assert np.abs(out[mask] - state[mask]).max() < 1e-12

    def test_inverse_pair_is_identity(self, rng):
        forward = oracle_circuit(3, 11, 0.77)
        backward = oracle_circuit(3, 11, -0.77)
        state = random_state(rng, 16)
        assert np.abs(simulate(backward, simulate(forward, state)) - state).max() < 1e-12

    def test_marked_out_of_range(self):
        with pytest.raises(IndexError):
            oracle_circuit(2, 8, 1.0)

    def test_x_conjugation_structure(self):
        program = oracle_circuit(2, 5, 0.3)  # 101 in binary: X on the middle wire
        kinds = [type(g) for g in program.gates]
        assert kinds == [NotGate, ControlledPhase, NotGate]
        assert program.gates[0].wire == 1
        assert program.gates[1].condition == "111"


class TestSimulate:
    def test_empty_program_is_identity(self, rng):
        state = random_state(rng, 4)
        assert np.array_equal(simulate(CircuitProgram(2, ()), state), state)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            simulate(CircuitProgram(2, ()), np.zeros(5, dtype=complex))

    def test_input_not_modified(self, rng):
        state = random_state(rng, 4)
        copy = state.copy()
        simulate(walk_circuit(1, 0.4), state)
        assert np.array_equal(state, copy)

    def test_walk_matches_projector_propagator(self, rng):
        size = GraphSize(8)
        state = random_state(rng, 16)
        out = simulate(walk_circuit(3, 0.7), state)
        assert np.abs(out - walk_full(state, 0.7, size)).max() < 1e-10

    def test_norm_preserved_on_long_program(self, rng):
        program = walk_circuit(5, 0.9)
        state = random_state(rng, 64)
        for _ in range(20):
            state = simulate(program, state)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_hadamard_on_chosen_wire(self):
        program = CircuitProgram(2, (Hadamard(1),))
        state = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        out = simulate(program, state)
        assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])

    def test_two_phase_rotation(self):
        program = CircuitProgram(1, (TwoPhaseRotation(0, 0.4, -0.9),))
        out = simulate(program, np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
        assert abs(out[0] - np.exp(0.4j) / np.sqrt(2)) < 1e-15
        assert abs(out[1] - np.exp(-0.9j) / np.sqrt(2)) < 1e-15


def random_block(rng, dim, k):
    return rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))


def assert_columns_match(program, block):
    """A batched call gives every column the bits of a call on it alone."""
    out = simulate(program, block)
    assert out.shape == block.shape
    for col in range(block.shape[1]):
        assert out[:, col].tobytes() == simulate(program, block[:, col]).tobytes()


class TestBatchedSimulate:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_walk_circuits(self, m, rng):
        for t in rng.uniform(0.0, 2.0 * np.pi, size=3):
            program = walk_circuit(m, float(t))
            assert_columns_match(program, np.eye(program.dimension, dtype=complex))
            assert_columns_match(program, random_block(rng, program.dimension, 5))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_oracle_circuits(self, m, rng):
        # the controlled phase fixes every wire: one amplitude per column
        for k in (1, 2, 7, 16):
            marked = int(rng.integers(0, 2 ** (m + 1)))
            program = oracle_circuit(m, marked, float(rng.uniform(-np.pi, np.pi)))
            assert_columns_match(program, random_block(rng, program.dimension, k))

    def test_compiled_schedule_m3(self, rng):
        program = compile_schedule(deterministic_schedule(GraphSize(8)), 3, marked=5)
        assert_columns_match(program, np.eye(program.dimension, dtype=complex))
        assert_columns_match(program, random_block(rng, program.dimension, 9))

    def test_random_programs_of_every_gate(self, rng):
        for num_wires in (1, 2, 3):
            gates = []
            for _ in range(40):
                kind = int(rng.integers(0, 4))
                wire = int(rng.integers(0, num_wires))
                if kind == 0:
                    gates.append(Hadamard(wire))
                elif kind == 1:
                    gates.append(TwoPhaseRotation(wire, *rng.uniform(-7.0, 7.0, size=2)))
                elif kind == 2:
                    gates.append(NotGate(wire))
                else:
                    condition = "".join(rng.choice(list("01-"), size=num_wires))
                    gates.append(ControlledPhase(float(rng.uniform(-7.0, 7.0)), condition))
            program = CircuitProgram(num_wires, tuple(gates))
            assert_columns_match(program, random_block(rng, program.dimension, 6))

    def test_reconstruct_unitary_is_one_call(self, monkeypatch):
        calls = []

        def counting(program, state):
            calls.append(np.shape(state))
            return simulate(program, state)

        monkeypatch.setattr(circuit, "simulate", counting)
        program = walk_circuit(3, 0.8)
        unitary = reconstruct_unitary(program)
        assert calls == [(16, 16)]
        assert unitary.tobytes() == simulate(program, np.eye(16, dtype=complex)).tobytes()

    def test_block_input_not_modified(self, rng):
        block = random_block(rng, 8, 3)
        copy = block.copy()
        simulate(walk_circuit(2, 0.4), block)
        assert np.array_equal(block, copy)

    def test_state_shapes(self):
        program = walk_circuit(2, 0.3)  # 8 amplitudes
        for shape in [(8,), (8, 1), (8, 3), (8, 0)]:
            assert simulate(program, np.ones(shape, dtype=complex)).shape == shape
        for shape in [(), (7,), (16,), (7, 3), (2, 8), (8, 2, 2), (2, 2, 2)]:
            with pytest.raises(DimensionMismatchError):
                simulate(program, np.ones(shape, dtype=complex))


class TestCompileSchedule:
    def test_single_oracle_compiles_to_one_phase_block(self):
        schedule = Schedule((oracle_step(np.pi),), n=4, variant="unit", p=1)
        program = compile_schedule(schedule, 2, marked=3)
        phases = [g for g in program.gates if isinstance(g, ControlledPhase)]
        assert len(phases) == 1

    def test_rejects_non_power_of_two(self):
        schedule = Schedule((walk_step(0.1),), n=12, variant="unit", p=1)
        with pytest.raises(UnsupportedSizeError):
            compile_schedule(schedule, 3)

    def test_deterministic_pipeline_matches_reduced_result_n8(self):
        size = GraphSize(8)
        schedule = deterministic_schedule(size)
        program = compile_schedule(schedule, 3)
        final = simulate(program, uniform_state(size, reduced=False))
        reduced = apply_schedule(uniform_state(size), schedule, size,
                                 sample_every=len(schedule.steps))
        assert abs(abs(final[0]) ** 2 - reduced.final_success_probability) < 1e-8

    def test_compiled_matches_full_space_dynamics(self, rng):
        size = GraphSize(16)
        schedule = deterministic_schedule(size)
        program = compile_schedule(schedule, 4, marked=5)
        start = uniform_state(size, reduced=False)
        via_circuit = simulate(program, start)
        state, _ = run_stepwise(start, schedule, size, marked=5)
        fidelity = abs(np.vdot(state, via_circuit)) ** 2
        assert fidelity > 1.0 - 1e-9

    def test_gate_count_constant_in_step_parameters(self):
        # fast-forwarding: compiled size depends on the step structure only,
        # never on walk times or phase angles
        first = Schedule((walk_step(0.3), oracle_step(1.0), walk_step(-2.2)),
                         n=8, variant="unit", p=1)
        second = Schedule((walk_step(51.7), oracle_step(-0.4), walk_step(0.001)),
                          n=8, variant="unit", p=1)
        a = compile_schedule(first, 3, marked=5)
        b = compile_schedule(second, 3, marked=5)
        assert [type(g) for g in a.gates] == [type(g) for g in b.gates]

    def test_oracle_query_gates_match_schedule_steps(self):
        size = GraphSize(8)
        schedule = deterministic_schedule(size, 4)
        program = compile_schedule(schedule, 3)
        oracle_gates = [
            g for g in program.gates
            if isinstance(g, ControlledPhase) and g.condition == "1" * 4
        ]
        from ciinwalk.dynamics import StepKind

        oracle_steps = sum(1 for s in schedule.steps if s.kind is StepKind.ORACLE)
        assert len(oracle_gates) == oracle_steps == schedule.oracle_queries


class TestTextFormat:
    def test_round_trip(self):
        program = compile_schedule(deterministic_schedule(GraphSize(8)), 3, marked=2)
        assert parse_circuit(render_circuit(program)) == program

    def test_header_and_gate_lines(self):
        text = render_circuit(walk_circuit(2, 0.5))
        lines = text.splitlines()
        assert lines[0] == "WIRES 3"
        assert lines[1] == "H 0"
        assert any(line.startswith("CPHASE ") and line.endswith("-00") for line in lines)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_circuit("H 0\n")
        with pytest.raises(ValueError):
            parse_circuit("WIRES 2\nROTATE 0\n")

    @pytest.mark.parametrize("gate", ["R 0 {} 0.5", "R 0 0.5 {}", "CPHASE {} 1-"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_parse_rejects_non_finite_angles(self, gate, value):
        line = gate.format(value)
        with pytest.raises(ValueError, match=f"non-finite angle in circuit line: '{line}'"):
            parse_circuit(f"WIRES 2\n{line}\n")

    @pytest.mark.parametrize("num_wires", [0, -1])
    def test_refuses_fewer_than_one_wire(self, num_wires):
        with pytest.raises(ValueError, match="at least one wire"):
            CircuitProgram(num_wires, ())
        with pytest.raises(ValueError, match="at least one wire"):
            parse_circuit(f"WIRES {num_wires}\n")

    def test_condition_validation(self):
        with pytest.raises(ValueError):
            CircuitProgram(2, (ControlledPhase(0.1, "012"),))
        with pytest.raises(ValueError):
            CircuitProgram(2, (ControlledPhase(0.1, "1"),))
        with pytest.raises(ValueError):
            CircuitProgram(2, (Hadamard(2),))
