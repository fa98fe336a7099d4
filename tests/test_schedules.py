import hashlib
import math

import numpy as np
import pytest
import scipy.linalg

from ciinwalk.dynamics import (
    FinishingRule,
    Schedule,
    StepKind,
    apply_schedule,
    entangled_fidelity,
    marked_state,
    oracle_step,
    success_probability,
    uniform_state,
    walk_step,
)
from ciinwalk.errors import MappingUnavailableError, ThetaNotRealError, UnsupportedSizeError
from ciinwalk.graphs import GraphSize, dual_basis, reduced_adjacency
from ciinwalk import schedules as sch

from conftest import every_builder, fidelity


def dense_step_matrix(size, step):
    """Independent oracle for one step: expm for walks, a diagonal for phases."""
    if step.kind is StepKind.WALK:
        return scipy.linalg.expm(-1j * step.parameter * reduced_adjacency(size))
    matrix = np.eye(4, dtype=complex)
    matrix[0, 0] = np.exp(-1j * step.parameter)
    return matrix


def dense_schedule_matrix(size, steps):
    matrix = np.eye(4, dtype=complex)
    for step in steps:
        matrix = dense_step_matrix(size, step) @ matrix
    return matrix


def run_reduced(size, schedule):
    report = apply_schedule(uniform_state(size), schedule, size,
                            sample_every=max(1, len(schedule.steps)))
    return report


def final_state(size, steps):
    state = uniform_state(size)
    matrix = dense_schedule_matrix(size, steps)
    return matrix @ state


def plus_target():
    state = np.zeros(4, dtype=complex)
    state[0] = state[1] = 1.0 / np.sqrt(2.0)
    return state


class TestApproxParams:
    def test_multiple_of_four_simplification(self):
        for n in (4, 8, 32, 1024):
            params = sch.approx_params(GraphSize(n))
            assert params.t1 == np.pi / 2.0
            assert params.t2 == np.pi / n

    def test_lambda_range(self):
        for n in range(3, 80):
            params = sch.approx_params(GraphSize(n))
            assert 0.0 < params.lambda_plus <= np.pi / 2.0

    def test_rejects_tiny_sizes(self):
        with pytest.raises(UnsupportedSizeError):
            sch.approx_params(GraphSize(2))

    def test_half_integer_rounding_maximizes_transfer(self):
        # ties at n/4 round half up; check that choice maximizes the two-step
        # transfer amplitude |<b4*|U^2|b1*>|^2 over both integer candidates
        for n in (6, 10, 14, 26):
            size = GraphSize(n)
            dual = dual_basis(size).matrix

            def transfer(k):
                t1 = 2 * np.pi * k / n
                t2 = -(2.0 / n) * np.arctan((n - 2.0) / n * np.tan(t1))
                steps = (oracle_step(np.pi), walk_step(t1), oracle_step(np.pi), walk_step(t2))
                matrix = dense_schedule_matrix(size, steps)
                squared = np.linalg.matrix_power(matrix, 2)
                block = dual.T @ squared @ dual
                return abs(block[3, 0]) ** 2

            chosen = sch.nint(n / 4.0)
            other = n // 4
            assert chosen == n // 4 + 1
            assert transfer(chosen) >= transfer(other) - 1e-12


class TestIterateStructure:
    @pytest.mark.parametrize("n", [5, 6, 8, 9, 12, 16, 30, 64])
    def test_approx_subspace_closure(self, n):
        size = GraphSize(n)
        dual = dual_basis(size).matrix
        block = dual.T @ sch.schedule_matrix(sch.approx_schedule(size).iterate, size) @ dual
        for row, col in ((1, 0), (2, 0), (1, 3), (2, 3)):
            assert abs(block[row, col]) < 1e-12

    @pytest.mark.parametrize("n", [8, 12, 20, 64])
    def test_deterministic_subspace_closure(self, n):
        size = GraphSize(n)
        dual = dual_basis(size).matrix
        block = dual.T @ sch.schedule_matrix(sch.deterministic_schedule(size).iterate, size) @ dual
        for row, col in ((1, 0), (2, 0), (1, 3), (2, 3)):
            assert abs(block[row, col]) < 1e-12

    @pytest.mark.parametrize("n", [5, 9, 21, 63])
    def test_odd_subspace_closure(self, n):
        size = GraphSize(n)
        dual = dual_basis(size).matrix
        xi = sch.xi_state(size, dual_coords=True)
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        plane = np.stack([e1, xi], axis=1)
        squared = sch.schedule_matrix(sch.odd_schedule(size, deterministic=False).iterate, size)
        block_full = dual.T @ squared @ dual
        block = plane.conj().T @ block_full @ plane
        residual = np.linalg.norm(block_full @ plane - plane @ block)
        assert residual < 1e-12

    def test_approx_block_closed_form_up_to_global_phase(self):
        # the 2x2 rotation block matches its closed form modulo one phase
        for n in (8, 9, 12, 30):
            size = GraphSize(n)
            params = sch.approx_params(size)
            dual = dual_basis(size).matrix
            iterate = sch.schedule_matrix(sch.approx_schedule(size).iterate, size)
            block = (dual.T @ iterate @ dual)[np.ix_([0, 3], [0, 3])]
            e = np.exp(2j * params.t1)
            root = np.sqrt(n - 1.0)
            closed = np.array(
                [
                    [(n + e - 1) / n, -root * (e - 1) / n],
                    [
                        -root * (e - 1) * np.exp(1j * n * params.t2) / n,
                        (1 + (n - 1) * e) * np.exp(1j * n * params.t2) / n,
                    ],
                ]
            )
            phase = block[0, 0] / closed[0, 0]
            assert abs(abs(phase) - 1.0) < 1e-12
            assert np.abs(block - phase * closed).max() < 1e-12

    def test_builders_match_hand_assembled_products(self):
        # chronological step lists fold to the same unitaries as the
        # right-to-left operator products they implement
        size = GraphSize(8)
        params = sch.approx_params(size)
        hand = dense_schedule_matrix(
            size,
            (oracle_step(np.pi), walk_step(params.t1), oracle_step(np.pi), walk_step(params.t2)),
        )
        folded = sch.schedule_matrix(sch.approx_schedule(size).iterate, size)
        assert np.abs(folded - hand).max() < 1e-12
        theta = 1.1
        hand = dense_schedule_matrix(
            size,
            (
                oracle_step(theta), walk_step(np.pi / 2),
                oracle_step(theta), walk_step(np.pi / 8),
                oracle_step(-theta), walk_step(np.pi / 2),
                oracle_step(-theta), walk_step(np.pi / 8),
            ),
        )
        steps = sch._slowed_steps(8, theta) + sch._slowed_steps(8, -theta)
        folded = sch.schedule_matrix(steps, size)
        assert np.abs(folded - hand).max() < 1e-12
        size = GraphSize(9)
        hand = dense_schedule_matrix(size, (oracle_step(np.pi), walk_step(np.pi / 2)))
        assert np.abs(sch.schedule_matrix(sch._half_turn_steps(np.pi), size) - hand).max() < 1e-12

    def test_odd_block_is_grover_rotation(self):
        # two applications of the base iterate form the textbook rotation
        # block, up to a single global phase
        for n in (5, 9, 33):
            size = GraphSize(n)
            dual = dual_basis(size).matrix
            xi = sch.xi_state(size, dual_coords=True)
            e1 = np.zeros(4, dtype=complex)
            e1[0] = 1.0
            plane = np.stack([e1, xi], axis=1)
            squared = sch.schedule_matrix(sch.odd_schedule(size, deterministic=False).iterate, size)
            block = plane.conj().T @ dual.T @ squared @ dual @ plane
            cos = (n - 2.0) / n
            sin = 2.0 * np.sqrt(n - 1.0) / n
            rotation = np.array([[cos, -sin], [sin, cos]])
            phase = block[0, 0] / rotation[0, 0]
            assert abs(abs(phase) - 1.0) < 1e-12
            assert np.abs(block - phase * rotation).max() < 1e-12
            assert abs(block[0, 0].real - (1.0 - 2.0 / n) * np.sign(phase.real)) < 1e-12


class TestScheduleMatrix:
    @pytest.mark.parametrize("n", [5, 8, 9, 12, 64, 101, 1024, 1025])
    def test_iterates_fold_their_builders_leading_steps(self, n):
        # each builder's steps begin with its recorded iterate, p times
        for schedule in every_builder(n):
            iterate, p = schedule.iterate, schedule.p
            assert iterate and p >= 1
            assert schedule.steps[: len(iterate) * p] == iterate * p

    @pytest.mark.parametrize("n", [8, 9, 12, 33, 64, 257])
    def test_every_builder_matches_dense_fold_and_executor(self, n):
        size = GraphSize(n)
        for schedule in every_builder(n):
            matrix = sch.schedule_matrix(schedule.steps, size)
            assert np.abs(matrix - dense_schedule_matrix(size, schedule.steps)).max() < 1e-11
            state = matrix @ uniform_state(size)
            final = abs(state[0]) ** 2
            if schedule.finishing_rule is FinishingRule.MEASURE_AND_CHECK:
                final += abs(state[1]) ** 2
            report = run_reduced(size, schedule)
            assert abs(final - report.final_success_probability) < 1e-12


class TestIterateSpectrum:
    @staticmethod
    def check_block_spectrum(block, lambda_plus, plus_closed, minus_closed):
        """Gauge-free check of a 2x2 rotation block.

        Matches each closed-form eigenstate to a numerical eigenvector
        (|overlap| = 1) and verifies that their eigenvalue ratio is
        e^{2i lambda}, which pins both eigenphases up to the global phase.
        """
        values, vectors = np.linalg.eig(block)
        overlaps_plus = np.abs(vectors.conj().T @ plus_closed)
        i_plus = int(overlaps_plus.argmax())
        i_minus = 1 - i_plus
        assert abs(overlaps_plus[i_plus] - 1.0) < 1e-10
        assert abs(abs(np.vdot(minus_closed, vectors[:, i_minus])) - 1.0) < 1e-10
        ratio = values[i_plus] / values[i_minus]
        assert abs(ratio - np.exp(2j * lambda_plus)) < 1e-10

    @pytest.mark.parametrize("n", [5, 8, 9, 12, 30, 64])
    def test_approx_eigenphases_and_states(self, n):
        size = GraphSize(n)
        spectrum = sch.iterate_spectrum("approx", size)
        dual = dual_basis(size).matrix
        iterate = sch.schedule_matrix(sch.approx_schedule(size).iterate, size)
        block = (dual.T @ iterate @ dual)[np.ix_([0, 3], [0, 3])]
        self.check_block_spectrum(
            block, spectrum.lambda_plus,
            spectrum.eigenstates[[0, 3], 0], spectrum.eigenstates[[0, 3], 1],
        )

    @pytest.mark.parametrize("n", list(range(8, 65, 4)))
    def test_deterministic_eigenphases_random_theta(self, n, rng):
        size = GraphSize(n)
        dual = dual_basis(size).matrix
        for theta in rng.uniform(0.05, np.pi, size=20):
            spectrum = sch.iterate_spectrum("deterministic", size, float(theta))
            steps = sch._slowed_steps(n, float(theta)) + sch._slowed_steps(n, -float(theta))
            block = (dual.T @ sch.schedule_matrix(steps, size) @ dual)[np.ix_([0, 3], [0, 3])]
            self.check_block_spectrum(
                block, spectrum.lambda_plus,
                spectrum.eigenstates[[0, 3], 0], spectrum.eigenstates[[0, 3], 1],
            )

    @pytest.mark.parametrize("n", [5, 9, 21, 33, 63])
    def test_odd_eigenphases_random_theta(self, n, rng):
        size = GraphSize(n)
        dual = dual_basis(size).matrix
        xi = sch.xi_state(size, dual_coords=True)
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        plane = np.stack([e1, xi], axis=1)
        for theta in rng.uniform(0.05, np.pi, size=20):
            theta = float(theta)
            spectrum = sch.iterate_spectrum("odd", size, theta)
            steps = sch._half_turn_steps(theta) * 2 + sch._half_turn_steps(-theta) * 2
            full = dual.T @ sch.schedule_matrix(steps, size) @ dual
            block = plane.conj().T @ full @ plane
            self.check_block_spectrum(
                block, spectrum.lambda_plus,
                plane.conj().T @ spectrum.eigenstates[:, 0],
                plane.conj().T @ spectrum.eigenstates[:, 1],
            )

    def test_deterministic_theta_pi_lambda(self):
        n = 16
        spectrum = sch.iterate_spectrum("deterministic", GraphSize(n), np.pi)
        assert abs(spectrum.lambda_plus - 2 * np.arcsin(2 * np.sqrt(n - 1.0) / n)) < 1e-14

    def test_rotation_count_identity_n12(self):
        size = GraphSize(12)
        params = sch.deterministic_params(size, 2)
        lam = sch.iterate_spectrum("deterministic", size, params.theta).lambda_plus
        assert abs(2 * lam - np.arccos(1 / np.sqrt(12))) < 1e-12

    def test_approx_small_angle_limit_n1024(self):
        spectrum = sch.iterate_spectrum("approx", GraphSize(1024))
        assert abs(spectrum.lambda_plus - 2 * np.sqrt(1023.0) / 1024.0) < 1e-4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sch.iterate_spectrum("grover", GraphSize(8))


class TestApproxSchedule:
    def test_entangled_fidelity_large_sizes(self):
        for n, floor in ((64, 0.99), (256, 0.999), (1024, 0.999)):
            size = GraphSize(n)
            schedule = sch.approx_schedule(size, finishing="none")
            state = final_state(size, schedule.steps)
            assert entangled_fidelity(state) >= floor

    def test_small_multiple_of_four_runs(self):
        # n=4 is degenerate (no finishing map exists); only unitarity and
        # accounting are meaningful
        size = GraphSize(4)
        schedule = sch.approx_schedule(size, finishing="none")
        report = run_reduced(size, schedule)
        assert schedule.oracle_queries == 2 * schedule.p
        assert np.abs(report.trajectory.probabilities.sum(axis=1) - 1.0).max() < 1e-9

    def test_query_counts_by_finishing_mode(self):
        size = GraphSize(1024)
        p = sch.approx_params(size).p
        assert sch.approx_schedule(size, "coherent").oracle_queries == 2 * p + 2
        assert sch.approx_schedule(size, "measure").oracle_queries == 2 * p + 1
        assert sch.approx_schedule(size, "none").oracle_queries == 2 * p
        with pytest.raises(ValueError):
            sch.approx_schedule(size, "later")

    def test_coherent_map_lands_on_marked_vertex(self):
        # exact when n is a multiple of 8: the map walk time hits pi/4
        size = GraphSize(64)
        schedule = sch.approx_schedule(size, "coherent")
        state = final_state(size, schedule.steps)
        pre = final_state(size, schedule.steps[:-2])
        assert success_probability(state) >= entangled_fidelity(pre) - 1e-12
        assert success_probability(state) > 0.99

    def test_odd_sizes_still_reach_entangled_state(self):
        # the tuning walk accounts for the half-turn phase at n = 1 mod 4
        for n in (9, 13, 21, 257):
            size = GraphSize(n)
            schedule = sch.approx_schedule(size, finishing="none")
            state = final_state(size, schedule.steps)
            params = sch.approx_params(size)
            residual = params.p * params.lambda_plus - np.arccos(1 / np.sqrt(n))
            assert entangled_fidelity(state) >= np.cos(residual) ** 2 - 1e-9


class TestDeterministicSchedule:
    def test_requires_multiple_of_four(self):
        with pytest.raises(UnsupportedSizeError):
            sch.deterministic_schedule(GraphSize(10))

    def test_requires_minimum_iterations(self):
        size = GraphSize(16)
        with pytest.raises(ThetaNotRealError):
            sch.deterministic_schedule(size, sch.deterministic_p_min(size) - 1)

    def test_rejects_n4_without_mapping(self):
        with pytest.raises(MappingUnavailableError):
            sch.deterministic_schedule(GraphSize(4))

    def test_p_minimum_scaling(self):
        for n in (16, 64, 256):
            assert abs(sch.deterministic_p_min(GraphSize(n)) - np.pi / 8 * np.sqrt(n)) < 2.0

    def test_exactness_sweep_reduced(self):
        for n in range(8, 65, 4):
            size = GraphSize(n)
            p_min = sch.deterministic_p_min(size)
            for p in range(p_min, p_min + 6):
                report = run_reduced(size, sch.deterministic_schedule(size, p))
                assert report.final_success_probability >= 1.0 - 1e-9

    def test_exactness_full_space_n8(self):
        size = GraphSize(8)
        schedule = sch.deterministic_schedule(size, sch.deterministic_p_min(size))
        report = apply_schedule(uniform_state(size, reduced=False), schedule, size,
                                sample_every=len(schedule.steps))
        assert report.final_success_probability >= 1.0 - 1e-8

    def test_entangled_target_exact_after_two_iterations_n12(self):
        size = GraphSize(12)
        params = sch.deterministic_params(size, 2)
        iterate = sch.schedule_matrix(sch.deterministic_schedule(size, 2).iterate, size)
        state = uniform_state(size)
        dual = dual_basis(size)
        populations = [abs(dual.to_dual(state)[0]) ** 2]
        for _ in range(2):
            state = iterate @ state
            populations.append(abs(dual.to_dual(state)[0]) ** 2)
        assert abs(populations[2] - 1.0 / 12.0) < 1e-9
        assert abs(populations[1] - 1.0 / 12.0) > 1e-3
        # after the tuning walk the state is exactly the entangled target
        state = dense_step_matrix(size, walk_step(params.t3)) @ state
        assert fidelity(state, plus_target()) > 1.0 - 1e-12

    def test_theta_pi_reduces_to_approx_iterate(self):
        for n in (8, 12, 32, 64):
            size = GraphSize(n)
            half = sch.schedule_matrix(sch._slowed_steps(n, np.pi), size)
            approx = sch.schedule_matrix(sch.approx_schedule(size).iterate, size)
            assert np.abs(half - approx).max() < 1e-12

    def test_monotone_amplification_staircase(self):
        size = GraphSize(32)
        p = sch.deterministic_p_min(size) + 2
        iterate = sch.schedule_matrix(sch.deterministic_schedule(size, p).iterate, size)
        dual = dual_basis(size)
        state = uniform_state(size)
        previous = abs(dual.to_dual(state)[3]) ** 2
        for _ in range(p):
            state = iterate @ state
            current = abs(dual.to_dual(state)[3]) ** 2
            assert current > previous
            previous = current

    def test_default_iteration_count_is_minimum(self):
        size = GraphSize(24)
        assert sch.deterministic_schedule(size).p == sch.deterministic_p_min(size)


class TestMapping:
    def test_smallest_case_n8(self):
        params = sch.mapping_params(GraphSize(8))
        assert (params.j, params.k) == (1, 1)
        assert abs(params.phi - np.pi / 2.0) < 1e-12
        assert abs(params.gamma) < 1e-9

    def test_rejects_small_sizes(self):
        with pytest.raises(MappingUnavailableError):
            sch.mapping_params(GraphSize(7))
        with pytest.raises(MappingUnavailableError):
            sch.entangled_to_marked(GraphSize(4))

    def test_forward_map_reaches_equal_split_with_declared_phase(self):
        # the three-step forward fragment maps |marked> onto an equal
        # superposition of marked and opposite with relative phase gamma
        for n in (12, 16, 20, 33, 100):
            size = GraphSize(n)
            params = sch.mapping_params(size)
            steps = (
                walk_step(2 * np.pi * params.k / n),
                oracle_step(params.phi),
                walk_step(2 * np.pi * params.j / n),
            )
            state = dense_schedule_matrix(size, steps) @ marked_state(size)
            assert abs(abs(state[0]) ** 2 - 0.5) < 1e-12
            assert abs(abs(state[1]) ** 2 - 0.5) < 1e-12
            measured = np.angle(state[1] / state[0])
            assert abs(measured - params.gamma) < 1e-9

    def test_closed_form_phase_against_arccot_expression(self):
        for n in range(8, 201):
            params = sch.mapping_params(GraphSize(n))
            denominator = np.cos(4 * np.pi * params.k / n)
            if abs(denominator) < 1e-12:
                continue
            ratio = np.sin(4 * np.pi * params.j / n) / denominator
            assert ratio * ratio - 1.0 > -1e-9
            arccot = np.arctan2(1.0, np.sqrt(max(ratio * ratio - 1.0, 0.0)))
            assert abs(params.gamma - arccot) < 1e-9

    def test_round_trip_marked_to_entangled_and_back(self):
        for n in (8, 12, 24, 40):
            size = GraphSize(n)
            forward = dense_schedule_matrix(size, sch.marked_to_entangled(size))
            state = forward @ marked_state(size)
            assert fidelity(state, plus_target()) > 1.0 - 1e-12
            backward = dense_schedule_matrix(size, sch.entangled_to_marked(size))
            assert success_probability(backward @ plus_target()) > 1.0 - 1e-12

    def test_fragment_query_count(self):
        fragment = sch.entangled_to_marked(GraphSize(16))
        assert sum(1 for s in fragment if s.kind is StepKind.ORACLE) == 2

    def test_full_space_pipeline_n12(self):
        size = GraphSize(12)
        schedule = sch.deterministic_schedule(size, 2)
        report = apply_schedule(uniform_state(size, reduced=False), schedule, size,
                                sample_every=len(schedule.steps))
        assert report.final_success_probability >= 1.0 - 1e-8
        assert report.oracle_queries == 10


class TestOddSchedule:
    def test_requires_odd_size(self):
        with pytest.raises(UnsupportedSizeError):
            sch.odd_schedule(GraphSize(8))

    def test_requires_minimum_iterations(self):
        size = GraphSize(9)
        with pytest.raises(ThetaNotRealError):
            sch.odd_schedule(size, deterministic=True, p=sch.odd_p_min(size) - 1)

    def test_theta_real_exactly_above_minimum(self):
        for n in (9, 25, 63):
            size = GraphSize(n)
            p_min = sch.odd_p_min(size)
            sch.odd_params(size, p_min)
            with pytest.raises(ThetaNotRealError):
                sch.odd_params(size, p_min - 1)

    def test_base_iterate_diagonal_entry_n5(self):
        # (1,1) dual entry of the squared base iterate has magnitude (n-2)/n;
        # the assembled product carries an overall minus sign relative to the
        # phase-free closed form
        size = GraphSize(5)
        dual = dual_basis(size).matrix
        squared = sch.schedule_matrix(sch.odd_schedule(size, deterministic=False).iterate, size)
        entry = (dual.T @ squared @ dual)[0, 0]
        assert abs(abs(entry) - 0.6) < 1e-12
        assert abs(entry + 0.6) < 1e-12

    def test_derandomized_iterations_land_on_xi(self):
        for n in (5, 9, 21):
            size = GraphSize(n)
            p = sch.odd_p_min(size) + 1
            state = uniform_state(size)
            iterate = sch.schedule_matrix(sch.odd_schedule(size, p=p).iterate, size)
            for _ in range(p):
                state = iterate @ state
            assert fidelity(state, sch.xi_state(size)) > 1.0 - 1e-12

    def test_exactness_sweep_reduced(self):
        for n in range(9, 65, 2):
            size = GraphSize(n)
            p_min = sch.odd_p_min(size)
            for p in range(p_min, p_min + 6):
                report = run_reduced(size, sch.odd_schedule(size, deterministic=True, p=p))
                assert report.final_success_probability >= 1.0 - 1e-9

    def test_approximate_route_rejects_nonpositive_p(self):
        for p in (0, -3):
            with pytest.raises(ValueError):
                sch.odd_schedule(GraphSize(9), deterministic=False, p=p)

    def test_exactness_full_space_n9(self):
        size = GraphSize(9)
        schedule = sch.odd_schedule(size, deterministic=True)
        report = apply_schedule(uniform_state(size, reduced=False), schedule, size,
                                sample_every=len(schedule.steps))
        assert report.final_success_probability >= 1.0 - 1e-8

    def test_approximate_route_large_instance(self):
        size = GraphSize(1025)
        schedule = sch.odd_schedule(size, deterministic=False)
        report = run_reduced(size, schedule)
        # measure-and-check claims the marked vertex from either group
        assert report.final_success_probability >= (size.n - 1.0) / size.n - 1e-3
        assert schedule.oracle_queries == 2 * schedule.p + 1

    def test_approximate_trajectory_rotates_out_of_start(self):
        # along double-iterate boundaries the starting dual population falls
        # monotonically as cos^2 of the accumulated rotation angle
        size = GraphSize(101)
        schedule = sch.odd_schedule(size, deterministic=False)
        report = apply_schedule(uniform_state(size), schedule, size, sample_every=4,
                                sample_basis="dual")
        start_pop = report.trajectory.probabilities[:-1, 0].tolist()
        assert all(b <= a + 1e-12 for a, b in zip(start_pop, start_pop[1:]))
        angle = 2 * np.arcsin(1 / np.sqrt(size.n))
        for j, value in enumerate(start_pop[: schedule.p + 1]):
            assert abs(value - np.cos(j * angle) ** 2) < 1e-10


class TestAccounting:
    def test_approx_schedule_count_n1024(self):
        size = GraphSize(1024)
        schedule = sch.approx_schedule(size)
        p = round(np.arccos(1 / 32.0) / sch.approx_params(size).lambda_plus)
        queries = schedule.oracle_queries
        assert queries == 2 * p + 2

    def test_deterministic_count_n12(self):
        schedule = sch.deterministic_schedule(GraphSize(12), 2)
        assert schedule.oracle_queries == 10
        assert schedule.total_walk_time > 0

    def test_asymptotic_ratio_n4096(self):
        size = GraphSize(4096)
        schedule = sch.deterministic_schedule(size)
        queries = schedule.oracle_queries
        ratio = queries / np.sqrt(size.N)
        assert abs(ratio - np.pi / (2 * np.sqrt(2))) / (np.pi / (2 * np.sqrt(2))) < 0.10


class TestBuilderSteps:
    """Each builder repeats one iterate p times; its steps equal the sequence
    unrolled step by step from the closed-form parameters."""

    def test_approx(self):
        pi = np.pi
        for n in (3, 5, 8, 10, 64, 1023, 1024):
            size = GraphSize(n)
            params = sch.approx_params(size)
            steps = []
            for _ in range(params.p):
                steps += [oracle_step(pi), walk_step(params.t1),
                          oracle_step(pi), walk_step(params.t2)]
            steps.append(walk_step(params.t3))
            bare = sch.approx_schedule(size, finishing="none")
            assert bare.steps == tuple(steps) and bare.p == params.p
            assert sch.approx_schedule(size, finishing="measure").steps == tuple(steps)
            steps += [oracle_step(pi / 2.0), walk_step(2.0 * pi * sch.nint(n / 8) / n)]
            assert sch.approx_schedule(size).steps == tuple(steps)

    def test_deterministic(self):
        pi = np.pi
        for n in (8, 12, 64, 1000, 4096):
            size = GraphSize(n)
            p_min = sch.deterministic_p_min(size)
            for p in (None, p_min, p_min + 3):
                params = sch.deterministic_params(size, p_min if p is None else p)
                steps = []
                for _ in range(params.p):
                    steps += [oracle_step(params.theta), walk_step(pi / 2.0),
                              oracle_step(params.theta), walk_step(pi / n),
                              oracle_step(-params.theta), walk_step(pi / 2.0),
                              oracle_step(-params.theta), walk_step(pi / n)]
                steps.append(walk_step(params.t3))
                steps += sch.entangled_to_marked(size)
                schedule = sch.deterministic_schedule(size, p)
                assert schedule.steps == tuple(steps) and schedule.p == params.p

    def test_odd_deterministic(self):
        pi = np.pi
        for n in (3, 5, 9, 101, 1025):
            size = GraphSize(n)
            p_min = sch.odd_p_min(size)
            for p in (None, p_min, p_min + 2):
                params = sch.odd_params(size, p_min if p is None else p)
                steps = []
                for _ in range(params.p):
                    for theta in (params.theta, params.theta, -params.theta, -params.theta):
                        steps += [oracle_step(theta), walk_step(pi / 2.0)]
                steps += [walk_step(-pi * n / 4.0), oracle_step(-params.gamma), walk_step(-pi),
                          oracle_step(-params.phi), walk_step(-pi)]
                schedule = sch.odd_schedule(size, p=p)
                assert schedule.steps == tuple(steps) and schedule.p == params.p

    def test_odd_approximate(self):
        pi = np.pi
        for n in (3, 5, 9, 101, 1025):
            size = GraphSize(n)
            default = max(1, round(pi / (4.0 * math.asin(1.0 / math.sqrt(n)))))
            for p in (None, 1, default + 2):
                count = default if p is None else p
                steps = []
                for _ in range(count):
                    steps += [oracle_step(pi), walk_step(pi / 2.0),
                              oracle_step(pi), walk_step(pi / 2.0)]
                steps.append(walk_step(-pi * n / 4.0))
                schedule = sch.odd_schedule(size, deterministic=False, p=p)
                assert schedule.steps == tuple(steps) and schedule.p == count


# SHA-256 of render_schedule over every_builder(n), n = 3..299, in order
# (1,262 schedules); it pins the schedule text byte for byte.
SCHEDULE_TEXT_DIGEST = "2030f9921fa950ca10b896ec9e569f1476ca03addc19e30122c4556583946ed0"


class TestScheduleText:
    def test_round_trip(self):
        for n in (3, 8, 9, 12, 33, 64, 101, 1024, 1025):
            for schedule in every_builder(n):
                parsed = sch.parse_schedule(sch.render_schedule(schedule))
                assert parsed == schedule
                assert parsed.iterate == ()
        schedule = sch.deterministic_schedule(GraphSize(12), 2)
        assert sch.parse_schedule(sch.render_schedule(schedule)) == schedule

    def test_every_builder_renders_the_pinned_text(self):
        digest = hashlib.sha256()
        count = 0
        for n in range(3, 300):
            for schedule in every_builder(n):
                digest.update(sch.render_schedule(schedule).encode())
                count += 1
        assert count == 1262
        assert digest.hexdigest() == SCHEDULE_TEXT_DIGEST

    def test_header_carries_metadata(self):
        text = sch.render_schedule(sch.odd_schedule(GraphSize(9)))
        header = text.splitlines()[0]
        assert header.startswith("SCHEDULE ")
        assert "n=9" in header and "variant=odd-deterministic" in header

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            sch.parse_schedule("WALK 1.0\n")
        with pytest.raises(ValueError):
            sch.parse_schedule("SCHEDULE n=4 p=1 variant=x finishing=none\nSPIN 0.3\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_parse_rejects_non_finite_parameters(self, value):
        text = f"SCHEDULE n=8 p=1 variant=x finishing=none\nWALK {value}\n"
        with pytest.raises(ValueError, match=f"WALK {value}"):
            sch.parse_schedule(text)

    def test_iterate_must_lead_the_steps(self):
        iterate = (oracle_step(np.pi), walk_step(np.pi / 2.0))
        steps = iterate * 2 + (walk_step(1.0),)
        assert Schedule(steps, p=2, iterate=iterate).iterate == iterate
        for p in (3, 0, None):
            with pytest.raises(ValueError):
                Schedule(steps, p=p, iterate=iterate)
        with pytest.raises(ValueError):
            Schedule(steps[1:], p=1, iterate=iterate)

    def test_seventeen_digit_round_trip_of_parameters(self):
        schedule = sch.approx_schedule(GraphSize(13), finishing="none")
        parsed = sch.parse_schedule(sch.render_schedule(schedule))
        for a, b in zip(schedule.steps, parsed.steps):
            assert a.parameter == b.parameter
