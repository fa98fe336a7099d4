import csv
import dataclasses
import io
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ciinwalk
from ciinwalk import _csvtext, dynamics
from ciinwalk import schedules as sch
from ciinwalk.cli import _bare, main
from ciinwalk.dynamics import (
    FinishingRule,
    RunReport,
    Schedule,
    StepKind,
    Trajectory,
    apply_schedule,
    entangled_fidelity,
    group_probabilities,
    marked_state,
    oracle_phase,
    oracle_step,
    success_probability,
    uniform_state,
    walk_full,
    walk_reduced,
    walk_step,
)
from ciinwalk.errors import DimensionMismatchError
from ciinwalk.graphs import GraphSize, dual_basis, reduced_adjacency

from conftest import (
    FullAdjacency,
    WalkBasis,
    apply_stepwise,
    every_builder,
    exact_multiple,
    exact_phases,
    fidelity,
    flat,
    measure_and_check,
    numeric_spectrum,
    random_state,
    reference_csv,
    reference_json,
    run_stepwise,
    spectrum_phases,
    traced_peak,
)


def projector_reference(state, t, n):
    """`walk_full` written out unblocked, halving by complex division."""
    sym = (state[:n] + state[n:]) / 2.0
    asym = (state[:n] - state[n:]) / 2.0
    mean_sym, mean_asym = sym.mean(), asym.mean()
    out_sym = np.exp(-1j * t * n) * mean_sym + (sym - mean_sym)
    out_asym = (np.exp(-1j * t * (n - 2)) * mean_asym
                + np.exp(2j * t) * (asym - mean_asym))
    return np.concatenate([out_sym + out_asym, out_sym - out_asym])


def dense_walk_reduced(size, t):
    """Independent oracle: generic matrix exponential of the reduced adjacency."""
    return scipy.linalg.expm(-1j * t * reduced_adjacency(size))


class TestWalkReduced:
    def test_zero_time_is_identity(self, rng):
        size = GraphSize(7)
        state = random_state(rng, 4)
        assert np.abs(walk_reduced(state, 0.0, size) - state).max() < 1e-15

    def test_two_pi_periodicity_is_exact(self, rng):
        # integer spectrum: the propagator itself is 2*pi-periodic
        for n in (3, 8, 11):
            size = GraphSize(n)
            state = random_state(rng, 4)
            t = rng.uniform(0, 5)
            assert np.abs(
                walk_reduced(state, t + 2 * np.pi, size) - walk_reduced(state, t, size)
            ).max() < 1e-10

    def test_marked_vertex_rotates_into_opposite_only(self):
        # at walk times 2*pi*k/n the marked vertex couples only to its opposite
        for n in (5, 8, 9):
            size = GraphSize(n)
            for k in range(1, n + 1):
                t = 2 * np.pi * k / n
                state = walk_reduced(marked_state(size), t, size)
                target = np.zeros(4, dtype=complex)
                target[0] = np.cos(t)
                target[1] = -1j * np.sin(t)
                if abs(np.cos(t)) < 1e-12 and abs(np.sin(t)) < 1e-12:
                    continue
                assert fidelity(state, target) > 1 - 1e-12

    def test_perfect_state_transfer_multiples_of_four(self):
        for n in (4, 8, 12, 32):
            size = GraphSize(n)
            state = walk_reduced(marked_state(size), np.pi / 2.0, size)
            assert abs(abs(state[1]) ** 2 - 1.0) < 1e-10

    def test_matches_dense_exponential(self, rng):
        for n in (2, 5, 13):
            size = GraphSize(n)
            state = random_state(rng, 4)
            t = rng.uniform(0, 2 * np.pi)
            assert np.abs(
                walk_reduced(state, t, size) - dense_walk_reduced(size, t) @ state
            ).max() < 1e-12

    def test_bitwise_equal_to_dual_basis_formula(self, rng):
        # the shared step helper keeps the operations and operand order of
        # the dual-basis form: real matrix, phase as the second factor
        for n in (3, 8, 2 ** 20, 2 ** 30):
            dual = dual_basis(GraphSize(n))
            for t in (0.3, -7.1, np.pi / 2.0, np.pi / n, 1e5):
                state = random_state(rng, 4)
                before = state.copy()
                expected = dual.from_dual(dual.to_dual(state) * np.exp(-1j * t * dual.eigenvalues))
                assert walk_reduced(state, t, dual).tobytes() == expected.tobytes()
                assert state.tobytes() == before.tobytes()

    def test_unitarity(self, rng):
        size = GraphSize(10)
        state = random_state(rng, 4)
        out = walk_reduced(state, 17.3, size)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestWalkFull:
    def test_zero_time_is_identity(self, rng):
        size = GraphSize(6)
        state = random_state(rng, size.N)
        assert np.abs(walk_full(state, 0.0, size) - state).max() < 1e-15

    def test_uniform_state_picks_up_top_eigenphase(self):
        size = GraphSize(9)
        state = uniform_state(size, reduced=False)
        t = 1.234
        out = walk_full(state, t, size)
        assert np.abs(out - np.exp(-1j * t * size.n) * state).max() < 1e-12

    def test_matches_dense_exponential_n9(self, rng):
        size = GraphSize(9)
        dense = FullAdjacency(size).dense
        exact = scipy.linalg.expm(-1j * 1.3 * dense)
        state = random_state(rng, 18)
        assert np.abs(walk_full(state, 1.3, size) - exact @ state).max() < 1e-10

    def test_norm_preserved(self, rng):
        size = GraphSize(50)
        state = random_state(rng, 100)
        assert abs(np.linalg.norm(walk_full(state, 7.7, size)) - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            walk_full(np.zeros(9, dtype=complex), 1.0, GraphSize(5))

    def test_bitwise_equal_to_concatenated_projectors(self, rng):
        # the blocked in-place evaluation keeps every operation and its
        # operand order: random states at the block edges, and the start
        # states the CLI passes (fig4-walk's marked vertex, verify-circuit's
        # basis columns)
        block = dynamics._WALK_BLOCK
        cases = [(n, random_state(rng, 2 * n))
                 for n in (2, 9, 1000, block - 1, block, block + 1, 2 * block - 1,
                           2 * block + 1, 3 * block + 5, 99_991)]
        cases += [(n, marked_state(GraphSize(n), reduced=False)) for n in (9, 3 * block + 5)]
        for n in (2, 4, 8):
            basis = np.eye(2 * n, dtype=complex)
            cases += [(n, basis[:, col]) for col in range(2 * n)]
        for n, state in cases:
            size = GraphSize(n)
            before = state.copy()
            for t in (0.3, -7.1, 1e5):
                expected = projector_reference(state, t, n)
                assert walk_full(state, t, size).tobytes() == expected.tobytes()
            assert np.array_equal(state, before)

    def test_commuting_diagram_with_reduced_walk(self, rng):
        # lifting, walking in full space, and projecting equals the reduced walk
        for n in range(3, 13):
            size = GraphSize(n)
            basis = WalkBasis(size, marked=0)
            coeffs = random_state(rng, 4)
            t = rng.uniform(0, 2 * np.pi)
            projected = basis.project(walk_full(basis.lift(coeffs), t, size))
            assert np.abs(projected - walk_reduced(coeffs, t, size)).max() < 1e-10


class TestOraclePhase:
    def test_zero_angle_is_identity(self, rng):
        state = random_state(rng, 4)
        assert np.array_equal(oracle_phase(state, 0.0), state)

    def test_pi_flips_marked_amplitude(self):
        state = np.array([1.0, 0, 0, 0], dtype=complex)
        out = oracle_phase(state, np.pi)
        assert np.abs(out - np.array([-1.0, 0, 0, 0])).max() < 1e-15

    def test_uniform_state_quarter_turn_n4(self):
        size = GraphSize(4)
        out = oracle_phase(uniform_state(size), np.pi / 2.0)
        expected = uniform_state(size)
        expected[0] = np.exp(-1j * np.pi / 2.0) / np.sqrt(8.0)
        assert np.abs(out - expected).max() < 1e-12
        # cross-check against the full-space apply
        basis = WalkBasis(size, marked=0)
        full = oracle_phase(uniform_state(size, reduced=False), np.pi / 2.0, marked=0)
        assert np.abs(basis.project(full) - out).max() < 1e-12

    def test_full_state_marked_indexing(self, rng):
        size = GraphSize(5)
        state = random_state(rng, 10)
        out = oracle_phase(state, 0.7, marked=7)
        assert np.allclose(out[7], state[7] * np.exp(-0.7j))
        mask = np.arange(10) != 7
        assert np.array_equal(out[mask], state[mask])

    def test_out_of_range_marked(self, rng):
        with pytest.raises(IndexError):
            oracle_phase(random_state(rng, 10), 0.5, marked=10)

    def test_refuses_a_marked_vertex_on_a_4_vector(self):
        # a full n = 2 state has the shape of a reduced one, whose marked
        # vertex is coordinate 0: any other vertex is refused, not ignored
        state = np.array([1 + 2j, 3 + 4j, 5 + 6j, 7 + 8j])
        for call in (lambda marked: oracle_phase(state, np.pi, marked),
                     lambda marked: success_probability(state, marked),
                     lambda marked: entangled_fidelity(state, marked)):
            call(0)
            for marked in (1, 3, 4, -1):
                with pytest.raises(DimensionMismatchError, match="n = 2 is ambiguous"):
                    call(marked)


class TestObservables:
    def test_entangled_state_values(self):
        size = GraphSize(6)
        plus = np.zeros(4, dtype=complex)
        plus[0] = plus[1] = 1 / np.sqrt(2)
        assert abs(success_probability(plus) - 0.5) < 1e-15
        assert abs(entangled_fidelity(plus) - 1.0) < 1e-15

    def test_uniform_state_success(self):
        size = GraphSize(1024)
        assert abs(success_probability(uniform_state(size)) - 1.0 / 2048.0) < 1e-15
        full = uniform_state(size, reduced=False)
        assert abs(success_probability(full, marked=77) - 1.0 / 2048.0) < 1e-15

    def test_fourth_dual_vector_entangled_fidelity(self):
        for n in (5, 16, 100):
            size = GraphSize(n)
            state = dual_basis(size).matrix[:, 3].astype(complex)
            assert abs(entangled_fidelity(state) - (n - 1.0) / n) < 1e-12

    def test_full_state_entangled_fidelity_wraps(self):
        size = GraphSize(5)
        state = np.zeros(10, dtype=complex)
        state[7] = state[2] = 1 / np.sqrt(2)
        assert abs(entangled_fidelity(state, marked=7) - 1.0) < 1e-15

    def test_group_probabilities_sum_to_one(self, rng):
        size = GraphSize(8)
        state = random_state(rng, 16)
        groups = group_probabilities(state, size, marked=3)
        assert abs(groups.sum() - 1.0) < 1e-12

    def test_group_probabilities_bitwise_equal_to_squared_magnitudes(self, rng):
        # the last two states have -0.0 components; on the all -0.0 one,
        # `walk_full` differs from a complex division by 2 in the sign of a
        # zero at t = 0.3, and no probability does
        signed_zeros = random_state(rng, 2000)
        signed_zeros.real[::3] = -0.0
        signed_zeros.imag[::5] = -0.0
        signed_zeros[::7] = complex(-0.0, -0.0)
        for n, marked, state in ((9, 4, random_state(rng, 18)),
                                 (1000, 1500, random_state(rng, 2000)),
                                 (1000, 7, signed_zeros),
                                 (9, 0, np.full(18, complex(-0.0, -0.0)))):
            size = GraphSize(n)
            side, opposite = marked // n, size.opposite(marked)
            prob = np.abs(state) ** 2
            expected = np.array([prob[marked], prob[opposite],
                                 prob[side * n:(side + 1) * n].sum() - prob[marked],
                                 prob[(1 - side) * n:(2 - side) * n].sum() - prob[opposite]])
            assert group_probabilities(state, size, marked).tobytes() == expected.tobytes()
            for t in (0.3, 1e5):
                walked = group_probabilities(walk_full(state, t, size), size, marked)
                reference = group_probabilities(projector_reference(state, t, n), size, marked)
                assert walked.tobytes() == reference.tobytes()

    def test_group_probabilities_square_one_half_at_a_time(self, rng):
        size = GraphSize(2 ** 14)
        state = random_state(rng, size.N)
        _, peak = traced_peak(group_probabilities, state, size, marked=size.n + 5)
        # one float buffer as long as a half; squaring the whole state at
        # once takes twice that
        assert peak <= 8 * size.n + 4096

    def test_group_probabilities_out_of_range_marked(self):
        size = GraphSize(8)
        state = uniform_state(size, reduced=False)
        for marked in (-1, size.N):
            with pytest.raises(IndexError):
                group_probabilities(state, size, marked=marked)

    @pytest.mark.parametrize("observable", [success_probability, entangled_fidelity])
    def test_out_of_range_marked_does_not_wrap(self, observable):
        # marked = -1 would wrap onto vertex 15, which holds all the weight
        state = marked_state(GraphSize(8), reduced=False, marked=15)
        for marked in (-1, -16, 16):
            with pytest.raises(IndexError):
                observable(state, marked=marked)

    def test_marked_state_does_not_wrap(self):
        # marked = -1 would mark vertex 15
        size = GraphSize(8)
        for marked in (-1, -16, 16):
            with pytest.raises(IndexError):
                marked_state(size, reduced=False, marked=marked)
        assert np.flatnonzero(marked_state(size, reduced=False, marked=15)).tolist() == [15]


class TestApplySchedule:
    def test_empty_schedule_uniform_success(self):
        for n in (4, 9):
            size = GraphSize(n)
            report = apply_schedule(uniform_state(size), Schedule(()), size)
            assert abs(report.final_success_probability - 1.0 / (2 * n)) < 1e-12
            assert report.oracle_queries == 0
            assert report.total_walk_time == 0.0

    def test_full_period_steps_are_identity(self, rng):
        # Oracle(2*pi) and Walk(2*pi) are both exact identities
        size = GraphSize(7)
        state = random_state(rng, 4)
        out = oracle_phase(walk_reduced(state, 2 * np.pi, size), 2 * np.pi)
        assert np.abs(out - state).max() < 1e-10

    def test_oracle_pi_walk_two_pi_squares_to_identity(self, rng):
        # a single [Oracle(pi), Walk(2*pi)] block is an involution
        size = GraphSize(6)
        state = random_state(rng, 4)
        schedule = Schedule((oracle_step(np.pi), walk_step(2 * np.pi)) * 2)
        out = state
        for step in schedule.steps:
            if step.kind is StepKind.WALK:
                out = walk_reduced(out, step.parameter, size)
            else:
                out = oracle_phase(out, step.parameter)
        assert np.abs(out - state).max() < 1e-10

    def test_walk_sweep_full_matches_reduced(self):
        # trajectory of the four groups from the marked vertex, full vs reduced
        size = GraphSize(9)
        full = marked_state(size, reduced=False)
        reduced = marked_state(size)
        for t in np.linspace(0.0, 2 * np.pi, 40):
            full_groups = group_probabilities(walk_full(full, t, size), size)
            red_groups = np.abs(walk_reduced(reduced, t, size)) ** 2
            assert np.abs(full_groups - red_groups).max() < 1e-10

    def test_matches_dense_matrix_product(self, rng):
        # fold random schedules into a dense 4x4 product built from expm
        size = GraphSize(11)
        for _ in range(5):
            steps = []
            matrix = np.eye(4, dtype=complex)
            for _ in range(rng.integers(1, 12)):
                if rng.uniform() < 0.5:
                    t = float(rng.uniform(-3, 3))
                    steps.append(walk_step(t))
                    matrix = dense_walk_reduced(size, t) @ matrix
                else:
                    theta = float(rng.uniform(-np.pi, np.pi))
                    steps.append(oracle_step(theta))
                    oracle = np.eye(4, dtype=complex)
                    oracle[0, 0] = np.exp(-1j * theta)
                    matrix = oracle @ matrix
            state = random_state(rng, 4)
            report = apply_schedule(state, Schedule(tuple(steps)), size,
                                    sample_every=len(steps))
            expected = matrix @ state
            assert abs(report.final_success_probability - abs(expected[0]) ** 2) < 1e-10

    def test_long_random_schedule_preserves_norm(self, rng):
        size = GraphSize(13)
        steps = []
        for _ in range(1000):
            if rng.uniform() < 0.5:
                steps.append(walk_step(float(rng.uniform(-2 * np.pi, 2 * np.pi))))
            else:
                steps.append(oracle_step(float(rng.uniform(-np.pi, np.pi))))
        schedule = Schedule(tuple(steps))
        state = random_state(rng, 4)
        report = apply_schedule(state, schedule, size, sample_every=100)
        assert np.abs(report.trajectory.probabilities.sum(axis=1) - 1.0).max() < 1e-9

    def test_query_and_time_accounting(self):
        size = GraphSize(8)
        schedule = Schedule(
            (oracle_step(0.3), walk_step(-1.5), oracle_step(-0.2), walk_step(2.0)),
            FinishingRule.NONE,
        )
        report = apply_schedule(uniform_state(size), schedule, size)
        assert report.oracle_queries == 2
        assert abs(report.total_walk_time - 3.5) < 1e-15
        assert schedule.oracle_queries == 2
        assert abs(schedule.total_walk_time - 3.5) < 1e-15

    def test_measure_and_check_adds_confirmation_query(self):
        size = GraphSize(8)
        schedule = Schedule((oracle_step(0.3),), FinishingRule.MEASURE_AND_CHECK)
        assert schedule.oracle_queries == 2
        report = apply_schedule(uniform_state(size), schedule, size)
        assert report.oracle_queries == 2
        # claimed success covers the marked vertex and its opposite
        plus = np.zeros(4, dtype=complex)
        plus[0] = plus[1] = 1 / np.sqrt(2)
        report = apply_schedule(plus, Schedule((), FinishingRule.MEASURE_AND_CHECK), size)
        assert abs(report.final_success_probability - 1.0) < 1e-12

    def test_trajectory_sampling_cadence(self):
        size = GraphSize(4)
        steps = tuple(walk_step(0.1) for _ in range(7))
        report = apply_schedule(uniform_state(size), Schedule(steps), size, sample_every=3)
        assert report.trajectory.step.tolist() == [0, 3, 6, 7]

    def test_dual_basis_sampling(self):
        size = GraphSize(6)
        report = apply_schedule(uniform_state(size), Schedule(()), size, sample_basis="dual")
        # |s> is the first dual vector
        assert abs(report.trajectory.probabilities[0, 0] - 1.0) < 1e-12
        with pytest.raises(ValueError):
            apply_schedule(uniform_state(size, reduced=False), Schedule(()), size,
                           sample_basis="dual")

    def test_full_state_checks(self):
        size = GraphSize(8)
        schedule = Schedule((walk_step(0.5), oracle_step(1.0)))
        for length in (3, size.N - 1, size.N + 1):
            with pytest.raises(DimensionMismatchError):
                apply_schedule(np.zeros(length, dtype=complex), schedule, size)
        for marked in (-1, size.N):
            with pytest.raises(IndexError):
                apply_schedule(uniform_state(size, reduced=False), schedule, size,
                               marked=marked)


BUILDERS = {
    "deterministic": (lambda k: GraphSize(8 + 4 * k), sch.deterministic_schedule),
    "odd": (lambda k: GraphSize(9 + 2 * k), sch.odd_schedule),
    "approx": (lambda k: GraphSize(8 + k), sch.approx_schedule),
}


def assert_matches_stepwise(state, schedule, size, marked, every):
    report = apply_schedule(state, schedule, size, sample_every=every, marked=marked)
    final, samples = run_stepwise(state, schedule, size, marked, every)
    assert report.trajectory.step.tolist() == [step for step, _ in samples]
    for got, (_, probs) in zip(report.trajectory.probabilities, samples):
        assert np.abs(got - probs).max() <= 1e-12
    expected = abs(final[marked]) ** 2
    if schedule.finishing_rule is FinishingRule.MEASURE_AND_CHECK:
        expected += abs(final[size.opposite(marked)]) ** 2
    assert abs(report.final_success_probability - expected) <= 1e-12


class TestFullSpaceSplit:
    """Full-space runs go through the 4-dim loop plus a three-scalar complement;
    the stepwise O(N) executor is the reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        route=st.sampled_from(sorted(BUILDERS)),
        k=st.integers(0, 4),
        local=st.integers(0, 10 ** 6),
        far_side=st.booleans(),
        every=st.sampled_from([1, 3, 4, 8, 10 ** 6]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_builder_schedules_match_stepwise(self, route, k, local, far_side, every, seed):
        sized, build = BUILDERS[route]
        size = sized(k)
        marked = local % size.n + (size.n if far_side else 0)
        state = random_state(np.random.default_rng(seed), size.N)
        leakage = 1.0 - np.linalg.norm(WalkBasis(size, marked).project(state)) ** 2
        assert leakage > 0.1  # a substantial complement
        assert_matches_stepwise(state, build(size), size, marked, every)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 12),  # n = 2 is refused: N = 4 is the reduced shape
        local=st.integers(0, 10 ** 6),
        far_side=st.booleans(),
        params=st.lists(st.tuples(st.booleans(), st.floats(-40.0, 40.0)), max_size=30),
        every=st.integers(1, 5),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_random_signed_schedules_match_stepwise(self, n, local, far_side, params, every,
                                                    seed):
        size = GraphSize(n)
        marked = local % n + (n if far_side else 0)
        steps = tuple(walk_step(x) if is_walk else oracle_step(x) for is_walk, x in params)
        state = random_state(np.random.default_rng(seed), size.N)
        assert_matches_stepwise(state, Schedule(steps), size, marked, every)

    @pytest.mark.parametrize("far_side", [False, True])
    def test_blocked_projection_matches_the_sym_asym_formula(self, rng, far_side):
        # three blocks, the last one longer than the others (it runs to n),
        # with the marked vertex at both ends of a block and of the half
        block = dynamics._WALK_BLOCK
        n = 3 * block + 5
        size = GraphSize(n)
        assert len(dynamics._blocks(n)) == 3
        for local in (0, block - 1, block, n - 1):
            marked = local + (n if far_side else 0)
            state = random_state(rng, size.N)
            coeffs, rest_norm, rest_cross = dynamics._split_full(state, size, marked)
            ref_coeffs, ref_norm, ref_cross = split_reference(state, size, marked)
            assert coeffs.tobytes() == ref_coeffs.tobytes()
            # sums of about 2n terms of size 1/N in another order: a few
            # ulps of the unit norm apart
            assert abs(rest_norm - ref_norm) <= 1e-14
            assert abs(rest_cross - ref_cross) <= 1e-14
            # the walk basis and the two residual halves split the norm
            total = np.vdot(coeffs, coeffs).real + 2.0 * rest_norm
            assert abs(total - np.vdot(state, state).real) <= 1e-14

    def test_projection_allocates_only_block_sized_buffers(self, rng):
        block = dynamics._WALK_BLOCK
        n = 16 * block + 3
        size = GraphSize(n)
        state = random_state(rng, size.N)
        longest = max(hi - lo for lo, hi in dynamics._blocks(n))
        assert longest < 2 * block
        _, peak = traced_peak(dynamics._split_full, state, size, marked=n + 7)
        # two complex buffers of the longest block, plus a few small objects;
        # one half alone takes n * 16 bytes, eight times as much
        assert peak <= 2 * 16 * longest + 4096

    def test_no_full_space_pass_per_step(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("walk_full called inside apply_schedule")

        monkeypatch.setattr(dynamics, "walk_full", forbidden)
        size = GraphSize(64)
        schedule = sch.deterministic_schedule(size)
        report = apply_schedule(random_state(rng, size.N), schedule, size, marked=70)
        assert len(report.trajectory) == len(schedule.steps) + 1


def split_reference(state, size, marked):
    """`_split_full` written out with full-length residuals and the explicit
    sym and asym halves, halving by complex division."""
    n = size.n
    side, local = divmod(marked, n)
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


def report_bits(report):
    """Every float of a run report as exact text: `.17g` round-trips a double
    and keeps the sign of zero."""
    return (report.to_csv(), report.final_success_probability.hex(),
            report.total_walk_time.hex(), report.oracle_queries)


def assert_bitwise_stepwise(state, schedule, size, **kwargs):
    report = apply_schedule(state, schedule, size, **kwargs)
    assert report_bits(report) == report_bits(apply_stepwise(state, schedule, size, **kwargs))


# walk times and oracle angles the builders use, plus both signed zeros
PARAMETER_POOL = (0.0, -0.0, np.pi, -np.pi, np.pi / 2.0, -np.pi / 2.0, 0.3, -1.7, 12.5)


class TestStepLoopBitwise:
    """The runner forms its phases at once and updates in place; every
    output bit equals stepping through the public walk_reduced and
    oracle_phase."""

    @pytest.mark.parametrize("route", sorted(BUILDERS))
    def test_builder_schedules(self, route, rng):
        sized, build = BUILDERS[route]
        for k in range(4):
            size = sized(k)
            # a recorded iterate runs through its spectrum, never stepped;
            # without one, the loop steps through every step
            looped = flat(build(size))
            for every in (1, 3, len(looped.steps)):
                assert_bitwise_stepwise(uniform_state(size), looped, size, sample_every=every)
                assert_bitwise_stepwise(random_state(rng, 4), looped, size,
                                        sample_every=every, sample_basis="dual")
                marked = int(rng.integers(0, size.N))
                assert_bitwise_stepwise(random_state(rng, size.N), looped, size,
                                        sample_every=every, marked=marked)

    def test_large_sizes_reduced(self):
        for size, schedule in (
            (GraphSize(2 ** 20), sch.deterministic_schedule(GraphSize(2 ** 20))),
            (GraphSize(2 ** 20 + 1), sch.odd_schedule(GraphSize(2 ** 20 + 1))),
            (GraphSize(2 ** 18 - 3), sch.approx_schedule(GraphSize(2 ** 18 - 3))),
        ):
            assert_bitwise_stepwise(uniform_state(size), flat(schedule),
                                    size, sample_every=len(schedule.steps))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 40),
        params=st.lists(
            st.tuples(st.booleans(), st.one_of(st.sampled_from(PARAMETER_POOL),
                                               st.floats(-40.0, 40.0))),
            max_size=40,
        ),
        full=st.booleans(),
        every=st.integers(1, 5),
        finishing=st.sampled_from(list(FinishingRule)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_random_signed_schedules_with_repeats(self, n, params, full, every, finishing,
                                                  seed):
        size = GraphSize(n)
        rng = np.random.default_rng(seed)
        steps = tuple(walk_step(x) if is_walk else oracle_step(x) for is_walk, x in params)
        schedule = Schedule(steps + steps, finishing)
        state = random_state(rng, size.N if full else 4)
        marked = int(rng.integers(0, size.N)) if full else 0
        assert_bitwise_stepwise(state, schedule, size, sample_every=every, marked=marked)

    def test_signed_zero_phases_share_a_cache_entry_harmlessly(self):
        # 0.0 and -0.0 are one cache key, but the phases they stand for may
        # differ in the sign of a zero imaginary part (the oracle's do); the
        # cache keeps whichever comes first
        plus, minus = np.exp(-1j * 0.0), np.exp(-1j * -0.0)
        assert plus == minus and plus.imag.hex() != minus.imag.hex()
        zeros = (walk_step(0.0), walk_step(-0.0), oracle_step(0.0), oracle_step(-0.0))
        orders = [zeros, zeros[::-1], zeros[1::2] + zeros[::2]]
        for n in (3, 8, 9):
            size = GraphSize(n)
            # a marked amplitude of -0 - 0j takes the sign of the cached zero
            signed = np.array([complex(-0.0, -0.0), -0.0j, 1.0, 0.0])
            for state in (marked_state(size), -marked_state(size), signed,
                          uniform_state(size)):
                for order in orders:
                    steps = order + (walk_step(0.3), oracle_step(np.pi)) + order[::-1]
                    assert_bitwise_stepwise(state, Schedule(steps * 2), size)

    def test_caller_state_untouched_and_public_steps_unused(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("public per-step function called inside apply_schedule")

        monkeypatch.setattr(dynamics, "walk_reduced", forbidden)
        monkeypatch.setattr(dynamics, "oracle_phase", forbidden)
        size = GraphSize(12)
        state = random_state(rng, 4)
        before = state.copy()
        apply_schedule(state, sch.deterministic_schedule(size), size)
        assert state.tobytes() == before.tobytes()


def mp_dual_matrix(n):
    """`DualBasis.matrix` in the working precision of mpmath."""
    s = mpmath.sqrt(n - 1)
    return mpmath.matrix([[1, -1, s, -s], [1, 1, -s, -s], [s, -s, -1, 1],
                          [s, s, 1, 1]]) / mpmath.sqrt(2 * n)


def mp_walk_time(t, n):
    """A walk time in the working precision: the exact multiple of pi that
    it stands for (`exact_multiple`), else the double itself."""
    q = exact_multiple(t, n)
    return mpmath.mpf(t) if q is None else mpmath.pi * q.numerator / q.denominator


def mp_final_probability(schedule, size, digits=40):
    """Reference for endpoint runs: the schedule's steps folded in
    `digits`-digit arithmetic, the iterate raised to p by squaring.  Oracle
    angles are the schedule's doubles.  In the iterate, a walk time that
    stands for a multiple of pi is that multiple (`mp_walk_time`), as in
    its closed-form spectrum, so the reference carries none of the error
    of a rounded pi times n there.  The tail's walk phases are the doubles
    exp(-i t lambda) that the step loop computes, rounding of t lambda
    included, since the tail runs through that loop."""
    with mpmath.workdps(digits):
        n = size.n
        dual = mp_dual_matrix(n)
        eigenvalues = dual_basis(size).eigenvalues

        def fold(steps, exact=False):
            matrix = mpmath.eye(4)
            for step in steps:
                if step.kind is StepKind.ORACLE:
                    matrix[0, :] *= mpmath.expj(-mpmath.mpf(step.parameter))
                    continue
                if exact:
                    t = mp_walk_time(step.parameter, n)
                    phases = [mpmath.expj(-t * lam) for lam in (n, n - 2, -2, 0)]
                else:
                    phases = [mpmath.mpc(z) for z in np.exp(-1j * step.parameter * eigenvalues)]
                matrix = dual * mpmath.diag(phases) * dual.T * matrix
            return matrix

        power, base, p = mpmath.eye(4), fold(schedule.iterate, exact=True), schedule.p
        while p:
            if p & 1:
                power = base * power
            base, p = base * base, p >> 1
        state = fold(schedule.tail) * power * dual.column(0)
        final = abs(state[0]) ** 2
        if schedule.finishing_rule is FinishingRule.MEASURE_AND_CHECK:
            final += abs(state[1]) ** 2
        return float(final)


def assert_agrees_with_the_loop(report, looped):
    """A run of a recorded iterate against the step loop: the
    probabilities within 1e-12, the steps, queries and walk times bit for
    bit."""
    got, want = report.trajectory, looped.trajectory
    assert got.step.tolist() == want.step.tolist()
    assert np.abs(got.probabilities - want.probabilities).max() <= 1e-12
    assert got.queries_so_far.tolist() == want.queries_so_far.tolist()
    assert [t.hex() for t in got.walk_time_so_far.tolist()] == \
        [t.hex() for t in want.walk_time_so_far.tolist()]
    assert abs(report.final_success_probability - looped.final_success_probability) <= 1e-12
    assert report.oracle_queries == looped.oracle_queries
    assert report.total_walk_time.hex() == looped.total_walk_time.hex()


class RunnerCall:
    """One `dynamics._run_stack` call: its arguments and what it returned."""

    def __init__(self, coeffs, kinds, parameters, args, kwargs, result):
        self.coeffs, self.kinds, self.parameters = np.array(coeffs), list(kinds), parameters
        self.args, self.kwargs, self.result = args, kwargs, result


def recording_runner(monkeypatch):
    """Patch `dynamics._run_stack` to record every call as a `RunnerCall`,
    in order, in the returned list."""
    calls = []
    run_stack = dynamics._run_stack

    def runner(coeffs, kinds, parameters, *args, **kwargs):
        result = run_stack(coeffs, kinds, parameters, *args, **kwargs)
        calls.append(RunnerCall(coeffs, kinds, parameters, args, kwargs, result))
        return result

    monkeypatch.setattr(dynamics, "_run_stack", runner)
    return calls


# sample cadences around the iterate length L and the block length L p:
# (a, b, c) stands for a + b L + c L p
CADENCES = {"1": (1, 0, 0), "2": (2, 0, 0), "3": (3, 0, 0), "L-1": (-1, 1, 0), "L": (0, 1, 0),
            "L+1": (1, 1, 0), "2L": (0, 2, 0), "Lp-3": (-3, 0, 1), "Lp-1": (-1, 0, 1),
            "Lp": (0, 0, 1), "Lp+1": (1, 0, 1), "Lp+3": (3, 0, 1)}


class TestEndpointFold:
    """An iterate runs through its spectrum, a built one's closed form or a
    hand-made block's numeric one (`numeric_spectrum`), and is sampled
    inside the block from its powers.  The step loop and a high-precision
    fold of the same steps are references."""

    @pytest.mark.parametrize("n", [8, 9, 12, 33, 64, 101, 1024, 1025, 4096, 4097,
                                   2 ** 28, 2 ** 30, 2 ** 28 + 1])
    def test_matches_high_precision_fold(self, n):
        # each builder with its defaults: within 3e-15 of the reference at
        # every size here, where folding the float iterate was 4.5e-9 off
        # at det 2^28, 2.9e-7 at det 2^30 and 7.0e-8 at odd 2^28 + 1
        size = GraphSize(n)
        schedules = [sch.approx_schedule(size)]
        schedules.append(sch.odd_schedule(size) if n % 2 else sch.deterministic_schedule(size))
        for schedule in schedules:
            report = apply_schedule(uniform_state(size), schedule, size,
                                    sample_every=len(schedule.steps))
            reference = mp_final_probability(schedule, size)
            assert abs(report.final_success_probability - reference) <= 1e-13

    @pytest.mark.parametrize("n", [2 ** 20, 2 ** 20 + 1])
    def test_matches_the_loop_and_the_accounting(self, n):
        # the loop's probabilities carry its rounded pi times n, up to 9e-11
        # here, so the high-precision fold is the reference for them
        size = GraphSize(n)
        for schedule in every_builder(n):
            every = len(schedule.steps)
            folded = apply_schedule(uniform_state(size), schedule, size, sample_every=every)
            looped = apply_schedule(uniform_state(size), flat(schedule),
                                    size, sample_every=every)
            assert abs(folded.final_success_probability
                       - mp_final_probability(schedule, size)) <= 1e-12
            assert folded.oracle_queries == looped.oracle_queries == schedule.oracle_queries
            assert folded.total_walk_time == looped.total_walk_time == schedule.total_walk_time
            assert folded.trajectory.step.tolist() == [0, every]

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(3, 40),
        block=st.lists(
            st.tuples(st.booleans(), st.one_of(st.sampled_from(PARAMETER_POOL),
                                               st.floats(-2 * np.pi, 2 * np.pi))),
            min_size=1, max_size=8,
        ),
        tail=st.lists(st.tuples(st.booleans(), st.floats(-2 * np.pi, 2 * np.pi)), max_size=5),
        p=st.integers(1, 20),
        space=st.sampled_from(["reduced walk", "reduced dual", "full walk"]),
        cadence=st.sampled_from(sorted(CADENCES)),
        finishing=st.sampled_from(list(FinishingRule)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_random_blocks_agree_with_the_loop(self, n, block, tail, p, space, cadence,
                                               finishing, seed):
        size = GraphSize(n)
        rng = np.random.default_rng(seed)
        iterate, rest = (tuple(walk_step(x) if is_walk else oracle_step(x) for is_walk, x in part)
                         for part in (block, tail))
        schedule = Schedule(rest, finishing, p=p, iterate=iterate,
                            spectrum=numeric_spectrum(iterate, size))
        looped = flat(schedule)
        full = space.startswith("full")
        state = random_state(rng, size.N if full else 4)
        a, b, c = CADENCES[cadence]
        kwargs = dict(sample_every=max(1, a + b * len(iterate) + c * len(iterate) * p),
                      marked=int(rng.integers(0, size.N)) if full else 0,
                      sample_basis=space.split()[1])
        reference = apply_schedule(state, looped, size, **kwargs)
        # the loop itself is bit for bit the public per-step functions
        assert report_bits(reference) == report_bits(apply_stepwise(state, looped, size, **kwargs))
        assert_agrees_with_the_loop(apply_schedule(state, schedule, size, **kwargs), reference)

    @pytest.mark.parametrize("route, sizes", [
        # log-spaced multiples of 4 from 8 to 2^60, with 2^28, 2^30 and a
        # size where 1 - P was not monotone in n
        ("deterministic", sorted({4 * round(2.0 ** (e / 2) / 4) for e in range(6, 121)}
                                 | {132_301_588})),
        # log-spaced odd sizes to 2^32 + 1, with 2^28 + 1 and a size where
        # 1 - P was not monotone in n
        ("odd", sorted({2 * round(2.0 ** (e / 2) / 2) + 1 for e in range(4, 65)}
                       | {2 ** 28 + 1, 65_352_275})),
    ])
    def test_exact_routes_reach_probability_one(self, route, sizes):
        # folding the float iterate and raising it to p gave 1 - P = 4.5e-9
        # at det 2^28 and P = 0.001 at det 2^40
        build = sch.deterministic_schedule if route == "deterministic" else sch.odd_schedule
        for n in sizes:
            size = GraphSize(n)
            schedule = build(size)
            report = apply_schedule(uniform_state(size), schedule, size,
                                    sample_every=len(schedule.steps))
            assert 1.0 - report.final_success_probability <= 1e-12, n

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 4096),
        route=st.sampled_from(["approx", "deterministic", "odd-deterministic", "odd-approx"]),
        cadence=st.sampled_from(sorted(CADENCES)),
        basis=st.sampled_from(["walk", "dual"]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_random_states_through_built_blocks(self, n, route, cadence, basis, seed):
        # a random start has weight on the dual pair (1, 2), which the
        # uniform state never reaches.  The reference is the step loop with
        # the iterate's multiples of pi exact (`exact_phases`), as in its
        # spectrum, and the tail's doubles: the loop's own rounded pi times
        # n puts it up to 1.2e-11 off at n near 4096
        if route == "deterministic":
            n = max(8, n - n % 4)
        elif route.startswith("odd"):
            n -= 1 - n % 2
        size = GraphSize(n)
        schedule = next(s for s in every_builder(n) if s.variant == route)
        state = random_state(np.random.default_rng(seed), 4)
        a, b, c = CADENCES[cadence]
        width = len(schedule.iterate)
        every = max(1, a + b * width + c * width * schedule.p)
        report = apply_schedule(state, schedule, size, sample_every=every, sample_basis=basis)
        dual = dual_basis(size)
        block = width * schedule.p
        coeffs, phases, rows = state.copy(), {}, []
        for index, step in enumerate(schedule.steps, start=1):
            if step.kind is StepKind.WALK:
                key = (index <= block, step.parameter)
                if key not in phases:
                    phases[key] = exact_phases(step.parameter, size) if index <= block else \
                        np.exp(-1j * step.parameter * dual.eigenvalues)
                coeffs = dual.matrix @ (phases[key] * (dual.matrix.T @ coeffs))
            else:
                coeffs[0] *= np.exp(-1j * step.parameter)
            if index % every == 0 or index == len(schedule.steps):
                rows.append(np.abs(dual.to_dual(coeffs) if basis == "dual" else coeffs) ** 2)
        assert np.abs(report.trajectory.probabilities[1:] - np.array(rows)).max() <= 1e-12
        final = abs(coeffs[0]) ** 2
        if schedule.finishing_rule is FinishingRule.MEASURE_AND_CHECK:
            final += abs(coeffs[1]) ** 2
        assert abs(report.final_success_probability - final) <= 1e-12

    def test_built_blocks_fold_nothing_whole(self, rng, monkeypatch):
        # the spectrum replaces stepping the iterate p times, and a run folds
        # nothing: a sample inside the block is stepped from its power of the
        # iterate through fewer steps than one iterate, in at most one runner
        # call before the tail's, made when some sample falls r > 0 steps
        # past a whole iterate
        def forbidden(*args, **kwargs):
            raise AssertionError("a run folded steps or raised a matrix to a power")

        monkeypatch.setattr(dynamics, "schedule_matrix", forbidden)
        monkeypatch.setattr(np.linalg, "matrix_power", forbidden)
        calls = recording_runner(monkeypatch)
        for n in (9, 64, 67):
            size = GraphSize(n)
            for schedule in every_builder(n):
                width, p = len(schedule.iterate), schedule.p
                iterate = [step.kind for step in schedule.iterate]
                for a, b, c in CADENCES.values():
                    every = max(1, a + b * width + c * width * p)
                    offsets = {step % width for step in range(every, width * p, every)} - {0}
                    for state in (random_state(rng, 4), random_state(rng, size.N)):
                        calls.clear()
                        apply_schedule(state, schedule, size, sample_every=every,
                                       marked=int(rng.integers(0, size.N)) if len(state) > 4 else 0)
                        *inside, tail = calls
                        assert tail.kinds == [step.kind for step in schedule.tail]
                        assert [call.kinds for call in inside] == \
                            ([iterate[:max(offsets)]] if offsets else [])


def endpoint_probabilities(schedules):
    """Each schedule's final success probability from the uniform state,
    one `apply_schedule` run each."""
    finals = []
    for schedule in schedules:
        size = GraphSize(schedule.n)
        finals.append(apply_schedule(uniform_state(size), schedule, size,
                                     sample_every=len(schedule.steps)).final_success_probability)
    return np.array(finals)


class TestStackedEndpoints:
    """`dynamics._final_probabilities` runs the schedules of one builder
    together, and must give each the bits of its own `apply_schedule` run."""

    @pytest.mark.parametrize("route", ["deterministic", "odd"])
    def test_p_override_sweeps_match_apply_schedule(self, route):
        # p_min + 3 at every size, so p differs from schedule to schedule
        if route == "odd":
            schedules = [sch.odd_schedule(GraphSize(n), p=sch.odd_p_min(GraphSize(n)) + 3)
                         for n in range(3, 1024, 2)]
        else:
            schedules = [sch.deterministic_schedule(
                GraphSize(n), sch.deterministic_p_min(GraphSize(n)) + 3)
                for n in range(8, 2049, 4)]
        assert len({schedule.p for schedule in schedules}) > 10
        stacked = dynamics._final_probabilities(schedules)
        assert stacked.tobytes() == endpoint_probabilities(schedules).tobytes()

    def test_a_cli_p_override_sweep_writes_the_apply_schedule_values(self, tmp_path,
                                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-determinism", "--n-list", "8,12,...,64", "--p", "6"]) == 0
        rows = list(csv.reader(io.StringIO(Path("sweep-determinism.csv").read_text())))[1:]
        schedules = [sch.deterministic_schedule(GraphSize(int(n)), 6) for n, _, _ in rows]
        written = np.array([float(final) for _, _, final in rows])
        assert written.tobytes() == endpoint_probabilities(schedules).tobytes()

    def test_an_empty_list_gives_an_empty_array(self):
        finals = dynamics._final_probabilities([])
        assert finals.shape == (0,) and finals.dtype == np.float64

    @pytest.mark.parametrize("spoil, complaint", [
        (flat, "recorded iterate"),
        (lambda s: dataclasses.replace(s, n=None), "size n"),
    ], ids=["no iterate", "no n"])
    def test_refuses_a_schedule_it_cannot_stack(self, spoil, complaint):
        good = [sch.deterministic_schedule(GraphSize(n)) for n in (8, 12, 16)]
        for position in range(3):
            schedules = list(good)
            schedules[position] = spoil(schedules[position])
            with pytest.raises(ValueError, match=complaint):
                dynamics._final_probabilities(schedules)

    @pytest.mark.parametrize("rule", [FinishingRule.MEASURE_AND_CHECK, FinishingRule.NONE],
                             ids=["measure-and-check", "none"])
    def test_stacks_every_finishing_rule(self, rule):
        # one schedule with `rule` among schedules with the other one: each
        # keeps its own, which moves the approximate route's probability
        other = ({FinishingRule.MEASURE_AND_CHECK, FinishingRule.NONE} - {rule}).pop()
        good = [dataclasses.replace(sch.approx_schedule(GraphSize(n), "measure"),
                                    finishing_rule=other) for n in (12, 13, 14)]
        for position in range(3):
            schedules = list(good)
            schedules[position] = dataclasses.replace(schedules[position], finishing_rule=rule)
            stacked = dynamics._final_probabilities(schedules)
            assert stacked.tobytes() == endpoint_probabilities(schedules).tobytes()
            assert stacked[position] != dynamics._final_probabilities(good)[position]

    @pytest.mark.parametrize("finishing", ["coherent", "measure", "none"])
    def test_approximate_routes_match_apply_schedule(self, finishing):
        # "coherent" and "measure" finish with measure-and-check, "none"
        # with no claim; "measure" and "none" share the odd-approx pattern
        schedules = [sch.approx_schedule(GraphSize(n), finishing) for n in range(3, 700)]
        if finishing != "coherent":
            schedules += [sch.odd_schedule(GraphSize(n), deterministic=False, p=p)
                          for n in range(3, 700, 2) for p in (None, 3)]
        assert len({schedule.p for schedule in schedules}) > 10
        stacked = dynamics._final_probabilities(schedules)
        assert stacked.tobytes() == endpoint_probabilities(schedules).tobytes()

    def test_random_starts_match_apply_schedule(self, rng):
        # the runner from any 4-dim starts after their blocks, states at
        # every tail position included, against each schedule's own sampled
        # run
        schedules = [build(GraphSize(n)) for n in range(12, 400, 4)
                     for build in (sch.deterministic_schedule,
                                   lambda size: sch.odd_schedule(GraphSize(size.n + 1)))]
        starts = np.array([random_state(rng, 4) for _ in schedules])
        n = np.array([float(schedule.n) for schedule in schedules])[:, np.newaxis]
        to_dual, from_dual = dynamics._complex_bases(dynamics._dual_matrix(n[..., np.newaxis]))
        positions = range(len(schedules[0].tail) + 1)
        spectra = dynamics.IterateSpectrum(
            np.array([s.spectrum.lambda_plus for s in schedules]),
            np.array([s.spectrum.eigenstates for s in schedules]),
            np.array([s.spectrum.angles for s in schedules]))
        powers = np.array([s.p for s in schedules])[:, np.newaxis]
        blocks = from_dual @ spectra.apply_powers(
            (to_dual @ starts[..., np.newaxis])[..., 0], powers)
        parameters = np.array([[step.parameter for step in s.tail] for s in schedules]).T
        ends, states = dynamics._run_stack(blocks, [step.kind for step in schedules[0].tail],
                                           parameters, to_dual, from_dual,
                                           dynamics._eigenvalues(n), positions)
        finals = dynamics._success(ends, [s.finishing_rule for s in schedules])
        for index, (schedule, start) in enumerate(zip(schedules, starts)):
            size = GraphSize(schedule.n)
            report = apply_schedule(start, schedule, size, sample_every=1)
            assert report.final_success_probability.hex() == finals[index].hex()
            rows = report.trajectory.probabilities[-len(positions):]
            assert rows.tobytes() == np.array([np.abs(state[index, :, 0]) ** 2
                                               for state in states]).tobytes()

    def test_every_run_goes_through_the_one_runner(self, rng, monkeypatch, tmp_path):
        # endpoints, full-space runs, hand-built steps, samples r > 0 steps
        # past a whole iterate, `schedule_matrix` and the sweep all step
        # through `_run_stack`; the samples inside the block reach it with
        # a proper prefix of the iterate
        class Reached(Exception):
            pass

        size = GraphSize(12)
        schedule = sch.deterministic_schedule(size)
        iterate = [step.kind for step in schedule.iterate]
        run_stack = dynamics._run_stack

        def runner(coeffs, kinds, *args, **kwargs):
            if wanted(list(kinds)):
                raise Reached
            return run_stack(coeffs, kinds, *args, **kwargs)

        def anything(kinds):
            return True

        def iterate_prefix(kinds):
            return 0 < len(kinds) < len(iterate) and kinds == iterate[:len(kinds)]

        monkeypatch.setattr(dynamics, "_run_stack", runner)
        runs = [(anything, lambda: apply_schedule(uniform_state(size), schedule, size)),
                (anything, lambda: apply_schedule(random_state(rng, size.N), schedule, size,
                                                  marked=5)),
                (anything, lambda: apply_schedule(uniform_state(size), flat(schedule), size)),
                (anything, lambda: apply_schedule(uniform_state(size), Schedule(()), size)),
                (iterate_prefix, lambda: apply_schedule(uniform_state(size), schedule, size,
                                                        sample_every=3)),
                (iterate_prefix, lambda: apply_schedule(uniform_state(size), schedule, size,
                                                        sample_every=3, sample_basis="dual")),
                (anything, lambda: sch.schedule_matrix(schedule.iterate, size))]
        monkeypatch.chdir(tmp_path)
        runs.append((anything, lambda: main(["sweep-determinism", "--n-list", "8,12,16"])))
        for wanted, run in runs:
            with pytest.raises(Reached):
                run()

    def test_refuses_mixed_step_patterns(self):
        det = sch.deterministic_schedule(GraphSize(8))
        swapped = (det.tail[1],) + (det.tail[0],) + det.tail[2:]
        mixes = [
            # the approximate schedule's iterate and tail are shorter
            dataclasses.replace(sch.approx_schedule(GraphSize(12)),
                                finishing_rule=FinishingRule.COHERENT),
            # one step kind out of place, in the tail or in the iterate
            dataclasses.replace(sch.deterministic_schedule(GraphSize(12)), tail=swapped),
            dataclasses.replace(sch.deterministic_schedule(GraphSize(12)),
                                iterate=det.iterate[1:] + det.iterate[:1]),
        ]
        for other in mixes:
            for schedules in ([det, other], [other, det]):
                with pytest.raises(ValueError, match="mix step patterns"):
                    dynamics._final_probabilities(schedules)

    def test_routes_of_one_step_pattern_stack_together(self):
        # the deterministic and odd routes share their pattern of kinds
        schedules = [sch.deterministic_schedule(GraphSize(n)) for n in range(8, 200, 4)]
        schedules[1::2] = [sch.odd_schedule(GraphSize(n)) for n in range(9, 200, 8)]
        stacked = dynamics._final_probabilities(schedules)
        assert stacked.tobytes() == endpoint_probabilities(schedules).tobytes()


def mp_stepped_dual_probabilities(schedule, size, sample_every, digits=40):
    """Reference for sampled runs: the uniform state stepped through the
    schedule's float steps in `digits`-digit arithmetic, with its dual-basis
    populations at the samples `apply_schedule` takes.  Returns the sample
    steps and their rows."""
    with mpmath.workdps(digits):
        n = size.n
        dual = mp_dual_matrix(n)
        eigenvalues = (n, n - 2, -2, 0)
        state = dual.column(0)
        phases = {}
        steps, rows = [], []

        def sample(index):
            steps.append(index)
            rows.append([float(abs(x) ** 2) for x in dual.T * state])

        sample(0)
        last = len(schedule.steps)
        for index, step in enumerate(schedule.steps, start=1):
            t = step.parameter
            if step.kind is StepKind.WALK:
                if t not in phases:
                    phases[t] = mpmath.diag([mpmath.expj(-mpmath.mpf(t) * lam)
                                             for lam in eigenvalues])
                state = dual * (phases[t] * (dual.T * state))
            else:
                state[0] *= mpmath.expj(-mpmath.mpf(t))
            if index % sample_every == 0 or index == last:
                sample(index)
        return steps, rows


def cli_runs(argv):
    """The size of a fig5, fig6 or fig7 command, and the output file,
    schedule and cadence of each of its runs, as `ciinwalk.cli` makes them."""
    value = int(argv[2])
    size = GraphSize.from_vertex_count(value) if argv[1] == "--N" else GraphSize(value)
    if argv[0] == "fig5-dual":
        return size, [("fig5-dual.csv", _bare(sch.approx_schedule(size, finishing="none")), 4)]
    if argv[0] == "fig6-compare":
        return size, [
            ("fig6-compare-approx.csv", _bare(sch.approx_schedule(size, finishing="none")), 4),
            ("fig6-compare-deterministic.csv", _bare(sch.deterministic_schedule(size, 2)), 8),
        ]
    return size, [("fig7-oddpath.csv", sch.odd_schedule(size, deterministic=False), 2)]


class TestBlockSamples:
    """A recorded iterate is never stepped: samples inside the block come
    from powers of its unitary, through its spectrum.  The step loop and a
    40-digit stepping are the references."""

    @pytest.mark.parametrize("argv", [
        ("fig5-dual", "--n", "64"), ("fig5-dual", "--n", "1024"), ("fig6-compare", "--N", "24"),
        ("fig7-oddpath", "--N", "130"), ("fig7-oddpath", "--N", "2050"),
    ], ids=" ".join)
    def test_written_probabilities_match_a_high_precision_stepping(self, tmp_path,
                                                                   monkeypatch, argv):
        # fig7 samples every 2 steps of a 4-step iterate: offsets 0 and 2
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == 0
        size, runs = cli_runs(argv)
        for name, schedule, every in runs:
            with open(tmp_path / name) as handle:
                written = list(csv.DictReader(handle))
            steps, rows = mp_stepped_dual_probabilities(schedule, size, every)
            assert [int(row["step"]) for row in written] == steps
            got = np.array([[float(row[f"p{k}"]) for k in range(1, 5)] for row in written])
            assert np.abs(got - np.array(rows)).max() <= 1e-13

    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 64, 100])
    def test_spectrum_powers_match_one_power_per_column(self, rng, first, count):
        # the reference is the spectrum's own unitary V e^{i phi} V^dagger:
        # the fold of the rounded walk steps differs from it by ~2e-13 here
        size = GraphSize(1024)
        dual = dual_basis(size)
        spectrum = sch.deterministic_schedule(size).spectrum
        states = spectrum.eigenstates
        unitary = dual.from_dual(states @ np.diag(np.exp(1j * spectrum_phases(spectrum)))
                                 @ states.conj().T @ dual.to_dual(np.eye(4)))
        vector = random_state(rng, 4)
        for stride in (1, 3):
            turns = first + stride * np.arange(count)
            columns = dual.from_dual(spectrum.apply_powers(dual.to_dual(vector), turns))
            assert columns.shape == (4, count)
            expected = np.column_stack([np.linalg.matrix_power(unitary, j) @ vector
                                        for j in turns])
            assert np.abs(columns - expected).max() <= 1e-13

    def test_loop_steps_only_the_tail(self, monkeypatch):
        # the walks a run takes: the tail's, and those of the iterate's first
        # r steps for the largest offset r of a sample inside the block; a
        # schedule without an iterate walks every walk step
        walked = []
        walk = dynamics._walk

        def counting_walk(coeffs, *args, **kwargs):
            walked.append(coeffs.shape)
            return walk(coeffs, *args, **kwargs)

        def forbidden(self):
            raise AssertionError("the steps view was iterated")

        monkeypatch.setattr(dynamics, "_walk", counting_walk)
        for n, build in ((64, sch.deterministic_schedule),
                         (65, lambda size: sch.odd_schedule(size, deterministic=False)),
                         (64, sch.approx_schedule)):
            size = GraphSize(n)
            schedule = build(size)
            looped = flat(schedule)
            width, p = len(schedule.iterate), schedule.p
            for every in (1, 3, width, width * p):
                offsets = [step % width for step in range(every, width * p, every)]
                prefix = schedule.iterate[:max(offsets, default=0)]
                walked.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(dynamics.ScheduleSteps, "__iter__", forbidden)
                    apply_schedule(uniform_state(size), schedule, size, sample_every=every)
                # the prefix walks one column per sample r > 0 steps past an
                # iterate, all at once, and then the tail walks its one state
                assert walked == \
                    [(4, sum(map(bool, offsets)))] * sum(s.kind is StepKind.WALK for s in prefix) \
                    + [(4, 1)] * sum(s.kind is StepKind.WALK for s in schedule.tail)
                walked.clear()
                apply_schedule(uniform_state(size), looped, size, sample_every=every)
                assert len(walked) == sum(s.kind is StepKind.WALK for s in schedule.steps)

    @pytest.mark.parametrize("n, route, every", [
        (64, "deterministic", 3), (64, "deterministic", 5), (65, "odd-approx", 2),
        (65, "odd-approx", 3), (1024, "approx", 3), (1025, "odd-deterministic", 7),
    ])
    @pytest.mark.parametrize("basis", ["walk", "dual"])
    def test_stepped_columns_are_iterate_prefixes(self, monkeypatch, n, route, every, basis):
        # a sample r > 0 steps past a whole iterate is its column of U^j c
        # after exactly the iterate's first r steps: the bits of stepping the
        # same block through that prefix alone.  A column stepped by itself
        # takes one-column matrix products, which BLAS rounds otherwise than
        # a block's, so it agrees to rounding, not bit for bit
        size = GraphSize(n)
        schedule = next(s for s in every_builder(n) if s.variant == route)
        width = len(schedule.iterate)
        run_stack = dynamics._run_stack
        calls = recording_runner(monkeypatch)
        report = apply_schedule(uniform_state(size), schedule, size, sample_every=every,
                                sample_basis=basis)
        inside, _ = calls
        stops = np.arange(every, width * schedule.p, every)
        offsets = stops % width
        # the block holds the samples r > 0 steps past an iterate, grouped
        # by r and in order within a group
        moved = np.flatnonzero(offsets)
        order = moved[np.argsort(offsets[moved], kind="stable")]
        kept = sorted(set(offsets[moved].tolist()))
        assert inside.coeffs.shape == (4, len(order))
        assert inside.kinds == [step.kind for step in schedule.iterate[:kept[-1]]]
        _, states = inside.result
        rows = report.trajectory.probabilities[1:][order]
        dual = dual_basis(size).matrix
        for r, state in zip(kept, states):
            at = offsets[order] == r
            ran, _ = run_stack(inside.coeffs, inside.kinds[:r], inside.parameters[:r],
                               *inside.args)
            assert state[:, at].tobytes() == ran[:, at].tobytes()
            sampled = dual.T @ ran if basis == "dual" else ran
            assert np.abs(rows[at] - (np.abs(sampled[:, at]) ** 2).T).max() <= 1e-15
            for column in np.flatnonzero(at):
                alone, _ = run_stack(inside.coeffs[:, column:column + 1], inside.kinds[:r],
                                     inside.parameters[:r], *inside.args)
                assert np.abs(alone[:, 0] - ran[:, column]).max() <= 1e-15


def exact_times(steps):
    """Each step's |t| as a `Fraction`, 0 for an oracle step."""
    return [Fraction(abs(s.parameter)) if s.kind is StepKind.WALK else Fraction(0)
            for s in steps]


@pytest.mark.parametrize("n", [12, 1024, 2 ** 20, 2 ** 28, 2 ** 28 + 1, 2 ** 38 + 1, 2 ** 40])
def test_walk_times_are_exact_sums(n):
    # each walk time is the exact sum of the walk times so far, rounded
    # once: the builders' totals, and every sample of sampled runs against
    # `Fraction` prefix sums of the flat steps
    size = GraphSize(n)
    for schedule in every_builder(n):
        exact = schedule.p * sum(exact_times(schedule.iterate)) + sum(exact_times(schedule.tail))
        report = apply_schedule(uniform_state(size), schedule, size,
                                sample_every=len(schedule.steps))
        assert schedule.total_walk_time.hex() == report.total_walk_time.hex() == \
            float(exact).hex()
        if n > 2 ** 20:
            continue
        prefix = list(itertools.accumulate(exact_times(schedule.steps), initial=Fraction(0)))
        width = len(schedule.iterate)
        for every in (1, 3, width - 1, width + 1):
            times = apply_schedule(uniform_state(size), schedule, size,
                                   sample_every=every).trajectory
            assert [t.hex() for t in times.walk_time_so_far.tolist()] == \
                [float(prefix[s]).hex() for s in times.step.tolist()]


def test_hand_built_walk_times_are_exact_sums():
    # the smallest and a huge length: the sums need every bit down to 2^-1074
    size = GraphSize(5)
    tail = (walk_step(5e-324), oracle_step(0.5), walk_step(-1e300), walk_step(5e-324),
            walk_step(1.0), walk_step(2.0 ** -53), walk_step(2.0 ** -53))
    schedule = Schedule(tail)
    report = apply_schedule(uniform_state(size), schedule, size)
    prefix = list(itertools.accumulate(exact_times(tail), initial=Fraction(0)))
    assert [t.hex() for t in report.trajectory.walk_time_so_far.tolist()] == \
        [float(total).hex() for total in prefix]
    assert schedule.total_walk_time == report.total_walk_time == float(prefix[-1])
    # 1 + 2^-53 + 2^-53 is exact as a double, which no left-to-right float sum gives
    short = Schedule(tail[4:])
    assert short.total_walk_time == 1.0 + 2.0 ** -52


def test_a_total_past_the_largest_double_is_inf():
    size = GraphSize(5)
    schedule = Schedule((walk_step(1e308), walk_step(1e308)))
    with np.errstate(over="ignore", invalid="ignore"):  # such walks have NaN phases
        report = apply_schedule(uniform_state(size), schedule, size)
    assert schedule.total_walk_time == report.total_walk_time == math.inf
    assert report.trajectory.walk_time_so_far.tolist() == [0.0, 1e308, math.inf]


@pytest.mark.parametrize("make", [walk_step, oracle_step])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_steps_are_refused(make, value):
    kind = make(0.0).kind.value
    with pytest.raises(ValueError, match=f"{kind} step needs a finite parameter, got {value!r}"):
        make(value)


def test_block_samples_take_memory_in_proportion_to_their_count():
    # four samples of a det 2^40 run (p = 411,775 iterates of 8 steps);
    # per-step walk times of the block would take 26 MB
    size = GraphSize(2 ** 40)
    schedule = sch.deterministic_schedule(size)
    report, peak = traced_peak(apply_schedule, uniform_state(size), schedule, size,
                               sample_every=len(schedule.steps) // 2)
    assert len(report.trajectory) == 4
    assert peak < 2 ** 20


def test_import_loads_no_exact_arithmetic_module():
    # `fractions` and `decimal` cost milliseconds to import; the exact walk
    # times are Python ints
    code = ("import sys, ciinwalk, ciinwalk.cli\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(ciinwalk.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_refuses_a_schedule_built_for_another_size():
    small, large = GraphSize(8), GraphSize(16)
    schedule = sch.deterministic_schedule(small)
    for state in (uniform_state(large), uniform_state(large, reduced=False)):
        with pytest.raises(DimensionMismatchError, match="built for n=8.*at n=16"):
            apply_schedule(state, schedule, large, sample_every=len(schedule.steps))
    # without a recorded size, the steps run at any size
    unsized = dataclasses.replace(flat(schedule), n=None)
    report = apply_schedule(uniform_state(large), unsized, large)
    assert len(report.trajectory) == len(schedule.steps) + 1


class TestSizeTwoRefused:
    """At n = 2 a full state (N = 4) has the reduced shape; reading it as
    walk-basis coordinates would ignore `marked`."""

    def test_shape_ambiguity_raises(self):
        size = GraphSize(2)
        state = uniform_state(size, reduced=False)
        with pytest.raises(DimensionMismatchError, match="ambiguous"):
            apply_schedule(state, Schedule(()), size, marked=2)
        with pytest.raises(DimensionMismatchError, match="ambiguous"):
            group_probabilities(state, size, marked=2)
        with pytest.raises(DimensionMismatchError, match="ambiguous"):
            measure_and_check(state, size, marked=2, rng=np.random.default_rng(0))


class TestMeasureAndCheck:
    def test_deterministic_given_seed(self):
        size = GraphSize(6)
        state = uniform_state(size)
        first = measure_and_check(state, size, marked=0, rng=np.random.default_rng(5))
        second = measure_and_check(state, size, marked=0, rng=np.random.default_rng(5))
        assert first == second

    def test_entangled_state_always_succeeds(self):
        size = GraphSize(8)
        plus = np.zeros(4, dtype=complex)
        plus[0] = plus[1] = 1 / np.sqrt(2)
        rng = np.random.default_rng(1)
        for _ in range(50):
            claimed, success = measure_and_check(plus, size, marked=0, rng=rng)
            assert success and claimed == 0

    def test_reduced_rest_groups_uniform_without_excluded_vertex(self):
        # marked 7 sits at index 2 of side 1; a claim from the rest groups is
        # the opposite of a uniform draw over that side's other n - 1 vertices
        size = GraphSize(5)
        for group, expected in ((2, {0, 1, 3, 4}), (3, {5, 6, 8, 9})):
            state = np.zeros(4, dtype=complex)
            state[group] = 1.0
            rng = np.random.default_rng(11)
            claims = [measure_and_check(state, size, marked=7, rng=rng) for _ in range(4000)]
            assert not any(success for _, success in claims)
            counts = np.bincount([claimed for claimed, _ in claims], minlength=size.N)
            assert set(np.flatnonzero(counts)) == expected
            assert np.abs(counts[sorted(expected)] - 1000).max() < 150

    def test_out_of_range_marked(self):
        size = GraphSize(5)
        for marked in (-1, size.N):
            with pytest.raises(IndexError):
                measure_and_check(uniform_state(size), size, marked=marked,
                                  rng=np.random.default_rng(0))

    def test_full_state_opposite_outcome_corrected(self):
        size = GraphSize(5)
        state = np.zeros(10, dtype=complex)
        state[9] = 1.0  # opposite of marked vertex 4
        claimed, success = measure_and_check(state, size, marked=4,
                                             rng=np.random.default_rng(0))
        assert claimed == 4 and success

    @pytest.mark.parametrize("n, route, floor", [
        (64, "measure", 1 - 1 / 64), (256, "measure", 1 - 1 / 256),
        (1024, "measure", 1 - 1 / 1024), (65, "odd-approx", 1 - 2 / 65),
        (257, "odd-approx", 1 - 2 / 257),
    ])
    def test_final_probability_is_the_claimed_pair(self, n, route, floor):
        # a claim of x or its opposite succeeds with the mass on the marked
        # vertex and its opposite: p1 + p2 of the last walk-basis sample.
        # The approximate route ends near the entangled target, where it is
        # at least its fidelity F >= 1 - 1/n; the odd one meets 1 - 2/n
        size = GraphSize(n)
        if route == "measure":
            schedule = sch.approx_schedule(size, finishing="measure")
        else:
            schedule = sch.odd_schedule(size, deterministic=False)
        assert schedule.finishing_rule is FinishingRule.MEASURE_AND_CHECK
        for every in (1, 3, len(schedule.steps)):
            report = apply_schedule(uniform_state(size), schedule, size, sample_every=every)
            p1, p2 = report.trajectory.probabilities[-1, :2]
            assert abs(report.final_success_probability - (p1 + p2)) <= 1e-15
            assert report.final_success_probability >= floor
        assert dynamics._final_probabilities([schedule])[0] == report.final_success_probability


# floats that stress `.17g` text: signed zeros, non-finite values, the
# smallest subnormal, huge magnitudes and values that need all 17 digits
SPECIAL_FLOATS = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 1e300,
                  -1e300, 1.7976931348623157e308, 0.1, 1.0 / 3.0)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
COUNTS = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1), st.integers(0, 100),
                   st.sampled_from((-2 ** 63, -1, 2 ** 63 - 1)))


def renderer_edges():
    """Floats at the edges of the `%.17g` renderer's digits and layout."""
    powers = 10.0 ** np.arange(-323, 309)
    switches = np.array([1e-5, 1e-4, 1e16, 1e17, 9.99999999999999995e-6,
                         9.99999999999999995e-5, 9999999999999999.5, 99999999999999995.0])
    around = [switches]
    below = above = switches
    for _ in range(4):
        below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
        around += [below, above]
    edges = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        5e-324 * np.arange(1, 200), [2.225073858507201e-308, 2.2250738585072014e-308,
                                     1e-310, 1.7976931348623157e308],
        # exact 18-digit ties and other dyadic values with long expansions
        np.arange(1, 4000) * 2.0 ** -24, np.arange(1, 2000, 2) * 2.0 ** -55,
        (2.0 ** 52 + np.arange(1, 500, 2)) * 2.0 ** -3,
        # doubles just below a power of ten; the first eight round up to it
        # at 17 digits
        [1e-305, 1e-243, 1e-176, 1e-79, 1e-14, 1e98, 1e129, 1e220,
         np.nextafter(1e17, 0), 9.9999999999999999e22],
        *around,
    ])
    return np.concatenate([edges, -edges])


def streamed_csv(report):
    """The bytes `RunReport.to_csv` writes to a binary file."""
    buffer = io.BytesIO()
    assert report.to_csv(buffer) is None
    return buffer.getvalue()


def assert_csv_matches_the_reference(report):
    expected = reference_csv(report)
    assert report.to_csv() == expected
    assert streamed_csv(report) == expected.encode("ascii")


class TestRunReportSerialization:
    def test_csv_schema(self):
        size = GraphSize(4)
        report = apply_schedule(uniform_state(size), Schedule((walk_step(0.5),)), size)
        lines = report.to_csv().splitlines()
        assert lines[0] == "step,p1,p2,p3,p4,queries_so_far,walk_time_so_far"
        assert len(lines) == 2 + len(report.trajectory) - 1

    def test_json_round_trip_fields(self):
        import json

        size = GraphSize(4)
        report = apply_schedule(uniform_state(size), Schedule((oracle_step(1.0),)), size)
        payload = json.loads(report.to_json())
        assert payload["oracle_queries"] == 1
        assert len(payload["trajectory"]) == len(report.trajectory)
        assert abs(sum(payload["trajectory"][0]["probabilities"]) - 1.0) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.tuples(COUNTS, st.tuples(FLOATS, FLOATS, FLOATS, FLOATS), COUNTS,
                                FLOATS), min_size=1, max_size=40),
        final=FLOATS,
        queries=COUNTS,
        walk_time=FLOATS,
    )
    def test_renderers_match_the_reference(self, rows, final, queries, walk_time):
        steps, probabilities, query_counts, walk_times = zip(*rows)
        report = RunReport(Trajectory(steps, probabilities, query_counts, walk_times),
                           final, queries, walk_time)
        assert report.to_csv() == reference_csv(report)
        assert report.to_json() == reference_json(report)

    def test_renderers_match_the_reference_across_blocks(self, rng):
        count = 2 * dynamics._CSV_BLOCK + 3
        values = rng.normal(size=(count, 5)) * 10.0 ** rng.integers(-320, 300, size=(count, 5))
        values.flat[rng.integers(0, values.size, size=200)] = rng.choice(SPECIAL_FLOATS, 200)
        counts = rng.integers(0, 2 ** 63 - 1, size=(count, 2), dtype=np.int64)
        report = RunReport(Trajectory(counts[:, 0], values[:, :4], counts[:, 1], values[:, 4]),
                           0.5, 7, 1e300)
        assert report.to_csv() == reference_csv(report)
        assert report.to_json() == reference_json(report)

    def test_renderer_edges_match_the_reference(self):
        values = renderer_edges()
        rows = -(-len(values) // 5)
        floats = np.resize(values, (rows, 5))
        ints = np.array([-2 ** 63, -2 ** 63 + 1, 2 ** 63 - 1, 0, -1, 1]
                        + [sign * 10 ** k + d for k in range(19) for d in (-1, 0)
                           for sign in (1, -1)], dtype=np.int64)
        report = RunReport(Trajectory(np.resize(ints, rows), floats[:, :4],
                                      np.resize(ints[::-1], rows), floats[:, 4]), 0.5, 7, 1.0)
        assert report.to_csv() == reference_csv(report)

    def test_renderer_leaves_only_near_ties_to_the_reference(self):
        values = np.unique(abs(renderer_edges()))
        values = values[values > 0]
        digits, exponents, unsure = _csvtext.float_digits(values)
        for value, e, flagged in zip(values.tolist(), exponents.tolist(), unsure.tolist()):
            scaled = Fraction(value) * Fraction(10) ** (16 - e)
            assert 10 ** 16 - 1 <= scaled < 10 ** 17
            assert flagged == (abs(scaled - math.floor(scaled) - Fraction(1, 2)) < 2 ** -40)
        assert 0 < unsure.sum() < len(values) // 10

    def test_later_blocks_reuse_the_first_blocks_temporaries(self, rng):
        count = 3 * dynamics._CSV_BLOCK
        values = rng.normal(size=(count, 5)) * 10.0 ** rng.integers(-30, 30, size=(count, 5))
        counts = rng.integers(-2 ** 40, 2 ** 40, size=(count, 2))
        trajectory = Trajectory(counts[:, 0], values[:, :4], counts[:, 1], values[:, 4])
        pieces = _csvtext.csv_blocks(trajectory, dynamics._CSV_BLOCK)
        first = len(next(pieces))
        size, peak = traced_peak(lambda: first + sum(map(len, pieces)))
        header, _, rows = reference_csv(RunReport(trajectory, 0.5, 7, 1.0)).partition("\n")
        assert size == len(rows)
        # only a piece of text at a time: a block that took temporaries of
        # its own would peak near 3 MB
        assert peak < 2 ** 20

    @pytest.mark.parametrize("count", [1, 41, 1000, dynamics._CSV_BLOCK])
    def test_a_block_takes_every_temporary_from_its_buffer(self, rng, count):
        class Checked(_csvtext._Scratch):
            def __call__(self, shape, dtype=np.float64):
                array = super().__call__(shape, dtype)
                assert np.shares_memory(array, self._buffer), "an array was taken new"
                return array

        values = rng.normal(size=(count, 5)) * 10.0 ** rng.integers(-30, 30, size=(count, 5))
        counts = rng.integers(-2 ** 40, 2 ** 40, size=(count, 2))
        trajectory = Trajectory(counts[:, 0], values[:, :4], counts[:, 1], values[:, 4])
        scratch = Checked(count)
        text = b"".join(_csvtext._lines(trajectory, slice(0, count), scratch))
        rows = reference_csv(RunReport(trajectory, 0.5, 7, 1.0)).partition("\n")[2]
        assert text == rows.encode("ascii")
        if count == dynamics._CSV_BLOCK:
            # 607 bytes a row, plus 64 bytes of alignment for each live array
            assert scratch._buffer.nbytes < 2.6e6

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_streamed_and_returned_text_match_at_block_edges(self, rng, extra):
        count = dynamics._CSV_BLOCK + extra
        values = rng.normal(size=(count, 5)) * 10.0 ** rng.integers(-30, 30, size=(count, 5))
        counts = rng.integers(-2 ** 40, 2 ** 40, size=(count, 2))
        assert_csv_matches_the_reference(RunReport(
            Trajectory(counts[:, 0], values[:, :4], counts[:, 1], values[:, 4]), 0.5, 7, 1.0))

    def test_special_values_end_their_rows(self):
        # the last column's separator is the newline, also for the values
        # written through `%.17g` itself (non-finite ones and near ties)
        specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 3 * 2.0 ** -24, -3 * 2.0 ** -24, 1.0]
        count = len(specials)
        probabilities = np.resize(specials[::-1], (count, 4))
        report = RunReport(Trajectory(np.arange(count), probabilities, np.arange(count),
                                      specials), 0.5, 7, 1.0)
        assert _csvtext.float_digits(np.array([3 * 2.0 ** -24]))[2].all()  # a near tie
        assert_csv_matches_the_reference(report)
        for line, value in zip(report.to_csv().splitlines()[1:], specials):
            assert line.endswith("," + format(value, ".17g"))

    def test_digit_words_are_exact(self):
        # every x below 10^6, the top of the range, and each side of every
        # multiple of 10^4 up to 10^8 (where the first split is least exact)
        x = np.concatenate([np.arange(10 ** 6), np.arange(10 ** 8 - 10 ** 4, 10 ** 8),
                            (np.arange(1, 10 ** 4)[:, None] * 10 ** 4 + [-1, 0, 1]).ravel()])
        words = x.astype(np.uint64)
        _csvtext._bcd8(words)
        digits = words.view(np.uint8).reshape(-1, 8)
        for place in range(8):
            assert np.array_equal(digits[:, place], (x // 10 ** (7 - place)) % 10)

    def test_digit_word_reciprocals_hold_over_their_stated_ranges(self):
        # the first failure of each step's reciprocal, as `_bcd8` states
        # them, and the largest input each step sees
        bounds = (494_389_999, 43_699, 179)
        largest = (10 ** 8 - 1, 10 ** 4 - 1, 10 ** 2 - 1)
        for (multiplier, shift, _, divisor, _), bound, top in zip(_csvtext._BCD_STEPS, bounds,
                                                                 largest):
            assert top < bound
            # the multiplier is above 2^shift / divisor, so the quotient is
            # never low, and is highest relative to a / divisor at the top
            # of each quotient's range
            assert multiplier * divisor > 2 ** shift
            tops = np.arange(divisor - 1, bound, divisor, dtype=np.uint64)
            assert np.array_equal((tops * multiplier) >> shift, tops // divisor)
            assert (bound * multiplier) >> shift != bound // divisor

    def test_empty_trajectory_matches_the_reference(self):
        report = RunReport(Trajectory([], np.zeros((0, 4)), [], []), 0.5, 3, np.nan)
        assert report.to_json() == reference_json(report)

    def test_builder_runs_match_the_reference(self):
        size = GraphSize(9)
        for schedule in every_builder(9):
            for basis in ("walk", "dual"):
                report = apply_schedule(uniform_state(size), schedule, size, sample_basis=basis)
                assert report.to_csv() == reference_csv(report)
                assert report.to_json() == reference_json(report)


class TestTrajectory:
    COLUMNS = (
        [0, 3, 2 ** 40],
        [[1.0, 0.0, -0.0, 0.5], [np.nan, np.inf, 5e-324, 1e300], [0.25, -np.inf, 0.1, 1 / 3]],
        [0, 7, 2 ** 62],
        [0.0, 1.5, np.pi],
    )

    def test_columns_are_read_only_arrays(self):
        trajectory = Trajectory(*self.COLUMNS)
        assert len(trajectory) == 3
        assert trajectory.step.dtype == trajectory.queries_so_far.dtype == np.int64
        assert trajectory.probabilities.dtype == trajectory.walk_time_so_far.dtype == np.float64
        assert trajectory.probabilities.shape == (3, 4)
        for column in (trajectory.step, trajectory.probabilities,
                       trajectory.queries_so_far, trajectory.walk_time_so_far):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_refuses_ragged_columns(self):
        steps, probabilities, queries, times = self.COLUMNS
        for columns in ((steps[:2], probabilities, queries, times),
                        (steps, [row[:3] for row in probabilities], queries, times),
                        (steps, probabilities, queries, times[:2])):
            with pytest.raises(ValueError):
                Trajectory(*columns)
