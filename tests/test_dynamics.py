import dataclasses

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ciinwalk import dynamics
from ciinwalk import schedules as sch
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
    measure_and_check,
    oracle_phase,
    oracle_step,
    success_probability,
    uniform_state,
    walk_full,
    walk_reduced,
    walk_step,
)
from ciinwalk.errors import DimensionMismatchError
from ciinwalk.graphs import FullAdjacency, GraphSize, WalkBasis, dual_basis, reduced_adjacency

from conftest import (
    apply_stepwise,
    every_builder,
    fidelity,
    random_state,
    reference_csv,
    reference_json,
    run_stepwise,
)


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
        # the in-place evaluation keeps every operation and its operand order
        for n in (2, 9, 1000):
            size = GraphSize(n)
            state = random_state(rng, size.N)
            before = state.copy()
            for t in (0.3, -7.1, 1e5):
                sym = (state[:n] + state[n:]) / 2.0
                asym = (state[:n] - state[n:]) / 2.0
                mean_sym, mean_asym = sym.mean(), asym.mean()
                out_sym = np.exp(-1j * t * n) * mean_sym + (sym - mean_sym)
                out_asym = (np.exp(-1j * t * (n - 2)) * mean_asym
                            + np.exp(2j * t) * (asym - mean_asym))
                expected = np.concatenate([out_sym + out_asym, out_sym - out_asym])
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

    def test_no_full_space_pass_per_step(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("walk_full called inside apply_schedule")

        monkeypatch.setattr(dynamics, "walk_full", forbidden)
        size = GraphSize(64)
        schedule = sch.deterministic_schedule(size)
        report = apply_schedule(random_state(rng, size.N), schedule, size, marked=70)
        assert len(report.trajectory) == len(schedule.steps) + 1


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
    """The step loop caches phases and updates in place; every output bit
    equals stepping through the public walk_reduced and oracle_phase."""

    @pytest.mark.parametrize("route", sorted(BUILDERS))
    def test_builder_schedules(self, route, rng):
        sized, build = BUILDERS[route]
        for k in range(4):
            size = sized(k)
            schedule = build(size)
            # endpoint sampling folds a recorded iterate; without one it steps
            looped = dataclasses.replace(schedule, iterate=())
            for every, run in ((1, schedule), (3, schedule), (len(schedule.steps), looped)):
                assert_bitwise_stepwise(uniform_state(size), run, size, sample_every=every)
                assert_bitwise_stepwise(random_state(rng, 4), run, size,
                                        sample_every=every, sample_basis="dual")
                marked = int(rng.integers(0, size.N))
                assert_bitwise_stepwise(random_state(rng, size.N), run, size,
                                        sample_every=every, marked=marked)

    def test_large_sizes_reduced(self):
        for size, schedule in (
            (GraphSize(2 ** 20), sch.deterministic_schedule(GraphSize(2 ** 20))),
            (GraphSize(2 ** 20 + 1), sch.odd_schedule(GraphSize(2 ** 20 + 1))),
            (GraphSize(2 ** 18 - 3), sch.approx_schedule(GraphSize(2 ** 18 - 3))),
        ):
            assert_bitwise_stepwise(uniform_state(size), dataclasses.replace(schedule, iterate=()),
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


def mp_final_probability(schedule, size, digits=40):
    """Reference for endpoint runs: the schedule's float steps folded in
    `digits`-digit arithmetic, the iterate raised to p by squaring."""
    with mpmath.workdps(digits):
        n = size.n
        s = mpmath.sqrt(n - 1)
        dual = mpmath.matrix([[1, -1, s, -s], [1, 1, -s, -s], [s, -s, -1, 1],
                              [s, s, 1, 1]]) / mpmath.sqrt(2 * n)

        def fold(steps):
            matrix = mpmath.eye(4)
            for step in steps:
                t = mpmath.mpf(step.parameter)
                if step.kind is StepKind.WALK:
                    phases = [mpmath.expj(-t * lam) for lam in (n, n - 2, -2, 0)]
                    matrix = dual * mpmath.diag(phases) * dual.T * matrix
                else:
                    matrix[0, :] *= mpmath.expj(-t)
            return matrix

        power, base, p = mpmath.eye(4), fold(schedule.iterate), schedule.p
        while p:
            if p & 1:
                power = base * power
            base, p = base * base, p >> 1
        block = len(schedule.iterate) * schedule.p
        state = fold(schedule.steps[block:]) * power * dual.column(0)
        final = abs(state[0]) ** 2
        if schedule.finishing_rule is FinishingRule.MEASURE_AND_CHECK:
            final += abs(state[1]) ** 2
        return float(final)


class TestEndpointFold:
    """Endpoint-only runs fold the recorded iterate and raise it to p; the
    step loop and a high-precision fold of the same steps are references."""

    @pytest.mark.parametrize("n", [8, 9, 12, 33, 64, 101, 1024, 1025, 4096, 4097])
    def test_matches_high_precision_fold(self, n):
        # each builder with its defaults; both paths stay within 6e-14 here
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
        size = GraphSize(n)
        for schedule in every_builder(n):
            every = len(schedule.steps)
            folded = apply_schedule(uniform_state(size), schedule, size, sample_every=every)
            looped = apply_schedule(uniform_state(size), dataclasses.replace(schedule, iterate=()),
                                    size, sample_every=every)
            assert abs(folded.final_success_probability
                       - looped.final_success_probability) <= 1e-12
            assert folded.oracle_queries == looped.oracle_queries == schedule.oracle_queries
            assert folded.total_walk_time == pytest.approx(schedule.total_walk_time, rel=1e-12)
            assert folded.trajectory.step.tolist() == [0, every]

    def test_fold_is_taken_only_for_endpoint_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dynamics, "schedule_matrix",
                            lambda *args: calls.append(args) or sch.schedule_matrix(*args))
        size = GraphSize(64)
        schedule = sch.deterministic_schedule(size)
        block = len(schedule.iterate) * schedule.p
        for every in (block - 1, block, len(schedule.steps)):
            apply_schedule(uniform_state(size), schedule, size, sample_every=every)
        apply_schedule(uniform_state(size), dataclasses.replace(schedule, iterate=()), size,
                       sample_every=block)
        assert [args[0] for args in calls] == [schedule.iterate, schedule.iterate]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 40),
        block=st.lists(
            st.tuples(st.booleans(), st.one_of(st.sampled_from(PARAMETER_POOL),
                                               st.floats(-2 * np.pi, 2 * np.pi))),
            min_size=1, max_size=8,
        ),
        tail=st.lists(st.tuples(st.booleans(), st.floats(-2 * np.pi, 2 * np.pi)), max_size=5),
        p=st.integers(1, 20),
        full=st.booleans(),
        offset=st.integers(-3, 3),
        finishing=st.sampled_from(list(FinishingRule)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_random_blocks_agree_with_the_loop(self, n, block, tail, p, full, offset,
                                               finishing, seed):
        size = GraphSize(n)
        rng = np.random.default_rng(seed)
        iterate, rest = (tuple(walk_step(x) if is_walk else oracle_step(x) for is_walk, x in part)
                         for part in (block, tail))
        schedule = Schedule(iterate * p + rest, finishing, p=p, iterate=iterate)
        looped = dataclasses.replace(schedule, iterate=())
        state = random_state(rng, size.N if full else 4)
        marked = int(rng.integers(0, size.N)) if full else 0
        every = max(1, len(iterate) * p + offset)
        kwargs = dict(sample_every=every, marked=marked)
        folded = apply_schedule(state, schedule, size, **kwargs)
        if every < len(iterate) * p:  # a sample inside the block: the loop runs
            assert report_bits(folded) == report_bits(apply_schedule(state, looped, size, **kwargs))
            return
        reference = apply_schedule(state, looped, size, **kwargs)
        got, want = folded.trajectory, reference.trajectory
        assert got.step.tolist() == want.step.tolist()
        assert np.abs(got.probabilities - want.probabilities).max() <= 1e-12
        assert got.queries_so_far.tolist() == want.queries_so_far.tolist()
        assert got.walk_time_so_far == pytest.approx(want.walk_time_so_far, rel=1e-12, abs=1e-12)
        assert abs(folded.final_success_probability
                   - reference.final_success_probability) <= 1e-12
        assert folded.oracle_queries == reference.oracle_queries


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


# floats that stress `.17g` text: signed zeros, non-finite values, the
# smallest subnormal, huge magnitudes and values that need all 17 digits
SPECIAL_FLOATS = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 1e300,
                  -1e300, 1.7976931348623157e308, 0.1, 1.0 / 3.0)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
COUNTS = st.one_of(st.integers(0, 2 ** 63 - 1), st.integers(0, 100))


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
