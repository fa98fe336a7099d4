import numpy as np
import pytest

from ciinwalk.dynamics import StepKind, group_probabilities, oracle_phase, walk_full


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def random_state(rng, dim):
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def fidelity(a, b):
    return abs(np.vdot(a, b)) ** 2


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
