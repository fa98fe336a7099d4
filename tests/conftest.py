import csv
import io
import json

import numpy as np
import pytest

from ciinwalk import dynamics
from ciinwalk import schedules as sch
from ciinwalk.dynamics import (
    FinishingRule,
    RunReport,
    StepKind,
    Trajectory,
    group_probabilities,
    oracle_phase,
    success_probability,
    walk_full,
    walk_reduced,
)
from ciinwalk.graphs import GraphSize, dual_basis


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def random_state(rng, dim):
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def fidelity(a, b):
    return abs(np.vdot(a, b)) ** 2


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


def apply_stepwise(state, schedule, size, sample_every=1, marked=0, sample_basis="walk"):
    """Reference 4-dim executor: `apply_schedule` stepping through the public
    `walk_reduced` and `oracle_phase`, one call per step, each with a fresh
    phase.  `apply_schedule` must match it bit for bit.
    """
    coeffs = np.asarray(state, dtype=complex)
    if coeffs.shape == (4,):
        rest_norm, rest_cross = 0.0, 0j
    else:
        coeffs, rest_norm, rest_cross = dynamics._split_full(coeffs, size, marked)
    dual = dual_basis(size)
    sampled, rows, query_counts, walk_times = [], [], [], []
    queries = 0
    walk_time = 0.0
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
        walk_times.append(walk_time)

    record(0)
    for index, step in enumerate(schedule.steps, start=1):
        if step.kind is StepKind.WALK:
            coeffs = walk_reduced(coeffs, step.parameter, dual)
            walk_time += abs(step.parameter)
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
                     walk_time)


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
