"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
with their measured values.  Criterion 5 checks the approximate route
against its closed form: the entangled-state fidelity is cos^2 of the
rounding residual of the nearest-integer iteration count, which keeps it
above 1 - 1/n (and above 0.99) at n = 64, 256, 1024.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from ciinwalk.cg import CGConfig, cg_evolve, rotation_pair_gap
from ciinwalk.circuit import compile_schedule, reconstruct_unitary, simulate, walk_circuit
from ciinwalk.dynamics import (
    StepKind,
    apply_schedule,
    entangled_fidelity,
    oracle_phase,
    uniform_state,
    walk_full,
    walk_reduced,
)
from ciinwalk.errors import MappingUnavailableError
from ciinwalk.graphs import (
    FullAdjacency,
    GraphSize,
    WalkBasis,
    dual_basis,
    reduce_operator,
    reduced_adjacency,
)
from ciinwalk import schedules as sch

from conftest import random_state


def report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


def run_schedule_reduced(size, schedule):
    return apply_schedule(uniform_state(size), schedule, size,
                          sample_every=max(1, len(schedule.steps)))


def test_criterion_1_cg_peak():
    size = GraphSize(1024)
    start = time.perf_counter()
    reportio = cg_evolve(CGConfig(size, gamma=1.0 / 1024.0, total_time=60.0, dt=0.01))
    probs = reportio.trajectory.probabilities[:, 0]
    times = reportio.trajectory.walk_time_so_far
    elapsed = time.perf_counter() - start
    peak = float(probs.max())
    argmax = float(times[probs.argmax()])
    ok = 0.48 <= peak <= 0.52 and abs(argmax - 50.27) <= 0.05 * 50.27 and elapsed < 1.0
    report(1, ok, f"peak={peak:.4f} at t={argmax:.2f} (target 0.48..0.52 near 50.27), "
                  f"runtime={elapsed:.2f}s")
    assert 0.48 <= peak <= 0.52
    assert abs(argmax - 50.27) <= 0.05 * 50.27
    assert elapsed < 1.0


def test_criterion_2_deterministic_exactness():
    start = time.perf_counter()
    worst_reduced = 1.0
    worst_full = 1.0
    for n in range(8, 65, 4):
        size = GraphSize(n)
        p_min = sch.deterministic_p_min(size)
        for p in range(p_min, p_min + 4):
            schedule = sch.deterministic_schedule(size, p)
            worst_reduced = min(
                worst_reduced, run_schedule_reduced(size, schedule).final_success_probability
            )
            if size.N <= 128:
                full = apply_schedule(uniform_state(size, reduced=False), schedule, size,
                                      sample_every=len(schedule.steps))
                worst_full = min(worst_full, full.final_success_probability)
    elapsed = time.perf_counter() - start
    ok = worst_reduced >= 1 - 1e-9 and worst_full >= 1 - 1e-8 and elapsed < 10.0
    report(2, ok, f"min reduced={worst_reduced:.12f}, min full={worst_full:.12f}, "
                  f"runtime={elapsed:.2f}s")
    assert worst_reduced >= 1 - 1e-9
    assert worst_full >= 1 - 1e-8
    assert elapsed < 10.0


def test_criterion_3_odd_path_exactness():
    start = time.perf_counter()
    worst_reduced = 1.0
    worst_full = 1.0
    for n in range(9, 64, 2):
        size = GraphSize(n)
        p_min = sch.odd_p_min(size)
        for p in range(p_min, p_min + 4):
            schedule = sch.odd_schedule(size, deterministic=True, p=p)
            worst_reduced = min(
                worst_reduced, run_schedule_reduced(size, schedule).final_success_probability
            )
            if size.N <= 128:
                full = apply_schedule(uniform_state(size, reduced=False), schedule, size,
                                      sample_every=len(schedule.steps))
                worst_full = min(worst_full, full.final_success_probability)
    elapsed = time.perf_counter() - start
    ok = worst_reduced >= 1 - 1e-9 and worst_full >= 1 - 1e-8 and elapsed < 10.0
    report(3, ok, f"min reduced={worst_reduced:.12f}, min full={worst_full:.12f}, "
                  f"runtime={elapsed:.2f}s")
    assert worst_reduced >= 1 - 1e-9
    assert worst_full >= 1 - 1e-8
    assert elapsed < 10.0


def test_exact_routes_over_the_whole_domain():
    # every size the exact routes accept up to 4096, at endpoint sampling
    start = time.perf_counter()
    worst, worst_at = -1.0, None
    for route, sizes, build in (("deterministic", range(8, 4097, 4), sch.deterministic_schedule),
                                ("odd", range(3, 4096, 2), sch.odd_schedule)):
        for n in sizes:
            size = GraphSize(n)
            miss = 1.0 - run_schedule_reduced(size, build(size)).final_success_probability
            if miss > worst:
                worst, worst_at = miss, f"{route} n={n}"
    elapsed = time.perf_counter() - start
    report("2+3", worst <= 1e-12, f"3070 sizes, worst 1 - P = {worst:.2e} at {worst_at}, "
                                  f"runtime={elapsed:.2f}s")
    assert worst <= 1e-12
    with pytest.raises(MappingUnavailableError):
        sch.deterministic_schedule(GraphSize(4))


def test_criterion_4_query_count_asymptotics():
    start = time.perf_counter()
    size = GraphSize(4096)
    schedule = sch.deterministic_schedule(size)
    queries = schedule.oracle_queries
    ratio = queries / np.sqrt(size.N)
    final = run_schedule_reduced(size, schedule).final_success_probability
    elapsed = time.perf_counter() - start
    ok = 1.00 <= ratio <= 1.22 and final >= 1 - 1e-9 and elapsed < 5.0
    report(4, ok, f"queries={queries}, queries/sqrt(N)={ratio:.4f} (target 1.00..1.22), "
                  f"final={final:.12f}, runtime={elapsed:.2f}s")
    assert 1.00 <= ratio <= 1.22
    assert final >= 1 - 1e-9
    assert elapsed < 5.0


def test_criterion_5_approximate_fidelity():
    # The iteration count p is the nearest integer to arccos(1/sqrt(n))/lambda_+,
    # so the rotation toward the entangled state misses by a residual of at most
    # lambda_+/2 and the fidelity is cos^2 of that residual.  For n = 0 mod 4,
    # cos(lambda_+) = (n - 2)/n, which makes the guaranteed floor exactly 1 - 1/n.
    start = time.perf_counter()
    checks = []
    details = []
    for n in (64, 256, 1024):
        size = GraphSize(n)
        params = sch.approx_params(size)
        schedule = sch.approx_schedule(size, finishing="none")
        state = uniform_state(size)
        for step in schedule.steps:
            if step.kind is StepKind.WALK:
                state = walk_reduced(state, step.parameter, size)
            else:
                state = oracle_phase(state, step.parameter)
        f = entangled_fidelity(state)
        target_angle = np.arccos(1.0 / np.sqrt(n))
        residual = params.p * params.lambda_plus - target_angle
        p_nint = sch.nint(target_angle / params.lambda_plus)
        floor = 1.0 - 1.0 / n
        checks += [
            (f"n={n}: f={f!r} >= 0.99", f >= 0.99),
            (f"n={n}: f={f!r} = cos^2(p*lambda_+ - arccos(1/sqrt(n))) = "
             f"{np.cos(residual) ** 2!r} within 1e-9", abs(f - np.cos(residual) ** 2) <= 1e-9),
            (f"n={n}: p={params.p} = nint(arccos(1/sqrt(n))/lambda_+) = {p_nint}",
             params.p == p_nint),
            (f"n={n}: f={f!r} >= 1 - 1/n = {floor!r}", f >= floor),
        ]
        details.append(f"n={n}: p={params.p}, residual={residual:+.6f}, f={f:.6f}, "
                       f"1-1/n={floor:.6f}")
    elapsed = time.perf_counter() - start
    ok = all(passed for _, passed in checks)
    report(5, ok and elapsed < 1.0,
           f"{'; '.join(details)} (f >= 0.99, f = cos^2(residual), p = nint, f >= 1-1/n: "
           f"{ok}), runtime={elapsed:.2f}s")
    for description, passed in checks:
        assert passed, description
    assert elapsed < 1.0


def test_criterion_6_exact_iteration_count_n12():
    size = GraphSize(12)
    iterate = sch.schedule_matrix(sch.deterministic_schedule(size, 2).iterate, size)
    dual = dual_basis(size)
    state = uniform_state(size)
    populations = []
    for _ in range(2):
        state = iterate @ state
        populations.append(float(abs(dual.to_dual(state)[0]) ** 2))
    ok = abs(populations[1] - 1.0 / 12.0) <= 1e-9 and abs(populations[0] - 1.0 / 12.0) > 1e-9
    report(6, ok, f"|<psi|b1*>|^2 after iterations: {populations[0]:.6f}, "
                  f"{populations[1]:.12f} (target 1/12={1/12:.12f} exactly at 2)")
    assert abs(populations[1] - 1.0 / 12.0) <= 1e-9
    assert abs(populations[0] - 1.0 / 12.0) > 1e-9


def test_criterion_7_circuit_equivalence():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 7):
        adjacency = FullAdjacency(GraphSize(2 ** m)).dense
        for t in rng.uniform(0.0, 2 * np.pi, size=20):
            reconstructed = reconstruct_unitary(walk_circuit(m, float(t)))
            exact = scipy.linalg.expm(-1j * float(t) * adjacency)
            anchor = np.unravel_index(np.argmax(np.abs(exact)), exact.shape)
            phase = reconstructed[anchor] / exact[anchor]
            worst = max(worst, float(np.max(np.abs(reconstructed - phase * exact))))
    size = GraphSize(1024)
    schedule = sch.deterministic_schedule(size)
    program = compile_schedule(schedule, 10)
    final = simulate(program, uniform_state(size, reduced=False))
    success = float(abs(final[0]) ** 2)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and success >= 1 - 1e-8 and elapsed < 60.0
    report(7, ok, f"max walk-circuit error={worst:.2e} (m=1..6, 20 random t), "
                  f"m=10 pipeline success={success:.12f}, runtime={elapsed:.2f}s")
    assert worst < 1e-10
    assert success >= 1 - 1e-8
    assert elapsed < 60.0


def test_criterion_8_reduction_correctness():
    worst_reduction = 0.0
    for n in range(2, 65):
        size = GraphSize(n)
        basis = WalkBasis(size, marked=0)
        brute = reduce_operator(FullAdjacency(size).dense, basis)
        worst_reduction = max(worst_reduction, float(np.abs(brute - reduced_adjacency(size)).max()))
    rng = np.random.default_rng(88)
    worst_diagram = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        size = GraphSize(n)
        basis = WalkBasis(size, marked=int(rng.integers(0, size.N)))
        coeffs = random_state(rng, 4)
        t = float(rng.uniform(0, 2 * np.pi))
        projected = basis.project(walk_full(basis.lift(coeffs), t, size))
        worst_diagram = max(
            worst_diagram, float(np.abs(projected - walk_reduced(coeffs, t, size)).max())
        )
    ok = worst_reduction < 1e-12 and worst_diagram < 1e-10
    report(8, ok, f"max closed-form vs brute-force error={worst_reduction:.2e} (n=2..64), "
                  f"max commuting-diagram error={worst_diagram:.2e} (100 triples)")
    assert worst_reduction < 1e-12
    assert worst_diagram < 1e-10


def test_criterion_9_perturbation_baseline():
    worst_rel = 0.0
    for n in (256, 1024, 4096):
        size = GraphSize(n)
        gap = rotation_pair_gap(size, gamma=1.0 / n)
        predicted = 2.0 / np.sqrt(n)
        worst_rel = max(worst_rel, abs(gap - predicted) / predicted)
    ok = worst_rel < 0.10
    report(9, ok, f"max relative gap error={worst_rel:.4%} (n=256,1024,4096; target <10%)")
    assert worst_rel < 0.10
