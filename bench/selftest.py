"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench/selftest.py -q

The file name keeps these tests out of the package's own test collection.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import pytest

import run  # noqa: F401  (sets the thread variables and the src/ path first)
import tracing
import workloads
from ciinwalk import dynamics, graphs

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CALIBRATE = run.Calibration()


def _workload(name, seed=5):
    return workloads.Workload(name, seed, tiny=True, scratch_root=run.RESULTS)


@pytest.fixture(autouse=True)
def _results_dir():
    run.RESULTS.mkdir(exist_ok=True)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_and_untraced_runs_agree(name):
    workload = _workload(name)
    try:
        plain = run.run_pass(workload, CALIBRATE)
        with tracing.Tracer() as tracer:
            traced = run.run_pass(workload, CALIBRATE, tracer)
    finally:
        workload.close()
    assert not plain["errors"] and not traced["errors"]
    assert [o.value for o in plain["outcomes"]] == [o.value for o in traced["outcomes"]]
    assert all(o.ok for o in plain["outcomes"])


def test_wrappers_are_removed_after_a_traced_run():
    originals = (dynamics.walk_full, dynamics.apply_schedule, graphs.dual_basis,
                 graphs.DualBasis.__dict__["matrix"], dynamics.RunReport.__dict__["to_csv"])
    workload = _workload("cli-suite")
    try:
        with pytest.raises(RuntimeError):
            with tracing.Tracer():
                assert tracing.installed_wrappers()
                run.run_pass(workload, CALIBRATE)
                raise RuntimeError("leave the traced block by an exception")
    finally:
        workload.close()
    assert tracing.installed_wrappers() == []
    assert originals == (dynamics.walk_full, dynamics.apply_schedule, graphs.dual_basis,
                         graphs.DualBasis.__dict__["matrix"], dynamics.RunReport.__dict__["to_csv"])


def test_self_times_add_up_to_the_traced_wall():
    workload = _workload("reduced-ladder")
    untraced, traced = [], []
    for _ in range(3):
        untraced.append(run.run_pass(workload, CALIBRATE)["wall"])
        with tracing.Tracer() as tracer:
            traced.append((run.run_pass(workload, CALIBRATE, tracer), tracer))
    workload.close()
    overhead = statistics.median(p["wall"] for p, _ in traced) - statistics.median(untraced)
    assert overhead > 0
    for pass_, tracer in traced:
        self_s = sum(layer.self_ns for layer in tracer.layers.values()) / 1e9
        assert 0 <= pass_["wall"] - self_s <= overhead
        assert set(tracer.layers) >= {"dynamics.walk_reduced", "graphs.dual_basis", "bench.op"}


def test_adjusted_times_scale_raw_times_by_the_calibrations_around_them():
    workload = _workload("full-search")
    try:
        pass_ = run.run_pass(workload, CALIBRATE)
    finally:
        workload.close()
    assert len(pass_["speed"]) == len(pass_["times"]) and min(pass_["speed"]) > 0
    for raw, adjusted, speed in zip(pass_["times"], pass_["adjusted"], pass_["speed"]):
        assert adjusted == pytest.approx(raw * run.CAL_REFERENCE_S / speed, rel=1e-12)
    assert pass_["wall"] == pytest.approx(sum(pass_["times"]), rel=1e-12)


def test_speed_probe_samples_inside_an_operation_and_is_taken_out_of_its_time():
    previous = signal.getsignal(signal.SIGALRM)
    probe = run.SpeedProbe(CALIBRATE)
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 3.5 * probe.INTERVAL:
        pass
    probe.stop()
    assert len(probe.samples) >= 2
    assert 0 < probe.spent < time.perf_counter() - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_inputs_follow_the_seed_and_the_route_constraints():
    first, again, other = (workloads.Workload("reduced-ladder", s).inputs() for s in (7, 7, 8))
    assert first == again and first != other
    for op in workloads.Workload("reduced-ladder", 7).ops + workloads.Workload("full-search", 7).ops:
        if op.route == "det":
            assert op.n % 4 == 0
        if op.route == "odd":
            assert op.n % 2 == 1
        if op.marked is not None:
            assert 0 <= op.marked < 2 * op.n
    circuit_ops = workloads.Workload("circuit-pipeline", 7).ops
    assert all(op.n == 2 ** op.m for op in circuit_ops)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace):
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "30", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name in ("fail_frac", "max_infidelity"):
        assert name in out
    if not trace:
        assert "samples, 10 beyond" in out


def test_fails_without_the_package_sources():
    bare = tempfile.mkdtemp(dir=run.RESULTS)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, f"{bare}/bench", ignore=shutil.ignore_patterns("results"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli-suite", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
