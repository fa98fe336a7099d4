"""Every operation of the benchmark's workloads runs against the package at
tiny sizes, plain and traced: the names, attributes and outputs the bench
reads from `ciinwalk` must stay there."""

import pytest

from conftest import bench_module

tracing = bench_module("tracing")
workloads = bench_module("workloads")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_runs_plain_and_traced(name, tmp_path):
    workload = workloads.Workload(name, 5, tiny=True, scratch_root=tmp_path)
    try:
        plain = [workloads.run_op(op, workload) for op in workload.ops]
        with tracing.Tracer() as tracer:
            traced = [tracer.run_op(index, workloads.run_op, op, workload)
                      for index, op in enumerate(workload.ops)]
    finally:
        workload.close()
    assert plain and all(outcome.ok for outcome in plain + traced)
    assert [outcome.value for outcome in traced] == [outcome.value for outcome in plain]
    assert tracing.installed_wrappers() == []
