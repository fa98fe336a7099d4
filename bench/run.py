"""Benchmark of ciinwalk verifications: end-to-end timings or a traced run.

    python3 bench/run.py --workload reduced-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in one single-threaded process.  A run makes a fixed
number of passes over the workload's operations, so that pooled percentiles
do not shift with the pass count; --seconds caps the measuring time and
cuts the run short only on a much slower machine.  --trace 0 reports
the end-to-end metrics, timed in seconds at a reference speed read from a
calibration loop run beside each operation (see Calibration); --trace 1
alternates untraced and traced passes and reports the per-layer metrics
with the tracing overhead.  Human-readable
lines come first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The full record (inputs, per
operation times, environment, CLI output digests) goes to bench/results/.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

SETUP_PROBES = 7
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many samples beyond it
# Seconds the calibration loop takes on the reference host (2-vCPU Xeon VM,
# 2.1 GHz nominal, Python 3.11) in its fast mode, rounded.  Timings are
# reported as seconds at that speed; see Calibration.
CAL_REFERENCE_S = 1.0e-3

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="reduced-ladder, full-search, circuit-pipeline, cli-suite or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def check_package():
    """The package must come from this checkout's src/, never from elsewhere."""
    if not (SRC / "ciinwalk" / "__init__.py").is_file():
        return f"no ciinwalk sources under {SRC}"
    import ciinwalk

    if SRC.resolve() not in Path(ciinwalk.__file__).resolve().parents:
        return f"ciinwalk imported from {ciinwalk.__file__}, not from {SRC}"
    return None


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Calibration:
    """A fixed pure-Python loop, timed beside every operation to read the
    host's current speed.

    The shared host switches between a fast and a slow mode, about 1.5x
    apart, for seconds to minutes at a time, so raw seconds drift by more
    than any estimator inside one run can remove.  Each operation's time is
    scaled by CAL_REFERENCE_S over the mean of the calibrations taken just
    before it, inside it (see SpeedProbe) and just after it.  The loop
    touches neither ciinwalk nor numpy, so a change to either moves the
    scaled time in full, and the loop's speed does not depend on what the
    operations left in memory.  (Loops of numpy work were tried and
    rejected: their speed followed the allocator's state after the CLI's
    large writes, and a 4x4 matmul loop switched modes of its own.)
    """

    ITERATIONS = 20_000

    def _loop(self):
        total = 0.0
        for i in range(self.ITERATIONS):
            total += i * 0.5
        return total

    def __call__(self):
        """Seconds of the fastest of three loops."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._loop()
            best = min(best, time.perf_counter() - t0)
        return best


class SpeedProbe:
    """Calibrations taken inside an operation, so that a switch of the host's
    speed mode in the middle of a long operation is seen.

    A SIGALRM interval timer interrupts the operation every INTERVAL
    seconds.  The handler runs one calibration in the same thread, between
    two bytecodes of the operation, and its own time is taken out of the
    operation's time.  Operations shorter than INTERVAL get no sample.
    """

    INTERVAL = 0.1

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(self.calibrate())
        self.spent += time.perf_counter() - start

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def measure_setup(args, calibrate):
    """Time from a fresh interpreter through import, input generation and one
    warm-up call, over SETUP_PROBES sequential child processes: raw seconds
    and seconds at the reference speed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    raw, adjusted = [], []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {code}")
        raw.append(elapsed)
        adjusted.append(elapsed * CAL_REFERENCE_S / statistics.fmean([before, calibrate()]))
    return raw, adjusted


def run_pass(workload, calibrate, tracer=None):
    """One pass over the operations, with a calibration before the first and
    after each, and in an untraced pass also inside each.  `wall` is the sum
    of the raw operation times; `speed` holds each operation's mean
    calibration."""
    from workloads import Outcome, run_op

    times, speed, outcomes, errors = [], [], [], []
    before = calibrate()
    for index, op in enumerate(workload.ops):
        probe = SpeedProbe(calibrate)
        if tracer is None:
            probe.start()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = run_op(op, workload)
            else:
                outcome = tracer.run_op(index, run_op, op, workload)
        except Exception:  # an accepted input that crashes is a failed operation
            outcome = Outcome(False, None)
            errors.append((op.label, traceback.format_exc()))
        finally:
            if tracer is None:
                probe.stop()
        times.append(time.perf_counter() - t0 - probe.spent)
        after = calibrate()
        speed.append(statistics.fmean([before, after] + probe.samples))
        before = after
        outcomes.append(outcome)
    adjusted = [t * CAL_REFERENCE_S / s for t, s in zip(times, speed)]
    return {"wall": sum(times), "times": times, "adjusted": adjusted, "speed": speed,
            "outcomes": outcomes, "errors": errors, "tracer": tracer}


def measure(workload, calibrate, seconds, trace):
    """Make the workload's fixed number of passes, stopping early only when
    the next pass would overrun `seconds`.  With tracing, passes alternate
    untraced and traced, with at least one of each."""
    from tracing import Tracer

    minimum = 2 if trace else 1
    passes = []
    start = time.perf_counter()
    for index in range(max(workload.passes, minimum)):
        longest = max((p["wall"] for p in passes), default=0.0)
        if index >= minimum and time.perf_counter() - start + longest > seconds:
            break
        if trace and index % 2 == 1:
            with Tracer() as tracer:
                passes.append(run_pass(workload, calibrate, tracer))
        else:
            passes.append(run_pass(workload, calibrate))
    return passes


def copy_seconds(length):
    """Median time of one state.copy() at this length: the copy floor."""
    import numpy as np

    state = np.ones(length, dtype=complex)
    reps = max(5, min(200, int(2e8 // (16 * length))))
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        state.copy()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(passes, setup):
    """The gated metrics, in seconds at the reference speed, and the same
    statistics of the raw seconds."""
    untraced = [p for p in passes if p["tracer"] is None]

    def timings(key, setup_times):
        pooled = [t for p in untraced for t in p[key]]
        tail_value, tail_pct = tail(pooled)
        return {
            "wall_s": statistics.median(sum(p[key]) for p in untraced),
            "op_p50_s": statistics.median(pooled),
            "op_tail_s": tail_value,
            "setup_s": statistics.median(setup_times),
        }, tail_pct, len(pooled)

    metrics, tail_pct, count = timings("adjusted", setup[1])
    raw, _, _ = timings("times", setup[0])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes = {
        "wall_s": f"median of {len(untraced)} passes",
        "op_tail_s": f"p{tail_pct:.1f} of {count} samples, "
                     f"{min(TAIL_BEYOND, count - 1)} beyond",
        "setup_s": f"median of {len(setup[1])} fresh interpreters",
    }
    for name, value in raw.items():
        notes[name] = f"raw {value:.6g} s; " + notes.get(name, "")
    return {name: metrics[name] for name in END_TO_END_UNITS}, raw, notes


def layer_metrics(pass_, copy_s, untraced_wall):
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    layers = pass_["tracer"].layers

    def self_s(name):
        return layers[name].self_ns / 1e9

    def copy_ratio(name):
        # full states only; the 4-dim reduced state has no meaningful floor
        buckets = {n: v for n, v in layers[name].by_length.items() if n > 4}
        floor = sum(calls * copy_s[n] for n, (calls, _) in buckets.items())
        return sum(ns for _, ns in buckets.values()) / 1e9 / floor if floor else 0.0

    walk_reduced = layers["dynamics.walk_reduced"]
    simulate = layers["circuit.simulate"]
    walk_full_bytes = sum(calls * 2 * 16 * n
                          for n, (calls, _) in layers["dynamics.walk_full"].by_length.items())
    bytes_written = sum(size for outcome in pass_["outcomes"] for _, size, _ in outcome.files)
    return {
        "graphs.dual_basis.calls": (layers["graphs.dual_basis"].calls, "count"),
        "graphs.dual_basis.self_s": (self_s("graphs.dual_basis"), "s"),
        "dynamics.walk_reduced.calls": (walk_reduced.calls, "count"),
        "dynamics.walk_reduced.self_s": (self_s("dynamics.walk_reduced"), "s"),
        "dynamics.walk_reduced.us_per_call": (
            walk_reduced.total_ns / 1e3 / walk_reduced.calls if walk_reduced.calls else 0.0, "us"),
        "dynamics.walk_full.calls": (layers["dynamics.walk_full"].calls, "count"),
        "dynamics.walk_full.self_s": (self_s("dynamics.walk_full"), "s"),
        "dynamics.walk_full.copy_ratio": (copy_ratio("dynamics.walk_full"), "ratio"),
        "dynamics.walk_full.bytes_computed": (walk_full_bytes, "B"),
        "dynamics.oracle_phase.calls": (layers["dynamics.oracle_phase"].calls, "count"),
        "dynamics.oracle_phase.self_s": (self_s("dynamics.oracle_phase"), "s"),
        "dynamics.oracle_phase.copy_ratio": (copy_ratio("dynamics.oracle_phase"), "ratio"),
        "dynamics.group_probabilities.calls": (layers["dynamics.group_probabilities"].calls, "count"),
        "dynamics.group_probabilities.self_s": (self_s("dynamics.group_probabilities"), "s"),
        "dynamics.apply_schedule.self_s": (self_s("dynamics.apply_schedule"), "s"),
        "dynamics.apply_schedule.samples": (layers["dynamics.apply_schedule"].work, "count"),
        "schedules.build.calls": (layers["schedules.build"].calls, "count"),
        "schedules.build.self_s": (self_s("schedules.build"), "s"),
        "schedules.steps_emitted": (layers["schedules.build"].work, "count"),
        "schedules.schedule_matrix.self_s": (self_s("schedules.schedule_matrix"), "s"),
        "cg.cg_evolve.self_s": (self_s("cg.cg_evolve"), "s"),
        "cg.samples": (layers["cg.cg_evolve"].work, "count"),
        "circuit.compile_schedule.self_s": (self_s("circuit.compile_schedule"), "s"),
        "circuit.gates_compiled": (layers["circuit.compile_schedule"].work, "count"),
        "circuit.simulate.self_s": (self_s("circuit.simulate"), "s"),
        "circuit.simulate.ns_per_gate_amp": (
            simulate.self_ns / simulate.work if simulate.work else 0.0, "ns"),
        "circuit.reconstruct_unitary.self_s": (self_s("circuit.reconstruct_unitary"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.serialize.self_s": (self_s("cli.serialize"), "s"),
        "cli.bytes_written": (bytes_written, "B"),
        "bench.harness.self_s": (self_s("bench.op"), "s"),
        "trace.wall_s": (pass_["wall"], "s"),
        "trace.overhead_s": (pass_["wall"] - untraced_wall, "s"),
    }


def per_layer(passes, copy_s):
    untraced_wall = statistics.median(p["wall"] for p in passes if p["tracer"] is None)
    per_pass = [layer_metrics(p, copy_s, untraced_wall) for p in passes if p["tracer"] is not None]
    medians = {}
    for name, (_, unit) in per_pass[0].items():
        value = statistics.median(m[name][0] for m in per_pass)
        medians[name] = (round(value) if unit in ("count", "B") else value, unit)
    return medians


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _bytes(text):
    """'4 MiB (2 instances)' -> bytes per instance."""
    match = re.match(r"([\d.]+)\s*([KMG])i?B(?:\s*\((\d+) instances?\))?", text or "")
    if not match:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[match.group(2)]
    return int(float(match.group(1)) * scale) // int(match.group(3) or 1)


def cache_sizes():
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                              check=True).stdout
    except (OSError, subprocess.SubprocessError):
        text = ""
    caches = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L1d cache", "L2 cache", "L3 cache"):
            caches[key.split()[0]] = value.strip()
    return caches


def process_threads():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(copy_s):
    import numpy as np

    caches = cache_sizes()
    l2 = _bytes(caches.get("L2"))
    l3 = _bytes(caches.get("L3"))
    states = [{
        "N": n,
        "state_bytes": 16 * n,
        "copy_s": copy_s[n],
        "vs_l2": 16 * n / l2 if l2 else None,
        "vs_l3": 16 * n / l3 if l3 else None,
    } for n in sorted(copy_s)]
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "process_threads": process_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "lscpu_caches": caches,
        "l2_bytes_per_core": l2,
        "l3_bytes_shared": l3,
        "states": states,
        "roofline_note": "the largest state (N = 2^21, 32 MiB) is far below 4x the "
                         "last-level cache, so copy_ratio is a ratio to a cached copy, "
                         "not a bandwidth roofline",
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_all(args):
    from workloads import NAMES

    status = 0
    for name in NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        status = max(status, subprocess.run(command).returncode)
    return status


def consistent(passes):
    """Every operation gives the same answer on every pass, traced or not."""
    first = passes[0]["outcomes"]
    return all(o.value == f.value for p in passes[1:] for o, f in zip(p["outcomes"], first))


def report(workload, args, passes, setup):
    outcomes = [(op, o) for p in passes for op, o in zip(workload.ops, p["outcomes"])]
    attempted = len(outcomes)
    failed = sum(not o.ok for _, o in outcomes)
    errors = [e for p in passes for e in p["errors"]]
    correct = not errors and consistent(passes)
    infidelities = [(o.infidelity, op.label) for op, o in outcomes if o.infidelity is not None]
    worst = max(infidelities, default=(None, None), key=lambda x: x[0] or 0.0)

    lengths = set(workload.full_lengths())
    for p in passes:
        if p["tracer"] is not None:
            for layer in p["tracer"].layers.values():
                lengths.update(n for n in layer.by_length if n > 4)
    copy_s = {n: copy_seconds(n) for n in sorted(lengths)}
    e2e, raw, notes = end_to_end(passes, setup)
    layers = per_layer(passes, copy_s) if args.trace else None
    env = environment(copy_s)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "command": ["python3", "bench/run.py"] + sys.argv[1:],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "inputs": workload.inputs(),
        "passes": [{
            "traced": p["tracer"] is not None,
            "wall_s": p["wall"],
            "speed_s": p["speed"],
            "ops": [{"seconds": t, "adjusted_s": a, "ok": o.ok, "infidelity": o.infidelity,
                     "files": [list(f) for f in o.files]}
                    for t, a, o in zip(p["times"], p["adjusted"], p["outcomes"])],
        } for p in passes],
        "errors": errors,
        "failures": sorted({op.label for op, o in outcomes if not o.ok}),
        "setup_s_samples": setup[0],
        "setup_adjusted_s_samples": setup[1],
        "calibration_reference_s": CAL_REFERENCE_S,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "end_to_end_raw_s": raw,
        "fail_frac": failed / attempted,
        "max_infidelity": worst[0],
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in (layers or {}).items()},
        "environment": env,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    for p in passes:
        if p["tracer"] is not None:
            p["tracer"].write_spans(RESULTS / f"{stem}-spans.csv.gz")
            break

    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed={args.seed} {mode}: {len(passes)} passes, "
          f"{len(workload.ops)} operations each; record in {RESULTS / stem}.json")
    for label, text in errors:
        print(f"  error in {label}:\n{text}")
    for label in record["failures"]:
        print(f"  failed claim: {label}")
    if args.trace:
        wall = layers["trace.wall_s"][0]
        for name, (value, unit) in layers.items():
            share = f"  {100 * value / wall:5.1f}% of traced wall" \
                if name.endswith("self_s") and wall else ""
            print(f"  {name:40s} {value:14.6g} {unit}{share}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        for name, value in e2e.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:16s} {value:12.6g} {END_TO_END_UNITS[name]}{note}")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(f"  {'fail_frac':16s} {failed / attempted:12.6g} ratio  ({failed} of {attempted})")
    print(f"  {'max_infidelity':16s} {worst[0] if worst[0] is not None else float('nan'):12.6g} "
          f"1-P  ({worst[1] or 'no operation claims P = 1'})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    problem = check_package()
    if problem:
        print(f"bench/run.py: {problem}", file=sys.stderr)
        return 2
    from workloads import NAMES, Workload

    if args.workload == "all":
        return run_all(args)
    if args.workload not in NAMES:
        print(f"bench/run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    if args.setup_probe:
        workload = Workload(args.workload, args.seed, args.tiny, RESULTS)
        try:
            workload.warm_up()
            print("ready", flush=True)
        finally:
            workload.close()
        return 0
    calibrate = Calibration()
    calibrate()  # warm-up
    setup = measure_setup(args, calibrate)
    workload = Workload(args.workload, args.seed, args.tiny, RESULTS)
    try:
        workload.warm_up()
        passes = measure(workload, calibrate, args.seconds, args.trace)
        return report(workload, args, passes, setup)
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
