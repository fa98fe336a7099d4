"""Seeded inputs and timed operations of the four benchmark workloads.

One operation is one verification: build the inputs, run them, and check the
answer against the package's own claim.  An operation that misses its claim
is counted as failed; it is still timed and never dropped.

The seed picks the sizes inside each octave and the marked vertices.  Seeded
sizes lie in the top 1/32 of their octave, just below a power of two, so the
work of a pass does not depend on the seed while the inputs do.  All library
calls go through module attributes at call time, so a tracer that swaps
wrappers onto those attributes sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import ciinwalk
from ciinwalk import circuit, cli, schedules

# Claims checked per operation (README and `ciinwalk verify-circuit`).
EXACT_GATE = 1e-9  # deterministic and odd routes: 1 - P
APPROX_FLOOR = 0.99  # approximate route: P
CIRCUIT_GATE = 1e-8  # compiled circuit pipeline: 1 - P
WALK_CIRCUIT_GATE = 1e-10  # walk circuit vs walk_full, up to a global phase

NAMES = ("reduced-ladder", "full-search", "circuit-pipeline", "cli-suite")
BUILDERS = {"det": "deterministic_schedule", "odd": "odd_schedule", "approx": "approx_schedule"}
# Steps per iterate: one trajectory sample per iterate on full-space runs.
ITERATE_STEPS = {"det": 8, "odd": 8, "approx": 4}


@dataclass(frozen=True)
class Op:
    """One verification.  `marked` is None for reduced 4-dim states."""

    route: str
    n: int = 0
    marked: int | None = None
    m: int = 0
    t: float = 0.0
    argv: tuple = ()
    outputs: tuple = ()

    @property
    def label(self):
        if self.route == "cli":
            return " ".join(self.argv[:3])
        if self.route == "walk-circuit":
            return f"walk-circuit m={self.m}"
        if self.route == "circuit":
            return f"circuit m={self.m}"
        space = "reduced" if self.marked is None else "full"
        return f"{self.route} {space} n={self.n}"


@dataclass(frozen=True)
class Outcome:
    ok: bool
    value: object  # compared bit for bit across passes
    infidelity: float | None = None  # 1 - P for routes that claim P = 1
    files: tuple = ()  # (name, bytes, sha256) of CLI outputs


def _seeded_n(rng, j, lattice):
    """A size n in (2^j (1 - 1/32), 2^j] on the route's lattice, widened to
    the top 4 integers where that band is empty."""
    top = 2 ** j
    width = max(top // 32, 4)
    if lattice == "mult4":
        return top - 4 * int(rng.integers(0, width // 4))
    if lattice == "odd":
        return top - 1 - 2 * int(rng.integers(0, width // 2))
    return top - int(rng.integers(0, width))


def _reduced_ladder(rng, tiny):
    # Pinned sizes are the seed's known precision failures (ROADMAP item 3):
    # 1 - P is 4.5e-9 at det 2^28, 2.9e-7 at det 2^30, 7.0e-8 at odd 2^28+1.
    if tiny:
        det_j, odd_j, approx_j = range(4, 10), range(3, 10), range(7, 10)
        pinned = [("det", 2 ** 11), ("odd", 2 ** 10 + 1), ("approx", 2 ** 10)]
    else:
        det_j, odd_j, approx_j = range(4, 28), range(3, 28), range(7, 24)
        pinned = [("det", 2 ** 28), ("det", 2 ** 30), ("odd", 2 ** 28 + 1), ("approx", 2 ** 24)]
    # approx starts at the octave ending at 2^7: README claims the 0.99 floor
    # at the criterion sizes n = 64, 256, 1024, and some n in 38..80 fall below.
    ops = [Op("det", _seeded_n(rng, j, "mult4")) for j in det_j]
    ops += [Op("odd", _seeded_n(rng, j, "odd")) for j in odd_j]
    ops += [Op("approx", _seeded_n(rng, j, "any")) for j in approx_j]
    ops += [Op(route, n) for route, n in pinned]
    return ops


def _full_search(rng, tiny):
    # N = 2^14 .. 2^17: states of 256 KiB up to the 2 MiB L2.  Odd and approx
    # stop at 2^16 to keep a pass near 6 s; their steps are the same kernels.
    levels = {"det": range(8, 11), "odd": range(8, 10), "approx": range(8, 10)} if tiny else \
        {"det": range(14, 18), "odd": range(14, 17), "approx": range(14, 17)}
    lattice = {"det": "mult4", "odd": "odd", "approx": "any"}
    ops = []
    for route, ks in levels.items():
        for k in ks:
            n = _seeded_n(rng, k - 1, lattice[route])
            ops.append(Op(route, n, marked=int(rng.integers(0, 2 * n))))
    return ops


def _circuit_pipeline(rng, tiny):
    ms, walk_m = ((3, 4), 6) if tiny else ((10, 12, 13, 14), 20)
    ops = [Op("circuit", 2 ** m, marked=int(rng.integers(0, 2 ** (m + 1))), m=m) for m in ms]
    ops.append(Op("walk-circuit", 2 ** walk_m, m=walk_m, t=float(rng.uniform(0.0, 2.0 * math.pi))))
    return ops


def _cli_suite(rng, tiny):
    # README defaults, then the large cases that make writing dominate.
    if tiny:
        cases = [
            ("fig3-cg", "--N", "256", "--total-time", "30"),
            ("fig4-walk", "--n", "9", "--samples", "33"),
            ("fig5-dual", "--n", "64"),
            ("fig6-compare", "--N", "24"),
            ("fig7-oddpath", "--N", "130"),
            ("sweep-determinism", "--n-list", "8,12,...,32"),
            ("sweep-determinism", "--variant", "odd", "--n-list", "9,13,...,29"),
            ("sweep-queries", "--n-list", "64,256", "--format", "json"),
            ("verify-circuit", "--m-max", "3", "--trials", "2", "--pipeline-m", "4"),
        ]
    else:
        cases = [
            ("fig3-cg", "--N", "2048"),
            ("fig4-walk", "--n", "9"),
            ("fig5-dual", "--n", "1024"),
            ("fig6-compare", "--N", "24"),
            ("fig7-oddpath", "--N", "2050"),
            ("sweep-determinism", "--n-list", "8,12,...,64"),
            ("sweep-determinism", "--variant", "odd", "--n-list", "9,13,...,63"),
            ("sweep-queries", "--format", "json"),
            ("verify-circuit",),
            # about 21 MB of CSV: 198k samples across two success peaks
            ("fig3-cg", "--N", str(2 ** 20), "--total-time", "2275", "--dt", "0.0115"),
            ("fig4-walk", "--N", str(2 ** 21), "--samples", "33"),
            ("fig5-dual", "--n", str(2 ** 20), "--format", "json"),
            ("fig7-oddpath", "--n", str(2 ** 20 + 1)),
        ]
    seed = str(int(rng.integers(0, 2 ** 31)))
    ops = []
    for index, case in enumerate(cases):
        ext = "json" if "json" in case else "csv"
        out = f"out{index}.{ext}"
        outputs = (f"out{index}-approx.{ext}", f"out{index}-deterministic.{ext}") \
            if case[0] == "fig6-compare" else (out,)
        ops.append(Op("cli", argv=case + ("--out", out, "--seed", seed), outputs=outputs))
    return ops


# Passes per run: a fixed count keeps the rank of op_tail_s among the pooled
# samples the same from run to run; each fits in 30 s in the host's slow mode.
PASSES = {"reduced-ladder": 4, "full-search": 4, "circuit-pipeline": 7, "cli-suite": 3}

GENERATORS = {
    "reduced-ladder": _reduced_ladder,
    "full-search": _full_search,
    "circuit-pipeline": _circuit_pipeline,
    "cli-suite": _cli_suite,
}


class Workload:
    """Generated inputs of one workload plus what its operations need."""

    def __init__(self, name, seed, tiny=False, scratch_root=None):
        self.name = name
        self.passes = PASSES[name]
        rng = np.random.default_rng(seed)
        self.ops = GENERATORS[name](rng, tiny)
        self.state = None
        self.outdir = None
        walk = [op for op in self.ops if op.route == "walk-circuit"]
        if walk:
            dim = 2 * walk[0].n
            state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            self.state = state / np.linalg.norm(state)
        if name == "cli-suite":
            self.outdir = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch_root))

    def close(self):
        if self.outdir is not None:
            shutil.rmtree(self.outdir, ignore_errors=True)
            self.outdir = None

    def inputs(self):
        return [asdict(op) for op in self.ops]

    def full_lengths(self):
        """State lengths of the full-space operations, for the copy floor."""
        lengths = {2 * op.n for op in self.ops if op.marked is not None or op.route == "walk-circuit"}
        return sorted(lengths)

    def warm_up(self):
        """One untimed call that loads the code paths and the largest arrays."""
        if self.name == "reduced-ladder":
            run_op(Op("det", 16), self)
        elif self.name == "full-search":
            size = ciinwalk.GraphSize(max(op.n for op in self.ops))
            ciinwalk.walk_full(ciinwalk.uniform_state(size, reduced=False), 1.0, size)
        elif self.name == "circuit-pipeline":
            run_op(Op("circuit", 8, marked=3, m=3), self)
            ciinwalk.walk_full(self.state, 1.0, ciinwalk.GraphSize(len(self.state) // 2))
        else:
            run_op(next(op for op in self.ops if op.argv[0] == "fig6-compare"), self)


def _run_route(op):
    size = ciinwalk.GraphSize(op.n)
    schedule = getattr(schedules, BUILDERS[op.route])(size)
    if op.marked is None:
        state = ciinwalk.uniform_state(size)
        every = len(schedule.steps)  # endpoints only
    else:
        state = ciinwalk.uniform_state(size, reduced=False)
        every = ITERATE_STEPS[op.route]
    report = ciinwalk.apply_schedule(state, schedule, size, sample_every=every,
                                     marked=op.marked or 0)
    p = report.final_success_probability
    if op.route == "approx":
        return Outcome(p >= APPROX_FLOOR, p)
    return Outcome(1.0 - p <= EXACT_GATE, p, 1.0 - p)


def _run_circuit(op):
    size = ciinwalk.GraphSize(op.n)
    schedule = schedules.deterministic_schedule(size)
    program = circuit.compile_schedule(schedule, op.m, op.marked)
    final = circuit.simulate(program, ciinwalk.uniform_state(size, reduced=False))
    p = float(abs(final[op.marked]) ** 2)
    return Outcome(1.0 - p <= CIRCUIT_GATE, p, 1.0 - p)


def _run_walk_circuit(op, state):
    size = ciinwalk.GraphSize(op.n)
    gates = circuit.simulate(circuit.walk_circuit(op.m, op.t), state)
    exact = ciinwalk.walk_full(state, op.t, size)
    overlap = np.vdot(exact, gates)
    deviation = float(np.max(np.abs(gates - overlap / abs(overlap) * exact)))
    return Outcome(deviation <= WALK_CIRCUIT_GATE, deviation)


def _run_cli(op, outdir):
    paths = [outdir / name for name in op.outputs]
    for path in paths:
        path.unlink(missing_ok=True)
    argv = list(op.argv)
    out_index = argv.index("--out") + 1
    argv[out_index] = str(outdir / argv[out_index])
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    files = tuple(
        (path.name, path.stat().st_size, hashlib.sha256(path.read_bytes()).hexdigest())
        for path in paths if path.is_file()
    )
    return Outcome(code == 0 and len(files) == len(paths), (code, files), files=files)


def run_op(op, workload):
    if op.route == "cli":
        return _run_cli(op, workload.outdir)
    if op.route == "circuit":
        return _run_circuit(op)
    if op.route == "walk-circuit":
        return _run_walk_circuit(op, workload.state)
    return _run_route(op)
