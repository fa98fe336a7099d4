"""Command-line experiments.

Each experiment id maps to one reproducible dataset: the continuous-search
baseline trajectory (fig3-cg), the walk-from-marked periodicity sweep
(fig4-walk), the approximate route in dual coordinates (fig5-dual), the
approximate/deterministic comparison (fig6-compare), the odd-n route
(fig7-oddpath), exactness and query-count sweeps, and circuit equivalence
checks.  Outputs are CSV or JSON files plus a one-line summary on stdout;
identical configurations (including the seed) produce byte-identical files.

fig4-walk computes every sample in the 4-dim walk subspace, in one batched
dual-basis call, and writes its CSV as a trajectory, through
`RunReport.to_csv`.  `walk_full` runs only for its two full-space checks: the
drift after one 2*pi period, and the gap to the reduced data at sample
`samples // 2`.  The tests hold the written values within 1e-15 of a
40-digit mpmath reference at n = 9, 1024, 99,991 and 2^20.

verify-circuit compares each walk circuit with the dense exp(-i t A), which
it builds from one `walk_full` column through the graph's automorphisms.

sweep-determinism builds each size's schedule with the scalar builder and
evaluates the sizes in chunks of `_SWEEP_CHUNK`, each chunk in one stacked
pass of `dynamics._final_probabilities` through the runner that also steps
every `apply_schedule` run, so each value is bit for bit that of an
endpoint run per size.  A long range holds one chunk of schedules at a
time.  Its summary line gives the smallest final probability, and the
largest 1 - P with the first n where it occurs.

`main` builds its argument parser once per process, on the first call, and
parses every later `argv` with that same parser.

Exit codes: 0 success, 1 configuration error (also a run too large to
allocate, or an output file that cannot be written), 2 verification failure
(a runtime check of an expected invariant did not hold).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import circuit as circ
from . import schedules as sch
from .cg import CGConfig, cg_evolve, cg_prediction
from .dynamics import (
    FinishingRule,
    RunReport,
    Trajectory,
    _final_probabilities,
    apply_schedule,
    entangled_fidelity,
    group_probabilities,
    marked_state,
    uniform_state,
    walk_full,
    walk_reduced,
)
from .graphs import GraphSize, dual_basis

CONFIG_ERROR = 1
VERIFICATION_FAILURE = 2

EXPERIMENTS = {}


def _experiment(name):
    def register(func):
        EXPERIMENTS[name] = func
        return func

    return register


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; remap those to 1 so
    that 2 stays available for verification failures."""

    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise SystemExit(CONFIG_ERROR if status == 2 else status)


def _bare(schedule):
    """The schedule's p iterates alone: no tuning walk, no finishing map."""
    return dataclasses.replace(schedule, tail=(), finishing_rule=FinishingRule.NONE)


def _resolve_size(args, default_n):
    if args.n is not None and args.big_n is not None:
        raise ValueError("--n and --N are mutually exclusive")
    if args.big_n is not None:
        return GraphSize.from_vertex_count(args.big_n)
    return GraphSize(args.n if args.n is not None else default_n)


def _out_path(args, suffix=""):
    if args.out is not None:
        path = Path(args.out)
    else:
        path = Path(f"{args.experiment}.{args.format}")
    if suffix:
        path = path.with_name(f"{path.stem}-{suffix}{path.suffix}")
    return path


def _write_report(report: RunReport, path: Path, fmt: str) -> None:
    if fmt == "csv":
        with path.open("wb") as file:
            report.to_csv(file)
    else:
        path.write_text(report.to_json())


def _write_table(rows, header, path: Path, fmt: str) -> None:
    """Rows of ints, floats and bools as CSV, each float as '%.17g', which
    round-trips a double, or as JSON, where each float is a number."""
    if fmt == "csv":
        path.write_text("".join(
            ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in [header, *rows]))
    else:
        payload = [dict(zip(header, row)) for row in rows]
        path.write_text(json.dumps(payload, sort_keys=True, indent=2))


def _parse_n_list(text: str) -> list[int]:
    """Parse '8,12,16' or progression shorthand '8,12,...,64'.

    The value after '...' is an inclusive upper bound; it need not lie on
    the progression itself.  An empty list is refused, and an entry that is
    no integer is named with the option and the text.
    """
    if not text.strip():
        raise ValueError(f"empty n-list {text!r}; give at least one size")

    def size(part: str) -> int:
        try:
            return int(part)
        except ValueError:
            raise ValueError(f"--n-list {text!r}: {part!r} is not an integer") from None

    parts = [p.strip() for p in text.split(",")]
    if "..." in parts:
        i = parts.index("...")
        if i < 2 or i != len(parts) - 2:
            raise ValueError(f"bad n-list {text!r}; use start,next,...,end")
        start, nxt, end = size(parts[i - 2]), size(parts[i - 1]), size(parts[i + 1])
        step = nxt - start
        if step <= 0 or end < nxt:
            raise ValueError(f"bad n-list progression {text!r}")
        head = [size(p) for p in parts[: i - 2]]
        return head + list(range(start, end + 1, step))
    return [size(p) for p in parts]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@_experiment("fig3-cg")
def _run_fig3(args) -> int:
    size = _resolve_size(args, default_n=1024)
    gamma = args.gamma if args.gamma is not None else 1.0 / size.n
    predicted = cg_prediction(size)
    config = CGConfig(size=size, gamma=gamma, total_time=args.total_time, dt=args.dt)
    report = cg_evolve(config)
    _write_report(report, _out_path(args), args.format)
    probs = report.trajectory.probabilities[:, 0]
    times = report.trajectory.walk_time_so_far
    peak_index = int(probs.argmax())
    if args.total_time < predicted.peak_time:
        # the largest value so far is no peak: the run stopped on its way up
        found = (f"run ended at t={times[-1]:.3f} before the predicted peak, "
                 f"largest p={probs[peak_index]:.6f}")
    else:
        found = f"peak={probs[peak_index]:.6f} at t={times[peak_index]:.3f}"
    print(
        f"fig3-cg: N={size.N} gamma={gamma:.6g} {found} "
        f"(predicted ~0.5 at t={predicted.peak_time:.3f})"
    )
    return 0


@_experiment("fig4-walk")
def _run_fig4(args) -> int:
    size = _resolve_size(args, default_n=9)
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if not np.isfinite(args.t_max):
        raise ValueError(f"--t-max must be finite, got {args.t_max}")
    times = np.linspace(0.0, args.t_max, args.samples)
    probs = np.abs(walk_reduced(marked_state(size), times, size)) ** 2
    # the full space checks the reduced data: periodicity at 2 pi, and the
    # gap at one interior sample; group_probabilities refuses n = 2 here,
    # before any file is written.  The reduced marked state has the full
    # one's group probabilities, [1, 0, 0, 0], with no O(N) pass.
    start = marked_state(size, reduced=False)
    drift = float(np.max(np.abs(
        group_probabilities(walk_full(start, 2.0 * np.pi, size), size)
        - group_probabilities(marked_state(size), size))))
    check = args.samples // 2
    full = group_probabilities(walk_full(start, float(times[check]), size), size)
    gap = float(np.max(np.abs(full - probs[:, check])))
    if args.format == "csv":
        # the trajectory CSV's columns, with no queries
        trajectory = Trajectory(np.arange(args.samples), probs.T,
                                np.zeros(args.samples, dtype=np.int64), times)
        _write_report(RunReport(trajectory, float(probs[0, -1]), 0, float(args.t_max)),
                      _out_path(args), "csv")
    else:
        rows = [[index, *column, 0, t]
                for index, (column, t) in enumerate(zip(probs.T.tolist(), times.tolist()))]
        _write_table(rows, RunReport.CSV_HEADER, _out_path(args), args.format)
    print(f"fig4-walk: N={size.N} samples={args.samples} max |p(2pi) - p(0)| = {drift:.3g}, "
          f"max |p_full - p_reduced| at sample {check} = {gap:.3g}")
    return 0


@_experiment("fig5-dual")
def _run_fig5(args) -> int:
    size = _resolve_size(args, default_n=1024)
    schedule = sch.approx_schedule(size, finishing="none")
    report = apply_schedule(uniform_state(size), _bare(schedule), size, sample_every=4,
                            sample_basis="dual")
    _write_report(report, _out_path(args), args.format)
    # fidelity with the entangled target after the tuning walk: p iterates
    # through the closed-form spectrum, then the tail's unitary
    dual = dual_basis(size)
    block = schedule.spectrum.apply_powers(dual.to_dual(uniform_state(size)), schedule.p)
    state = sch.schedule_matrix(schedule.tail, dual) @ dual.from_dual(block)
    print(
        f"fig5-dual: N={size.N} p={schedule.p} "
        f"entangled fidelity={entangled_fidelity(state):.6f} "
        f"queries={schedule.oracle_queries}"
    )
    return 0


@_experiment("fig6-compare")
def _run_fig6(args) -> int:
    size = _resolve_size(args, default_n=12)
    p = args.p if args.p is not None else 2
    approx = sch.approx_schedule(size, finishing="none")
    det = sch.deterministic_schedule(size, p)
    rep_a = apply_schedule(uniform_state(size), _bare(approx), size, sample_every=4,
                           sample_basis="dual")
    rep_d = apply_schedule(uniform_state(size), _bare(det), size, sample_every=8,
                           sample_basis="dual")
    _write_report(rep_a, _out_path(args, "approx"), args.format)
    _write_report(rep_d, _out_path(args, "deterministic"), args.format)
    target = 1.0 / size.n
    hits = np.flatnonzero(np.abs(rep_d.trajectory.probabilities[:, 0] - target) <= 1e-9)
    hit = int(hits[0]) if hits.size else None
    print(
        f"fig6-compare: N={size.N} p={p} deterministic hits |<psi|b1*>|^2 = 1/n "
        f"at iteration {hit}"
    )
    if hit is None or hit > p:
        return VERIFICATION_FAILURE
    return 0


@_experiment("fig7-oddpath")
def _run_fig7(args) -> int:
    size = _resolve_size(args, default_n=1025)
    schedule = sch.odd_schedule(size, deterministic=False, p=args.p)
    report = apply_schedule(uniform_state(size), schedule, size, sample_every=2,
                            sample_basis="dual")
    _write_report(report, _out_path(args), args.format)
    print(
        f"fig7-oddpath: N={size.N} p={schedule.p} "
        f"final success probability={report.final_success_probability:.6f} "
        f"(expected about {(size.n - 1) / size.n:.6f})"
    )
    return 0


# sizes per stacked pass of sweep-determinism.  A size holds about 2.5 kB
# of schedule and 2 kB of stacked operands, so a chunk takes about 4.5 MB;
# chunks of 8,192 sizes took 36 MB, twice the peak RSS of a 16,383-size
# sweep, and ran no faster
_SWEEP_CHUNK = 1024


def _endpoint_rows(chunk, build):
    """(n, p, final success probability) for each size of the chunk: its
    schedules are built one by one and evaluated in one stacked pass."""
    schedules = [build(GraphSize(n)) for n in chunk]
    finals = _final_probabilities(schedules).tolist()
    return zip(chunk, [schedule.p for schedule in schedules], finals)


@_experiment("sweep-determinism")
def _run_sweep_determinism(args) -> int:
    n_values = _parse_n_list(args.n_list) if args.n_list is not None else list(range(8, 65, 4))
    if args.variant == "odd":
        build = functools.partial(sch.odd_schedule, deterministic=True, p=args.p)
    else:
        build = functools.partial(sch.deterministic_schedule, p=args.p)
    # one chunk of schedules at a time
    rows = [row for start in range(0, len(n_values), _SWEEP_CHUNK)
            for row in _endpoint_rows(n_values[start:start + _SWEEP_CHUNK], build)]
    _write_table(rows, ("n", "p", "final_probability"), _out_path(args), args.format)
    worst = min(1.0, min(final for _, _, final in rows))
    # the first size with the largest miss
    worst_n, _, worst_final = max(rows, key=lambda row: 1.0 - row[2])
    print(
        f"sweep-determinism: variant={args.variant} sizes={len(n_values)} "
        f"min final probability={worst:.12f}, "
        f"largest 1 - P = {1.0 - worst_final:.2e} at n={worst_n}"
    )
    return 0 if worst >= 1.0 - 1e-9 else VERIFICATION_FAILURE


@_experiment("sweep-queries")
def _run_sweep_queries(args) -> int:
    n_values = _parse_n_list(args.n_list) if args.n_list is not None else [64, 256, 1024, 4096]
    rows = []
    last_ratio = None
    for n in n_values:
        size = GraphSize(n)
        schedule = sch.deterministic_schedule(size, args.p)
        queries, walk_time = schedule.oracle_queries, schedule.total_walk_time
        ratio = queries / np.sqrt(size.N)
        last_ratio = ratio
        rows.append([n, size.N, schedule.p, queries, ratio, walk_time])
    _write_table(rows, ("n", "N", "p", "queries", "queries_per_sqrtN", "total_walk_time"),
                 _out_path(args), args.format)
    print(
        f"sweep-queries: largest n={n_values[-1]} queries/sqrt(N)={last_ratio:.4f} "
        f"(pi/(2 sqrt 2) = {np.pi / (2 * np.sqrt(2)):.4f})"
    )
    return 0


def _walk_unitary(size: GraphSize, t: float) -> np.ndarray:
    """exp(-i t A) as a dense N x N matrix, built from one `walk_full` column.

    Shifting the local index on both sides at once, and swapping the two
    sides, are automorphisms of the CIIN.  So column c is the column of
    vertex 0 with its rows permuted: entry (r, c) is that column's entry
    (r - c) mod n + n [r // n != c // n].
    """
    n = size.n
    column = walk_full(marked_state(size, reduced=False), t, size)
    row, col = np.ogrid[:size.N, :size.N]
    return column[(row - col) % n + n * (row // n != col // n)]


@_experiment("verify-circuit")
def _run_verify_circuit(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    checks = []
    ok = True
    for m in range(1, args.m_max + 1):
        size = GraphSize(2 ** m)
        worst = 0.0
        for t in rng.uniform(0.0, 2.0 * np.pi, size=args.trials):
            program = circ.walk_circuit(m, float(t))
            reconstructed = circ.reconstruct_unitary(program)
            exact = _walk_unitary(size, float(t))
            # compare up to a global phase
            anchor = np.unravel_index(np.argmax(np.abs(exact)), exact.shape)
            phase = reconstructed[anchor] / exact[anchor]
            worst = max(worst, float(np.max(np.abs(reconstructed - phase * exact))))
        checks.append(("walk-equivalence", m, worst, worst < 1e-10))
        ok &= worst < 1e-10
    ga = circ.walk_circuit(args.m_max, 0.3).gates
    gb = circ.walk_circuit(args.m_max, 5.1).gates
    constant = len(ga) == len(gb) and all(type(x) is type(y) for x, y in zip(ga, gb))
    checks.append(("gate-count-constant", args.m_max, float(len(ga)), constant))
    ok &= constant
    m = args.pipeline_m
    size = GraphSize(2 ** m)
    schedule = sch.deterministic_schedule(size)
    program = circ.compile_schedule(schedule, m)
    final = circ.simulate(program, uniform_state(size, reduced=False))
    success = float(abs(final[0]) ** 2)
    pipeline_ok = success >= 1.0 - 1e-9
    checks.append(("pipeline-success", m, success, pipeline_ok))
    ok &= pipeline_ok
    _write_table(checks, ("check", "m", "value", "passed"), _out_path(args), args.format)
    for name, level, value, passed in checks:
        print(f"verify-circuit: {name} (m={level}) value={value:.3g} "
              f"{'ok' if passed else 'FAILED'}")
    return 0 if ok else VERIFICATION_FAILURE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# one parser per process: it depends on no argument, and building it costs
# about 2 ms, as much as the whole work of a small experiment
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ciinwalk",
        description=(
            "Reproduce phase-walk search experiments on complete-identity "
            "interdependent networks as CSV/JSON data files."
        ),
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    descriptions = {
        "fig3-cg": "continuous-search baseline trajectory; ~50%% peak near (pi/(2 sqrt 2)) sqrt N",
        "fig4-walk": "walk from the marked vertex; group populations over one 2*pi period, "
                     "computed in the 4-dim walk subspace (within 1e-15 of a 40-digit "
                     "reference at the tested sizes); walk_full runs only for the 2*pi "
                     "drift and the full-space gap at sample samples//2",
        "fig5-dual": "approximate route per iterate, dual-basis populations",
        "fig6-compare": "approximate vs deterministic routes on one instance, dual basis",
        "fig7-oddpath": "odd-n route per iterate, dual-basis populations",
        "sweep-determinism": "final success probability across sizes for the exact routes",
        "sweep-queries": "oracle query counts of the deterministic pipeline vs sqrt(N)",
        "verify-circuit": "gate-level walk equivalence and compiled pipeline checks",
    }
    for name, description in descriptions.items():
        # no abbreviations: a flag that an experiment does not declare, such as
        # --n on sweep-queries, must not be read as a prefix of another (--n-list)
        p = sub.add_parser(name, help=description, description=description,
                           allow_abbrev=False)
        if name.startswith("fig"):
            p.add_argument("--n", type=int, default=None, help="side size n (half the vertices)")
            p.add_argument("--N", dest="big_n", type=int, default=None,
                           help="total vertex count N = 2n")
        if name in ("fig6-compare", "fig7-oddpath", "sweep-determinism", "sweep-queries"):
            p.add_argument("--p", type=int, default=None, help="iteration count override")
        if name == "sweep-determinism":
            p.add_argument("--variant", choices=("deterministic", "odd"),
                           default="deterministic",
                           help="exact route to sweep: deterministic for n = 0 mod 4, odd for "
                                "odd n; n = 2 mod 4 has no exact route (use approx_schedule)")
        p.add_argument("--out", type=str, default=None, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the random walk times of verify-circuit; "
                            "the other experiments are deterministic and ignore it")
        if name == "fig3-cg":
            p.add_argument("--gamma", type=float, default=None,
                           help="hopping rate (default: the critical 1/n)")
            p.add_argument("--total-time", type=float, default=60.0)
            p.add_argument("--dt", type=float, default=0.01)
        if name == "fig4-walk":
            p.add_argument("--t-max", type=float, default=2.0 * np.pi)
            p.add_argument("--samples", type=int, default=629)
        if name in ("sweep-determinism", "sweep-queries"):
            p.add_argument("--n-list", type=str, default=None,
                           help="comma list, supports '8,12,...,64' progressions")
        if name == "verify-circuit":
            p.add_argument("--m-max", type=int, default=6)
            p.add_argument("--trials", type=int, default=20)
            p.add_argument("--pipeline-m", type=int, default=10)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return EXPERIMENTS[args.experiment](args)
    except (ValueError, IndexError, MemoryError, OSError) as exc:
        print(f"{args.experiment}: error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
