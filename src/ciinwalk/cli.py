"""Command-line experiments.

Each experiment id maps to one reproducible dataset: the continuous-search
baseline trajectory (fig3-cg), the walk-from-marked periodicity sweep
(fig4-walk), the approximate route in dual coordinates (fig5-dual), the
approximate/deterministic comparison (fig6-compare), the odd-n route
(fig7-oddpath), exactness and query-count sweeps, and circuit equivalence
checks.  Outputs are CSV or JSON files plus a one-line summary on stdout;
identical configurations (including the seed) produce byte-identical files.

Exit codes: 0 success, 1 configuration error, 2 verification failure (a
runtime check of an expected invariant did not hold).
"""

from __future__ import annotations

import argparse
import dataclasses
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
    apply_schedule,
    entangled_fidelity,
    group_probabilities,
    marked_state,
    uniform_state,
    walk_full,
)
from .graphs import GraphSize

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
    return dataclasses.replace(schedule, steps=schedule.iterate * schedule.p,
                               finishing_rule=FinishingRule.NONE)


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
    text = report.to_csv() if fmt == "csv" else report.to_json()
    path.write_text(text)


def _write_table(rows, header, path: Path, fmt: str) -> None:
    if fmt == "csv":
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in [header, *rows]))
    else:
        payload = [dict(zip(header, row)) for row in rows]
        path.write_text(json.dumps(payload, sort_keys=True, indent=2))


def _parse_n_list(text: str) -> list[int]:
    """Parse '8,12,16' or progression shorthand '8,12,...,64'.

    The value after '...' is an inclusive upper bound; it need not lie on
    the progression itself.
    """
    parts = [p.strip() for p in text.split(",")]
    if "..." in parts:
        i = parts.index("...")
        if i < 2 or i != len(parts) - 2:
            raise ValueError(f"bad n-list {text!r}; use start,next,...,end")
        start, nxt, end = int(parts[i - 2]), int(parts[i - 1]), int(parts[i + 1])
        step = nxt - start
        if step <= 0 or end < nxt:
            raise ValueError(f"bad n-list progression {text!r}")
        head = [int(p) for p in parts[: i - 2]]
        return head + list(range(start, end + 1, step))
    return [int(p) for p in parts]


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
    start = marked_state(size, reduced=False)
    rows = []
    for index, t in enumerate(times):
        state = walk_full(start, float(t), size)
        probs = group_probabilities(state, size)
        rows.append(
            [index]
            + [format(p, ".17g") for p in probs]
            + [0, format(float(t), ".17g")]
        )
    _write_table(rows, RunReport.CSV_HEADER, _out_path(args), args.format)
    end_probs = group_probabilities(walk_full(start, 2.0 * np.pi, size), size)
    drift = float(np.max(np.abs(end_probs - group_probabilities(start, size))))
    print(f"fig4-walk: N={size.N} samples={args.samples} max |p(2pi) - p(0)| = {drift:.3g}")
    return 0


@_experiment("fig5-dual")
def _run_fig5(args) -> int:
    size = _resolve_size(args, default_n=1024)
    schedule = sch.approx_schedule(size, finishing="none")
    report = apply_schedule(uniform_state(size), _bare(schedule), size, sample_every=4,
                            sample_basis="dual")
    _write_report(report, _out_path(args), args.format)
    # fidelity with the entangled target after the tuning walk
    state = sch.schedule_matrix(schedule.steps, size) @ uniform_state(size)
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


@_experiment("sweep-determinism")
def _run_sweep_determinism(args) -> int:
    n_values = _parse_n_list(args.n_list) if args.n_list else list(range(8, 65, 4))
    rows = []
    worst = 1.0
    for n in n_values:
        size = GraphSize(n)
        if args.variant == "odd":
            schedule = sch.odd_schedule(size, deterministic=True, p=args.p)
        else:
            schedule = sch.deterministic_schedule(size, args.p)
        report = apply_schedule(uniform_state(size), schedule, size,
                                sample_every=len(schedule.steps))
        final = report.final_success_probability
        worst = min(worst, final)
        rows.append([n, schedule.p, format(final, ".17g")])
    _write_table(rows, ("n", "p", "final_probability"), _out_path(args), args.format)
    print(
        f"sweep-determinism: variant={args.variant} sizes={len(n_values)} "
        f"min final probability={worst:.12f}"
    )
    return 0 if worst >= 1.0 - 1e-9 else VERIFICATION_FAILURE


@_experiment("sweep-queries")
def _run_sweep_queries(args) -> int:
    n_values = _parse_n_list(args.n_list) if args.n_list else [64, 256, 1024, 4096]
    rows = []
    last_ratio = None
    for n in n_values:
        size = GraphSize(n)
        schedule = sch.deterministic_schedule(size, args.p)
        queries, walk_time = schedule.oracle_queries, schedule.total_walk_time
        ratio = queries / np.sqrt(size.N)
        last_ratio = ratio
        rows.append(
            [n, size.N, schedule.p, queries,
             format(ratio, ".17g"), format(walk_time, ".17g")]
        )
    _write_table(rows, ("n", "N", "p", "queries", "queries_per_sqrtN", "total_walk_time"),
                 _out_path(args), args.format)
    print(
        f"sweep-queries: largest n={n_values[-1]} queries/sqrt(N)={last_ratio:.4f} "
        f"(pi/(2 sqrt 2) = {np.pi / (2 * np.sqrt(2)):.4f})"
    )
    return 0


@_experiment("verify-circuit")
def _run_verify_circuit(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    checks = []
    ok = True
    for m in range(1, args.m_max + 1):
        size = GraphSize(2 ** m)
        dim = size.N
        worst = 0.0
        for t in rng.uniform(0.0, 2.0 * np.pi, size=args.trials):
            program = circ.walk_circuit(m, float(t))
            reconstructed = circ.reconstruct_unitary(program)
            exact = np.empty((dim, dim), dtype=complex)
            basis = np.eye(dim, dtype=complex)
            for col in range(dim):
                exact[:, col] = walk_full(basis[:, col], float(t), size)
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
    pipeline_ok = success >= 1.0 - 1e-8
    checks.append(("pipeline-success", m, success, pipeline_ok))
    ok &= pipeline_ok
    rows = [[name, level, format(value, ".17g"), passed] for name, level, value, passed in checks]
    _write_table(rows, ("check", "m", "value", "passed"), _out_path(args), args.format)
    for name, level, value, passed in checks:
        print(f"verify-circuit: {name} (m={level}) value={value:.3g} "
              f"{'ok' if passed else 'FAILED'}")
    return 0 if ok else VERIFICATION_FAILURE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


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
        "fig4-walk": "walk from the marked vertex; group populations over one 2*pi period",
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
                           default="deterministic", help="exact route to sweep")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return EXPERIMENTS[args.experiment](args)
    except (ValueError, IndexError) as exc:
        print(f"{args.experiment}: error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
