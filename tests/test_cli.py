import csv
import hashlib
import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ciinwalk.cg
import ciinwalk.cli
from ciinwalk import dynamics, schedules
from ciinwalk.cli import main
from ciinwalk.dynamics import group_probabilities, marked_state, walk_full, walk_reduced
from ciinwalk.graphs import GraphSize

from conftest import traced_peak


def run_in(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return main(argv)


class TestConfigHandling:
    def test_mutually_exclusive_size_flags(self, tmp_path, monkeypatch, capsys):
        code = run_in(tmp_path, monkeypatch, ["fig3-cg", "--n", "8", "--N", "16"])
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_experiment_exits_one(self):
        with pytest.raises(SystemExit) as info:
            main(["fig9-unknown"])
        assert info.value.code == 1

    def test_unsupported_size_names_divisibility(self, tmp_path, monkeypatch, capsys):
        code = run_in(tmp_path, monkeypatch, ["fig6-compare", "--N", "20"])
        assert code == 1
        assert "4" in capsys.readouterr().err

    def test_odd_size_rejected_for_odd_variant_config(self, tmp_path, monkeypatch, capsys):
        code = run_in(
            tmp_path, monkeypatch,
            ["sweep-determinism", "--variant", "odd", "--n-list", "8"],
        )
        assert code == 1
        assert "odd" in capsys.readouterr().err

    def test_size_2_mod_4_names_the_approximate_route(self, tmp_path, monkeypatch, capsys):
        code = run_in(tmp_path, monkeypatch, ["sweep-determinism", "--n-list", "10"])
        assert code == 1
        assert "n = 2 mod 4 has no exact route; use approx_schedule" in capsys.readouterr().err

    def test_approx_variant_has_no_determinism_sweep(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as info:
            run_in(
                tmp_path, monkeypatch,
                ["sweep-determinism", "--variant", "approx", "--n-list", "8"],
            )
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert "--variant" in err and "'approx'" in err
        assert not (tmp_path / "sweep-determinism.csv").exists()

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_verify_circuit_needs_a_trial(self, tmp_path, monkeypatch, capsys, trials):
        code = run_in(tmp_path, monkeypatch, ["verify-circuit", "--trials", trials])
        assert code == 1
        assert "--trials" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_fig4_needs_a_sample(self, tmp_path, monkeypatch, capsys, samples):
        code = run_in(tmp_path, monkeypatch, ["fig4-walk", "--samples", samples])
        assert code == 1
        assert "--samples" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fig3_refuses_small_n_before_writing(self, tmp_path, monkeypatch, capsys):
        code = run_in(tmp_path, monkeypatch, ["fig3-cg", "--n", "3"])
        assert code == 1
        assert "n >= 4" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["fig5-dual", "--p", "3"],
        ["fig5-dual", "--variant", "odd"],
        ["fig3-cg", "--p", "2"],
        ["fig6-compare", "--variant", "odd"],
        ["sweep-queries", "--n", "5"],
        ["sweep-queries", "--variant", "odd"],
        ["sweep-determinism", "--n", "8"],
        ["verify-circuit", "--N", "16"],
        ["verify-circuit", "--p", "2"],
    ])
    def test_undeclared_flag_exits_one(self, tmp_path, monkeypatch, capsys, argv):
        with pytest.raises(SystemExit) as info:
            run_in(tmp_path, monkeypatch, argv)
        assert info.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value", [
        ("--total-time", "inf"), ("--total-time", "nan"), ("--dt", "inf"),
        ("--dt", "nan"), ("--gamma", "inf"), ("--gamma", "nan"),
    ])
    def test_fig3_refuses_non_finite_flags(self, tmp_path, monkeypatch, capsys, flag, value):
        code = run_in(tmp_path, monkeypatch, ["fig3-cg", "--n", "64", flag, value])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fig3_refuses_a_grid_it_cannot_build(self, tmp_path, monkeypatch, capsys):
        code = run_in(tmp_path, monkeypatch, ["fig3-cg", "--N", "64", "--total-time", "1e300",
                                              "--dt", "1e-300"])
        assert code == 1
        assert "fig3-cg: error: total_time / dt must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fig3_reports_a_failed_allocation(self, tmp_path, monkeypatch, capsys):
        # a grid that passes the finite check can still be too large to
        # allocate; the allocation is stubbed, so no huge array is requested
        def refuse(total_time, dt):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(ciinwalk.cg, "_sample_times", refuse)
        code = run_in(tmp_path, monkeypatch, ["fig3-cg", "--N", "64", "--total-time", "1e12",
                                              "--dt", "1"])
        assert code == 1
        assert "fig3-cg: error: Unable to allocate 7.28 TiB" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_fig4_refuses_non_finite_t_max(self, tmp_path, monkeypatch, capsys, value):
        code = run_in(tmp_path, monkeypatch, ["fig4-walk", f"--t-max={value}"])
        assert code == 1
        assert "--t-max must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("p", ["0", "-3"])
    def test_odd_path_rejects_nonpositive_p(self, tmp_path, monkeypatch, capsys, p):
        code = run_in(tmp_path, monkeypatch, ["fig7-oddpath", "--n", "9", "--p", p])
        assert code == 1
        assert f"p={p}" in capsys.readouterr().err
        assert not (tmp_path / "fig7-oddpath.csv").exists()

    @pytest.mark.parametrize("experiment", ["sweep-determinism", "sweep-queries"])
    @pytest.mark.parametrize("n_list", ["", " "])
    def test_empty_n_list_exits_one(self, tmp_path, monkeypatch, capsys, experiment, n_list):
        # an empty list is no request for the default sizes
        code = run_in(tmp_path, monkeypatch, [experiment, "--n-list", n_list])
        assert code == 1
        assert f"{experiment}: error: empty n-list" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # one case for each place an entry is read: the plain list, the head
    # before a progression, and the progression's start, next and end
    @pytest.mark.parametrize("n_list, entry", [(",", ""), ("64,,256", ""),
                                               ("8,12,...,x", "x"), ("8.0", "8.0"),
                                               ("x,8,12,...,64", "x"), ("x,12,...,64", "x"),
                                               ("8,1.5,...,64", "1.5")])
    def test_malformed_n_list_names_the_option_and_text(self, tmp_path, monkeypatch, capsys,
                                                         n_list, entry):
        code = run_in(tmp_path, monkeypatch, ["sweep-determinism", "--n-list", n_list])
        assert code == 1
        assert capsys.readouterr().err == (
            f"sweep-determinism: error: --n-list {n_list!r}: {entry!r} is not an integer\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_list, complaint", [
        ("...,8,12", "bad n-list"), ("8,...,64", "bad n-list"),
        ("8,12,...,64,128", "bad n-list"), ("8,8,...,64", "bad n-list progression"),
        ("12,8,...,64", "bad n-list progression"), ("8,16,...,12", "bad n-list progression"),
    ])
    def test_misshapen_progression_is_refused(self, tmp_path, monkeypatch, capsys, n_list,
                                              complaint):
        # '...' must stand second to last, after two entries that climb, and
        # before an end no lower than the second
        code = run_in(tmp_path, monkeypatch, ["sweep-determinism", "--n-list", n_list])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"sweep-determinism: error: {complaint} {n_list!r}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["missing/out.csv", "."])
    def test_unwritable_out_exits_one(self, tmp_path, monkeypatch, capsys, target):
        # a missing directory, or a directory itself, as the output file
        code = run_in(tmp_path, monkeypatch, ["fig5-dual", "--n", "64", "--out", target])
        assert code == 1
        assert capsys.readouterr().err.startswith("fig5-dual: error: ")
        assert list(tmp_path.iterdir()) == []

    def test_size_without_float64_eigenvalues_exits_one(self, tmp_path, monkeypatch, capsys):
        code = run_in(tmp_path, monkeypatch, ["sweep-determinism", "--n-list", str(2**64)])
        assert code == 1
        assert "sweep-determinism: error: side size must be below 2^64" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestWriteReport:
    def test_csv_is_written_one_block_at_a_time(self, tmp_path, rng):
        rows = 150_000
        values = rng.normal(size=(rows, 5)) * 10.0 ** rng.integers(-30, -5, size=(rows, 5))
        counts = rng.integers(0, 2 ** 62, size=(rows, 2))
        report = dynamics.RunReport(dynamics.Trajectory(counts[:, 0], values[:, :4],
                                                        counts[:, 1], values[:, 4]), 0.5, 7, 1.0)
        path = tmp_path / "trajectory.csv"
        _, peak = traced_peak(ciinwalk.cli._write_report, report, path, "csv")
        # the text of one block at a time, not of the whole file
        assert peak < path.stat().st_size / 4
        assert path.read_bytes() == report.to_csv().encode("ascii")


class TestExperiments:
    def test_fig3_writes_trajectory_and_summary(self, tmp_path, monkeypatch, capsys):
        code = run_in(
            tmp_path, monkeypatch,
            ["fig3-cg", "--N", "256", "--total-time", "20", "--dt", "0.1"],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("fig3-cg:")
        lines = (tmp_path / "fig3-cg.csv").read_text().splitlines()
        assert lines[0] == "step,p1,p2,p3,p4,queries_so_far,walk_time_so_far"
        assert len(lines) == 202

    @pytest.mark.parametrize("total_time", ["0", "5"])
    def test_fig3_short_run_ends_before_the_peak(self, tmp_path, monkeypatch, capsys,
                                                 total_time):
        # the predicted peak at n = 64 is at t = 12.566
        argv = ["fig3-cg", "--n", "64", "--total-time", total_time]
        assert run_in(tmp_path, monkeypatch, argv) == 0
        out = capsys.readouterr().out
        assert "before the predicted peak" in out and "peak=" not in out
        assert (tmp_path / "fig3-cg.csv").exists()
        assert run_in(tmp_path, monkeypatch, ["fig3-cg", "--n", "64", "--total-time", "20"]) == 0
        out = capsys.readouterr().out
        assert "peak=" in out and "before the predicted peak" not in out

    def test_fig4_periodicity_summary(self, tmp_path, monkeypatch, capsys):
        code = run_in(tmp_path, monkeypatch, ["fig4-walk", "--samples", "64"])
        assert code == 0
        assert (tmp_path / "fig4-walk.csv").exists()
        assert "fig4-walk" in capsys.readouterr().out

    def test_fig5_json_output(self, tmp_path, monkeypatch, capsys):
        code = run_in(
            tmp_path, monkeypatch,
            ["fig5-dual", "--n", "64", "--format", "json", "--out", "dual.json"],
        )
        assert code == 0
        payload = json.loads((tmp_path / "dual.json").read_text())
        assert payload["trajectory"][0]["probabilities"][0] == pytest.approx(1.0)
        assert "entangled fidelity" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [9, 1024])
    def test_fig5_fidelity_is_that_of_every_step_folded(self, tmp_path, monkeypatch, capsys, n):
        # p iterates through the closed-form spectrum, then the tail (a
        # nonzero tuning walk at n = 9); the reference folds all L steps one
        # by one
        assert run_in(tmp_path, monkeypatch, ["fig5-dual", "--n", str(n)]) == 0
        size = GraphSize(n)
        schedule = schedules.approx_schedule(size, finishing="none")
        state = schedules.schedule_matrix(schedule.steps, size) @ dynamics.uniform_state(size)
        assert f"entangled fidelity={dynamics.entangled_fidelity(state):.6f} " in \
            capsys.readouterr().out

    def test_fig6_two_files_and_exact_hit(self, tmp_path, monkeypatch, capsys):
        code = run_in(tmp_path, monkeypatch, ["fig6-compare", "--N", "24"])
        assert code == 0
        assert (tmp_path / "fig6-compare-approx.csv").exists()
        assert (tmp_path / "fig6-compare-deterministic.csv").exists()
        assert "at iteration 2" in capsys.readouterr().out

    def test_fig7_summary_probability(self, tmp_path, monkeypatch, capsys):
        code = run_in(tmp_path, monkeypatch, ["fig7-oddpath", "--N", "102"])
        assert code == 0
        out = capsys.readouterr().out
        assert "final success probability" in out

    def test_sweep_determinism_table(self, tmp_path, monkeypatch, capsys):
        code = run_in(
            tmp_path, monkeypatch,
            ["sweep-determinism", "--n-list", "8,12,...,24"],
        )
        assert code == 0
        lines = (tmp_path / "sweep-determinism.csv").read_text().splitlines()
        assert lines[0] == "n,p,final_probability"
        assert len(lines) == 6
        assert "min final probability" in capsys.readouterr().out

    @pytest.mark.parametrize("variant, sizes", [("deterministic", range(8, 1025, 4)),
                                                ("odd", range(3, 1024, 2))])
    def test_sweep_determinism_names_its_worst_size(self, tmp_path, monkeypatch, capsys,
                                                    variant, sizes):
        n_list = f"{sizes[0]},{sizes[1]},...,{sizes[-1]}"
        code = run_in(tmp_path, monkeypatch,
                      ["sweep-determinism", "--variant", variant, "--n-list", n_list])
        assert code == 0
        # the largest miss, and the first size where it occurs, from one
        # apply_schedule run per size
        build = schedules.odd_schedule if variant == "odd" else schedules.deterministic_schedule
        worst, worst_n = -1.0, None
        for n in sizes:
            size = GraphSize(n)
            schedule = build(size)
            miss = 1.0 - dynamics.apply_schedule(
                dynamics.uniform_state(size), schedule, size,
                sample_every=len(schedule.steps)).final_success_probability
            if miss > worst:
                worst, worst_n = miss, n
        out = capsys.readouterr().out
        assert out.endswith(f"min final probability={min(1.0, 1.0 - worst):.12f}, "
                            f"largest 1 - P = {worst:.2e} at n={worst_n}\n")

    def test_sweep_determinism_odd_variant(self, tmp_path, monkeypatch):
        # unaligned progression end acts as an inclusive bound (9,13,17,...,23 -> ends at 21)
        code = run_in(
            tmp_path, monkeypatch,
            ["sweep-determinism", "--variant", "odd", "--n-list", "9,13,...,23"],
        )
        assert code == 0
        lines = (tmp_path / "sweep-determinism.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == ["9", "13", "17", "21"]

    def test_sweep_queries_ratio(self, tmp_path, monkeypatch, capsys):
        code = run_in(tmp_path, monkeypatch, ["sweep-queries", "--n-list", "64,256"])
        assert code == 0
        assert "queries/sqrt(N)" in capsys.readouterr().out
        lines = (tmp_path / "sweep-queries.csv").read_text().splitlines()
        assert lines[0].startswith("n,N,p,queries")

    def test_verify_circuit_passes(self, tmp_path, monkeypatch, capsys):
        code = run_in(
            tmp_path, monkeypatch,
            ["verify-circuit", "--m-max", "2", "--trials", "3", "--pipeline-m", "3"],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "walk-equivalence" in out and "pipeline-success" in out


@pytest.mark.parametrize("argv", [
    ["fig4-walk", "--n", "9", "--samples", "17"],
    ["sweep-determinism", "--n-list", "8,12"],
    ["sweep-queries", "--n-list", "64,256"],
    ["verify-circuit", "--m-max", "2", "--trials", "2", "--pipeline-m", "3"],
], ids=" ".join)
def test_json_tables_write_the_numbers_of_their_csv_text(tmp_path, monkeypatch, argv):
    # one table in both formats: the JSON holds numbers, whose '.17g' text
    # is the CSV's
    assert run_in(tmp_path, monkeypatch, argv) == 0
    assert run_in(tmp_path, monkeypatch, [*argv, "--format", "json"]) == 0
    with open(tmp_path / f"{argv[0]}.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    records = json.loads((tmp_path / f"{argv[0]}.json").read_text())
    assert [sorted(record) for record in records] == [sorted(row) for row in rows]
    for row, record in zip(rows, records):
        for key, text in row.items():
            value = record[key]
            if key in ("check", "passed"):  # verify-circuit's name and verdict
                assert text == str(value)
            else:
                assert type(value) in (int, float)
                assert text == (format(value, ".17g") if type(value) is float else str(value))
                assert float(text) == value


class TestWalkUnitary:
    """verify-circuit's dense exp(-i t A) is one `walk_full` column, permuted;
    it equals the column-by-column build bit for bit."""

    @staticmethod
    def column_by_column(size, t):
        exact = np.empty((size.N, size.N), dtype=complex)
        basis = np.eye(size.N, dtype=complex)
        for col in range(size.N):
            exact[:, col] = walk_full(basis[:, col], t, size)
        return exact

    def assert_same_bits(self, size, t):
        got = ciinwalk.cli._walk_unitary(size, t)
        want = self.column_by_column(size, t)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_the_column_by_column_build(self, m):
        times = [0.0, np.pi, 2.0 * np.pi, *np.random.default_rng(m).uniform(0.0, 2.0 * np.pi, 4)]
        for t in times:
            self.assert_same_bits(GraphSize(2 ** m), float(t))

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_odd_sides(self, n):
        self.assert_same_bits(GraphSize(n), 0.7)


def reference_walk_probabilities(n, times):
    """Group probabilities of exp(-i t A)|marked> at 40 digits, one row per time.

    mpmath diagonalises the 4x4 reduced adjacency once; the propagator it
    gives is spot-checked against `mpmath.expm` at two times.  Each time is
    taken as the exact value of its double.
    """
    with mpmath.workdps(40):
        s = mpmath.sqrt(n - 1)
        adjacency = mpmath.matrix([[0, 1, s, 0], [1, 0, 0, s],
                                   [s, 0, n - 2, 1], [0, s, 1, n - 2]])
        energies, vectors = mpmath.eigsy(adjacency)
        # column 0 of V diag(exp(-i t E)) V^T, as weights on the phases
        weights = [[vectors[k, j] * vectors[0, j] for j in range(4)] for k in range(4)]

        def column(t):
            phases = [mpmath.expj(-t * energy) for energy in energies]
            return [mpmath.fsum(w * phase for w, phase in zip(row, phases))
                    for row in weights]

        for t in (mpmath.mpf("0.7"), mpmath.mpf(5)):
            exact = mpmath.expm(-1j * t * adjacency)
            assert max(abs(c - exact[k, 0]) for k, c in enumerate(column(t))) < 1e-30
        return [[abs(c) ** 2 for c in column(mpmath.mpf(t))] for t in times]


class TestFig4Walk:
    @pytest.mark.parametrize("argv", [
        ["--n", "9"],
        ["--n", "1024"],
        ["--n", "99991", "--samples", "33"],
        ["--n", str(2 ** 20), "--samples", "33"],
    ], ids=" ".join)
    def test_values_lie_within_the_reference_bound(self, tmp_path, monkeypatch, argv):
        """Every written p1..p4 lies within 1e-15 of the 40-digit reference.

        The bound holds at these sizes; it is not a property of every n.
        Both the reduced form and the full-space form round the phase
        argument lambda t, and at some sizes each reaches about 1.5e-15.
        """
        assert run_in(tmp_path, monkeypatch, ["fig4-walk", *argv]) == 0
        with open(tmp_path / "fig4-walk.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        times = [float(row["walk_time_so_far"]) for row in rows]
        reference = reference_walk_probabilities(int(argv[1]), times)
        with mpmath.workdps(40):
            distance = max(abs(mpmath.mpf(float(row[f"p{k + 1}"])) - expected[k])
                           for row, expected in zip(rows, reference) for k in range(4))
        assert distance <= 1e-15, float(distance)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 300), t=st.floats(0.0, 4 * np.pi))
    def test_reduced_column_matches_the_full_space(self, n, t):
        """The reduced form and the full-space walk agree to a few ulps of a
        probability near 1: they round differently, and over 31,000 random
        draws their largest gap was 1.33e-15."""
        size = GraphSize(n)
        full = group_probabilities(walk_full(marked_state(size, reduced=False), t, size), size)
        reduced = np.abs(walk_reduced(marked_state(size), np.array([t]), size)[:, 0]) ** 2
        assert np.max(np.abs(full - reduced)) <= 2e-15

    def test_full_space_runs_twice_and_prints_the_gap(self, tmp_path, monkeypatch, capsys):
        calls, full_lengths = [], []

        def counted(*args):
            calls.append(args[1])
            return walk_full(*args)

        def measured(state, size):
            if len(state) > 4:
                full_lengths.append(len(state))
            return group_probabilities(state, size)

        monkeypatch.setattr(ciinwalk.cli, "walk_full", counted)
        monkeypatch.setattr(ciinwalk.cli, "group_probabilities", measured)
        argv = ["fig4-walk", "--N", str(2 ** 21), "--samples", "33"]
        assert run_in(tmp_path, monkeypatch, argv) == 0
        assert len(calls) <= 2
        # one full-length pass per walk_full result; the drift's reference
        # comes from the reduced marked state
        assert full_lengths == [2 ** 21] * len(calls)
        out = capsys.readouterr().out
        assert "max |p_full - p_reduced| at sample 16 = " in out
        assert float(out.rsplit("= ", 1)[1]) < 1e-14

    def test_refuses_n_2_before_writing(self, tmp_path, monkeypatch, capsys):
        assert run_in(tmp_path, monkeypatch, ["fig4-walk", "--n", "2"]) == 1
        assert "n = 2 is ambiguous" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_one_sample_is_t_0(self, tmp_path, monkeypatch, capsys):
        assert run_in(tmp_path, monkeypatch, ["fig4-walk", "--samples", "1"]) == 0
        lines = (tmp_path / "fig4-walk.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,") and lines[1].endswith(",0,0")
        assert "at sample 0 = " in capsys.readouterr().out


class TestDeterminism:
    def test_byte_identical_output_for_same_config(self, tmp_path, monkeypatch):
        argv = ["fig3-cg", "--N", "128", "--total-time", "10", "--dt", "0.05",
                "--out", "a.csv"]
        assert run_in(tmp_path, monkeypatch, argv) == 0
        first = (tmp_path / "a.csv").read_bytes()
        argv[-1] = "b.csv"
        assert run_in(tmp_path, monkeypatch, argv) == 0
        assert first == (tmp_path / "b.csv").read_bytes()

    def test_verify_circuit_seeded(self, tmp_path, monkeypatch):
        argv = ["verify-circuit", "--m-max", "1", "--trials", "2", "--pipeline-m", "3",
                "--seed", "7", "--out", "a.csv"]
        assert run_in(tmp_path, monkeypatch, argv) == 0
        first = (tmp_path / "a.csv").read_bytes()
        argv[-1] = "b.csv"
        assert run_in(tmp_path, monkeypatch, argv) == 0
        assert first == (tmp_path / "b.csv").read_bytes()


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert ciinwalk.cli._build_parser() is ciinwalk.cli._build_parser()

    def test_no_option_carries_into_the_next_call(self, tmp_path, monkeypatch):
        plain = ("fig3-cg", "--N", "256", "--total-time", "30")
        given = [*plain, "--gamma", "0.01", "--dt", "0.05", "--format", "json",
                 "--out", "given.json"]
        assert run_in(tmp_path, monkeypatch, given) == 0
        assert run_in(tmp_path, monkeypatch, list(plain)) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["fig3-cg.csv", "given.json"]
        digest = hashlib.sha256((tmp_path / "fig3-cg.csv").read_bytes()).hexdigest()
        assert digest == PINNED_OUTPUTS[plain]["fig3-cg.csv"]

    def test_usage_error_after_a_run_exits_one(self, tmp_path, monkeypatch, capsys):
        assert run_in(tmp_path, monkeypatch, ["sweep-queries", "--n-list", "64"]) == 0
        with pytest.raises(SystemExit) as info:
            main(["sweep-queries", "--n-list", "64", "--gamma", "1"])
        assert info.value.code == 1
        assert "unrecognized arguments: --gamma 1" in capsys.readouterr().err
        assert run_in(tmp_path, monkeypatch, ["sweep-queries", "--n-list", "64"]) == 0


# SHA-256 of each output file, computed with the sample-by-sample renderer
# and the column-by-column `reconstruct_unitary` that came before the
# columnar ones.  The fig4-walk digests are those of its reduced 4-dim
# form, whose values lie within 1e-15 of the 40-digit reference.  The
# fig5-dual, fig6-compare, fig7-oddpath and sweep-determinism digests are
# those of runs whose iterate goes through its closed-form spectrum, not a
# fold of its steps: samples at whole iterates are V e^{i j phi} V^dagger c,
# and the sweeps' final states V e^{i p phi} V^dagger c.  Their
# probabilities lie within 1e-13 of a 40-digit stepping
# (`tests/test_dynamics.py`, `TestBlockSamples`), and within 3e-15 of one
# whose iterate takes its multiples of pi exactly.
# A sample r > 0 steps past a whole iterate is stepped from its power of
# the iterate through the iterate's first r steps, not multiplied by a fold
# of them: that moved the fig7-oddpath digest, whose samples every 2 steps
# of a 4-step iterate fall at offsets 0 and 2, and no other.
# Walk times are exact sums rounded once (`test_walk_times_are_exact_sums`),
# not chronological float sums: that moved the walk-time values of the
# fig5-dual JSON, the fig6-compare deterministic CSV and both sweep-queries
# files, and nothing else in them.  A table's JSON writes its floats as
# numbers, not strings: that moved the fig4-walk and sweep-queries JSON
# digests, and no value.
PINNED_OUTPUTS = {
    ("fig3-cg", "--N", "256", "--total-time", "30"): {
        "fig3-cg.csv": "9803c006f9f67473d80f1c1e78713c688c2fb06ce906631d5a974e805943b49d",
    },
    # 25,001 samples: three blocks of `cg_evolve`, the last one longer
    ("fig3-cg", "--N", "256", "--total-time", "250"): {
        "fig3-cg.csv": "01e007c2df4399d7e55884d71acba11a5babe64b31567561a57f1457e134a1b6",
    },
    ("fig3-cg", "--N", "256", "--total-time", "30", "--format", "json"): {
        "fig3-cg.json": "d15e513cbee7525094f96d498d15d59c8e109cbb419a01877c4b460ef651a165",
    },
    ("fig4-walk", "--n", "9"): {
        "fig4-walk.csv": "df316634e2819756d7bd01db26589fc4eaeb492b7c9409bdac3528466c0d115b",
    },
    ("fig4-walk", "--n", "9", "--format", "json"): {
        "fig4-walk.json": "e21bdbb6be354c8b1f53cbbb6041bc36e312af2a3d5230b54698deed5a180f6f",
    },
    ("fig5-dual", "--n", "64", "--format", "json"): {
        "fig5-dual.json": "7d04dba1b7cde84dd40d1048aedeae2e480b6e3a835da200f9cbbe5b63f5c960",
    },
    ("fig6-compare", "--N", "24"): {
        "fig6-compare-approx.csv":
            "17373dc17885283c9710fd3e1e71200ab5ad037da05dc622418031ee8bed18b5",
        "fig6-compare-deterministic.csv":
            "c4b6600c49b89c6d3eec043266e1cb8e70c6881edabbf0537a8a01d334c43eb0",
    },
    ("fig7-oddpath", "--N", "130"): {
        "fig7-oddpath.csv": "cfcc83921ab49b126f1566b8786be083fc612207d3a526696fc6e62513d040d6",
    },
    ("sweep-determinism", "--n-list", "8,12,...,64"): {
        "sweep-determinism.csv":
            "e14febda83e646b2d2bb24ce9017b26e740224abf0ca209eac0060acc2598763",
    },
    ("sweep-determinism", "--variant", "odd", "--n-list", "9,13,...,63"): {
        "sweep-determinism.csv":
            "b0c578acc14d163831b50a238a0821f3deae57c722f6ad1195ef71dcbcc2e3cd",
    },
    ("sweep-queries",): {
        "sweep-queries.csv": "3549805c6c78f13e1e12dc10e8166f41349c7458ead45f17a65d41786eaed020",
    },
    ("sweep-queries", "--format", "json"): {
        "sweep-queries.json": "17a1d3d9e03790bd143dc96e427ec729b43e3a7f792551352f11289de9bbcdb4",
    },
    ("verify-circuit", "--m-max", "3", "--trials", "2", "--pipeline-m", "4", "--seed", "7"): {
        "verify-circuit.csv": "6f73bcf66671aa4f9b17fc8d9aeeb6fe438036902e142a60794bbdfc0c9e2a23",
    },
}


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS), ids=" ".join)
def test_outputs_match_the_pinned_digests(tmp_path, monkeypatch, argv):
    """Identical configurations give byte-identical files, release to release.

    The digests depend on the numpy and LAPACK build of the machine that
    runs the tests (eigh in fig3-cg, the rounding of numpy's complex loops),
    so on another build they may need computing afresh.
    """
    assert run_in(tmp_path, monkeypatch, list(argv)) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == PINNED_OUTPUTS[argv]


def neumaier_sum(values, start=0):
    """The builtin `sum` of CPython 3.12 and later: floats are added with
    Neumaier's compensation; ints stay exact."""
    total, compensation = start, 0
    for value in values:
        partial = total + value
        if abs(total) >= abs(value):
            compensation += (total - partial) + value
        else:
            compensation += (value - partial) + total
        total = partial
    return total + compensation


@pytest.mark.parametrize("argv", [("sweep-queries",), ("sweep-queries", "--format", "json")],
                         ids=" ".join)
def test_walk_time_sums_do_not_depend_on_the_builtin_sum(tmp_path, monkeypatch, argv):
    # a compensated `sum`, as from Python 3.12 on, must not move a digit
    monkeypatch.setattr(dynamics, "sum", neumaier_sum, raising=False)
    assert dynamics.sum is neumaier_sum
    test_outputs_match_the_pinned_digests(tmp_path, monkeypatch, argv)
