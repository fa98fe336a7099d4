import hashlib
import json

import pytest

from ciinwalk.cli import main


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


# SHA-256 of each output file, computed with the sample-by-sample renderer
# and the column-by-column `reconstruct_unitary` that came before the
# columnar ones.
PINNED_OUTPUTS = {
    ("fig3-cg", "--N", "256", "--total-time", "30"): {
        "fig3-cg.csv": "9803c006f9f67473d80f1c1e78713c688c2fb06ce906631d5a974e805943b49d",
    },
    ("fig3-cg", "--N", "256", "--total-time", "30", "--format", "json"): {
        "fig3-cg.json": "d15e513cbee7525094f96d498d15d59c8e109cbb419a01877c4b460ef651a165",
    },
    ("fig4-walk", "--n", "9"): {
        "fig4-walk.csv": "8b492b25f5ef4a666bd4671c2e84ecc532f7888d1c135ce4b5d3ff9dc9e27daa",
    },
    ("fig4-walk", "--n", "9", "--format", "json"): {
        "fig4-walk.json": "97b35609db9377e183f8bdbdd4114ec1a1564726d593d0aa9f7b5a13785093af",
    },
    ("fig5-dual", "--n", "64", "--format", "json"): {
        "fig5-dual.json": "22df57463241369825c5cc7de7cf11a7f5f42ab78931733d2997a444dcc52136",
    },
    ("fig6-compare", "--N", "24"): {
        "fig6-compare-approx.csv":
            "1a05f69bea42d329564787ad21729c5d36781d3f96139c08088d06cd03795b1a",
        "fig6-compare-deterministic.csv":
            "3dea01ab36cd63c6b914bba40246f0e21f3440d99ae6cf882e20b64552190380",
    },
    ("fig7-oddpath", "--N", "130"): {
        "fig7-oddpath.csv": "31f5cbdbe72ce880a913ea4d6ae9d245025c4b6fd677bd1cca02f175cf5a7b9a",
    },
    ("sweep-determinism", "--n-list", "8,12,...,64"): {
        "sweep-determinism.csv":
            "a0cb186f54975dfa24c16cd684b00786604ab3554f98f1484fd90da47db94a37",
    },
    ("sweep-determinism", "--variant", "odd", "--n-list", "9,13,...,63"): {
        "sweep-determinism.csv":
            "c9f1f600adf9928c621ba9a1b6aee956d114e4fa74df4f125c3ce752037d70c5",
    },
    ("sweep-queries",): {
        "sweep-queries.csv": "634097cd3e6ff9d9c97380eb6781b2ff38d6dd7810bab3f602d8530f4ac853f1",
    },
    ("sweep-queries", "--format", "json"): {
        "sweep-queries.json": "643f9a53fc5522d57757e2950f0637ab3daa5cc8ce081fe8007da2a6f38223ab",
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
