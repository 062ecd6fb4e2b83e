import numpy as np
import pytest

from fragcov.cli import main
from fragcov import CompletionError, select_rank
from fragcov.complete import RankSweepResult


def _read_matrix(path):
    return np.array([[float(v) for v in line.split(",")] for line in path.read_text().strip().splitlines()])


@pytest.fixture()
def pipeline_files(tmp_path):
    sample = tmp_path / "sample.csv"
    patched = tmp_path / "patched.csv"
    counts = tmp_path / "counts.csv"
    assert main([
        "simulate", "--kernel", "scenarioA:2", "--n", "120", "--k", "25",
        "--delta", "0.6", "--grid-type", "type1", "--seed", "4", "--out", str(sample),
    ]) == 0
    assert main(["patch", "--input", str(sample), "--k", "25", "--out", str(patched), "--counts-out", str(counts)]) == 0
    return sample, patched, counts


class TestPipeline:
    def test_simulate_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--kernel", "scenarioB:1", "--n", "10", "--k", "20",
                     "--delta", "0.5,0.7", "--grid-type", "type2", "--seed", "1", "--out", str(out)]) == 0
        assert out.exists() and out.with_suffix(".json").exists()
        header = out.read_text().splitlines()[0]
        assert header == "curve_id,t,value"

    def test_patch_outputs(self, pipeline_files):
        _, patched, counts = pipeline_files
        vals = _read_matrix(patched)
        cnts = _read_matrix(counts)
        assert vals.shape == (25, 25)
        assert np.array_equal(vals, vals.T)
        assert cnts.min() >= 0

    def test_complete_fixed_rank(self, pipeline_files, tmp_path):
        _, patched, counts = pipeline_files
        out = tmp_path / "completed.csv"
        scree = tmp_path / "scree.csv"
        code = main(["complete", "--input", str(patched), "--counts", str(counts),
                     "--rank", "2", "--out", str(out), "--scree-out", str(scree)])
        assert code == 0
        est = _read_matrix(out)
        assert est.shape == (25, 25)
        eigs = np.linalg.eigvalsh(est)
        assert eigs.min() >= -1e-8 * eigs.max()
        lines = scree.read_text().strip().splitlines()
        assert lines[0] == "rank,fit,normalized_fit"
        assert len(lines) > 2

    def test_complete_auto_rank(self, pipeline_files, tmp_path):
        _, patched, counts = pipeline_files
        out = tmp_path / "completed.csv"
        assert main(["complete", "--input", str(patched), "--counts", str(counts),
                     "--rank", "auto", "--max-rank", "4", "--out", str(out)]) == 0
        assert out.exists()

    def test_scree_command(self, pipeline_files, tmp_path):
        _, patched, counts = pipeline_files
        out = tmp_path / "fits.csv"
        assert main(["scree", "--input", str(patched), "--counts", str(counts),
                     "--max-rank", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4

    @pytest.mark.parametrize("rank", ["2", "auto"])
    def test_complete_scree_out_matches_scree(self, pipeline_files, tmp_path, rank):
        _, patched, counts = pipeline_files
        inputs = ["--input", str(patched), "--counts", str(counts), "--max-rank", "3", "--seed", "5"]
        assert main(["complete", *inputs, "--rank", rank, "--out", str(tmp_path / "c.csv"),
                     "--scree-out", str(tmp_path / "a.csv")]) == 0
        assert main(["scree", *inputs, "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        fits = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1)
        assert fits.shape == (3, 3)

    # the flag values select a rank other than the default elbow's on this input
    @pytest.mark.parametrize("flag, value, policy", [("--tau", "0.0002", "penalty:0.0002"),
                                                     ("--elbow-eps", "0.05", "elbow:0.05")])
    def test_auto_rank_flags_select_as_policy(self, pipeline_files, tmp_path, capsys, flag, value, policy):
        _, patched, counts = pipeline_files
        scree = tmp_path / "fits.csv"
        assert main(["complete", "--input", str(patched), "--counts", str(counts), "--rank", "auto",
                     "--max-rank", "4", flag, value, "--out", str(tmp_path / "c.csv"), "--scree-out", str(scree)]) == 0
        rank = int(capsys.readouterr().out.split("completed at rank ")[1].split()[0])
        table = np.loadtxt(scree, delimiter=",", skiprows=1)
        sweep = RankSweepResult(fits=table[:, 1], normalized_fits=table[:, 2], factors=(), base_fit=1.0)
        assert rank == select_rank(sweep, policy)
        assert rank != select_rank(sweep, "elbow")


class TestMalformedInput:
    @pytest.mark.parametrize("which", ["input", "counts"])
    @pytest.mark.parametrize("row", ["0.5,oops", "0.5"])
    def test_matrix_row_reports_line(self, tmp_path, capsys, which, row):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("1.0,0.5\n0.5,1.0\n")
        bad.write_text(f"1.0,0.5\n{row}\n")
        files = {"input": good, "counts": good, which: bad}
        status = main(["complete", "--input", str(files["input"]), "--counts", str(files["counts"]),
                       "--rank", "1", "--out", str(tmp_path / "o.csv")])
        assert status == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: ")

    def test_simulate_rejects_three_lengths(self, tmp_path, capsys):
        status = main(["simulate", "--kernel", "scenarioA:1", "--n", "5", "--delta", "0.3,0.9,0.5",
                       "--out", str(tmp_path / "s.csv")])
        assert status == 2
        assert capsys.readouterr().err.startswith("error: --delta takes one length or a min,max pair")

    def test_missing_input_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        status = main(["patch", "--input", str(missing), "--out", str(tmp_path / "p.csv"),
                       "--counts-out", str(tmp_path / "c.csv")])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err


class TestRunCommand:
    def test_table_cell_csv(self, tmp_path):
        out = tmp_path / "results.csv"
        assert main(["run", "--table", "T2", "--seed", "7", "--reps", "2", "--cells", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("scenarioA:1,fixed:1,0.5,0.5,200,50,common,0.0,")

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--table", "T2", "--seed", "7", "--reps", "2", "--cells", "0", "--out", str(a)])
        main(["run", "--table", "T2", "--seed", "7", "--reps", "2", "--cells", "0", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_config_file(self, tmp_path):
        from fragcov import ExperimentConfig

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(ExperimentConfig(kernel="scenarioA:1", n=40, K=15, replications=2, rank_policy="fixed:1").to_json())
        out = tmp_path / "r.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.exists()

    def test_run_requires_table_or_config(self, capsys):
        assert main(["run"]) == 1


class TestExitCodes:
    def test_completion_error_maps_to_2(self, monkeypatch, tmp_path):
        import fragcov.cli as cli

        def boom(*args, **kwargs):
            raise CompletionError("singular minor: completion not identifiable from this submatrix")

        monkeypatch.setattr(cli, "estimate_covariance", boom)
        patched = tmp_path / "p.csv"
        patched.write_text("1.0,0.5\n0.5,1.0\n")
        assert main(["complete", "--input", str(patched), "--rank", "1", "--out", str(tmp_path / "o.csv")]) == 2


_FOOTPRINT_SCRIPT = """
import json, sys
import fragcov, fragcov.cli
from fragcov import cli

def scipy_loaded():
    return sorted(m for m in ("scipy.optimize", "scipy.special") if m in sys.modules)

d = sys.argv[1]
seen = {"import": scipy_loaded()}
common = ["--grid-type", "type2", "--n", "40", "--k", "20", "--delta", "0.5,0.7", "--seed", "3"]
codes = [cli.main(["simulate", "--kernel", "scenarioA:2", *common, "--out", d + "/a.csv"])]
seen["simulate"] = scipy_loaded()
codes.append(cli.main(["patch", "--input", d + "/a.csv", "--k", "10", "--out", d + "/p.csv", "--counts-out", d + "/c.csv"]))
seen["patch"] = scipy_loaded()
codes.append(cli.main(["simulate", "--kernel", "matern:1.5,0.5", *common, "--out", d + "/m.csv"]))
seen["matern"] = scipy_loaded()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_simulate_and_patch_load_no_scipy_solver(fresh_python, tmp_path):
    out = fresh_python(_FOOTPRINT_SCRIPT, str(tmp_path))
    assert out["codes"] == [0, 0, 0]
    assert out["seen"] == {"import": [], "simulate": [], "patch": [], "matern": ["scipy.special"]}
    assert (tmp_path / "m.csv").read_text().count("\n") > 40
