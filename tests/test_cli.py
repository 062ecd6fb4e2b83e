import json
import warnings

import numpy as np
import pytest

from fragcov import cli, complete, harness
from fragcov.cli import main
from fragcov.kernels import kernel_from_id
from fragcov.simulate import FragmentLaw, write_fragments
from fragcov import (CompletionError, ExperimentConfig, PatchedCovariance, SolveConfig, SymMatrix, band_mask,
                     effective_mask, estimate_covariance, rank_sweep, select_rank)
from fragcov.complete import RankSweepResult


def _read_matrix(path):
    return np.array([[float(v) for v in line.split(",")] for line in path.read_text().strip().splitlines()])


def _patched(values, counts, delta_prime):
    """The patched covariance the CLI wrote, read back without the CLI's reader."""
    return PatchedCovariance(SymMatrix(_read_matrix(values), _read_matrix(counts).astype(np.int64)), delta_prime)


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

    # simulate and every replication draw by one recipe, harness._draw_sample
    @pytest.mark.parametrize("grid_type", ["common", "type1", "type2"])
    @pytest.mark.parametrize("noise_sd", [0.0, 0.5])
    def test_simulate_writes_the_shared_draw(self, tmp_path, grid_type, noise_sd):
        cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert main(["simulate", "--kernel", "scenarioA:2", "--n", "12", "--k", "20", "--delta", "0.4,0.6",
                     "--grid-type", grid_type, "--noise-sd", str(noise_sd), "--seed", "3", "--out", str(cli_out)]) == 0
        sample = harness._draw_sample(kernel_from_id("scenarioA:2"), 12, FragmentLaw(0.4, 0.6), grid_type, 20,
                                      noise_sd, 3)
        write_fragments(sample, lib_out)
        assert cli_out.read_bytes() == lib_out.read_bytes()
        assert cli_out.with_suffix(".json").read_bytes() == lib_out.with_suffix(".json").read_bytes()

    def test_patch_outputs(self, pipeline_files):
        _, patched, counts = pipeline_files
        vals = _read_matrix(patched)
        cnts = _read_matrix(counts)
        assert vals.shape == (25, 25)
        assert np.array_equal(vals, vals.T)
        assert cnts.min() >= 0

    # without its intervals the sidecar still says the sample is noisy
    def test_patch_keeps_sidecar_noise_without_intervals(self, tmp_path):
        sample, patched = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(["simulate", "--kernel", "scenarioA:2", "--n", "200", "--delta", "0.5,0.7", "--grid-type", "type2",
                     "--noise-sd", "1", "--out", str(sample)]) == 0
        sidecar = json.loads(sample.with_suffix(".json").read_text())
        del sidecar["intervals"]
        sample.with_suffix(".json").write_text(json.dumps(sidecar))
        assert main(["patch", "--input", str(sample), "--k", "25", "--out", str(patched),
                     "--counts-out", str(tmp_path / "c.csv")]) == 0
        assert json.loads(patched.with_suffix(".json").read_text())["noise_flag"] is True

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
        assert main(["complete", "--input", str(patched), "--counts", str(counts), "--max-rank", "3",
                     "--out", str(tmp_path / "c.csv"), "--scree-out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4

    # the scree covers every rank to --max-rank whatever the rank rule: the library's full sweep
    @pytest.mark.parametrize("rank", ["2", "auto"])
    def test_complete_scree_out_matches_scree(self, pipeline_files, tmp_path, rank):
        _, patched, counts = pipeline_files
        inputs = ["--input", str(patched), "--counts", str(counts), "--max-rank", "3", "--seed", "5"]
        assert main(["complete", *inputs, "--rank", rank, "--out", str(tmp_path / "c.csv"),
                     "--scree-out", str(tmp_path / "a.csv")]) == 0
        target = _patched(patched, counts, json.loads(patched.with_suffix(".json").read_text())["delta_effective"])
        sweep = rank_sweep(target, effective_mask(target), SolveConfig(max_rank_sweep=3, seed=5))
        assert (tmp_path / "a.csv").read_text() == cli._scree_csv(sweep)
        fits = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1)
        assert fits.shape == (3, 3)
        assert np.array_equal(fits[:, 1], sweep.fits)

    # under elbow or penalty the estimate is selected from the scree's full
    # sweep, of which estimate_covariance's lazy sweep is a prefix: each rank
    # is solved once (rank 1 from its eigen start, every later rank also from
    # a warm start); fixed:q, in any case, still solves rank q alone after the
    # scree. Either way the completed matrix keeps its bytes
    @pytest.mark.parametrize("rank, extra", [("auto", []), ("penalty:0.0002", []), ("Fixed:2", [2])])
    def test_scree_out_solves_each_rank_once(self, pipeline_files, tmp_path, monkeypatch, rank, extra):
        _, patched, counts = pipeline_files
        solves, solve = [], complete.solve_fixed_rank

        def counting(target, mask, q, *args, **kwargs):
            solves.append(q)
            return solve(target, mask, q, *args, **kwargs)

        monkeypatch.setattr(complete, "solve_fixed_rank", counting)
        inputs = ["complete", "--input", str(patched), "--counts", str(counts), "--rank", rank, "--max-rank", "4"]
        assert main([*inputs, "--out", str(tmp_path / "lazy.csv")]) == 0
        solves.clear()
        assert main([*inputs, "--out", str(tmp_path / "c.csv"), "--scree-out", str(tmp_path / "s.csv")]) == 0
        assert solves == [1, 2, 2, 3, 3, 4, 4, *extra]
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "lazy.csv").read_bytes()

    # these rules select a rank other than the default elbow's on this input
    @pytest.mark.parametrize("policy", ["penalty:0.0002", "elbow:0.05"])
    def test_rank_rule_selects_as_policy(self, pipeline_files, tmp_path, capsys, policy):
        _, patched, counts = pipeline_files
        scree = tmp_path / "fits.csv"
        assert main(["complete", "--input", str(patched), "--counts", str(counts), "--rank", policy,
                     "--max-rank", "4", "--out", str(tmp_path / "c.csv"), "--scree-out", str(scree)]) == 0
        rank = int(capsys.readouterr().out.split("completed at rank ")[1].split()[0])
        table = np.loadtxt(scree, delimiter=",", skiprows=1)
        sweep = RankSweepResult(fits=table[:, 1], factors=(), base_fit=table[0, 1] / table[0, 2])
        np.testing.assert_allclose(sweep.normalized_fits, table[:, 2], rtol=1e-12)
        assert rank == select_rank(sweep, policy)
        assert rank != select_rank(sweep, "elbow")

    # 'auto' is the elbow rule and a bare q is fixed:q, byte for byte
    @pytest.mark.parametrize("spellings", [("auto", "elbow", "elbow:0.01"), ("2", "fixed:2")])
    def test_rank_spellings_agree(self, pipeline_files, tmp_path, spellings):
        _, patched, counts = pipeline_files
        outputs = set()
        for i, rank in enumerate(spellings):
            out = tmp_path / f"c{i}.csv"
            assert main(["complete", "--input", str(patched), "--counts", str(counts), "--rank", rank,
                         "--max-rank", "4", "--out", str(out)]) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    # --delta-prime overrides the sidecar's delta' and reaches the solver's mask
    def test_delta_prime_reaches_the_mask(self, pipeline_files, tmp_path):
        _, patched, counts = pipeline_files
        common = ["complete", "--input", str(patched), "--counts", str(counts), "--rank", "2"]
        assert main([*common, "--delta-prime", "0.3", "--out", str(tmp_path / "a.csv")]) == 0
        assert main([*common, "--out", str(tmp_path / "b.csv")]) == 0
        target = _patched(patched, counts, 0.3)
        expected = estimate_covariance(target, SolveConfig(rank_policy="fixed:2"), mask=band_mask(25, 0.3))
        assert np.array_equal(_read_matrix(tmp_path / "a.csv"), expected.matrix.values)
        assert not np.array_equal(_read_matrix(tmp_path / "a.csv"), _read_matrix(tmp_path / "b.csv"))

    # a noisy sample is flagged by patch, and complete then leaves the diagonal out of the fit
    def test_noisy_common_grid_chain(self, tmp_path, monkeypatch):
        sample, patched, counts = tmp_path / "s.csv", tmp_path / "p.csv", tmp_path / "c.csv"
        assert main(["simulate", "--kernel", "scenarioA:2", "--n", "150", "--k", "20", "--delta", "0.6",
                     "--grid-type", "common", "--noise-sd", "0.5", "--seed", "2", "--out", str(sample)]) == 0
        assert json.loads(sample.with_suffix(".json").read_text())["noise_sd"] == 0.5
        assert main(["patch", "--input", str(sample), "--k", "20", "--out", str(patched),
                     "--counts-out", str(counts)]) == 0
        assert json.loads(patched.with_suffix(".json").read_text())["noise_flag"] is True
        masks = []

        def spy(target, config, mask=None, **kwargs):
            masks.append(mask)
            return estimate_covariance(target, config, mask=mask, **kwargs)

        monkeypatch.setattr(cli, "estimate_covariance", spy)
        assert main(["complete", "--input", str(patched), "--counts", str(counts), "--rank", "2",
                     "--out", str(tmp_path / "o.csv")]) == 0
        assert masks[0].exclude_diagonal and not masks[0].include.diagonal().any()
        assert np.all(np.isfinite(_read_matrix(tmp_path / "o.csv")))


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

    # a fraction was truncated, and 1e30 overflowed the integer cast
    @pytest.mark.parametrize("entry", ["8254.5", "1e30", "-1", "nan", "inf", "9007199254740994"])
    def test_counts_must_be_whole_numbers(self, tmp_path, capsys, entry):
        values, counts = tmp_path / "values.csv", tmp_path / "counts.csv"
        values.write_text("1.0,0.5\n0.5,1.0\n")
        counts.write_text(f"2,1\n\n1,{entry}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(["complete", "--input", str(values), "--counts", str(counts),
                           "--rank", "1", "--out", str(tmp_path / "o.csv")])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {counts}:3: count ")
        assert err.rstrip().endswith("is not a whole number in [0, 2^53]")
        assert not (tmp_path / "o.csv").exists()

    # inf used to end in "diverged: non-finite objective", nan in "matrix must be symmetric";
    # a non-finite count is not a whole number (above)
    @pytest.mark.parametrize("entry", ["inf", "-inf", "nan"])
    def test_non_finite_matrix_entry_reports_line(self, tmp_path, capsys, entry):
        values = tmp_path / "values.csv"
        values.write_text(f"1.0,0.5\n\n0.5,{entry}\n")
        assert main(["complete", "--input", str(values), "--rank", "1", "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"error: {values}:3: non-finite entry in '0.5,{entry}'\n"
        assert not (tmp_path / "o.csv").exists()

    def test_whole_counts_load_unchanged(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("4,2.0,0\n2.0,1e3,9007199254740992\n0,9007199254740992,7\n")
        counts = cli._read_matrix(path, counts=True)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, [[4, 2, 0], [2, 1000, 2**53], [0, 2**53, 7]])

    # the policy is checked before the input is read (it does not exist here)
    @pytest.mark.parametrize("flags, policy", [(["--rank", "penalty:-1.0"], "penalty:-1.0"),
                                               (["--rank", "elbow:0.0"], "elbow:0.0"),
                                               (["--rank", "fixed:x"], "fixed:x"), (["--rank", "0"], "fixed:0")])
    def test_malformed_rank_policy_exits_2(self, tmp_path, capsys, flags, policy):
        status = main(["complete", "--input", str(tmp_path / "absent.csv"), *flags, "--out", str(tmp_path / "o.csv")])
        assert status == 2
        assert capsys.readouterr().err.startswith(f"error: rank policy '{policy}': ")

    def test_unknown_rank_rule_exits_2(self, tmp_path, capsys):
        status = main(["complete", "--input", str(tmp_path / "absent.csv"), "--rank", "x",
                       "--out", str(tmp_path / "o.csv")])
        assert status == 2
        assert capsys.readouterr().err.startswith("error: unknown rank policy 'x'")

    # --tau T is --rank penalty:T, --elbow-eps E is --rank elbow:E, and the scree is complete --scree-out
    @pytest.mark.parametrize("argv, complaint", [
        (["complete", "--tau", "0.1"], "unrecognized arguments: --tau 0.1"),
        (["complete", "--elbow-eps", "0.05"], "unrecognized arguments: --elbow-eps 0.05"),
        (["scree"], "invalid choice: 'scree'"),
    ])
    def test_removed_rank_spellings_exit_2(self, tmp_path, capsys, argv, complaint):
        files = ["--input", str(tmp_path / "p.csv"), "--out", str(tmp_path / "o.csv")]
        with pytest.raises(SystemExit) as exit_info:
            main([argv[0], *files, *argv[1:]])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fragcov") and complaint in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("value, shown", [("0", "0.0"), ("1.5", "1.5")])
    def test_delta_prime_zero_exits_2(self, pipeline_files, tmp_path, capsys, value, shown):
        _, patched, counts = pipeline_files
        status = main(["complete", "--input", str(patched), "--counts", str(counts), "--delta-prime", value,
                       "--rank", "2", "--out", str(tmp_path / "o.csv"), "--scree-out", str(tmp_path / "s.csv")])
        assert status == 2
        assert capsys.readouterr().err == f"error: --delta-prime must lie in (0, 1), got {shown}\n"
        assert not (tmp_path / "o.csv").exists() and not (tmp_path / "s.csv").exists()

    # rejected when the config is built, before any input is read or output written
    @pytest.mark.parametrize("argv, message", [
        (["complete", "--input", "absent.csv", "--max-rank", "0", "--out", "o.csv"],
         "max_rank_sweep must be at least 1, got 0"),
        (["complete", "--input", "absent.csv", "--max-rank", "-3", "--out", "o.csv"],
         "max_rank_sweep must be at least 1, got -3"),
        (["complete", "--input", "absent.csv", "--seed", "-1", "--out", "o.csv"], "seed must be nonnegative, got -1"),
        (["run", "--table", "T2", "--cells", "0", "--reps", "2", "--seed", "-1", "--out", "o.csv"],
         "seed must be nonnegative, got -1"),
        (["simulate", "--kernel", "scenarioA:1", "--n", "5", "--noise-sd", "-1", "--out", "o.csv"],
         "noise_sd must be nonnegative"),
        (["simulate", "--kernel", "scenarioA:1", "--n", "5", "--seed", "-1", "--out", "o.csv"],
         "seed must be nonnegative, got -1"),
        (["simulate", "--kernel", "scenarioA:1", "--n", "5", "--grid-type", "type2", "--seed", "-1", "--out", "o.csv"],
         "seed must be nonnegative, got -1"),
        (["simulate", "--kernel", "scenarioA:1", "--n", "0", "--out", "o.csv"], "--n must be at least 2, got 0"),
        (["simulate", "--kernel", "scenarioA:1", "--n", "1", "--out", "o.csv"], "--n must be at least 2, got 1"),
        (["simulate", "--kernel", "scenarioA:1", "--n", "5", "--k", "1", "--out", "o.csv"],
         "--k must be at least 2, got 1"),
        (["patch", "--input", "absent.csv", "--k", "1", "--out", "p.csv", "--counts-out", "c.csv"],
         "--k must be at least 2, got 1"),
        (["patch", "--input", "absent.csv", "--k", "0", "--out", "p.csv", "--counts-out", "c.csv"],
         "--k must be at least 2, got 0"),
        (["simulate", "--kernel", "scenarioA:x", "--out", "o.csv"],
         "kernel id 'scenarioA:x': invalid literal for int() with base 10: 'x'"),
        (["simulate", "--kernel", "matern:1.5,abc", "--out", "o.csv"],
         "kernel id 'matern:1.5,abc': could not convert string to float: 'abc'"),
    ])
    def test_impossible_setting_exits_2(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    # an empty list or item is an error, not "every cell"
    @pytest.mark.parametrize("cells", ["", "0,,1", "a", "0.5"])
    def test_run_cells_must_be_integers(self, tmp_path, capsys, cells):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--table", "T2", "--reps", "1", "--cells", cells, "--out", str(tmp_path / "r.csv")])
        assert exit_info.value.code == 2
        assert f"argument --cells: expected comma-separated cell indices, got {cells!r}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_simulate_delta_must_be_numbers(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--kernel", "scenarioA:1", "--delta", "a", "--out", str(tmp_path / "s.csv")])
        assert exit_info.value.code == 2
        assert "argument --delta: expected a fragment length or a min,max pair, got 'a'" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    # each used to exit 2 with SymMatrix's message alone, naming no file
    @pytest.mark.parametrize("values, counts, culprit, message", [
        ("", None, "values", "matrix must be square"),
        ("1,0.5,0\n0.5,1,0\n", None, "values", "matrix must be square"),
        ("1,0.5\n0.4,1\n", None, "values", "matrix must be symmetric"),
        ("1,0.5\n0.5,1\n", "2,1\n0,2\n", "counts", "matrix must be symmetric"),
        ("1,0.5\n0.5,1\n", "2,1,1\n1,2,1\n1,1,2\n", "counts", "counts shape (3, 3) must match values (2, 2) in "),
    ])
    def test_malformed_matrix_names_its_file(self, tmp_path, capsys, values, counts, culprit, message):
        paths = {"values": tmp_path / "values.csv", "counts": tmp_path / "counts.csv"}
        paths["values"].write_text(values)
        argv = ["complete", "--input", str(paths["values"]), "--rank", "1", "--out", str(tmp_path / "o.csv")]
        if counts is not None:
            paths["counts"].write_text(counts)
            argv += ["--counts", str(paths["counts"])]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {paths[culprit]}: {message}")
        assert not (tmp_path / "o.csv").exists()

    def test_simulate_rejects_three_lengths(self, tmp_path, capsys):
        status = main(["simulate", "--kernel", "scenarioA:1", "--n", "5", "--delta", "0.3,0.9,0.5",
                       "--out", str(tmp_path / "s.csv")])
        assert status == 2
        assert capsys.readouterr().err.startswith("error: --delta takes one length or a min,max pair")

    # T2 has 30 cells; -1 is rejected, not counted from the end
    @pytest.mark.parametrize("index", ["99", "-1"])
    def test_run_cell_outside_the_table_exits_2(self, tmp_path, capsys, index):
        status = main(["run", "--table", "T2", "--reps", "1", "--cells", index, "--out", str(tmp_path / "r.csv")])
        assert status == 2
        assert capsys.readouterr().err.startswith(f"error: cell index {index} outside table T2's 30 cells")
        assert not (tmp_path / "r.csv").exists()

    # rejected before any replication, so the outcome cannot depend on the worker count
    @pytest.mark.parametrize("source", ["table", "config"])
    def test_run_zero_replications_exits_2(self, tmp_path, capsys, source):
        from fragcov import ExperimentConfig

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(ExperimentConfig(kernel="scenarioA:1", n=40, K=15, rank_policy="fixed:1").to_json())
        given = ["--table", "T2", "--cells", "0"] if source == "table" else ["--config", str(cfg_path)]
        assert main(["run", *given, "--reps", "0", "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: replications must be at least 1, got 0")
        assert not (tmp_path / "r.csv").exists()

    # rejected when the cell is built, where every replication used to fail and the row read nan
    def test_run_config_that_cannot_run_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        for field, value, complaint in [
            ("grid_type", "type3", "unknown grid type 'type3'"),
            ("kernel", "scenarioA:x", "kernel id 'scenarioA:x': invalid literal for int() with base 10: 'x'"),
        ]:
            cfg_path.write_text(json.dumps({"kernel": "scenarioA:1", "rank_policy": "fixed:1", field: value}))
            assert main(["run", "--config", str(cfg_path), "--reps", "2", "--out", str(tmp_path / "r.csv")]) == 2
            assert capsys.readouterr().err == f"error: {cfg_path}: {complaint}\n"
            assert not (tmp_path / "r.csv").exists()

    def test_run_config_with_a_solve_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"kernel": "scenarioA:1", "solve": {"method": "bfgs"}}')
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_path}: unknown ExperimentConfig keys: solve\n"

    # each used to end in a traceback, or in a JSON parser message naming no file
    @pytest.mark.parametrize("case", ["sidecar_truncated", "sidecar_without_start", "meta_truncated",
                                      "meta_delta_outside", "config_list", "config_n_string",
                                      "config_delta_number"])
    def test_malformed_json_names_the_file(self, pipeline_files, tmp_path, capsys, case):
        sample, patched, counts = pipeline_files
        sidecar, meta, config = sample.with_suffix(".json"), patched.with_suffix(".json"), tmp_path / "cfg.json"
        no_start = json.loads(sidecar.read_text())
        del no_start["intervals"][0]["start"]
        cell = json.loads(ExperimentConfig(kernel="scenarioA:1", n=40, K=15, rank_policy="fixed:1").to_json())
        patch = ["patch", "--input", str(sample), "--out", str(tmp_path / "p.csv"),
                 "--counts-out", str(tmp_path / "c.csv")]
        complete = ["complete", "--input", str(patched), "--counts", str(counts), "--out", str(tmp_path / "o.csv")]
        run = ["run", "--config", str(config), "--reps", "1", "--out", str(tmp_path / "r.csv")]
        path, text, argv, complaint = {
            "sidecar_truncated": (sidecar, sidecar.read_text()[:8], patch, "Unterminated string"),
            "sidecar_without_start": (sidecar, json.dumps(no_start), patch, "curve '0': missing key 'start'"),
            "meta_truncated": (meta, meta.read_text()[:16], complete, "Unterminated string"),
            "meta_delta_outside": (meta, json.dumps({**json.loads(meta.read_text()), "delta_effective": 1.5}),
                                   complete, "key 'delta_effective' must lie in (0, 1), got 1.5"),
            "config_list": (config, json.dumps([cell]), run, "expected a JSON object, got list"),
            "config_n_string": (config, json.dumps({**cell, "n": "x"}), run, "key 'n' must be an integer, got 'x'"),
            "config_delta_number": (config, json.dumps({**cell, "delta": 0.5}), run,
                                    "key 'delta' must be a [min, max] pair of numbers, got 0.5"),
        }[case]
        path.write_text(text)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {complaint}")
        assert not any((tmp_path / out).exists() for out in ("p.csv", "o.csv", "r.csv"))

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
        with pytest.raises(SystemExit) as exit_info:
            main(["run"])
        assert exit_info.value.code == 2
        assert "one of the arguments --table --config is required" in capsys.readouterr().err

    # a run has one cell source: --table is never dropped silently next to --config
    def test_run_rejects_table_and_config_together(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--table", "T2", "--config", str(tmp_path / "c.json")])
        assert exit_info.value.code == 2
        assert "argument --config: not allowed with argument --table" in capsys.readouterr().err


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
    return sorted(m for m in ("scipy.optimize", "scipy.linalg", "scipy.special") if m in sys.modules)

d = sys.argv[1]
seen = {"import": scipy_loaded()}
common = ["--grid-type", "type2", "--n", "40", "--k", "20", "--delta", "0.5,0.7", "--seed", "3"]
codes = [cli.main(["simulate", "--kernel", "scenarioA:2", *common, "--out", d + "/a.csv"])]
seen["simulate"] = scipy_loaded()
codes.append(cli.main(["patch", "--input", d + "/a.csv", "--k", "10", "--out", d + "/p.csv", "--counts-out", d + "/c.csv"]))
seen["patch"] = scipy_loaded()
inputs = ["complete", "--input", d + "/p.csv", "--counts", d + "/c.csv", "--out", d + "/o.csv"]
for name, extra in (("rank 3", ["--rank", "3"]), ("auto", ["--rank", "auto"]),
                    ("scree", ["--rank", "auto", "--scree-out", d + "/s.csv"])):
    codes.append(cli.main([*inputs, *extra]))
    seen[name] = scipy_loaded()
# one replication runs in this process, under the table protocol's BFGS
cell = fragcov.ExperimentConfig(kernel="scenarioA:1", n=40, K=15, replications=1, rank_policy="fixed:1")
with open(d + "/cell.json", "w") as f:
    f.write(cell.to_json())
codes.append(cli.main(["run", "--config", d + "/cell.json"]))
seen["run"] = scipy_loaded()
codes.append(cli.main(["simulate", "--kernel", "matern:1.5,0.5", *common, "--out", d + "/m.csv"]))
seen["matern"] = scipy_loaded()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_simulate_and_patch_load_no_scipy_solver(fresh_python, tmp_path):
    # complete loads scipy's L-BFGS-B extension alone, and run scipy's BLAS
    # extension and line-search file alone, not scipy.optimize or scipy.linalg
    out = fresh_python(_FOOTPRINT_SCRIPT, str(tmp_path))
    assert out["codes"] == [0] * 7
    assert out["seen"] == {
        "import": [], "simulate": [], "patch": [], "rank 3": [], "auto": [], "scree": [], "run": [],
        "matern": ["scipy.special"],
    }
    assert (tmp_path / "m.csv").read_text().count("\n") > 40
