"""The README's quickstarts run as written."""

import re
import shlex
from pathlib import Path

import numpy as np

from fragcov import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), flags=re.S)


def test_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in _blocks("python"):
        exec(compile(block, str(README), "exec"), namespace)
    rank, error = capsys.readouterr().out.splitlines()[0].split()
    assert int(rank) == 2 and float(error) < 50
    assert np.allclose(namespace["completed"].values, namespace["truth"].values, atol=1e-6)


def test_cli_quickstart_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (block,) = [b for b in _blocks("sh") if "fragcov simulate" in b]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in commands if argv and argv[0] == "fragcov"]
    assert [argv[0] for argv in commands] == ["simulate", "patch", "complete", "complete", "complete", "run"]
    for argv in commands:
        if argv[0] == "run":
            argv += ["--reps", "2"]  # the table's default of 100 replications per cell
        assert cli.main(argv) == 0, argv
    for name in ("sample.csv", "patched.csv", "counts.csv", "completed.csv", "fits.csv", "results.csv"):
        assert (tmp_path / name).stat().st_size > 0, name
