"""The benchmark's workloads.

Every workload is a serial closed loop with one caller: the next operation
starts when the previous one has returned. Operation i draws its input from
``(seed, i)`` and nothing else. Each workload knows how to check one output
and how to turn the outputs of a run into its accuracy figure, ``rel_err_pct``.

The fragcov modules are reached through their module objects at call time
(``harness.run_cell``, ``complete.estimate_covariance``, ``cli.main``), so the
tracer in ``spans.py`` sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def derive(seed: int, i: int) -> int:
    """The 32-bit seed of input i of a run seeded with seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class Workload:
    """One operation kind: inputs from the seed, the call, and its checks."""

    name = ""
    # operations whose accuracy forms rel_err_pct; a run always completes them,
    # so the figure depends on the seed only, not on how fast the program is
    acc_ops = 1

    def __init__(self, fc, seed: int, smoke: bool, workdir: str):
        self.fc, self.seed, self.smoke, self.workdir = fc, seed, smoke, workdir

    def setup(self) -> None:
        """Build the inputs shared by every operation."""

    def warm_up(self, in_process: bool = False) -> None:
        """Run one operation untimed, so that lazy imports and caches fill."""
        self.run(self.make_input(0), in_process=in_process)

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp, in_process: bool = False):
        raise NotImplementedError

    def check(self, inp, out) -> float:
        """Raise CheckFailed on a wrong output; return the output's RE%."""
        raise NotImplementedError

    def accuracy(self, errors: list[float]) -> float:
        """rel_err_pct of the run from the first acc_ops RE% values."""
        return statistics.median(errors)

    def close(self) -> None:
        """Remove what setup left behind."""


class TableK100(Workload):
    """One replication of the T7 cell scenarioA:3, K=100, delta=0.5, fixed:3.

    It runs through ``harness.run_cell(cfg, workers=1)`` under the table
    protocol (dense BFGS, max_iter=100). rel_err_pct is the median RE% of the
    run's first ``acc_ops`` replications, which form one cell; that median must
    lie within 5 points of the cell's reference median (the +-5 tolerance of
    the table criteria).
    """

    name = "table_k100"
    acc_ops = 40
    # median RE% of this cell over its 100 replications at cell seed 0
    REFERENCE_MEDIAN = 31.48
    TOLERANCE = 5.0

    def setup(self):
        K, n = (20, 60) if self.smoke else (100, 200)
        self.cell = self.fc.harness.ExperimentConfig(
            kernel="scenarioA:3", K=K, n=n, delta=(0.5, 0.5), rank_policy="fixed:3", replications=1
        )
        if self.smoke:
            self.acc_ops = 2

    def make_input(self, i):
        return replace(self.cell, seed=derive(self.seed, i))

    def run(self, cfg, in_process=False):
        return self.fc.harness.run_cell(cfg, workers=1)

    def check(self, cfg, result):
        if result.failures:
            raise CheckFailed(f"replication failed: {result.failures[0][1]}")
        if result.errors.size != 1 or not np.isfinite(result.median):
            raise CheckFailed(f"expected one finite RE%, got {result.errors}")
        return float(result.median)

    def accuracy(self, errors):
        median = statistics.median(errors)
        if not self.smoke and abs(median - self.REFERENCE_MEDIAN) > self.TOLERANCE:
            raise CheckFailed(f"cell median RE% {median:.2f} is not within {self.TOLERANCE} of {self.REFERENCE_MEDIAN}")
        return median


class ElbowK50(Workload):
    """Library protocol on the README library-quickstart matrix.

    scenarioA:2, K=50, n=200, delta=0.6 (grid seed 0, path seed 1, fragment
    seed 2, as in the README), completed by ``estimate_covariance`` with
    ``rank_policy="elbow", max_rank_sweep=8`` (the README CLI's --max-rank 8).
    Input i is the solver seed, which drives the warm-start jitter of the sweep.
    The elbow must select rank 2 and reproduce the quickstart's RE%.
    """

    name = "elbow_k50"
    acc_ops = 5
    EXPECTED_RANK = 2
    REFERENCE_RE = 21.737
    TOLERANCE = 0.5

    def setup(self):
        fc = self.fc.pkg
        K, n, self.max_rank = (16, 80, 3) if self.smoke else (50, 200, 8)
        grid = fc.Grid.perturbed(K, seed=0)
        self.truth = fc.evaluate_on_grid(fc.scenario_kernel("A", 2), grid)
        paths = fc.sample_gp(self.truth, n=n, seed=1)
        sample = fc.fragment(paths, grid, fc.FragmentLaw.fixed(0.6), seed=2)
        self.patched = fc.patched_regular(sample)
        if self.smoke:
            self.acc_ops = 1

    def make_input(self, i):
        return self.fc.complete.SolveConfig(rank_policy="elbow", max_rank_sweep=self.max_rank, seed=derive(self.seed, i))

    def warm_up(self, in_process=False):
        # a two-rank sweep reaches every solver path of the full operation
        self.run(replace(self.make_input(0), max_rank_sweep=2))

    def run(self, cfg, in_process=False):
        return self.fc.complete.estimate_covariance(self.patched, cfg)

    def check(self, cfg, estimate):
        re = self.fc.pkg.relative_error(estimate.matrix, self.truth)
        if not np.isfinite(re):
            raise CheckFailed("non-finite estimate")
        if not self.smoke:
            if estimate.rank != self.EXPECTED_RANK:
                raise CheckFailed(f"elbow selected rank {estimate.rank}, expected {self.EXPECTED_RANK}")
            if abs(re - self.REFERENCE_RE) > self.TOLERANCE:
                raise CheckFailed(f"RE% {re:.3f} is not within {self.TOLERANCE} of {self.REFERENCE_RE}")
        return re


class CliType2(Workload):
    """The data user's path: simulate, patch and complete through the CLI.

    One operation is the chain ``fragcov simulate --grid-type type2 --kernel
    scenarioA:3 --n 5000 --k 50 --delta 0.4,0.6``, ``fragcov patch --k 25``,
    ``fragcov complete --rank 3``, each a fresh ``python -m fragcov`` process
    (in-process ``cli.main`` calls when traced). completed.csv must be a
    finite, symmetric K x K matrix of rank 3; its RE% is against the kernel at
    the bin midpoints. rel_err_pct is the median RE% of the first two
    operations, which use the fixed simulation seeds 0 and 1: between seeds the
    RE% of one chain ranges over 18-31%, too wide for two operations of a
    seed-drawn run to give a steady figure.
    """

    name = "cli_type2"
    acc_ops = 2

    def setup(self):
        self.n, self.k_sim, self.k = (300, 20, 10) if self.smoke else (5000, 50, 25)
        if self.smoke:
            self.acc_ops = 1
        self.dir = os.path.join(self.workdir, f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        fc = self.fc.pkg
        self.truth = fc.evaluate_on_grid(fc.kernel_from_id("scenarioA:3"), (np.arange(self.k) + 0.5) / self.k)
        self.env = dict(os.environ, PYTHONPATH=self.fc.src)

    def make_input(self, i):
        return i if i < self.acc_ops else derive(self.seed, i)

    def warm_up(self, in_process=False):
        # in-process and small: this imports and byte-compiles everything the
        # CLI processes load, which is all a warm-up can do for them
        self.run(0, in_process=True, n=min(self.n, 300))

    def commands(self, sim_seed, n=None):
        d = self.dir
        return [
            ["simulate", "--grid-type", "type2", "--kernel", "scenarioA:3", "--n", str(n or self.n),
             "--k", str(self.k_sim), "--delta", "0.4,0.6", "--seed", str(sim_seed), "--out", f"{d}/sample.csv"],
            ["patch", "--input", f"{d}/sample.csv", "--k", str(self.k), "--out", f"{d}/patched.csv",
             "--counts-out", f"{d}/counts.csv"],
            ["complete", "--input", f"{d}/patched.csv", "--counts", f"{d}/counts.csv", "--rank", "3",
             "--out", f"{d}/completed.csv"],
        ]

    def run(self, sim_seed, in_process=False, n=None):
        out = os.path.join(self.dir, "completed.csv")
        if os.path.exists(out):
            os.remove(out)  # a stage that fails silently must not pass on the last chain's output
        for argv in self.commands(sim_seed, n):
            if in_process:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.fc.cli.main(argv)
            else:
                code = subprocess.run(
                    [sys.executable, "-m", "fragcov", *argv], env=self.env, stdout=subprocess.DEVNULL, timeout=120
                ).returncode
            if code != 0:
                raise CheckFailed(f"fragcov {argv[0]} exited with {code}")
        return out

    def check(self, sim_seed, path):
        m = np.loadtxt(path, delimiter=",", ndmin=2)
        if m.shape != (self.k, self.k) or not np.all(np.isfinite(m)):
            raise CheckFailed(f"completed.csv is not a finite {self.k}x{self.k} matrix")
        if not np.array_equal(m, m.T):
            raise CheckFailed("completed.csv is not symmetric")
        ev = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
        if not (ev[2] > 1e-10 * ev[0] and ev[3] <= 1e-10 * ev[0]):
            raise CheckFailed(f"completed.csv is not of rank 3 (leading |eigenvalues| {ev[:4]})")
        return self.fc.pkg.relative_error(m, self.truth)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class OracleBand(Workload):
    """Exact completion of a noiseless rank-3 band: scenario A or B, perturbed
    grid, K=200, delta=0.5.

    Not a gated workload (it is absent from spec.WORKLOADS): the oracle is
    pure interpreter work, and on a shared 2-vCPU host its operation time
    follows the host's speed, swinging by a quarter between runs. A traced
    elbow_k50 run records its layer over the panel below; ``run.py
    --workload oracle_band`` still runs it by hand.

    Every completion must be within ``CHECK_REL`` relative Frobenius error of
    the truth. rel_err_pct is the worst RE% over a fixed panel of 24 grids
    (grid seeds 0..23, scenario A on even seeds and B on odd), which every run
    completes first: the oracle's round-off error spreads over two orders of
    magnitude between seed-drawn grids, so only a fixed panel gives a figure
    steady enough to gate. Later operations use grids drawn from the seed.
    """

    name = "oracle_band"
    PANEL = 24
    # Criterion 01 bounds the error at 1e-8 on K=50 grids. At K=200 about 1% of
    # perturbed grids exceed 1e-8 (worst seen 6.8e-8 in 300), so the per-call
    # check is 1e-6 and the count above 1e-8 is reported per layer.
    CHECK_REL = 1e-6

    def setup(self):
        fc = self.fc.pkg
        self.K = 40 if self.smoke else 200
        self.acc_ops = 2 if self.smoke else self.PANEL
        self.mask = fc.band_mask(self.K, 0.5)
        self.kernels = {s: fc.scenario_kernel(s, 3) for s in "AB"}

    def make_input(self, i):
        fc = self.fc.pkg
        grid_seed = i if i < self.acc_ops else derive(self.seed, i)
        truth = fc.evaluate_on_grid(self.kernels["AB"[grid_seed % 2]], fc.Grid.perturbed(self.K, seed=grid_seed))
        return truth, truth.values * self.mask.include

    def run(self, inp, in_process=False):
        return self.fc.complete.exact_band_completion(inp[1], self.mask, 3)

    def check(self, inp, completed):
        re = self.fc.pkg.relative_error(completed, inp[0])
        if not re / 100.0 <= self.CHECK_REL:
            raise CheckFailed(f"oracle relative error {re / 100.0:.3g} above {self.CHECK_REL:g}")
        return re

    def accuracy(self, errors):
        return max(errors)


WORKLOADS = {w.name: w for w in (TableK100, ElbowK50, CliType2, OracleBand)}
