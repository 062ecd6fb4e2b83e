"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The table-reproduction
criteria run 100 replications per cell and parallelize across cores
(bounded by FRAGCOV_THREADS); the full suite takes a few minutes on an
8-core machine.
"""

import math
import time

import numpy as np
import pytest

from fragcov import (
    CompletionError,
    ExperimentConfig,
    Grid,
    MercerKernel,
    SolveConfig,
    band_mask,
    counterexample_bump_pair,
    esseen_pair,
    evaluate_on_grid,
    exact_band_completion,
    masked_objective_grad,
    rank_sweep,
    relative_error,
    run_cell,
    scenario_kernel,
    solve_fixed_rank,
)
from fragcov.cli import main as cli_main


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name} {detail}".rstrip())
    assert ok, f"criterion {num}: {name} {detail}"


def _exact_band_instances():
    mask = band_mask(50, 0.5)
    for scen in ("A", "B"):
        for q in (1, 2, 3):
            for g in range(20):
                grid = Grid.perturbed(50, seed=1000 * q + g)
                truth = evaluate_on_grid(scenario_kernel(scen, q), grid)
                yield scen, q, truth.values * mask.include, mask, truth.values


def test_criterion_01_identifiability_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for scen, q, banded, mask, truth in _exact_band_instances():
        completed = exact_band_completion(banded, mask, q)
        rel = np.linalg.norm(completed.values - truth) / np.linalg.norm(truth)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _report(1, "identifiability oracle", ok, f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_solver_oracle_equivalence():
    # the rank sweep's warm starts, rank 1 up to q, as estimate_covariance runs them
    worst = 0.0
    for scen, q, banded, mask, truth in _exact_band_instances():
        oracle = exact_band_completion(banded, mask, q)
        factor = rank_sweep(banded, mask, SolveConfig(max_rank_sweep=q)).factors[q - 1]
        worst = max(worst, relative_error(factor.matrix(), oracle))
    _report(2, "solver matches oracle on exact bands", worst < 0.1, f"(worst re {worst:.2e}%)")


@pytest.mark.xfail(strict=True, reason="ROADMAP known defect 1: from the eigen start, fixed:3 stalls "
                   "in a spurious basin on scenario B rank-3 bands (17 of these 20 give 0.86-1.02%)")
def test_fixed_rank_matches_oracle_on_scenario_b_rank_3():
    # scenario B rank 3: the third component carries ~1e-6 of the band energy
    worst = 0.0
    for scen, q, banded, mask, truth in _exact_band_instances():
        if (scen, q) == ("B", 3):
            factor, _ = solve_fixed_rank(banded, mask, q)
            worst = max(worst, relative_error(factor.matrix(), exact_band_completion(banded, mask, q)))
    assert worst < 0.1, f"worst re {worst:.2e}%"


def test_criterion_03_gradient_correctness():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        K = int(rng.integers(5, 31))
        r = int(rng.integers(1, 6))
        gamma = rng.standard_normal((K, r))
        target = rng.standard_normal((K, K))
        target = target + target.T
        try:
            mask = band_mask(K, float(rng.uniform(0.4, 0.95)))
        except ValueError:
            mask = band_mask(K, 0.9)
        direction = rng.standard_normal((K, r))
        direction /= np.linalg.norm(direction)
        h = 1e-6
        fp, _ = masked_objective_grad(gamma + h * direction, target, mask.include)
        fm, _ = masked_objective_grad(gamma - h * direction, target, mask.include)
        numeric = (fp - fm) / (2 * h)
        analytic = float(np.vdot(masked_objective_grad(gamma, target, mask.include)[1], direction))
        rel = abs(numeric - analytic) / max(abs(analytic), 1e-12)
        worst = max(worst, rel)
    _report(3, "analytic gradient vs central differences", worst < 1e-5, f"(worst rel {worst:.2e})")


T2_CELLS = [
    ("scenarioA:1", 1, 0.5, 16), ("scenarioA:1", 1, 0.7, 14), ("scenarioA:1", 1, 0.9, 9),
    ("scenarioA:3", 3, 0.5, 34), ("scenarioA:3", 3, 0.7, 16), ("scenarioA:3", 3, 0.9, 12),
    ("scenarioB:1", 1, 0.5, 15), ("scenarioB:1", 1, 0.7, 13), ("scenarioB:1", 1, 0.9, 9),
    ("scenarioB:3", 3, 0.5, 20), ("scenarioB:3", 3, 0.7, 15), ("scenarioB:3", 3, 0.9, 10),
]


def test_criterion_04_table2_reproduction():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for kernel, q, delta, reference in T2_CELLS:
        cfg = ExperimentConfig(
            kernel=kernel, n=200, K=50, delta=(delta, delta),
            rank_policy=f"fixed:{q}", replications=100, seed=0,
        )
        res = run_cell(cfg)
        diff = res.median - reference
        ok &= abs(diff) <= 5.0 and not res.failures
        rows.append(f"{kernel} d={delta}: {res.median:.1f} vs {reference} ({diff:+.1f})")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 3600.0
    _report(4, "regular-grid table medians within +-5", ok, f"({elapsed:.0f}s) " + "; ".join(rows))


def test_criterion_05_matern_robustness():
    rows = []
    ok = True
    for rho, delta, reference in ((0.5, 0.5, 33), (0.5, 0.9, 16), (0.8, 0.5, 22), (0.8, 0.9, 11)):
        cfg = ExperimentConfig(
            kernel=f"matern:1.5,{rho},1.0", n=200, K=50, delta=(delta, delta),
            rank_policy="fixed:2", replications=100, seed=0,
        )
        res = run_cell(cfg)
        diff = res.median - reference
        ok &= abs(diff) <= 6.0 and not res.failures
        rows.append(f"rho={rho} d={delta}: {res.median:.1f} vs {reference} ({diff:+.1f})")
    _report(5, "non-analytic (Matern) medians within +-6", ok, "; ".join(rows))


def test_criterion_06_irregular_grid_cells():
    cfg1 = ExperimentConfig(
        kernel="scenarioA:2", n=200, K=50, delta=(0.5, 0.7), grid_type="type1",
        rank_policy="fixed:2", replications=100, seed=0,
    )
    r1 = run_cell(cfg1)
    cfg2 = ExperimentConfig(
        kernel="scenarioA:2", n=400, K=None, delta=(0.5, 0.7), grid_type="type2",
        noise_sd=1.0, rank_policy="fixed:2", replications=100, seed=0,
    )
    r2 = run_cell(cfg2)
    ok = abs(r1.median - 18) <= 6.0 and abs(r2.median - 21) <= 6.0
    _report(
        6,
        "irregular-grid cells within +-6",
        ok,
        f"(type1 noiseless {r1.median:.1f} vs 18; type2 noisy {r2.median:.1f} vs 21)",
    )


SCREE_WITNESSES = (
    ("scenarioA rank 1", scenario_kernel("A", 1), 1),
    ("scenarioA rank 2", scenario_kernel("A", 2), 2),
    (
        "balanced rank 3",
        MercerKernel(
            (1.5, 0.9, 0.6),
            (
                lambda t: np.ones_like(np.asarray(t, dtype=float)),
                lambda t: np.sin(2 * np.pi * t),
                lambda t: np.sin(6 * np.pi * t),
            ),
        ),
        3,
    ),
)


def test_criterion_07_scree_behavior():
    mask = band_mask(50, 0.5)
    ok = True
    details = []
    for name, kernel, q in SCREE_WITNESSES:
        grid = Grid.perturbed(50, seed=77 + q)
        banded = evaluate_on_grid(kernel, grid).values * mask.include
        sweep = rank_sweep(banded, mask, SolveConfig(max_rank_sweep=q + 2))
        ok &= bool(np.all(np.diff(sweep.fits) <= 1e-10))
        ok &= all(sweep.normalized_fits[i] > 0.01 for i in range(q - 1))
        ok &= sweep.normalized_fits[q - 1] < 1e-6
        details.append(f"{name}: fits {np.array2string(sweep.normalized_fits, formatter={'float': lambda v: f'{v:.1e}'})}")
    _report(7, "scree drops exactly at the true rank", ok, "; ".join(details))


def test_criterion_08_consistency_trend():
    medians = {}
    for n in (200, 800):
        cfg = ExperimentConfig(
            kernel="scenarioA:2", n=n, K=50, delta=(0.7, 0.7),
            rank_policy="fixed:2", replications=20, seed=0,
        )
        medians[n] = run_cell(cfg).median
    ok = medians[800] < medians[200]
    _report(8, "error shrinks with sample size", ok, f"(n=200: {medians[200]:.2f}, n=800: {medians[800]:.2f})")


def test_criterion_09_negative_controls():
    lam = 0.5
    k1, k2 = counterexample_bump_pair(lam)
    grid = Grid.perturbed(50, seed=123)
    m1 = evaluate_on_grid(k1, grid).values
    m2 = evaluate_on_grid(k2, grid).values
    lag = np.abs(np.subtract.outer(grid.points, grid.points))
    agree = np.abs(m1 - m2)[lag <= 1 / 3].max() < 1e-12
    differ = np.abs(m1 - m2)[lag > 1 / 3].max() > 0.01

    mask = band_mask(50, 1 / 3)
    banded = m1 * mask.include
    try:
        completed = exact_band_completion(banded, mask, 3)
        oracle_fails = np.abs(completed.values - m1)[~mask.include].max() > 0.01
        mode = "wrong completion"
    except CompletionError:
        oracle_fails = True
        mode = "singular minor"

    p1, p2 = esseen_pair()
    pts = np.linspace(-math.pi, math.pi, 64)
    e1 = evaluate_on_grid(p1, pts).values
    e2 = evaluate_on_grid(p2, pts).values
    elag = np.abs(np.subtract.outer(pts, pts))
    esseen_agree = np.abs(e1 - e2)[elag < 1.0].max() < 1e-15
    mid = (elag > 1.0) & (elag < 2.0)
    esseen_differ = np.abs(e1 - e2)[mid].max() > 1e-3

    ok = agree and differ and oracle_fails and esseen_agree and esseen_differ
    _report(9, "non-analytic counterexamples behave as expected", ok, f"(oracle failure mode: {mode})")


def test_criterion_10_cli_determinism(tmp_path):
    args = ["run", "--table", "T2", "--seed", "7", "--cells", "0"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    ok = out_a.read_bytes() == out_b.read_bytes()
    _report(10, "repeated seeded runs are byte-identical", ok)
