"""Experiment orchestration: replicated scenario sweeps, result tables and
fragment-file ingestion.

Replications are deterministic given the master seed: each replication
derives independent child streams per pipeline stage, so parallel
scheduling cannot change any result.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .core import Grid, band_mask, relative_error
from .kernels import kernel_from_id, evaluate_on_grid
from .simulate import (
    STAGE_GRID,
    STAGE_INTERVALS,
    STAGE_NOISE,
    STAGE_PATHS,
    STAGE_SOLVER,
    FragmentLaw,
    FragmentSample,
    add_noise,
    fragment,
    fragment_irregular,
    sample_gp,
    stage_rng,
)
from .patch import patched_binned, patched_regular, trusted_delta_prime
from .complete import SolveConfig, estimate_covariance

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_cell",
    "run_table",
    "table_cells",
    "ingest_fragments",
    "five_number_summary",
    "results_to_csv",
    "format_table",
    "TABLE_IDS",
]

TABLE_IDS = ("T2", "T4", "T5", "T6", "T7")


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation cell: kernel, sampling regime and solver policy.

    rank_policy is the cell's rank rule (the results CSV prints it) and is
    copied into solve. A solve.rank_policy other than SolveConfig's default
    must equal rank_policy, else ValueError; so replace(cfg, rank_policy=...)
    also needs a solve carrying the new rule or the default. A solve that
    sets the default rule explicitly cannot be told from an unset one, and
    takes the cell's rule.
    """

    kernel: str
    n: int = 200
    K: int | None = 50
    base_resolution: int = 50
    delta: tuple = (0.5, 0.5)
    grid_type: str = "common"
    noise_sd: float = 0.0
    delta_prime: float | None = None
    rank_policy: str = "elbow"
    replications: int = 100
    seed: int = 0
    # Table protocol: fragcov's dense BFGS loop (complete._bfgs, scipy's line
    # search and stopping rules) with a conventional iteration budget; the
    # library-level SolveConfig default (L-BFGS + polish) runs much deeper.
    solve: SolveConfig = field(
        default_factory=lambda: SolveConfig(method="bfgs", max_iter=100, grad_tol=1e-8)
    )

    def __post_init__(self):
        inner = self.solve.rank_policy
        if inner not in (self.rank_policy, SolveConfig.rank_policy):
            raise ValueError(
                f"solve.rank_policy {inner!r} disagrees with the cell's rank_policy {self.rank_policy!r}"
            )
        object.__setattr__(self, "solve", replace(self.solve, rank_policy=self.rank_policy))

    def law(self) -> FragmentLaw:
        return FragmentLaw(float(self.delta[0]), float(self.delta[1]))

    def resolved_delta_prime(self) -> float:
        """delta_prime, else the delta' rule applied to the law's length range."""
        if self.delta_prime is not None:
            return self.delta_prime
        dp = trusted_delta_prime(self.delta)
        if dp is None:
            raise ValueError(f"fragment lengths {self.delta} leave no trusted band")
        return dp

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Inverse of to_json; a key that names no field raises ValueError."""
        payload = json.loads(text)
        solve = payload.pop("solve", None)
        for kind, keys in ((cls, payload), (SolveConfig, solve or {})):
            unknown = sorted(set(keys) - {f.name for f in fields(kind)})
            if unknown:
                raise ValueError(f"unknown {kind.__name__} keys: {', '.join(unknown)}")
        if "delta" in payload:
            payload["delta"] = tuple(payload["delta"])
        cfg = cls(**payload)
        if solve:
            cfg = replace(cfg, solve=SolveConfig(**solve))
        return cfg


@dataclass(frozen=True)
class ExperimentResult:
    """Per-replication relative errors (percent) and their quartile summary."""

    errors: np.ndarray
    failures: tuple
    median: float
    q1: float
    q3: float
    config: ExperimentConfig
    realized_K: int
    wall_time: float


def _mid_median(sorted_vals: np.ndarray) -> float:
    m = len(sorted_vals)
    if m == 0:
        return float("nan")
    if m % 2:
        return float(sorted_vals[m // 2])
    return 0.5 * float(sorted_vals[m // 2 - 1] + sorted_vals[m // 2])


def five_number_summary(values) -> tuple[float, float, float]:
    """(median, q1, q3) by the midpoint rule on the sorted values and on the
    lower/upper halves (middle element excluded when the count is odd)."""
    v = np.sort(np.asarray(values, dtype=float))
    med = _mid_median(v)
    h = len(v) // 2
    if h == 0:
        return med, med, med
    return med, _mid_median(v[:h]), _mid_median(v[len(v) - h :])


def _replicate(config: ExperimentConfig, rep: int) -> tuple[float, int]:
    """One replication: simulate, patch, complete, score. Returns (re, K)."""
    kernel = kernel_from_id(config.kernel)
    rep_seed = np.random.SeedSequence(config.seed, spawn_key=(rep,))
    law = config.law()
    solve_rng = stage_rng(rep_seed, STAGE_SOLVER)

    if config.grid_type == "common":
        K = config.K or 50
        grid = Grid.perturbed(K, stage_rng(rep_seed, STAGE_GRID))
        truth = evaluate_on_grid(kernel, grid)
        paths = sample_gp(truth, config.n, stage_rng(rep_seed, STAGE_PATHS))
        sample = fragment(paths, grid, law, stage_rng(rep_seed, STAGE_INTERVALS))
        if config.noise_sd > 0:
            sample = add_noise(sample, config.noise_sd, stage_rng(rep_seed, STAGE_NOISE))
        patched = patched_regular(sample)
    elif config.grid_type in ("type1", "type2"):
        sample = fragment_irregular(
            kernel, config.n, law, config.grid_type, base_resolution=config.base_resolution, seed=rep_seed
        )
        if config.noise_sd > 0:
            sample = add_noise(sample, config.noise_sd, stage_rng(rep_seed, STAGE_NOISE))
        if config.grid_type == "type1":
            K = config.K or config.base_resolution
            truth = evaluate_on_grid(kernel, sample.grid)
        else:
            if config.K is not None:
                K = config.K
            else:
                quotas = np.array([t.size for t in sample.times])
                K = max(2, int(round(4.0 * quotas.sum() / (5.0 * config.n))))
            truth = evaluate_on_grid(kernel, (np.arange(K) + 0.5) / K)
        patched = patched_binned(sample, K)
    else:
        raise ValueError(f"unknown grid type {config.grid_type!r}")

    # The solver mask is the delta' band itself, not intersected with the
    # data support: corner pairs can be unobserved under random grids and
    # uniform starts, and the zero-filled target handles them.
    mask = band_mask(K, config.resolved_delta_prime(), exclude_diagonal=patched.noise_flag)
    estimate = estimate_covariance(patched, config.solve, mask=mask, rng=solve_rng)
    return relative_error(estimate.matrix, truth), K


def _replicate_worker(args):
    config, rep = args
    try:
        err, K = _replicate(config, rep)
        return rep, err, K, None
    except Exception as exc:  # noqa: BLE001 - failures are per-replication data
        return rep, None, 0, f"{type(exc).__name__}: {exc}"


def _worker_count() -> int:
    env = os.environ.get("FRAGCOV_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


# OpenBLAS's thread-count functions as the supported numpy and scipy wheels
# name them: unprefixed in older wheels, scipy_-prefixed in newer ones, with
# a 64_ suffix on the 64-bit-integer builds that numpy bundles.
_OPENBLAS_THREADS = (
    "openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "scipy_openblas_{}_num_threads64_",
)


def _openblas() -> list[tuple]:
    """(get, set) thread-count functions of the OpenBLAS libraries bundled with
    numpy's and scipy's wheels (each package loads its own, with its own
    threads). Other BLAS builds are not listed. scipy.optimize is imported
    first, so that scipy's OpenBLAS is loaded and listed before a solve
    would load it at its default thread count."""
    import scipy.optimize

    controls = []
    for package in (np, scipy):
        bundle = Path(package.__file__).parent.with_name(package.__name__ + ".libs")
        for path in sorted(bundle.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
            except OSError:  # bundled but not loaded
                continue
            name = next((n for n in _OPENBLAS_THREADS if hasattr(lib, n.format("set"))), None)
            if name is not None:
                controls.append((getattr(lib, name.format("get")), getattr(lib, name.format("set"))))
    return controls


def _set_blas_threads(counts) -> None:
    """Set each _openblas() library to its own count, or all to one int."""
    controls = _openblas()
    if isinstance(counts, int):
        counts = [counts] * len(controls)
    for (_, set_), n in zip(controls, counts):
        set_(n)


@contextmanager
def _single_thread_blas():
    """Run OpenBLAS on one thread inside the block, then restore the counts.

    Replications run this way serially and in pool workers alike: OpenBLAS's
    threaded reductions round differently from its serial ones, so this keeps
    results independent of the worker count, and pool workers on the same
    cores do not contend for BLAS threads.
    """
    saved = [get() for get, _ in _openblas()]
    _set_blas_threads(1)
    try:
        yield
    finally:
        _set_blas_threads(saved)


def run_cell(config: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Run all replications of one cell and summarize the relative errors.

    Failed replications are recorded and excluded from the quartiles.
    Replications run BLAS on one thread, in the calling process as in each
    pool worker (see _single_thread_blas).
    """
    t0 = time.perf_counter()
    tasks = [(config, rep) for rep in range(config.replications)]
    workers = _worker_count() if workers is None else max(1, workers)
    if workers == 1 or len(tasks) == 1:
        with _single_thread_blas():
            outcomes = [_replicate_worker(t) for t in tasks]
    else:
        _openblas()  # forked workers inherit scipy instead of each importing it
        with ProcessPoolExecutor(min(workers, len(tasks)), initializer=_set_blas_threads, initargs=(1,)) as pool:
            outcomes = list(pool.map(_replicate_worker, tasks, chunksize=1))
    outcomes.sort(key=lambda o: o[0])
    errors = np.array([o[1] for o in outcomes if o[1] is not None])
    failures = tuple((o[0], o[3]) for o in outcomes if o[3] is not None)
    ks = [o[2] for o in outcomes if o[1] is not None]
    med, q1, q3 = five_number_summary(errors) if errors.size else (float("nan"),) * 3
    return ExperimentResult(
        errors=errors,
        failures=failures,
        median=med,
        q1=q1,
        q3=q3,
        config=config,
        realized_K=int(np.median(ks)) if ks else 0,
        wall_time=time.perf_counter() - t0,
    )


def table_cells(table: str, seed: int = 0, replications: int = 100) -> list[ExperimentConfig]:
    """Enumerate the cell grid of a built-in benchmark table (stable order)."""
    table = table.upper()
    deltas5 = (0.5, 0.6, 0.7, 0.8, 0.9)
    pairs4 = ((0.4, 0.6), (0.5, 0.7), (0.6, 0.8), (0.7, 0.9))
    cells: list[ExperimentConfig] = []
    if table == "T2":
        for scenario in ("A", "B"):
            for q in (1, 2, 3):
                for d in deltas5:
                    cells.append(
                        ExperimentConfig(
                            kernel=f"scenario{scenario}:{q}",
                            delta=(d, d),
                            rank_policy=f"fixed:{q}",
                        )
                    )
    elif table == "T4":
        for base in ("matern", "matern+A2"):
            for nu in (1.5, 2.5):
                for rho in (0.5, 0.8):
                    for d in deltas5:
                        kid = f"{base}:{nu},{rho}" if base == "matern+A2" else f"matern:{nu},{rho},1.0"
                        cells.append(
                            ExperimentConfig(
                                kernel=kid,
                                delta=(d, d),
                                rank_policy="fixed:2",
                            )
                        )
    elif table in ("T5", "T6"):
        grid_type = "type1" if table == "T5" else "type2"
        for noise in (0.0, 1.0):
            for n in (200, 400):
                for q in (1, 2, 3):
                    for d in pairs4:
                        cells.append(
                            ExperimentConfig(
                                kernel=f"scenarioA:{q}",
                                n=n,
                                K=50 if grid_type == "type1" else None,
                                delta=d,
                                grid_type=grid_type,
                                noise_sd=noise,
                                rank_policy=f"fixed:{q}",
                            )
                        )
    elif table == "T7":
        for K in (25, 100):
            for q in (1, 2, 3):
                for d in deltas5:
                    cells.append(
                        ExperimentConfig(
                            kernel=f"scenarioA:{q}",
                            K=K,
                            delta=(d, d),
                            rank_policy=f"fixed:{q}",
                        )
                    )
    else:
        raise ValueError(f"unknown table {table!r}; expected one of {TABLE_IDS}")
    return [replace(c, replications=replications, seed=seed) for c in cells]


def run_table(
    table: str,
    seed: int = 0,
    replications: int = 100,
    cells: list[int] | None = None,
    workers: int | None = None,
) -> list[ExperimentResult]:
    """Run one built-in table (optionally restricted to given cell indices)."""
    configs = table_cells(table, seed=seed, replications=replications)
    if cells is not None:
        configs = [configs[i] for i in cells]
    return [run_cell(cfg, workers=workers) for cfg in configs]


CSV_COLUMNS = "scenario,rank,delta1,delta2,n,K,grid_type,noise,median,q1,q3,failures,seed"


def results_to_csv(results: list[ExperimentResult]) -> str:
    lines = [CSV_COLUMNS]
    for r in results:
        c = r.config
        lines.append(
            ",".join(
                [
                    c.kernel,
                    c.rank_policy,
                    repr(float(c.delta[0])),
                    repr(float(c.delta[1])),
                    str(c.n),
                    str(c.K if c.K is not None else r.realized_K),
                    c.grid_type,
                    repr(float(c.noise_sd)),
                    repr(float(r.median)),
                    repr(float(r.q1)),
                    repr(float(r.q3)),
                    str(len(r.failures)),
                    str(c.seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def format_table(results: list[ExperimentResult]) -> str:
    """Aligned text table, one row per cell."""
    header = f"{'kernel':<18}{'rank':<10}{'delta':<14}{'n':<6}{'K':<5}{'grid':<8}{'noise':<7}{'median (q1, q3)':<22}{'fail'}"
    lines = [header, "-" * len(header)]
    for r in results:
        c = r.config
        d = f"({c.delta[0]:g}, {c.delta[1]:g})"
        cell = f"{r.median:.0f} ({r.q1:.0f}, {r.q3:.0f})"
        lines.append(
            f"{c.kernel:<18}{c.rank_policy:<10}{d:<14}{c.n:<6}{str(c.K or r.realized_K):<5}"
            f"{c.grid_type:<8}{c.noise_sd:<7g}{cell:<22}{len(r.failures)}"
        )
    return "\n".join(lines) + "\n"


def ingest_fragments(path) -> FragmentSample:
    """Read a fragment CSV (header curve_id,t,value) into a FragmentSample.

    Intervals come from the JSON sidecar (the same path with a .json suffix)
    when present, matched by curve_id, or by order of first appearance
    if the sidecar has no ids and one interval per curve; else they are
    inferred as [min t, max t] per curve. Curves with fewer than two points
    are dropped with a warning. A row with t outside [0, 1], a non-finite
    value or a t repeated within its curve is rejected with its path:line.
    """
    path = Path(path)
    by_curve: dict[str, dict[float, float]] = {}
    with path.open() as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "curve_id,t,value":
            raise ValueError(f"{path}: expected header 'curve_id,t,value', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}")
            cid, t_str, v_str = parts
            try:
                t, v = float(t_str), float(v_str)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from exc
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"{path}:{lineno}: t={t} outside [0, 1]")
            if not math.isfinite(v):
                raise ValueError(f"{path}:{lineno}: non-finite value {v_str!r}")
            rows = by_curve.setdefault(cid, {})
            if t in rows:
                raise ValueError(f"{path}:{lineno}: curve {cid!r} repeats t={t}")
            rows[t] = v

    meta = None
    sidecar_path = path.with_suffix(".json")
    if sidecar_path.exists():
        meta = json.loads(sidecar_path.read_text())

    ids, times, values = [], [], []
    for cid, rows in by_curve.items():
        if len(rows) < 2:
            warnings.warn(f"curve {cid!r} has fewer than 2 points; dropped")
            continue
        ts = sorted(rows)
        ids.append(cid)
        times.append(np.array(ts))
        values.append(np.array([rows[t] for t in ts]))

    entries = meta.get("intervals", []) if meta else []
    if entries and all("curve_id" in e for e in entries):
        by_id = {str(e["curve_id"]): e for e in entries}
    elif meta and len(entries) == len(by_curve):
        by_id = dict(zip(by_curve, entries))
    else:
        by_id = None
    if by_id is not None:
        missing = [cid for cid in ids if cid not in by_id]
        if missing:
            raise ValueError(f"{sidecar_path}: no interval for curve {missing[0]!r}")
        intervals = np.array([[by_id[cid]["start"], by_id[cid]["delta"]] for cid in ids])
        grid_type = meta.get("grid_type", "type2")
        noise_sd = float(meta.get("noise_sd", 0.0))
    else:
        intervals = np.array([[t.min(), t.max() - t.min()] for t in times])
        grid_type = "type2"
        noise_sd = 0.0
    return FragmentSample(
        times=tuple(times),
        values=tuple(values),
        intervals=intervals,
        grid_type=grid_type,
        noise_sd=noise_sd,
        curve_ids=tuple(ids),
    )
