"""Experiment orchestration: replicated scenario sweeps, result tables and
fragment-file ingestion.

Replications are deterministic given the master seed: each replication
derives independent child streams per pipeline stage, so parallel
scheduling cannot change any result.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .core import Grid, _check_fields, _json_field, _json_object, band_mask, relative_error
from .kernels import kernel_from_id, evaluate_on_grid
from .simulate import (
    STAGE_GRID,
    STAGE_INTERVALS,
    STAGE_NOISE,
    STAGE_PATHS,
    STAGE_SOLVER,
    GRID_TYPES,
    FragmentLaw,
    FragmentSample,
    add_noise,
    fragment,
    fragment_irregular,
    sample_gp,
    stage_rng,
)
from .patch import patched_binned, patched_regular, trusted_delta_prime
from .complete import SolveConfig, _bfgs_routines, _set_blas_threads, _single_thread_blas
from .complete import estimate_covariance, parse_rank_policy

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


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation cell: kernel, sampling regime and rank rule.

    Every cell is fitted under the table protocol, SolveConfig(method="bfgs")
    with rank_policy as its rule. A common-grid cell with K None runs at
    K=50; a type1 cell is scored on its base grid, so its K must be None or
    base_resolution; a type2 cell with K None bins at a K drawn from the
    sample. A field of the wrong kind (core._check_fields) and a cell that
    cannot run raise ValueError when it is built, the latter with the message
    its replications would fail with: a malformed rank_policy, kernel id,
    delta or grid_type, n < 2, noise_sd < 0 or not finite, replications < 1,
    seed < 0, such a type1 K, or a delta' band degenerate at the cell's K
    (for such a type2 cell, at the largest K its samples can draw).
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

    def __post_init__(self):
        _check_fields(self)
        parse_rank_policy(self.rank_policy)
        kernel_from_id(self.kernel)
        self.law()
        if self.grid_type not in GRID_TYPES:
            raise ValueError(f"unknown grid type {self.grid_type!r}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not 0 <= self.noise_sd < math.inf:
            raise ValueError(f"noise_sd must be nonnegative and finite, got {self.noise_sd}")
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got {self.replications}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.grid_type == "type1" and self.K not in (None, self.base_resolution):
            raise ValueError(f"type1 cell: K={self.K} must be None or base_resolution ({self.base_resolution})")
        K = self._fixed_K()
        if K is None:
            # every curve's quota is at most ceil(base_resolution * delta[1]), and
            # a band degenerate at the largest K is degenerate at every smaller K
            quota = math.ceil(self.base_resolution * self.delta[1])
            K = _binned_K(self.n * quota, self.n)
        band_mask(K, self.resolved_delta_prime())

    def _fixed_K(self) -> int | None:
        """The bin count where it is known before sampling: K, or 50 on a
        common grid and base_resolution on a type1 grid; None for a type2
        cell that bins at the sample's K."""
        if self.grid_type == "type1":
            return self.base_resolution
        if self.K is None and self.grid_type == "common":
            return 50
        return self.K

    def law(self) -> FragmentLaw:
        return FragmentLaw(*self.delta)

    def resolved_delta_prime(self) -> float:
        """delta_prime, else the delta' rule applied to the law's length range."""
        if self.delta_prime is not None:
            return self.delta_prime
        dp = trusted_delta_prime(self.delta)
        if dp is None:
            raise ValueError(f"fragment lengths delta={self.delta} leave no trusted band")
        return dp

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)

    @classmethod
    def from_json(cls, text: str, source="ExperimentConfig JSON") -> "ExperimentConfig":
        """Inverse of to_json. Malformed JSON, a payload that is not an object,
        a key that names no field and a config the constructor rejects raise
        ValueError naming source (the file the text came from)."""
        payload = _json_object(text, source)
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{source}: unknown {cls.__name__} keys: {', '.join(unknown)}")
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:  # a TypeError: a field without a default is missing
            raise ValueError(f"{source}: {exc}") from None


@dataclass(frozen=True)
class ExperimentResult:
    """Per-replication relative errors (percent) and their quartile summary,
    derived from errors (five_number_summary)."""

    errors: np.ndarray
    failures: tuple
    config: ExperimentConfig
    realized_K: int

    @property
    def median(self) -> float:
        return five_number_summary(self.errors)[0]

    @property
    def q1(self) -> float:
        return five_number_summary(self.errors)[1]

    @property
    def q3(self) -> float:
        return five_number_summary(self.errors)[2]


_DELTAS = (0.5, 0.6, 0.7, 0.8, 0.9)
_DELTA_PAIRS = ((0.4, 0.6), (0.5, 0.7), (0.6, 0.8), (0.7, 0.9))

# each built-in table's cells, in their stable order, as ExperimentConfig fields
_TABLES = {
    "T2": [dict(kernel=f"scenario{s}:{q}", delta=(d, d), rank_policy=f"fixed:{q}")
           for s in ("A", "B") for q in (1, 2, 3) for d in _DELTAS],
    "T4": [dict(kernel=kernel, delta=(d, d), rank_policy="fixed:2")
           for kernel in ("matern:1.5,0.5,1.0", "matern:1.5,0.8,1.0", "matern:2.5,0.5,1.0", "matern:2.5,0.8,1.0",
                          "matern+A2:1.5,0.5", "matern+A2:1.5,0.8", "matern+A2:2.5,0.5", "matern+A2:2.5,0.8")
           for d in _DELTAS],
    "T5": [dict(kernel=f"scenarioA:{q}", n=n, K=50, delta=d, grid_type="type1", noise_sd=noise,
                rank_policy=f"fixed:{q}")
           for noise in (0.0, 1.0) for n in (200, 400) for q in (1, 2, 3) for d in _DELTA_PAIRS],
    "T6": [dict(kernel=f"scenarioA:{q}", n=n, K=None, delta=d, grid_type="type2", noise_sd=noise,
                rank_policy=f"fixed:{q}")
           for noise in (0.0, 1.0) for n in (200, 400) for q in (1, 2, 3) for d in _DELTA_PAIRS],
    "T7": [dict(kernel=f"scenarioA:{q}", K=K, delta=(d, d), rank_policy=f"fixed:{q}")
           for K in (25, 100) for q in (1, 2, 3) for d in _DELTAS],
}
TABLE_IDS = tuple(_TABLES)


def five_number_summary(values) -> tuple[float, float, float]:
    """(median, q1, q3): the medians of the sorted values and of their lower
    and upper halves (middle element excluded when the count is odd), NaN for
    no values. A NaN value gives NaN, and a -0.0 quartile may come back 0.0;
    run_cell passes neither (failures are left out, relative errors are >= 0)."""
    v = np.sort(np.asarray(values, dtype=float))
    h = len(v) // 2
    if h == 0:
        return (float(v[0]) if len(v) else float("nan"),) * 3
    return float(np.median(v)), float(np.median(v[:h])), float(np.median(v[len(v) - h :]))


def _binned_K(points: int, n: int) -> int:
    """A type2 cell's bin count from its sample: 4/5 of the mean quota."""
    return max(2, int(round(4.0 * points / (5.0 * n))))


def _draw_sample(kernel, n: int, law: FragmentLaw, grid_type: str, K: int, noise_sd: float, seed) -> FragmentSample:
    """The sample `fragcov simulate` writes and a replication fits: n curves
    of kernel on a perturbed K-grid (common) or on irregular grids of base
    resolution K (type1, type2), plus noise when noise_sd != 0 (negative
    raises), each draw from its stage stream of seed (an int or a SeedSequence)."""
    if grid_type == "common":
        grid = Grid.perturbed(K, stage_rng(seed, STAGE_GRID))
        paths = sample_gp(evaluate_on_grid(kernel, grid), n, stage_rng(seed, STAGE_PATHS))
        sample = fragment(paths, grid, law, stage_rng(seed, STAGE_INTERVALS))
    else:
        sample = fragment_irregular(kernel, n, law, grid_type, base_resolution=K, seed=seed)
    if noise_sd != 0:
        sample = add_noise(sample, noise_sd, stage_rng(seed, STAGE_NOISE))
    return sample


def _replicate(config: ExperimentConfig, rep: int) -> tuple[float, int]:
    """One replication: simulate, patch, complete, score. Returns (re, K)."""
    kernel = kernel_from_id(config.kernel)
    rep_seed = np.random.SeedSequence(config.seed, spawn_key=(rep,))
    K = config._fixed_K()
    common = config.grid_type == "common"
    sample = _draw_sample(kernel, config.n, config.law(), config.grid_type, K if common else config.base_resolution,
                          config.noise_sd, rep_seed)
    if K is None:  # a type2 cell bins at its sample's K
        K = _binned_K(sample.t.size, config.n)
    truth = evaluate_on_grid(kernel, sample.grid if sample.grid is not None else Grid.regular(K))
    patched = patched_regular(sample) if common else patched_binned(sample, K)

    # The solver mask is the delta' band itself, not intersected with the
    # data support: corner pairs can be unobserved under random grids and
    # uniform starts, and the zero-filled target handles them.
    mask = band_mask(K, config.resolved_delta_prime(), exclude_diagonal=patched.noise_flag)
    solve = SolveConfig(method="bfgs", rank_policy=config.rank_policy)
    estimate = estimate_covariance(patched, solve, mask=mask, rng=stage_rng(rep_seed, STAGE_SOLVER))
    return relative_error(estimate.matrix, truth), K


def _replicate_worker(args):
    config, rep = args
    try:
        err, K = _replicate(config, rep)
        return rep, err, K, None
    except Exception as exc:  # noqa: BLE001 - failures are per-replication data
        return rep, None, 0, f"{type(exc).__name__}: {exc}"


def _init_pool_worker() -> None:
    """A pool worker runs replications as run_cell's calling process does."""
    _set_blas_threads(1)
    warnings.simplefilter("default")


def _worker_count() -> int:
    env = os.environ.get("FRAGCOV_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"FRAGCOV_THREADS must be an integer, got {env!r}") from None
    return max(1, os.cpu_count() or 1)


def run_cell(config: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Run all replications of one cell and summarize the relative errors.

    Failed replications are recorded and excluded from the quartiles.
    Replications run the bundled OpenBLAS on one thread, in the calling
    process as in each pool worker: the whole replication, not only the
    solve, which pins itself (complete._single_thread_blas), because
    sample_gp's matmul is threaded too. They also run under the "default"
    warnings action whatever the caller's filter, so a warning is shown once
    per location and process and never turns a replication into a failure.
    """
    tasks = [(config, rep) for rep in range(config.replications)]
    workers = _worker_count() if workers is None else max(1, workers)
    if workers == 1 or len(tasks) == 1:
        # one catch_warnings for all: entering one resets the shown-once registry
        with _single_thread_blas(), warnings.catch_warnings():
            warnings.simplefilter("default")
            outcomes = [_replicate_worker(t) for t in tasks]
    else:
        _bfgs_routines()  # forked workers inherit the BFGS files instead of each loading them
        with ProcessPoolExecutor(min(workers, len(tasks)), initializer=_init_pool_worker) as pool:
            outcomes = list(pool.map(_replicate_worker, tasks, chunksize=1))
    errors = np.array([o[1] for o in outcomes if o[1] is not None])
    failures = tuple((o[0], o[3]) for o in outcomes if o[3] is not None)
    ks = [o[2] for o in outcomes if o[1] is not None]
    return ExperimentResult(
        errors=errors,
        failures=failures,
        config=config,
        realized_K=int(np.median(ks)) if ks else 0,
    )


def table_cells(table: str, seed: int = 0, replications: int = 100) -> list[ExperimentConfig]:
    """Enumerate the cell grid of a built-in benchmark table (stable order)."""
    cells = _TABLES.get(table.upper())
    if cells is None:
        raise ValueError(f"unknown table {table.upper()!r}; expected one of {TABLE_IDS}")
    return [ExperimentConfig(**cell, replications=replications, seed=seed) for cell in cells]


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
        for i in cells:
            if not 0 <= i < len(configs):
                raise ValueError(f"cell index {i} outside table {table.upper()}'s {len(configs)} cells")
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
                    repr(c.delta[0]),
                    repr(c.delta[1]),
                    str(c.n),
                    str(c.K if c.K is not None else r.realized_K),
                    c.grid_type,
                    repr(c.noise_sd),
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

    The optional JSON sidecar (the same path with a .json suffix) gives
    noise_sd and intervals, matched by curve_id if every interval has a
    distinct one, else one per curve in order of first appearance (any
    other list is rejected); with none, each is inferred as [min t, max t].
    Curves with fewer than two points are dropped with a warning. A row with
    t outside [0, 1], a non-finite value or a t repeated within its curve is
    rejected with its path:line. A sidecar FragmentSample rejects (an
    interval that does not hold its curve's times, a negative noise_sd) is
    reported with the sidecar's path.
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

    sidecar_path = path.with_suffix(".json")
    meta = _json_object(sidecar_path.read_text(), sidecar_path) if sidecar_path.exists() else {}

    ids, sizes, times, values = [], [], [], []
    for cid, rows in by_curve.items():
        if len(rows) < 2:
            warnings.warn(f"curve {cid!r} has fewer than 2 points; dropped")
            continue
        ts = sorted(rows)
        ids.append(cid)
        sizes.append(len(ts))
        times.extend(ts)
        values.extend(rows[t] for t in ts)
    t, sizes = np.array(times, dtype=float), np.array(sizes, dtype=np.intp)

    entries = _json_field(meta, "intervals", "list", sidecar_path, [])
    labels = [str(e["curve_id"]) for e in entries if "curve_id" in e]
    by_id = dict(zip(labels or by_curve, entries))
    if entries and (len(by_id) < len(entries) or not labels and len(entries) != len(by_curve)):
        raise ValueError(f"{sidecar_path}: intervals must all carry distinct curve_ids, or none and number "
                         f"one per curve ({len(entries)} for {len(by_curve)} curves)")
    if by_id:
        missing = [cid for cid in ids if cid not in by_id]
        if missing:
            raise ValueError(f"{sidecar_path}: no interval for curve {missing[0]!r}")
        intervals = np.array(
            [[_json_field(by_id[cid], key, "float", f"{sidecar_path}: curve {cid!r}") for key in ("start", "delta")]
             for cid in ids]
        ).reshape(-1, 2)
    else:
        ends = np.cumsum(sizes)
        first, last = t[ends - sizes], t[ends - 1]
        intervals = np.column_stack([first, last - first])
    noise_sd = _json_field(meta, "noise_sd", "float", sidecar_path, 0.0)
    try:
        return FragmentSample(
            t=t,
            x=np.array(values, dtype=float),
            sizes=sizes,
            intervals=intervals,
            noise_sd=noise_sd,
            curve_ids=tuple(ids),
        )
    except ValueError as exc:  # only the sidecar's values can fail FragmentSample's checks
        raise ValueError(f"{sidecar_path}: {exc}") from None
