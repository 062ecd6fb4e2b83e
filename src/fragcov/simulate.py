"""Gaussian-process sampling, censoring into fragments, and observation regimes.

Three regimes are produced: a common (shared, possibly perturbed) grid with
each curve keeping the grid points inside its interval; type-1 mildly
irregular grids, where every curve observes a subset of one shared grid;
and type-2 highly irregular grids, where observation times are drawn
uniformly inside each fragment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import Grid, SeedLike, _eigen_root, as_generator, matrix_values
from .kernels import Kernel, evaluate_on_grid

__all__ = [
    "FragmentLaw",
    "FragmentSample",
    "sample_gp",
    "fragment",
    "fragment_irregular",
    "add_noise",
    "write_fragments",
]

GRID_TYPES = ("common", "type1", "type2")

# Fixed spawn order of per-replication child streams, so that toggling one
# stage (e.g. noise) cannot perturb the draws of the others.
STAGE_PATHS, STAGE_INTERVALS, STAGE_GRID, STAGE_TIMES, STAGE_NOISE, STAGE_SOLVER = range(6)


def stage_rng(seed: SeedLike, stage: int) -> np.random.Generator:
    """Independent generator for one pipeline stage of one replication.

    Children are derived by spawn key, not by stateful spawning, so the
    stream of one stage never depends on which other stages were used.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError("stage_rng needs an int or SeedSequence, not a Generator")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    child = np.random.SeedSequence(seed.entropy, spawn_key=tuple(seed.spawn_key) + (stage,))
    return np.random.default_rng(child)


@dataclass(frozen=True)
class FragmentLaw:
    """Law of the censoring intervals.

    Lengths are uniform in [delta_min, delta_max]. An interval of length d
    has its center uniform on [0, 1] and is shifted back inside the domain,
    so a d/2-fraction of the fragments hug each boundary; every domain point
    is covered with probability bounded away from zero.
    """

    delta_min: float
    delta_max: float

    def __post_init__(self):
        if not 0.0 < self.delta_min <= self.delta_max < 1.0:
            raise ValueError("need 0 < delta_min <= delta_max < 1")

    @classmethod
    def fixed(cls, delta: float) -> "FragmentLaw":
        return cls(delta, delta)

    def draw_lengths(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.delta_min, self.delta_max, size=n)

    def place(self, deltas, rng: np.random.Generator) -> np.ndarray:
        """Starts for intervals of the given lengths."""
        deltas = np.asarray(deltas, dtype=float)
        centers = rng.uniform(0.0, 1.0, size=deltas.shape)
        return np.clip(centers - deltas / 2.0, 0.0, 1.0 - deltas)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """(n, 2) array of (start, length) rows."""
        deltas = self.draw_lengths(n, rng)
        starts = self.place(deltas, rng)
        return np.column_stack([starts, deltas])


@dataclass(frozen=True)
class FragmentSample:
    """Discretely observed fragments of n curves, stored flat.

    t and x hold every observation time and value back to back in curve
    order, sizes[i] of them for curve i; curve i's times are sorted and lie
    in its interval [intervals[i, 0], intervals[i, 0] + intervals[i, 1]], to a
    slack of 1e-12. noise_sd is >= 0. On a shared grid (common and type1
    samples) columns holds the grid index of each time, else it is None.
    """

    t: np.ndarray
    x: np.ndarray
    sizes: np.ndarray
    intervals: np.ndarray
    noise_sd: float = 0.0
    grid: Grid | None = None
    columns: np.ndarray | None = None
    curve_ids: tuple = field(default=())

    def __post_init__(self):
        t, x = np.asarray(self.t, dtype=float), np.asarray(self.x, dtype=float)
        sizes = np.asarray(self.sizes, dtype=np.intp)
        iv = np.asarray(self.intervals, dtype=float)
        cols = None if self.columns is None else np.asarray(self.columns, dtype=np.intp)
        for name, arr in (("t", t), ("x", x), ("sizes", sizes), ("intervals", iv), ("columns", cols)):
            if arr is not None:
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        if not self.curve_ids:
            object.__setattr__(self, "curve_ids", tuple(range(sizes.size)))
        if sizes.ndim != 1 or iv.shape != (sizes.size, 2):
            raise ValueError("times, values and intervals must align")
        if t.shape != x.shape or t.shape != (sizes.sum(),):
            raise ValueError("per-curve times and values must align")
        if cols is not None and (
            self.grid is None or cols.shape != t.shape or np.any((cols < 0) | (cols >= self.grid.resolution))
        ):
            raise ValueError("columns must align with the times and index the grid")
        if not self.noise_sd >= 0:
            raise ValueError(f"noise_sd must be nonnegative, got {self.noise_sd}")
        lo = np.repeat(iv[:, 0], sizes)
        outside = ~((t >= lo - 1e-12) & (t <= lo + np.repeat(iv[:, 1], sizes) + 1e-12))  # NaN bounds hold no t
        if outside.any():
            i = int(np.argmax(outside))
            k = int(np.searchsorted(np.cumsum(sizes), i, side="right"))
            raise ValueError(f"curve {self.curve_ids[k]!r}: t={t[i]} outside its interval "
                             f"(start {iv[k, 0]}, delta {iv[k, 1]})")

    @property
    def n(self) -> int:
        return self.sizes.size

    @property
    def times(self) -> tuple:
        """Read-only per-curve views of t."""
        return tuple(np.split(self.t, np.cumsum(self.sizes))[:-1])


def sample_gp(truth, n: int, seed: SeedLike = None) -> np.ndarray:
    """Draw n centered Gaussian vectors with the given covariance matrix.

    Uses a symmetric eigendecomposition square root; eigenvalues in
    [-1e-6 * max, 0) are clipped to zero, anything lower is rejected.
    """
    cov = matrix_values(truth)
    root, vals = _eigen_root(cov)
    if vals.min() < -1e-6 * max(vals.max(), 0.0):
        raise ValueError("covariance is not PSD")
    rng = as_generator(seed)
    z = rng.standard_normal((n, cov.shape[0]))
    return z @ root.T


def fragment(values: np.ndarray, grid: Grid, law: FragmentLaw, seed: SeedLike = None) -> FragmentSample:
    """Censor fully observed curves on a common grid into fragments.

    Each curve keeps exactly the grid points falling inside its interval.
    """
    values = np.asarray(values, dtype=float)
    n, K = values.shape
    if K != grid.resolution:
        raise ValueError("value columns must match the grid resolution")
    rng = as_generator(seed)
    intervals = law.draw(n, rng)
    start = intervals[:, :1]
    inside = (grid.points >= start) & (grid.points <= start + intervals[:, 1:])
    rows, cols = np.nonzero(inside)
    return FragmentSample(
        t=grid.points[cols],
        x=values[rows, cols],
        sizes=np.count_nonzero(inside, axis=1),
        intervals=intervals,
        grid=grid,
        columns=cols,
    )


def _sample_curve_values(kernel: Kernel, times: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gaussian values of m curves at their (m, q) times from (m, q) standard
    normals: each curve's z times the eigendecomposition square root of the
    kernel's symmetrized matrix at its times, as sample_gp does for one matrix."""
    cov = np.asarray(kernel(times[:, :, None], times[:, None, :]), dtype=float)
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    return np.matmul(_eigen_root(cov)[0], z[:, :, None])[:, :, 0]


def fragment_irregular(
    kernel: Kernel,
    n: int,
    law: FragmentLaw,
    grid_type: str,
    base_resolution: int = 50,
    seed: SeedLike = None,
) -> FragmentSample:
    """Simulate fragments observed on irregular grids.

    type1: every curve observes Q_i = ceil(K * delta_i) points of one shared
    perturbed K-grid, all inside its interval (interval starts are redrawn
    until the interval holds at least Q_i grid points, then a uniform subset
    of size Q_i is kept; a curve whose 1000 draws all fall short raises
    ValueError). type2: Q_i = ceil(base_resolution * delta_i) times
    drawn i.i.d. uniform inside the interval.
    """
    if grid_type not in ("type1", "type2"):
        raise ValueError("grid_type must be 'type1' or 'type2'")
    if isinstance(seed, np.random.Generator):
        raise TypeError("fragment_irregular needs an int or SeedSequence seed")
    rng_paths = stage_rng(seed, STAGE_PATHS)
    rng_intervals = stage_rng(seed, STAGE_INTERVALS)
    rng_grid = stage_rng(seed, STAGE_GRID)
    rng_times = stage_rng(seed, STAGE_TIMES)

    K = base_resolution
    deltas = law.draw_lengths(n, rng_intervals)
    quotas = np.ceil(K * deltas).astype(int)
    if np.any(quotas < 2):
        raise ValueError("fragment too sparse: fewer than 2 observation points")

    if grid_type == "type1":
        shared = Grid.perturbed(K, rng_grid)
        paths = sample_gp(evaluate_on_grid(kernel, shared), n, rng_paths)
        starts = np.empty(n)
        columns = np.empty(quotas.sum(), dtype=np.intp)
        ends = np.cumsum(quotas)
        for i in range(n):
            d, q = deltas[i], quotas[i]
            for _ in range(1000):
                s = float(law.place(d, rng_intervals))
                idx = np.nonzero((shared.points >= s) & (shared.points <= s + d))[0]
                if idx.size >= q:
                    break
            else:
                raise ValueError(f"type1 curve {i}: no interval of length {d} placed in 1000 draws "
                                 f"held its quota of {q} points of the {K}-point grid")
            columns[ends[i] - q : ends[i]] = np.sort(rng_times.choice(idx, size=q, replace=False))
            starts[i] = s
        return FragmentSample(
            t=shared.points[columns],
            x=paths[np.repeat(np.arange(n), quotas), columns],
            sizes=quotas,
            intervals=np.column_stack([starts, deltas]),
            grid=shared,
            columns=columns,
        )

    # Curve i takes draws offsets[i]:offsets[i + 1] of one uniform and one
    # normal stream, in curve order, the same draws a per-curve loop makes.
    # Curves of equal quota share one stacked eigendecomposition.
    starts = law.place(deltas, rng_intervals)
    offsets = np.concatenate([[0], np.cumsum(quotas)])
    t_flat = rng_times.uniform(np.repeat(starts, quotas), np.repeat(starts + deltas, quotas))
    z_flat = rng_paths.standard_normal(offsets[-1])
    v_flat = np.empty_like(z_flat)
    for q in np.unique(quotas):
        rows = offsets[:-1][quotas == q, None] + np.arange(q)
        t = np.sort(t_flat[rows], axis=1)
        t_flat[rows] = t
        v_flat[rows] = _sample_curve_values(kernel, t, z_flat[rows])
    return FragmentSample(
        t=t_flat,
        x=v_flat,
        sizes=quotas,
        intervals=np.column_stack([starts, deltas]),
    )


def add_noise(sample: FragmentSample, noise_sd: float, seed: SeedLike = None) -> FragmentSample:
    """Add i.i.d. centered Gaussian measurement error to every observation."""
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
    if noise_sd == 0:
        return sample
    rng = as_generator(seed)
    return replace(sample, x=sample.x + rng.normal(0.0, noise_sd, size=sample.x.size), noise_sd=float(noise_sd))


def write_fragments(sample: FragmentSample, path) -> None:
    """Write a sample as CSV rows curve_id,t,value plus a JSON sidecar whose
    intervals carry the curve_id of the rows they belong to."""
    path = Path(path)
    ids = np.repeat(np.array(sample.curve_ids, dtype=object), sample.sizes)
    rows = (f"{cid},{t!r},{v!r}" for cid, t, v in zip(ids, sample.t.tolist(), sample.x.tolist()))
    lines = ["curve_id,t,value", *rows]
    path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "noise_sd": sample.noise_sd,
        "intervals": [
            {"curve_id": str(cid), "start": s, "delta": d}
            for cid, (s, d) in zip(sample.curve_ids, sample.intervals.tolist())
        ],
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=1) + "\n")
