"""Grids, band masks, symmetric-matrix containers and error metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Grid",
    "BandMask",
    "SymMatrix",
    "band_mask",
    "relative_error",
    "masked_frobenius_sq",
    "as_generator",
    "matrix_values",
]

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce an int, SeedSequence or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _eigen_root(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vecs * sqrt(vals clipped at 0), vals) from eigh: a square root of a
    symmetric matrix, or of each in a stack, and its unclipped eigenvalues."""
    vals, vecs = np.linalg.eigh(cov)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :], vals


@dataclass(frozen=True)
class Grid:
    """Ordered evaluation points on [0, 1]; their count is the resolution K.

    For regular or perturbed-regular grids, point j lives in the j-th cell
    [(j-1)/K, j/K] of the regular K-partition.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("grid must hold a nonempty 1-d array of points")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("grid points must lie in [0, 1]")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        pts.setflags(write=False)

    @property
    def resolution(self) -> int:
        return self.points.size

    @classmethod
    def regular(cls, K: int) -> "Grid":
        """Midpoint grid: point j at (j - 1/2) / K."""
        return cls((np.arange(K) + 0.5) / K)

    @classmethod
    def perturbed(cls, K: int, seed: SeedLike = None) -> "Grid":
        """Random grid with point j uniform in its cell [(j-1)/K, j/K]."""
        rng = as_generator(seed)
        return cls((np.arange(K) + rng.uniform(0.0, 1.0, size=K)) / K)


@dataclass(frozen=True)
class BandMask:
    """Symmetric 0/1 inclusion mask selecting a band around the diagonal."""

    include: np.ndarray
    delta: float
    exclude_diagonal: bool = False

    def __post_init__(self):
        inc = np.asarray(self.include, dtype=bool)
        object.__setattr__(self, "include", inc)
        if inc.ndim != 2 or inc.shape[0] != inc.shape[1]:
            raise ValueError("mask must be square")
        if not np.array_equal(inc, inc.T):
            raise ValueError("mask must be symmetric")
        inc.setflags(write=False)

    @property
    def K(self) -> int:
        return self.include.shape[0]

    @property
    def half_width(self) -> int:
        """Largest excluded offset bound: entries with |j-l| < half_width are in-band."""
        return int(np.floor(self.K * self.delta)) - 1


def band_mask(K: int, delta: float, exclude_diagonal: bool = False) -> BandMask:
    """Band inclusion mask: entry (j, l) selected iff |j - l| < floor(K*delta) - 1.

    With ``exclude_diagonal`` the diagonal is dropped as well (used when the
    diagonal of an empirical matrix is corrupted by measurement noise).
    """
    if K < 2:
        raise ValueError("K must be at least 2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    width = int(np.floor(K * delta)) - 1
    if width <= 0:
        raise ValueError(f"band degenerate: floor(K*delta) - 1 = {width} selects nothing")
    offsets = np.abs(np.subtract.outer(np.arange(K), np.arange(K)))
    include = offsets < width
    if exclude_diagonal:
        include &= offsets > 0
    return BandMask(include, float(delta), exclude_diagonal)


@dataclass(frozen=True)
class SymMatrix:
    """Dense symmetric K x K matrix, optionally with per-entry availability counts."""

    values: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(vals, vals.T, rtol=0.0, atol=1e-10):
            raise ValueError("matrix must be symmetric")
        vals.setflags(write=False)
        if self.counts is not None:
            cnt = np.asarray(self.counts)
            object.__setattr__(self, "counts", cnt)
            if cnt.shape != vals.shape:
                raise ValueError("counts shape must match values")
            if np.any(cnt < 0):
                raise ValueError("counts must be nonnegative")
            if not np.array_equal(cnt, cnt.T):
                raise ValueError("counts must be symmetric")
            cnt.setflags(write=False)

    @property
    def K(self) -> int:
        return self.values.shape[0]


def matrix_values(m) -> np.ndarray:
    """Extract the dense value array from a SymMatrix-like object or ndarray."""
    if isinstance(m, SymMatrix):
        return m.values
    if hasattr(m, "matrix") and isinstance(m.matrix, SymMatrix):
        return m.matrix.values
    return np.asarray(m, dtype=float)


def relative_error(estimate, truth) -> float:
    """Relative Frobenius error of an estimate, in percent.

    100 * ||estimate - truth||_F / ||truth||_F
    """
    est = matrix_values(estimate)
    ref = matrix_values(truth)
    if est.shape != ref.shape:
        raise ValueError("matrices must have equal dimensions")
    denom = float(np.linalg.norm(ref))
    if denom == 0.0:
        raise ValueError("undefined relative error: reference matrix is zero")
    return 100.0 * float(np.linalg.norm(est - ref)) / denom


def masked_frobenius_sq(a, b, mask: BandMask) -> float:
    """Squared Frobenius distance restricted to a mask, scaled by K^-2."""
    av = matrix_values(a)
    bv = matrix_values(b)
    if av.shape != bv.shape or av.shape != mask.include.shape:
        raise ValueError("matrix and mask dimensions must agree")
    diff = (av - bv)[mask.include]
    return float(diff @ diff) / (mask.K * mask.K)
