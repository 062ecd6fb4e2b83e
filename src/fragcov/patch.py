"""Banded empirical covariance from fragments (the "patched" estimator).

Every entry averages centered cross-products over exactly the curves (or
time pairs, in the binned variant) that observe both arguments, with means
computed from those same contributors. Entries nobody observes are zero and
carry a zero count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BandMask, SymMatrix, band_mask
from .simulate import FragmentSample

__all__ = [
    "PatchedCovariance",
    "patched_regular",
    "patched_binned",
    "effective_mask",
    "trusted_delta_prime",
]

FIXED_DELTA_MARGIN = 0.1


@dataclass(frozen=True)
class PatchedCovariance:
    """Patched covariance matrix with pair-availability counts."""

    matrix: SymMatrix
    delta_effective: float | None = None
    noise_flag: bool = False

    @property
    def values(self) -> np.ndarray:
        return self.matrix.values

    @property
    def counts(self) -> np.ndarray:
        return self.matrix.counts

    @property
    def K(self) -> int:
        return self.matrix.K


def _pairwise_completed(value_rows: np.ndarray, avail_rows: np.ndarray):
    """Entrywise pairwise-complete covariance from per-row value/availability
    matrices, along with the contributor counts.

    Works for both regimes: rows are curves (regular) or per-curve bin
    aggregates (binned); entry (j, l) is sum over rows of products divided by
    the pair count, centered by pair-specific means.
    """
    counts = avail_rows.T @ avail_rows
    sums_jl = value_rows.T @ avail_rows  # (j, l): sum of values at j over contributors of (j, l)
    prods = value_rows.T @ value_rows
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = prods / counts - (sums_jl * sums_jl.T) / (counts * counts)
    entries = np.where(counts > 0, raw, 0.0)
    # exact symmetry: compute once per unordered pair
    entries = np.triu(entries) + np.triu(entries, 1).T
    counts = np.triu(counts) + np.triu(counts, 1).T
    return entries, counts


def trusted_delta_prime(lengths) -> float | None:
    """The delta' rule: fragments of one length delta are trusted on the band
    delta - FIXED_DELTA_MARGIN (None if not positive), fragments of variable
    lengths on the band of the shortest one. None for no fragments."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.size == 0:
        return None
    if np.ptp(lengths) <= 1e-12:
        dp = float(lengths[0]) - FIXED_DELTA_MARGIN
        return dp if dp > 0 else None
    return float(lengths.min())


def _patched(sample: FragmentSample, K: int, columns: np.ndarray) -> PatchedCovariance:
    """Patched covariance over K columns, observation k falling in columns[k].

    One bincount over curve * K + column gives each curve's per-column
    observation counts, a second one its per-column value sums; all ordered
    within-curve observation pairs then aggregate via outer products.
    """
    cells = np.repeat(np.arange(sample.n), sample.sizes) * K + columns
    occ = np.bincount(cells, minlength=sample.n * K).reshape(sample.n, K).astype(float)
    acc = np.bincount(cells, weights=sample.x, minlength=sample.n * K).reshape(sample.n, K)
    entries, counts = _pairwise_completed(acc, occ)
    delta_prime = trusted_delta_prime(sample.intervals[:, 1])
    return PatchedCovariance(SymMatrix(entries, counts.astype(int)), delta_prime, sample.noise_sd > 0)


def patched_regular(sample: FragmentSample) -> PatchedCovariance:
    """Patched covariance of a common-grid sample, K x K for its K grid points.

    Entry (j, l) is the mean of (X_i(t_j) - m_j)(X_i(t_l) - m_l) over the
    curves observing both t_j and t_l, where m_j, m_l are the means over
    exactly those curves. Unobserved pairs are zero-filled.
    """
    if sample.columns is None:
        raise ValueError("patched_regular needs a sample on a common grid")
    return _patched(sample, sample.grid.resolution, sample.columns)


def patched_binned(sample: FragmentSample, K: int) -> PatchedCovariance:
    """Binned patched covariance for irregular grids.

    The domain is partitioned into K cells; entry (j, l) averages centered
    cross-products over all within-curve time pairs landing in cells j and l,
    with means specific to that cell pair.
    """
    if K < 1:
        raise ValueError("K must be positive")
    patched = _patched(sample, K, np.minimum((sample.t * K).astype(int), K - 1))
    if not np.any(patched.counts > 0):
        raise ValueError("no observation pair lands in any bin pair")
    return patched


def effective_mask(patched: PatchedCovariance) -> BandMask:
    """Band mask on which the patched estimator is trusted: the band of
    width patched.delta_effective, without the diagonal when the sample was
    noisy. Raises if the mask would select an entry observed by no curve.
    """
    delta_prime = patched.delta_effective
    if delta_prime is None or not 0.0 < delta_prime < 1.0:
        raise ValueError("delta_prime must lie in (0, 1)")
    mask = band_mask(patched.K, delta_prime, exclude_diagonal=patched.noise_flag)
    if patched.counts is not None and np.any(mask.include & (patched.counts == 0)):
        raise ValueError("mask exceeds data support: selected entry has zero count")
    return mask
