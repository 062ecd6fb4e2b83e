"""Recovering the full covariance from its banded patched estimate.

The banded matrix is extended off-band by rank-constrained masked least
squares: candidates are parameterized as gamma gamma^T (PSD by
construction) and fitted by quasi-Newton descent on the masked residual.
A rank sweep plus scree inspection selects the rank. For exactly banded
finite-rank matrices an exact completion is available by determinant
propagation: each unknown entry is the unique root of a vanishing
(q+1) x (q+1) minor.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .core import BandMask, SeedLike, SymMatrix, as_generator, matrix_values

if TYPE_CHECKING:
    from scipy.optimize import OptimizeResult

__all__ = [
    "CompletionError",
    "SolveConfig",
    "LowRankFactor",
    "RankSweepResult",
    "StepKernel",
    "CovarianceEstimate",
    "masked_objective_grad",
    "objective",
    "gradient",
    "solve_fixed_rank",
    "rank_sweep",
    "select_rank",
    "parse_rank_policy",
    "estimate_covariance",
    "exact_band_completion",
]


_log = logging.getLogger("fragcov.complete")


class CompletionError(RuntimeError):
    """Completion failed: singular minor or diverged descent."""


@dataclass(frozen=True)
class SolveConfig:
    """Optimizer and rank-selection settings.

    grad_tol of None means the default 1e-9 / K^2 gradient-norm threshold.
    method selects the quasi-Newton flavor: "lbfgs" (limited-memory, runs to
    tight tolerances, then a trust-ncg polish; the default) or "bfgs" (a
    dense inverse-Hessian BFGS loop, _bfgs, with scipy's line search and
    stopping rules; with a modest max_iter it mirrors common quasi-Newton
    defaults and is what the benchmark-table protocol uses).
    """

    max_rank_sweep: int | None = None
    grad_tol: float | None = None
    max_iter: int = 2000
    restarts: int = 1
    method: str = "lbfgs"
    rank_policy: str = "elbow"
    seed: int = 0

    def gtol(self, K: int) -> float:
        return self.grad_tol if self.grad_tol is not None else 1e-9 / (K * K)

    def sweep_bound(self, mask: BandMask) -> int:
        if self.max_rank_sweep is not None:
            return self.max_rank_sweep
        return max(1, int(np.ceil(mask.K * mask.delta)) - 3)


@dataclass(frozen=True)
class LowRankFactor:
    """K x i factor gamma representing the PSD candidate gamma gamma^T."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.ascontiguousarray(self.gamma, dtype=float)
        object.__setattr__(self, "gamma", g)
        if g.ndim != 2:
            raise ValueError("factor must be a K x i matrix")
        g.setflags(write=False)

    @property
    def K(self) -> int:
        return self.gamma.shape[0]

    @property
    def columns(self) -> int:
        return self.gamma.shape[1]

    def matrix(self) -> np.ndarray:
        m = self.gamma @ self.gamma.T
        return 0.5 * (m + m.T)


def _factor_values(gamma) -> np.ndarray:
    if isinstance(gamma, LowRankFactor):
        return gamma.gamma
    return np.ascontiguousarray(gamma, dtype=float)


def masked_objective_grad(gamma, target, mask):
    """Fused value and gradient of the masked factorized fit.

    value = K^-2 * sum_mask (gamma gamma^T - target)^2
    grad  = 4 K^-2 * (mask o (gamma gamma^T - target)) gamma

    mask is the K x K boolean inclusion array of a BandMask.
    """
    K = gamma.shape[0]
    residual = (gamma @ gamma.T - target) * mask
    inv = 1.0 / (K * K)
    value = inv * float(np.vdot(residual, residual))
    grad = (4.0 * inv) * (residual @ gamma)
    return value, grad


def objective(gamma, target, mask: BandMask) -> float:
    """Masked squared Frobenius misfit of gamma gamma^T, scaled by K^-2."""
    g = _factor_values(gamma)
    value, _ = masked_objective_grad(g, _target_values(target), mask.include)
    return value


def gradient(gamma, target, mask: BandMask) -> np.ndarray:
    """Exact gradient of the objective in gamma: 4 K^-2 (mask o (gamma gamma^T - target)) gamma."""
    g = _factor_values(gamma)
    _, grad = masked_objective_grad(g, _target_values(target), mask.include)
    return grad


def _target_values(target) -> np.ndarray:
    return np.ascontiguousarray(matrix_values(target), dtype=float)


def _eigen_init(target: np.ndarray, rank: int) -> np.ndarray:
    """Top-rank eigenpair start U_i Lambda_i^(1/2), negative eigenvalues clipped."""
    vals, vecs = np.linalg.eigh(target)
    order = np.argsort(vals)[::-1][:rank]
    lam = np.clip(vals[order], 0.0, None)
    return vecs[:, order] * np.sqrt(lam)


def minimize(fun, x0, **options):
    """scipy.optimize.minimize, imported on first call, so that importing
    fragcov and the simulate and patch commands load numpy only. Descents
    call it through this module attribute, which perfbench's tracer wraps."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **options)


def _bfgs(fun, x0: np.ndarray, gtol: float, max_iter: int) -> OptimizeResult:
    """Dense BFGS, step for step scipy's BFGS with its default options.

    fun(x) returns (value, gradient) and is evaluated once per distinct x, so
    nfev counts as in scipy. The stopping rules, line search and status codes
    are scipy's (0 converged, 1 iteration cap, 2 line search failed or
    non-finite value, 3 NaN). Only the inverse Hessian differs: scipy forms
    (I - rho s y^T) H (I - rho y s^T) + rho s s^T with two n x n x n products
    per iteration; here H is updated in place in O(n^2) (Nocedal & Wright,
    Numerical Optimization, Alg. 6.1) as

        H <- H - rho (s (Hy)^T + (Hy) s^T) + (rho^2 y^T H y + rho) s s^T,

    one n x 2 by 2 x n product. All of it runs on numpy's BLAS, as the
    objective does: scipy.linalg.blas is a second OpenBLAS with its own thread
    pool, and alternating the two lets each pool's idle-spinning workers take
    the cores the other needs, so a replication's time jumped between about
    1x and 3x from one call to the next on a 2-core machine.
    """
    from scipy.optimize import OptimizeResult

    # scipy's own BFGS line search (Wolfe 1, Wolfe 2 fallback), private but used
    # so that _bfgs takes scipy's iterates; a parity test pins it against minimize.
    from scipy.optimize._optimize import _LineSearchError, _line_search_wolfe12

    last_x, last = None, None
    nfev = 0

    def value_grad(x):
        nonlocal last_x, last, nfev
        if last_x is None or not np.array_equal(x, last_x):
            last_x, last = np.array(x), fun(x)
            nfev += 1
        return last

    def value(x):
        return value_grad(x)[0]

    def grad(x):
        return value_grad(x)[1]

    x = np.array(x0, dtype=float).ravel()
    fval, g = value_grad(x)
    old_old_fval = fval + np.linalg.norm(g) / 2
    H = np.eye(x.size)
    # rows s, Hy | a, b with s a^T + Hy b^T the rank-2 update; update is its product
    uv, update = np.empty((4, x.size)), np.empty_like(H)
    k, status = 0, 0
    gnorm = np.max(np.abs(g))
    while gnorm > gtol and k < max_iter:
        p = -(H @ g)
        try:
            alpha, _, _, fval, old_old_fval, g_next = _line_search_wolfe12(
                value, grad, x, p, g, fval, old_old_fval, amin=1e-100, amax=1e100, c1=1e-4, c2=0.9
            )
        except _LineSearchError:
            status = 2
            break
        s = alpha * p
        x = x + s
        if g_next is None:
            g_next = grad(x)
        y = g_next - g
        g = g_next
        k += 1
        gnorm = np.max(np.abs(g))
        if gnorm <= gtol or alpha * np.linalg.norm(p) <= 0.0:
            break
        if not np.isfinite(fval):
            status = 2
            break
        sy = np.dot(y, s)
        rho = 1000.0 if sy == 0.0 else 1.0 / sy
        hy = H @ y
        uv[0], uv[1] = s, hy
        uv[2] = (rho * rho * np.dot(y, hy) + rho) * s - rho * hy
        uv[3] = -rho * s
        np.matmul(uv[:2].T, uv[2:], out=update)
        H += update
    if status == 0 and k >= max_iter:
        status = 1
    elif status == 0 and (np.isnan(gnorm) or np.isnan(fval) or np.isnan(x).any()):
        status = 3
    return OptimizeResult(x=x, fun=fval, jac=g, nit=k, nfev=nfev, status=status, success=status == 0)


def _descend(x0: np.ndarray, shape, target, include, gtol: float, max_iter: int, method: str = "lbfgs"):
    K, r = shape

    def fun(x):
        value, grad = masked_objective_grad(x.reshape(K, r), target, include)
        return value, grad.ravel()

    if method == "bfgs":
        res = _bfgs(fun, x0, gtol, max_iter)
        _log.debug("descent method=bfgs nit=%d nfev=%d converged=%s", res.nit, res.nfev, res.success)
    else:
        res = minimize(
            fun,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iter, "gtol": gtol, "ftol": 1e-18, "maxcor": 20},
        )
        best = _newton_polish(res, fun, shape, target, include)
        _log.debug(
            "descent method=lbfgs nit=%d nfev=%d converged=%s polish_kept=%s",
            res.nit, res.nfev, res.success, best is not res,
        )
        res = best
    if not np.isfinite(res.fun):
        raise CompletionError("diverged: non-finite objective during descent")
    return res.x.reshape(K, r), float(res.fun)


def _newton_polish(res, fun, shape, target, include):
    """Second-order cleanup after quasi-Newton descent.

    Badly scaled spectra (a component orders of magnitude below the
    leading one) stall a first-order line search well above the true
    minimum; a few trust-region Newton steps with exact Hessian-vector
    products reach it. Keeps whichever result is better.
    """
    K, r = shape

    def hessp(x, d):
        gamma = x.reshape(K, r)
        direction = d.reshape(K, r)
        cross = gamma @ direction.T
        sym = np.where(include, cross + cross.T, 0.0)
        residual = np.where(include, gamma @ gamma.T - target, 0.0)
        return (4.0 / (K * K)) * (sym @ gamma + residual @ direction).ravel()

    try:
        polished = minimize(
            fun,
            res.x,
            jac=True,
            hessp=hessp,
            method="trust-ncg",
            options={"maxiter": 200, "gtol": 1e-14},
        )
    except Exception:  # pragma: no cover - scipy internal failures fall back
        return res
    if np.isfinite(polished.fun) and polished.fun <= res.fun:
        return polished
    return res


def solve_fixed_rank(
    target,
    mask: BandMask,
    rank: int,
    config: SolveConfig | None = None,
    gamma0: np.ndarray | None = None,
    rng: SeedLike = None,
) -> tuple[LowRankFactor, float]:
    """Best rank-constrained PSD fit to the target on the mask.

    Quasi-Newton descent from the truncated eigendecomposition of the
    target (or an explicit warm start); with restarts > 1, extra starts add
    small Gaussian jitter and the best fit wins.
    """
    config = config or SolveConfig()
    tvals = _target_values(target)
    K = tvals.shape[0]
    if not 1 <= rank <= K:
        raise ValueError("rank must lie in [1, K]")
    if mask.K != K:
        raise ValueError("mask dimension must match the target")
    rng = as_generator(config.seed if rng is None else rng)

    start = _eigen_init(tvals, rank) if gamma0 is None else np.array(gamma0, dtype=float)
    if start.shape != (K, rank):
        raise ValueError("gamma0 must be K x rank")
    scale = np.linalg.norm(start) / np.sqrt(start.size)
    if scale == 0.0:
        scale = np.sqrt(max(np.abs(tvals).max(), 1.0))
    # a column that starts exactly zero is a stationary direction; nudge it
    dead = np.linalg.norm(start, axis=0) == 0.0
    if np.any(dead):
        start = start.copy()
        start[:, dead] = 1e-6 * scale * rng.standard_normal((K, int(dead.sum())))

    gtol = config.gtol(K)
    best_gamma, best_fit = _descend(start.ravel(), (K, rank), tvals, mask.include, gtol, config.max_iter, config.method)
    # restart jitter must be large enough to leave a spurious basin of the
    # factorized landscape, yet small against the factor scale
    for _ in range(config.restarts - 1):
        jittered = start + 0.25 * scale * rng.standard_normal(start.shape)
        g, fit = _descend(jittered.ravel(), (K, rank), tvals, mask.include, gtol, config.max_iter, config.method)
        if fit < best_fit:
            best_gamma, best_fit = g, fit
    return LowRankFactor(best_gamma), best_fit


@dataclass(frozen=True)
class RankSweepResult:
    """Fits of the masked low-rank problem for ranks 1..max_rank."""

    fits: np.ndarray
    normalized_fits: np.ndarray
    factors: tuple
    base_fit: float

    @property
    def max_rank(self) -> int:
        return len(self.fits)

    @classmethod
    def from_fits(cls, fits, factors, base_fit: float) -> "RankSweepResult":
        """Sweep of the given per-rank fits, normalized by the zero factor's fit."""
        fits = np.array(fits, dtype=float)
        normalized = fits / base_fit if base_fit > 0 else np.zeros_like(fits)
        return cls(fits=fits, normalized_fits=normalized, factors=tuple(factors), base_fit=base_fit)


def rank_sweep(
    target, mask: BandMask, config: SolveConfig | None = None, until: str | None = None
) -> RankSweepResult:
    """Solve the masked fit for each candidate rank, warm-starting upward.

    Rank i+1 starts from the rank-i factor plus one jittered column (and from
    a fresh eigen start; the better fit is kept). If jitter ever makes the
    fit worse than rank i, the zero-padded rank-i factor is used instead, so
    fits are nonincreasing by construction.

    until=None sweeps every rank to config.sweep_bound (a scree). With an
    elbow or penalty policy, the sweep stops at the first rank where
    select_rank's answer under that policy is decided (see _rank_decided);
    the ranks it visits get the same fits and factors as in the full sweep,
    because every rank draws its starts from one generator in rank order. Each sweep logs one DEBUG record
    on the fragcov.complete logger: sweep policy=... visited=... bound=...
    """
    config = config or SolveConfig()
    if until is not None and parse_rank_policy(until)[0] == "fixed":
        raise ValueError(f"a sweep stops under elbow or penalty, not {until!r}: fixed:q solves rank q alone")
    tvals = _target_values(target)
    K = tvals.shape[0]
    rng = as_generator(config.seed)
    bound = min(config.sweep_bound(mask), K)
    base_fit = objective(np.zeros((K, 1)), tvals, mask)

    fits, factors = [], []
    sweep = RankSweepResult.from_fits(fits, factors, base_fit)
    prev: np.ndarray | None = None
    for rank in range(1, bound + 1):
        factor, fit = solve_fixed_rank(tvals, mask, rank, config, rng=rng)
        if prev is not None:
            scale = max(np.abs(prev).max(), 1e-8)
            warm = np.column_stack([prev, 1e-3 * scale * rng.standard_normal(K)])
            wf, wfit = solve_fixed_rank(tvals, mask, rank, config, gamma0=warm, rng=rng)
            if wfit < fit:
                factor, fit = wf, wfit
            if fit > fits[-1]:
                factor = LowRankFactor(np.column_stack([prev, np.zeros(K)]))
                fit = fits[-1]
        fits.append(fit)
        factors.append(factor)
        prev = factor.gamma
        sweep = RankSweepResult.from_fits(fits, factors, base_fit)
        if until is not None and _rank_decided(sweep, until):
            break
    _log.debug("sweep policy=%s visited=%d bound=%d", until, sweep.max_rank, bound)
    return sweep


def parse_rank_policy(policy: str) -> tuple[str, float]:
    """Parse 'fixed:q', 'elbow[:eps]' (eps defaults to 0.01) or 'penalty:tau'."""
    name, _, arg = str(policy).partition(":")
    name = name.lower()
    if name == "fixed":
        return "fixed", int(arg)
    if name == "elbow":
        return "elbow", float(arg) if arg else 0.01
    if name == "penalty":
        if not arg:
            raise ValueError("penalty policy needs a tau value, as in 'penalty:0.001'")
        return "penalty", float(arg)
    raise ValueError(f"unknown rank policy {policy!r}")


def select_rank(sweep: RankSweepResult, policy: str = "elbow") -> int:
    """Pick a rank from a sweep.

    fixed:q returns q; elbow:eps returns the smallest rank whose normalized
    fit drops below eps (warning and max rank if none does); penalty:tau
    minimizes fit + tau * rank, ties to the smaller rank.
    """
    kind, value = parse_rank_policy(policy)
    if kind == "fixed":
        return int(value)
    if kind == "elbow":
        hits = np.nonzero(sweep.normalized_fits < value)[0]
        if hits.size:
            return int(hits[0]) + 1
        warnings.warn("elbow threshold never met; falling back to the maximal sweep rank")
        return sweep.max_rank
    ranks = np.arange(1, sweep.max_rank + 1)
    return int(ranks[np.argmin(sweep.fits + value * ranks)])


def _rank_decided(sweep: RankSweepResult, policy: str) -> bool:
    """Whether select_rank(sweep, policy) is the answer on every longer sweep.

    A longer sweep is this nonempty one plus fits >= 0 at higher ranks.
    elbow:eps is decided once the last normalized fit is below eps
    (select_rank takes the first such rank); penalty:tau once
    tau * (next rank) is at least the smallest fit + tau * rank so far,
    since every later rank scores at least its penalty and ties go to the
    smaller rank.
    """
    kind, value = parse_rank_policy(policy)
    if kind == "elbow":
        return bool(sweep.normalized_fits[-1] < value)
    ranks = np.arange(1, sweep.max_rank + 1)
    return bool(value * (sweep.max_rank + 1) >= np.min(sweep.fits + value * ranks))


@dataclass(frozen=True)
class StepKernel:
    """Step-function kernel constant on the cells of the regular K-partition."""

    values: np.ndarray
    K: int = field(default=0)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "K", vals.shape[0])

    def __call__(self, x, y):
        j = np.minimum((np.asarray(x, dtype=float) * self.K).astype(int), self.K - 1)
        l = np.minimum((np.asarray(y, dtype=float) * self.K).astype(int), self.K - 1)
        out = self.values[j, l]
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class CovarianceEstimate:
    """Completed covariance matrix with the selected rank and its step kernel.

    sweep holds only the ranks the sweep visited: under elbow or penalty it
    stops at the rank where the policy's choice is decided, so it is a prefix
    of a full rank_sweep (call rank_sweep without until for a scree). It is
    None under fixed:q, which solves rank q alone.
    """

    matrix: SymMatrix
    rank: int
    step_kernel: StepKernel
    fit: float
    sweep: RankSweepResult | None = None


def estimate_covariance(
    target,
    config: SolveConfig | None = None,
    mask: BandMask | None = None,
    rng: SeedLike = None,
) -> CovarianceEstimate:
    """Full completion pipeline: mask, (sweep +) solve, rank selection.

    target is a PatchedCovariance (its effective band supplies the default
    mask) or any symmetric matrix if a mask is given explicitly. Under elbow
    and penalty the sweep runs only until config.rank_policy has decided the
    rank; the rank, fit and factor equal those selected from a full sweep.
    """
    from .patch import PatchedCovariance, effective_mask

    config = config or SolveConfig()
    if mask is None:
        if not isinstance(target, PatchedCovariance):
            raise ValueError("a mask is required unless target is a PatchedCovariance")
        mask = effective_mask(target)
    tvals = _target_values(target)

    kind, value = parse_rank_policy(config.rank_policy)
    sweep = None
    if kind == "fixed":
        rank = int(value)
        factor, fit = solve_fixed_rank(tvals, mask, rank, config, rng=rng)
    else:
        sweep = rank_sweep(tvals, mask, config, until=config.rank_policy)
        rank = select_rank(sweep, config.rank_policy)
        factor = sweep.factors[rank - 1]
        fit = float(sweep.fits[rank - 1])

    matrix = SymMatrix(factor.matrix())
    return CovarianceEstimate(
        matrix=matrix,
        rank=rank,
        step_kernel=StepKernel(matrix.values),
        fit=fit,
        sweep=sweep,
    )


def exact_band_completion(band, mask: BandMask, q: int) -> SymMatrix:
    """Unique rank-q completion of an exactly banded matrix.

    Fills unknown entries diagonal-by-diagonal outward. The unknown at
    (j, l), l > j, is the root of the vanishing determinant of a
    (q+1) x (q+1) window whose only unknown is (j, l): rows spread evenly
    over {j..l-1} and columns over {j+1..l}, so every other window entry
    lies strictly closer to the diagonal and is already known. (Spread
    windows keep the pivot minor well conditioned; consecutive rows are
    nearly dependent on fine grids.) Requires a noiseless band of
    half-width at least 2q with the diagonal included.
    """
    if mask.exclude_diagonal:
        raise ValueError("exact completion needs the diagonal inside the band")
    R = matrix_values(band).copy()
    K = R.shape[0]
    if mask.K != K:
        raise ValueError("mask dimension must match the matrix")
    if q < 1 or q + 1 > K:
        raise ValueError("rank q must lie in [1, K-1]")
    width = mask.half_width
    if width < 2 * q:
        raise ValueError(f"band half-width {width} too narrow for rank {q} (needs >= {2 * q})")
    R[~mask.include] = 0.0

    for offset in range(width, K):
        for j in range(K - offset):
            l = j + offset
            rows = np.round(np.linspace(j, l - 1, q + 1)).astype(int)
            cols = np.round(np.linspace(j + 1, l, q + 1)).astype(int)
            window = R[np.ix_(rows, cols)]
            # unknown sits at the window's top-right corner
            minor = np.delete(np.delete(window, 0, axis=0), q, axis=1)
            a = (-1.0) ** q * np.linalg.det(minor)
            zeroed = window.copy()
            zeroed[0, q] = 0.0
            b = np.linalg.det(zeroed)
            norm = max(np.linalg.norm(zeroed), 1e-300)
            if abs(a) < 1e-12 * norm:
                raise CompletionError(
                    "singular minor: completion not identifiable from this submatrix"
                )
            x = -b / a
            R[j, l] = R[l, j] = x
    return SymMatrix(R)
