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

import ctypes
import logging
import os
import sys
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np

from .core import BandMask, SeedLike, SymMatrix, _check_fields, _eigen_root, as_generator, matrix_values

__all__ = [
    "CompletionError",
    "SolveConfig",
    "LowRankFactor",
    "RankSweepResult",
    "StepKernel",
    "CovarianceEstimate",
    "masked_objective_grad",
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


# each solve method's descent, as minimize names it, its iteration cap, and
# its gradient tolerance at size K
_BUDGETS = {"lbfgs": ("L-BFGS-B", 2000, lambda K: 1e-9 / (K * K)), "bfgs": ("BFGS", 100, lambda K: 1e-8)}


@dataclass(frozen=True)
class SolveConfig:
    """Optimizer and rank-selection settings.

    method picks the solve protocol and its budget: "lbfgs" (the default),
    L-BFGS-B (_lbfgsb: scipy's routine in scipy's loop) to 2000 iterations
    and a gradient tolerance of 1e-9 / K^2; or "bfgs", the benchmark-table
    protocol, a dense BFGS loop (_bfgs: scipy's line search and stopping
    rules, the inverse Hessian updated in place with symmetric level-2 BLAS)
    to 100 iterations and 1e-8.
    A field of the wrong kind (core._check_fields), any other method, a
    rank_policy that parse_rank_policy rejects, max_rank_sweep below 1 and
    seed < 0 raise ValueError when the config is built.
    """

    max_rank_sweep: int | None = None
    method: str = "lbfgs"
    rank_policy: str = "elbow"
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if self.method not in _BUDGETS:
            raise ValueError(f"unknown solve method {self.method!r}; expected one of {', '.join(_BUDGETS)}")
        parse_rank_policy(self.rank_policy)
        if self.max_rank_sweep is not None and self.max_rank_sweep < 1:
            raise ValueError(f"max_rank_sweep must be at least 1, got {self.max_rank_sweep}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def sweep_bound(self, mask: BandMask) -> int:
        """The highest rank a sweep on mask visits: max_rank_sweep, else
        ceil(K delta) - 3 (at least 1), and never above K."""
        bound = self.max_rank_sweep or max(1, int(np.ceil(mask.K * mask.delta)) - 3)
        return min(bound, mask.K)


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

    def matrix(self) -> np.ndarray:
        m = self.gamma @ self.gamma.T
        return 0.5 * (m + m.T)


def masked_objective_grad(gamma, target, mask):
    """Fused value and gradient of the masked factorized fit.

    value = K^-2 * sum_mask (gamma gamma^T - target)^2
    grad  = 4 K^-2 * (mask o (gamma gamma^T - target)) gamma

    mask is the K x K inclusion array of a BandMask, boolean or as 0/1
    floats; descents pass floats, which spares the cast on every call. The
    residual is formed in place, in one K x K array.
    """
    K = gamma.shape[0]
    residual = gamma @ gamma.T
    residual -= target
    residual *= mask
    inv = 1.0 / (K * K)
    value = inv * float(np.vdot(residual, residual))
    grad = (4.0 * inv) * (residual @ gamma)
    return value, grad


def _target_values(target) -> np.ndarray:
    return np.ascontiguousarray(matrix_values(target), dtype=float)


def _eigen_init(target: np.ndarray, rank: int) -> np.ndarray:
    """Top-rank eigenpair start U_i Lambda_i^(1/2), negative eigenvalues clipped."""
    root, vals = _eigen_root(target)
    return root[:, np.argsort(vals)[::-1][:rank]]


# OpenBLAS's thread-count functions as the supported numpy and scipy wheels
# name them: unprefixed in older wheels, scipy_-prefixed in newer ones, with
# a 64_ suffix on the 64-bit-integer builds that numpy bundles.
_OPENBLAS_THREADS = (
    "openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "scipy_openblas_{}_num_threads64_",
)

# the process's OpenBLAS controls (None until first looked up), and the pin's
# nesting depth and the counts its outermost level saved, guarded by _pin_lock
_controls: list[tuple] | None = None
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list[int] = []


def _openblas() -> list[tuple]:
    """(get, set) thread-count functions of the OpenBLAS libraries bundled with
    numpy's and scipy's wheels (each package loads its own, with its own
    threads). Other BLAS builds are not listed. scipy's L-BFGS-B extension,
    which links scipy's OpenBLAS, is loaded first (_scipy_module, without
    scipy.optimize), so that scipy's OpenBLAS is loaded and listed before a
    solve would load it at its default thread count. Looked up once per
    process: both libraries are loaded by then and stay loaded."""
    global _controls
    if _controls is not None:
        return _controls
    import scipy

    _scipy_module("optimize", "_lbfgsb")

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
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
    if not controls:
        _log.debug("no bundled OpenBLAS loaded: solves run at this BLAS's own thread count")
    _controls = controls
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

    solve_fixed_rank, rank_sweep and estimate_covariance run this way, as
    does each replication of harness.run_cell. A solve alternates numpy's
    matmuls with scipy's L-BFGS-B, each on its own OpenBLAS, and each pool's
    idle-spinning workers take the cores the other needs; and OpenBLAS's
    threaded reductions round differently from its serial ones, so pinning
    also keeps results independent of the caller's thread count. Only the
    outermost block saves, sets and restores the counts (also when the block
    raises); nested blocks, in any thread, cost a lock and a counter.
    """
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = [get() for get, _ in _openblas()]
            _set_blas_threads(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                _set_blas_threads(_pin_saved)


@dataclass(frozen=True)
class DescentResult:
    """A descent's end point x with its value and gradient, the iterations
    and distinct evaluations it took, and its status (0 converged)."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int
    nfev: int
    status: int

    @property
    def success(self) -> bool:
        return self.status == 0


def minimize(fun, x0, method: str, gtol: float, max_iter: int) -> DescentResult:
    """The one descent entry: method "BFGS" runs _bfgs (the table protocol),
    "L-BFGS-B" runs _lbfgsb (the library protocol). fun(x) returns (value,
    gradient). Importing fragcov loads numpy only; scipy is loaded by the
    first descent, and only the files it runs (_scipy_module): L-BFGS-B
    scipy's _lbfgsb extension, BFGS scipy's _fblas extension and _dcsrch
    file (_bfgs_routines); neither imports scipy.optimize or scipy.linalg.
    Descents call it through this module attribute, which perfbench's
    tracer wraps."""
    if method == "BFGS":
        return _bfgs(fun, x0, gtol, max_iter)
    if method == "L-BFGS-B":
        return _lbfgsb(fun, x0, gtol, max_iter)
    raise ValueError(f"unknown descent method {method!r}")


class _EvaluateOnce:
    """A descent's fun(x) -> (value, gradient), called once per distinct x, on
    a copy (L-BFGS-B overwrites x in place); nfev counts as scipy counts."""

    def __init__(self, fun):
        self.fun, self.x, self.last, self.nfev = fun, None, None, 0

    def __call__(self, x):
        if self.x is None or not np.array_equal(x, self.x):
            self.x = np.array(x)
            self.last = self.fun(self.x)
            self.nfev += 1
        return self.last


def _bfgs_routines():
    """What _bfgs runs on, loaded alone (_scipy_module): scipy's symmetric
    level-2 BLAS (dsymv, dsyr, dsyr2) and its Python DCSRCH, Moré &
    Thuente's line search (ACM TOMS 1994), which scipy's BFGS calls through
    line_search_wolfe1. harness.run_cell loads them before it forks a pool,
    so that the workers inherit them."""
    fblas = _scipy_module("linalg", "_fblas")
    return fblas.dsymv, fblas.dsyr, fblas.dsyr2, _scipy_module("optimize", "_dcsrch").DCSRCH


def _bfgs(fun, x0: np.ndarray, gtol: float, max_iter: int) -> DescentResult:
    """Dense BFGS with scipy's rules, line search and status codes.

    fun(x) returns (value, gradient) and is evaluated once per distinct x
    (_EvaluateOnce). The stopping rules, line search and status codes
    are scipy's (0 converged, 1 iteration cap, 2 line search failed or
    non-finite value, 3 NaN). The line search is scipy's _line_search_wolfe12
    with BFGS's arguments, written out: DCSRCH as line_search_wolfe1 runs it
    and, where it finds no step, scipy's line_search_wolfe2, imported from
    scipy.optimize only then. Only the inverse Hessian differs: scipy forms
    (I - rho s y^T) H (I - rho y s^T) + rho s s^T with two n x n x n products
    per iteration; here H is updated in place in O(n^2) (Nocedal & Wright,
    Numerical Optimization, Alg. 6.1) as

        H <- H - rho (s (Hy)^T + (Hy) s^T) + (rho^2 y^T H y + rho) s s^T,

    with scipy's symmetric level-2 BLAS on the upper triangle of a Fortran
    array: dsymv for H g and H y, one dsyr2 and one dsyr for the update, and
    no n x n scratch. That update rounds differently from scipy's products.
    On the table problems the iterates are scipy's (TestDenseBFGS), but near
    the noise floor the line search follows the rounding, so a badly scaled
    problem can end a few iterations apart, at the same status and nearly
    the same x. scipy's BLAS is a second OpenBLAS with its own thread pool;
    mixing it with numpy's (the objective's) is safe because the solver
    entry points run both on one thread (_single_thread_blas).
    """
    dsymv, dsyr, dsyr2, DCSRCH = _bfgs_routines()
    value_grad = _EvaluateOnce(fun)

    def value(x):
        return value_grad(x)[0]

    def grad(x):
        return value_grad(x)[1]

    def line_search(x, p, g, fval, old_fval):
        """The step from x along p, with the value and (None if not at hand)
        gradient there, as scipy's _line_search_wolfe12 finds it with BFGS's
        c1 1e-4, c2 0.9, amin 1e-100 and amax 1e100, and
        scalar_search_wolfe1's xtol 1e-14 and 100 iterations; None where
        neither search finds a step."""
        last = [g]

        def derphi(a):
            last[0] = grad(x + a * p)
            return np.dot(last[0], p)

        derphi0 = np.dot(g, p)
        alpha1 = 1.0
        if derphi0 != 0:
            alpha1 = min(1.0, 1.01 * 2 * (fval - old_fval) / derphi0)
            if alpha1 < 0:
                alpha1 = 1.0
        search = DCSRCH(lambda a: value(x + a * p), derphi, 1e-4, 0.9, 1e-14, 1e-100, 1e100)
        alpha, fnew, _, _ = search(alpha1, phi0=fval, derphi0=derphi0, maxiter=100)
        if alpha is not None:
            return alpha, fnew, last[0]
        from scipy.optimize._linesearch import LineSearchWarning, line_search_wolfe2

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LineSearchWarning)
            alpha, _, _, fnew, _, g_next = line_search_wolfe2(
                value, grad, x, p, g, fval, old_fval, c1=1e-4, c2=0.9, amax=1e100
            )
        return None if alpha is None else (alpha, fnew, g_next)

    x = np.array(x0, dtype=float).ravel()
    fval, g = value_grad(x)
    old_old_fval = fval + np.linalg.norm(g) / 2
    H = np.eye(x.size, order="F")  # only the upper triangle is read and written
    k, status = 0, 0
    gnorm = np.max(np.abs(g))
    while gnorm > gtol and k < max_iter:
        p = dsymv(-1.0, H, g)
        step = line_search(x, p, g, fval, old_old_fval)
        if step is None:
            status = 2
            break
        alpha, f_next, g_next = step
        old_old_fval, fval = fval, f_next
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
        hy = dsymv(1.0, H, y)
        # f2py returns H itself when it can update in place
        H = dsyr2(-rho, s, hy, a=H, overwrite_a=True)
        H = dsyr(rho * rho * np.dot(y, hy) + rho, s, a=H, overwrite_a=True)
    if status == 0 and k >= max_iter:
        status = 1
    elif status == 0 and (np.isnan(gnorm) or np.isnan(fval) or np.isnan(x).any()):
        status = 3
    return DescentResult(x=x, fun=fval, jac=g, nit=k, nfev=value_grad.nfev, status=status)


@lru_cache(maxsize=None)
def _scipy_module(subpackage: str, name: str):
    """scipy/<subpackage>/<name>, a Python file or an extension, loaded alone
    and not entered in sys.modules; private, but used so that the descents
    run scipy's own routines (TestDenseBFGS and TestLBFGSB pin the iterates
    against minimize). Importing it as scipy.<subpackage>.<name> would first
    run the subpackage's __init__: scipy.optimize's imports scipy.linalg,
    scipy.special, scipy.fft and every solver, about 0.4 s on a 2-vCPU
    machine, where a fixed-rank solve takes 0.01-0.03 s."""
    import scipy

    directory = str(Path(scipy.__file__).parent / subpackage)
    spec = PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no {name} module in {directory}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(spec.name, None)  # a single-phase extension enters itself when created
    return module


def _lbfgsb(fun, x0: np.ndarray, gtol: float, max_iter: int) -> DescentResult:
    """Unbounded L-BFGS-B, iterate for iterate scipy's minimize(method=
    "L-BFGS-B", jac=True) with maxcor 20 and ftol 1e-18.

    scipy's own loop around its L-BFGS-B routine (Byrd, Lu, Nocedal & Zhu
    1995), without minimize's per-evaluation bookkeeping: memory 20, factr
    1e-18 / eps, 20 line-search steps; it stops after max_iter iterations
    (task 504) or, checked at each new iterate, past 15000 evaluations
    (scipy's maxfun, task 502), with scipy's status codes (0 converged, 1 a
    cap hit, 2 any other stop). fun(x) returns (value, gradient) and is
    evaluated once per distinct x (_EvaluateOnce).
    """
    setulb = _scipy_module("optimize", "_lbfgsb").setulb
    m, maxfun = 20, 15000
    x = np.array(x0, dtype=np.float64).ravel()
    n = x.size
    f, g = 0.0, np.zeros(n)
    bound, nbd = np.zeros(n), np.zeros(n, np.int32)  # nbd 0: no bound is read
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = 1e-18 / np.finfo(float).eps
    value_grad = _EvaluateOnce(fun)
    nit = 0
    while True:
        g = g.astype(np.float64)  # scipy's float64 copy: the routine never holds fun's array
        setulb(m, x, bound, bound, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # FG: the routine wants f and g at x
            f, g = value_grad(x)
        elif task[0] == 1:  # NEW_X: an iteration is complete
            nit += 1
            if nit >= max_iter:
                task[:] = 5, 504
            elif value_grad.nfev > maxfun:
                task[:] = 5, 502
        else:
            break
    status = 0 if task[0] == 4 else 1 if value_grad.nfev > maxfun or nit >= max_iter else 2
    return DescentResult(x=x, fun=f, jac=g, nit=nit, nfev=value_grad.nfev, status=status)


@_single_thread_blas()
def solve_fixed_rank(
    target,
    mask: BandMask,
    rank: int,
    config: SolveConfig | None = None,
    gamma0: np.ndarray | None = None,
    rng: SeedLike = None,
) -> tuple[LowRankFactor, float]:
    """Best rank-constrained PSD fit to the target on the mask.

    One quasi-Newton descent from the truncated eigendecomposition of the
    target (or an explicit warm start); rng (config.seed if None) nudges a
    start column that is exactly zero. Runs the bundled OpenBLAS on one
    thread, as do rank_sweep and estimate_covariance (see
    _single_thread_blas).
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
    # a column that starts exactly zero is a stationary direction; nudge it
    # (start is this call's own array: the eigen start, or a copy of gamma0)
    dead = np.linalg.norm(start, axis=0) == 0.0
    if np.any(dead):
        scale = np.linalg.norm(start) / np.sqrt(start.size) or np.sqrt(max(np.abs(tvals).max(), 1.0))
        start[:, dead] = 1e-6 * scale * rng.standard_normal((K, int(dead.sum())))

    method, max_iter, gtol = _BUDGETS[config.method]
    weights = mask.include.astype(float)

    def fun(x):
        value, grad = masked_objective_grad(x.reshape(K, rank), tvals, weights)
        return value, grad.ravel()

    res = minimize(fun, start.ravel(), method=method, gtol=gtol(K), max_iter=max_iter)
    _log.debug("descent method=%s nit=%d nfev=%d converged=%s", config.method, res.nit, res.nfev, res.success)
    if not np.isfinite(res.fun):
        raise CompletionError("diverged: non-finite objective during descent")
    return LowRankFactor(res.x.reshape(K, rank)), float(res.fun)


@dataclass(frozen=True)
class RankSweepResult:
    """Fits of the masked low-rank problem for ranks 1..max_rank, their
    factors, and the zero factor's fit that normalizes them."""

    fits: np.ndarray
    factors: tuple
    base_fit: float

    def __post_init__(self):
        object.__setattr__(self, "fits", np.array(self.fits, dtype=float))
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def max_rank(self) -> int:
        return len(self.fits)

    @property
    def normalized_fits(self) -> np.ndarray:
        """fits / base_fit, zeros if base_fit is not positive."""
        return self.fits / self.base_fit if self.base_fit > 0 else np.zeros_like(self.fits)


@_single_thread_blas()
def rank_sweep(
    target, mask: BandMask, config: SolveConfig | None = None, until: str | None = None, rng: SeedLike = None
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
    because every rank draws its starts from one generator in rank order:
    rng, else one seeded from config.seed. Each sweep logs one DEBUG record
    on the fragcov.complete logger: sweep policy=... visited=... bound=...
    """
    config = config or SolveConfig()
    if until is not None and parse_rank_policy(until)[0] == "fixed":
        raise ValueError(f"a sweep stops under elbow or penalty, not {until!r}: fixed:q solves rank q alone")
    tvals = _target_values(target)
    K = tvals.shape[0]
    if mask.K != K:
        raise ValueError("mask dimension must match the target")
    rng = as_generator(config.seed if rng is None else rng)
    bound = config.sweep_bound(mask)
    base_fit = masked_objective_grad(np.zeros((K, 1)), tvals, mask.include)[0]

    fits, factors = [], []
    sweep = RankSweepResult(fits, factors, base_fit)
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
        sweep = RankSweepResult(fits, factors, base_fit)
        if until is not None and _rank_decided(sweep, until):
            break
    _log.debug("sweep policy=%s visited=%d bound=%d", until, sweep.max_rank, bound)
    return sweep


# each policy's argument: its type, the values it may take, and how to say so
_POLICY_ARGS = {
    "fixed": (int, lambda q: q >= 1, "an integer q >= 1, as in 'fixed:3'"),
    "elbow": (float, lambda eps: 0 < eps < np.inf, "a finite eps > 0, as in 'elbow:0.01'"),
    "penalty": (float, lambda tau: 0 <= tau < np.inf, "a finite tau >= 0, as in 'penalty:0.001'"),
}


def parse_rank_policy(policy: str) -> tuple[str, float]:
    """Parse 'fixed:q' (an integer q >= 1), 'elbow[:eps]' (a finite eps > 0,
    0.01 by default) or 'penalty:tau' (a finite tau >= 0). Anything else
    raises ValueError naming the policy: an elbow that is never met or a
    negative penalty would sweep to the bound."""
    name, _, arg = str(policy).partition(":")
    name = name.lower()
    if name not in _POLICY_ARGS:
        raise ValueError(f"unknown rank policy {policy!r}")
    kind, valid, needs = _POLICY_ARGS[name]
    try:
        value = kind(arg) if arg or name != "elbow" else 0.01
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise ValueError(f"rank policy {policy!r}: {name} needs {needs}")
    return name, value


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

    A longer sweep is this nonempty one plus fits >= 0 at higher ranks. Under
    elbow and penalty the strongest such rank is one perfect next rank (fit
    0.0): its normalized fit is 0, below any eps (so select_rank never warns
    here), and it scores tau * (next rank), the least any later rank can. So
    the answer is decided when select_rank still picks a visited rank with
    that rank appended. A rule that reads ratios of fits needs its own test.
    """
    padded = RankSweepResult(np.append(sweep.fits, 0.0), (), sweep.base_fit)
    return select_rank(padded, policy) <= sweep.max_rank


@dataclass(frozen=True)
class StepKernel:
    """Step-function kernel constant on the cells of the regular K-partition."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def K(self) -> int:
        return self.values.shape[0]

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
    fit: float
    sweep: RankSweepResult | None = None

    @property
    def step_kernel(self) -> StepKernel:
        return StepKernel(self.matrix.values)

    @classmethod
    def from_factor(cls, factor: LowRankFactor, fit: float, *, sweep: RankSweepResult | None = None):
        """The estimate gamma gamma^T of a fitted factor at its rank, gamma's column
        count (sweep is keyword-only, so a rank passed before the fit raises)."""
        return cls(SymMatrix(factor.matrix()), factor.gamma.shape[1], fit, sweep)

    @classmethod
    def from_sweep(cls, sweep: RankSweepResult, policy: str) -> "CovarianceEstimate":
        """The estimate at the rank select_rank(sweep, policy) picks, carrying
        the sweep. From a full sweep under elbow or penalty, its rank, fit and
        matrix are estimate_covariance's, whose lazy sweep is a prefix of it."""
        rank = select_rank(sweep, policy)
        return cls.from_factor(sweep.factors[rank - 1], float(sweep.fits[rank - 1]), sweep=sweep)


@_single_thread_blas()
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
    rng drives the solve's starts under every policy (config.seed if None).
    """
    from .patch import PatchedCovariance, effective_mask

    config = config or SolveConfig()
    if mask is None:
        if not isinstance(target, PatchedCovariance):
            raise ValueError("a mask is required unless target is a PatchedCovariance")
        mask = effective_mask(target)
    tvals = _target_values(target)

    kind, value = parse_rank_policy(config.rank_policy)
    if kind == "fixed":
        factor, fit = solve_fixed_rank(tvals, mask, int(value), config, rng=rng)
        return CovarianceEstimate.from_factor(factor, fit)
    sweep = rank_sweep(tvals, mask, config, until=config.rank_policy, rng=rng)
    return CovarianceEstimate.from_sweep(sweep, config.rank_policy)


def exact_band_completion(band, mask: BandMask, q: int) -> SymMatrix:
    """Unique rank-q completion of an exactly banded matrix.

    Fills unknown entries outward, one whole diagonal per step. The unknown at
    (j, l), l > j, is the root of the vanishing determinant of a
    (q+1) x (q+1) window whose only unknown is (j, l): rows spread evenly
    over {j..l-1} and columns over {j+1..l}, so every other window entry
    lies strictly closer to the diagonal and is already known. (Spread
    windows keep the pivot minor well conditioned; consecutive rows are
    nearly dependent on fine grids.) Requires a noiseless band of half-width
    at least 2q with the diagonal included; a singular minor raises
    CompletionError naming the first such entry of its diagonal.
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
        j = np.arange(K - offset)
        windows = R[_spread(j, offset, q)[:, :, None], _spread(j + 1, offset, q)[:, None, :]]
        # each unknown sits at its window's top-right corner
        a = (-1.0) ** q * np.linalg.det(windows[:, 1:, :q])
        windows[:, 0, q] = 0.0
        b = np.linalg.det(windows)
        bad = np.flatnonzero(np.abs(a) < 1e-12 * np.maximum(np.linalg.norm(windows, axis=(1, 2)), 1e-300))
        if bad.size:
            raise CompletionError(f"singular minor at ({bad[0]}, {bad[0] + offset}): "
                                  "completion not identifiable from this submatrix")
        R[j, j + offset] = R[j + offset, j] = -b / a
    return SymMatrix(R)


def _spread(starts: np.ndarray, offset: int, q: int) -> np.ndarray:
    """From each start s, q + 1 indices spread evenly over s..s + offset - 1, rounded."""
    return np.round(np.linspace(starts, starts + offset - 1, q + 1, axis=-1)).astype(int)
