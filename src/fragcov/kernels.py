"""Ground-truth covariance kernels and their evaluation on grids.

Provides the two finite-rank simulation scenarios (constant/sine and
Gaussian-density eigenfunctions), Matern kernels, kernel sums, and two
families of negative controls: a rank-3 bump-function pair agreeing on the
band of width 1/3, and an exponential/linearized stationary pair agreeing
for lags below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, SymMatrix

__all__ = [
    "Kernel",
    "MercerKernel",
    "MaternKernel",
    "SumKernel",
    "scenario_kernel",
    "counterexample_bump_pair",
    "esseen_pair",
    "evaluate_on_grid",
    "kernel_from_id",
]

SCENARIO_EIGENVALUES = (1.50, 0.55, 0.20)
SCENARIO_B_PARAMS = ((0.5, 0.60), (0.2, 0.25), (0.8, 0.20))


class Kernel:
    """A symmetric covariance function evaluable pointwise on pairs."""

    def __call__(self, s, t):
        raise NotImplementedError


def _maybe_scalar(x: np.ndarray):
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class MercerKernel(Kernel):
    """Finite-rank kernel r(s,t) = sum_j lambda_j phi_j(s) phi_j(t)."""

    eigenvalues: tuple
    eigenfunctions: tuple

    def __post_init__(self):
        lam = tuple(float(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenfunctions", tuple(self.eigenfunctions))
        if len(lam) != len(self.eigenfunctions) or not lam:
            raise ValueError("need one eigenfunction per eigenvalue")
        if any(v <= 0 for v in lam):
            raise ValueError("eigenvalues must be strictly positive")
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise ValueError("eigenvalues must be nonincreasing")

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

    def __call__(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        out = sum(
            lam * phi(s) * phi(t)
            for lam, phi in zip(self.eigenvalues, self.eigenfunctions)
        )
        return _maybe_scalar(np.asarray(out))


@dataclass(frozen=True)
class MaternKernel(Kernel):
    """Stationary Matern kernel with smoothness nu, range rho and variance sigma2;
    at distance 0 its value is sigma2, by continuity."""

    nu: float
    rho: float
    sigma2: float = 1.0

    def __post_init__(self):
        if self.nu <= 0 or self.rho <= 0 or self.sigma2 <= 0:
            raise ValueError("nu, rho and sigma2 must be positive")

    def at_distance(self, d):
        """sigma2 * 2^(1-nu)/Gamma(nu) * x^nu * K_nu(x) with x = sqrt(2 nu) d / rho."""
        from scipy.special import gamma as gamma_fn, kv  # only Matern kernels need scipy

        d = np.abs(np.asarray(d, dtype=float))
        x = math.sqrt(2.0 * self.nu) * d / self.rho
        with np.errstate(invalid="ignore"):
            val = self.sigma2 * (2.0 ** (1.0 - self.nu) / gamma_fn(self.nu)) * x**self.nu * kv(self.nu, x)
        out = np.where(d > 0, val, self.sigma2)
        return _maybe_scalar(out)

    def __call__(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return self.at_distance(np.abs(s - t))


@dataclass(frozen=True)
class SumKernel(Kernel):
    """Pointwise sum of two kernels."""

    first: Kernel
    second: Kernel

    def __call__(self, s, t):
        return self.first(s, t) + self.second(s, t)


class _CallableKernel(Kernel):
    def __init__(self, fn):
        self._fn = fn

    def __call__(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return _maybe_scalar(np.asarray(self._fn(s, t)))


def _gaussian_pdf(t, mean: float, sd: float):
    z = (t - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def scenario_kernel(scenario: str, q: int) -> MercerKernel:
    """Finite-rank simulation kernels.

    Scenario A uses a constant and two sine eigenfunctions; scenario B uses
    raw (unnormalized) Gaussian densities. Both share the eigenvalue
    sequence (1.50, 0.55, 0.20), truncated at rank q.
    """
    if q not in (1, 2, 3):
        raise ValueError("rank q must be 1, 2 or 3")
    scenario = scenario.upper()
    if scenario == "A":
        funcs = (
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
            lambda t: np.sin(2.0 * np.pi * t),
            lambda t: np.sin(4.0 * np.pi * t),
        )
    elif scenario == "B":
        funcs = tuple(
            (lambda t, m=m, s=s: _gaussian_pdf(t, m, s)) for m, s in SCENARIO_B_PARAMS
        )
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return MercerKernel(SCENARIO_EIGENVALUES[:q], funcs[:q])


def _bump(u):
    """Smooth non-analytic bump supported on (-1/6, 1/6), value e^-1 at 0."""
    u = np.asarray(u, dtype=float)
    x = 6.0 * u
    inside = np.abs(x) < 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = np.exp(-1.0 / (1.0 - x * x))
    return np.where(inside, val, 0.0)


def counterexample_bump_pair(lam: float) -> tuple[Kernel, Kernel]:
    """Two distinct rank-3 smooth kernels that agree on the band |s-t| <= 1/3.

    The eigenfunctions are bumps centered at 1/6, 1/2 and 5/6 with disjoint
    supports; the second kernel adds a cross term of weight sqrt(lam)
    coupling the outer bumps, which is invisible inside the band.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    centers = (1.0 / 6.0, 0.5, 5.0 / 6.0)
    phis = tuple((lambda t, c=c: _bump(t - c)) for c in centers)
    k1 = MercerKernel((1.0, 1.0, 1.0), phis)
    root = math.sqrt(lam)

    def second(s, t):
        return k1(s, t) + root * (phis[0](t) * phis[2](s) + phis[0](s) * phis[2](t))

    return k1, _CallableKernel(second)


def esseen_pair() -> tuple[Kernel, Kernel]:
    """Stationary pair agreeing for lags below 1 and differing on lags in (1, 2).

    Both are r(s, t) = psi(s - t). The first is the exponential kernel
    exp(-|u|) of an Ornstein-Uhlenbeck process; the second continues it
    linearly past lag 1 down to zero at lag 2 and vanishes beyond.
    """

    def psi1(u):
        return np.exp(-np.abs(np.asarray(u, dtype=float)))

    e1 = math.exp(-1.0)

    def psi2(u):
        u = np.abs(np.asarray(u, dtype=float))
        linear = e1 - e1 * (u - 1.0)
        return np.where(u < 1.0, np.exp(-u), np.where(u < 2.0, linear, 0.0))

    return _CallableKernel(lambda s, t: psi1(s - t)), _CallableKernel(lambda s, t: psi2(s - t))


def evaluate_on_grid(kernel: Kernel, grid) -> SymMatrix:
    """Evaluate a kernel at all pairs of grid points.

    Accepts a Grid or a raw increasing point array (the latter allows
    domains other than [0, 1], e.g. for the stationary-pair demonstration).
    """
    pts = grid.points if isinstance(grid, Grid) else np.asarray(grid, dtype=float)
    M = np.asarray(kernel(pts[:, None], pts[None, :]), dtype=float)
    M = 0.5 * (M + M.T)
    return SymMatrix(M)


def _number(spec: str, kind, text: str):
    """text as kind (int or float), or a ValueError naming the kernel id spec."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"kernel id {spec!r}: {exc}") from None


def kernel_from_id(spec: str) -> Kernel:
    """Resolve a kernel from a string id.

    Supported: scenarioA:q, scenarioB:q, matern:nu,rho[,sigma2],
    matern+A2[:nu,rho[,sigma2]], bump3[:lam], esseen, esseen:2.
    """
    spec = spec.strip()
    name, _, arg = spec.partition(":")
    name = name.lower()
    if name in ("scenarioa", "scenariob"):
        return scenario_kernel(name[-1], _number(spec, int, arg or "1"))
    if name in ("matern", "matern+a2"):
        default = [] if name == "matern" else [1.5, 0.5]
        parts = [_number(spec, float, v) for v in arg.split(",")] if arg else default
        if not 2 <= len(parts) <= 3:
            raise ValueError("matern id needs nu,rho[,sigma2]")
        matern = MaternKernel(*parts)
        return matern if name == "matern" else SumKernel(matern, scenario_kernel("A", 2))
    if name == "bump3":
        pair = counterexample_bump_pair(_number(spec, float, arg) if arg else 0.5)
        return pair[1] if arg else pair[0]
    if name == "esseen":
        pair = esseen_pair()
        return pair[1] if arg == "2" else pair[0]
    raise ValueError(f"unknown kernel id {spec!r}")
