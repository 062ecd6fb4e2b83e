import hashlib
import logging
import re
import warnings
from dataclasses import fields, replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from fragcov import (
    CompletionError,
    ExperimentConfig,
    Grid,
    MercerKernel,
    RankSweepResult,
    SolveConfig,
    StepKernel,
    band_mask,
    counterexample_bump_pair,
    estimate_covariance,
    evaluate_on_grid,
    exact_band_completion,
    masked_frobenius_sq,
    patched_regular,
    rank_sweep,
    run_cell,
    scenario_kernel,
    select_rank,
    solve_fixed_rank,
)
from fragcov import complete
from fragcov.complete import (
    CovarianceEstimate,
    LowRankFactor,
    _bfgs,
    _lbfgsb,
    _eigen_init,
    _rank_decided,
    masked_objective_grad,
    parse_rank_policy,
)
from fragcov.core import BandMask
from fragcov.simulate import FragmentLaw, fragment, sample_gp
from fragcov.patch import PatchedCovariance, effective_mask
from fragcov.core import SymMatrix


def _full_mask(K):
    return BandMask(np.ones((K, K), dtype=bool), delta=0.99)


def _banded(kernel, K, delta, seed):
    grid = Grid.perturbed(K, seed=seed)
    truth = evaluate_on_grid(kernel, grid)
    mask = band_mask(K, delta)
    return truth.values * mask.include, mask, truth.values


# rank-3 witness whose every component carries a visible share of the band
# energy (the scenario spectra flatten before rank 3: their third component
# is nearly absorbed by a rank-2 fit on a narrow band)
BALANCED_RANK3 = MercerKernel(
    (1.5, 0.9, 0.6),
    (
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lambda t: np.sin(2 * np.pi * t),
        lambda t: np.sin(6 * np.pi * t),
    ),
)


class TestObjectiveGradient:
    def test_zero_at_exact_fit(self):
        gamma = np.ones((4, 1))
        target = gamma @ gamma.T
        value, grad = masked_objective_grad(gamma, target, band_mask(4, 0.9).include)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_all_ones_full_mask_K2(self):
        value, _ = masked_objective_grad(np.zeros((2, 1)), np.ones((2, 2)), _full_mask(2).include)
        assert value == pytest.approx(1.0)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(0)
        gamma = rng.standard_normal((6, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        target = rng.standard_normal((6, 6))
        target = target + target.T
        include = band_mask(6, 0.7).include
        rotated, _ = masked_objective_grad(gamma @ q, target, include)
        assert rotated == pytest.approx(masked_objective_grad(gamma, target, include)[0], rel=1e-12)

    def test_scalar_gradient(self):
        # d/dg (g^2 - r)^2 = 4 g (g^2 - r) = 24 at g=2, r=1; the 1x1 case
        target = np.array([[1.0]])
        g = np.array([[2.0]])
        _, grad = masked_objective_grad(g, target, _full_mask(1).include)
        assert grad[0, 0] == pytest.approx(24.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            K = int(rng.integers(4, 16))
            r = int(rng.integers(1, 4))
            gamma = rng.standard_normal((K, r))
            target = rng.standard_normal((K, K))
            target = target + target.T
            include = band_mask(K, float(rng.uniform(0.5, 0.95))).include
            direction = rng.standard_normal((K, r))
            h = 1e-6
            fp, _ = masked_objective_grad(gamma + h * direction, target, include)
            fm, _ = masked_objective_grad(gamma - h * direction, target, include)
            numeric = (fp - fm) / (2 * h)
            analytic = float(np.vdot(masked_objective_grad(gamma, target, include)[1], direction))
            assert numeric == pytest.approx(analytic, rel=1e-5, abs=1e-12)

    @given(K=st.integers(3, 40), r=st.integers(1, 6), d=st.floats(0.3, 0.95), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_value_is_masked_frobenius_of_product(self, K, r, d, seed):
        try:
            mask = band_mask(K, d)
        except ValueError:
            return
        rng = np.random.default_rng(seed)
        gamma = rng.standard_normal((K, r))
        target = rng.standard_normal((K, K))
        target = target + target.T
        expected = masked_frobenius_sq(gamma @ gamma.T, target, mask)
        value, _ = masked_objective_grad(gamma, target, mask.include)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-300)


class TestSolveFixedRank:
    @pytest.mark.parametrize("scen,q", [("A", 1), ("A", 3), ("B", 2)])
    def test_exact_band_recovery(self, scen, q):
        banded, mask, truth = _banded(scenario_kernel(scen, q), 50, 0.5, seed=q)
        factor, fit = solve_fixed_rank(banded, mask, q)
        assert fit < 1e-8
        oracle = exact_band_completion(banded, mask, q)
        assert np.linalg.norm(factor.matrix() - oracle.values) / np.linalg.norm(oracle.values) < 1e-3

    def test_full_rank_full_mask_interpolates(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((6, 6))
        psd = g @ g.T
        mask = _full_mask(6)
        factor, fit = solve_fixed_rank(psd, mask, 6)
        assert fit < 1e-12
        assert np.abs(factor.matrix() - psd).max() < 1e-5

    def test_underfit_has_larger_fit(self):
        banded, mask, _ = _banded(scenario_kernel("A", 3), 50, 0.5, seed=9)
        _, fit1 = solve_fixed_rank(banded, mask, 1)
        _, fit3 = solve_fixed_rank(banded, mask, 3)
        assert fit1 > fit3

    def test_psd_by_construction(self):
        banded, mask, _ = _banded(scenario_kernel("B", 2), 30, 0.6, seed=3)
        factor, _ = solve_fixed_rank(banded, mask, 2)
        eigs = np.linalg.eigvalsh(factor.matrix())
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-30)

    def test_bad_rank_rejected(self):
        banded, mask, _ = _banded(scenario_kernel("A", 1), 10, 0.6, seed=0)
        with pytest.raises(ValueError):
            solve_fixed_rank(banded, mask, 0)
        with pytest.raises(ValueError):
            solve_fixed_rank(banded, mask, 11)

    def test_deterministic(self):
        banded, mask, _ = _banded(scenario_kernel("A", 2), 30, 0.5, seed=4)
        f1, fit1 = solve_fixed_rank(banded, mask, 2)
        f2, fit2 = solve_fixed_rank(banded, mask, 2)
        assert fit1 == fit2
        assert np.array_equal(f1.gamma, f2.gamma)

    def test_badly_scaled_spectrum_recovered(self):
        # second eigenvalue 1e-6 of the first: one L-BFGS-B descent still
        # recovers the truth far below the component's share of the matrix
        kernel = MercerKernel((1.5, 1e-6), BALANCED_RANK3.eigenfunctions[:2])
        banded, mask, truth = _banded(kernel, 30, 0.5, seed=0)
        factor, _ = solve_fixed_rank(banded, mask, 2)
        assert np.linalg.norm(factor.matrix() - truth) / np.linalg.norm(truth) < 1e-5


def _table_problem(K, r, seed):
    """Objective and eigen start of a table-protocol fit: patched scenario A
    target of 200 fragments of length 0.5, fitted on the delta' = 0.4 band."""
    rng = np.random.default_rng(seed)
    grid = Grid.perturbed(K, rng)
    paths = sample_gp(evaluate_on_grid(scenario_kernel("A", 3), grid), 200, rng)
    target = np.ascontiguousarray(patched_regular(fragment(paths, grid, FragmentLaw(0.5, 0.5), rng)).values)
    include = band_mask(K, 0.4).include

    def fun(x):
        value, grad = masked_objective_grad(x.reshape(K, r), target, include)
        return value, grad.ravel()

    return fun, _eigen_init(target, r).ravel()


class TestDenseBFGS:
    @pytest.mark.parametrize("max_iter", [100, 2000])
    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("K", [25, 50, 100])
    def test_matches_scipy_bfgs(self, K, r, max_iter):
        fun, x0 = _table_problem(K, r, seed=K + r)
        ref = minimize(fun, x0, jac=True, method="BFGS", options={"maxiter": max_iter, "gtol": 1e-8})
        res = _bfgs(fun, x0, 1e-8, max_iter)
        assert (res.nit, res.nfev, res.success, res.status) == (ref.nit, ref.nfev, ref.success, ref.status)
        assert np.linalg.norm(res.x - ref.x) <= 1e-8 * np.linalg.norm(ref.x)
        assert res.fun == pytest.approx(ref.fun, rel=1e-12)

    def test_stationary_start_takes_no_step(self):
        fun, _ = _table_problem(25, 2, seed=1)
        x0 = np.zeros(50)
        res = _bfgs(fun, x0, 1e-8, 100)
        assert (res.nit, res.nfev, res.success) == (0, 1, True)
        assert np.array_equal(res.x, x0)

    # a gradient scaled by c (a, c) makes scipy's DCSRCH find no step, and BFGS
    # calls line_search_wolfe2 once: it fails at the start (3, -1), after 25
    # iterations (3, 5), or finds a step and the descent converges (1, 3)
    @pytest.mark.parametrize("a, c", [(3, -1), (3, 5), (1, 3)])
    def test_fallback_line_search_matches_scipy(self, a, c, monkeypatch):
        import scipy.optimize._linesearch as linesearch

        def fun(x):
            return x @ x + np.sum(np.sin(a * x)), c * (2 * x + a * np.cos(a * x))

        calls, wolfe2 = [], linesearch.line_search_wolfe2

        def counted(*args, **kwargs):
            calls.append(args)
            return wolfe2(*args, **kwargs)

        monkeypatch.setattr(linesearch, "line_search_wolfe2", counted)
        x0 = np.linspace(-2, 2, 7)
        ref = minimize(fun, x0, jac=True, method="BFGS", options={"maxiter": 100, "gtol": 1e-8})
        res = _bfgs(fun, x0, 1e-8, 100)
        assert len(calls) == 1
        assert (res.nit, res.nfev, res.status) == (ref.nit, ref.nfev, ref.status)
        assert np.linalg.norm(res.x - ref.x) <= 1e-8 * np.linalg.norm(ref.x)

    def test_nan_target_diverges(self):
        banded, mask, _ = _banded(scenario_kernel("A", 2), 20, 0.5, seed=2)
        banded = banded.copy()
        banded[3, 4] = banded[4, 3] = np.nan
        with pytest.raises(CompletionError, match="diverged"):
            solve_fixed_rank(banded, mask, 2, SolveConfig(method="bfgs"), gamma0=np.ones((20, 2)))

    def test_unconverged_descent_is_logged(self, caplog, monkeypatch):
        banded, mask, _ = _banded(scenario_kernel("A", 3), 30, 0.5, seed=5)
        monkeypatch.setitem(complete._BUDGETS, "bfgs", ("BFGS", 5, lambda K: 1e-8))
        with caplog.at_level(logging.DEBUG, logger="fragcov.complete"):
            solve_fixed_rank(banded, mask, 3, SolveConfig(method="bfgs"))
        (record,) = [r for r in caplog.records if r.name == "fragcov.complete"]
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == "descent method=bfgs nit=5 nfev=6 converged=False"

    def test_lbfgs_descends_once_per_start(self, caplog, monkeypatch):
        results, methods = [], []
        scipy_minimize = complete.minimize

        def recording(fun, x0, **options):
            methods.append(options.get("method"))
            results.append(scipy_minimize(fun, x0, **options))
            return results[-1]

        monkeypatch.setattr(complete, "minimize", recording)
        banded, mask, _ = _banded(scenario_kernel("A", 1), 20, 0.5, seed=6)
        with caplog.at_level(logging.DEBUG, logger="fragcov.complete"):
            solve_fixed_rank(banded, mask, 1)
        (res,) = results
        (record,) = [r for r in caplog.records if r.name == "fragcov.complete"]
        assert record.getMessage() == f"descent method=lbfgs nit={res.nit} nfev={res.nfev} converged=True"
        methods.clear()
        solve_fixed_rank(banded, mask, 1, SolveConfig(restarts=3))
        assert methods == ["L-BFGS-B"] * 3


class TestLBFGSB:
    """_lbfgsb drives scipy's L-BFGS-B routine itself: minimize's iterates, bit for bit."""

    # max_iter 5 stops every start at the iteration cap (status 1)
    @pytest.mark.parametrize("max_iter", [5, 100, 2000])
    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("K", [25, 50, 100])
    def test_matches_scipy_lbfgsb(self, K, r, max_iter):
        fun, x0 = _table_problem(K, r, seed=K + r)
        gtol = 1e-9 / K**2
        options = {"maxiter": max_iter, "gtol": gtol, "ftol": 1e-18, "maxcor": 20}
        ref = minimize(fun, x0, jac=True, method="L-BFGS-B", options=options)
        res = _lbfgsb(fun, x0, gtol, max_iter)
        assert (res.nit, res.nfev, res.success, res.status) == (ref.nit, ref.nfev, ref.success, ref.status)
        assert np.array_equal(res.x, ref.x)
        assert res.fun == ref.fun
        if max_iter == 5:
            assert (res.nit, res.status) == (5, 1)

    def test_leaves_the_start_untouched(self):
        fun, x0 = _table_problem(25, 2, seed=1)
        start = x0.copy()
        res = _lbfgsb(fun, x0, 1e-9 / 25**2, 2000)
        assert np.array_equal(x0, start)
        assert res.success and res.nit > 0

    @pytest.mark.parametrize("subpackage, name", [("optimize", "_lbfgsb"), ("linalg", "_fblas"), ("optimize", "_dcsrch")])
    def test_missing_extension_names_scipy_and_the_directory(self, monkeypatch, subpackage, name):
        monkeypatch.setattr(complete, "PathFinder", SimpleNamespace(find_spec=lambda name, path: None))
        complete._scipy_module.cache_clear()
        try:
            with pytest.raises(ImportError, match=rf"^scipy \S+ has no {name} module in \S+{subpackage}$"):
                complete._scipy_module(subpackage, name)
        finally:
            complete._scipy_module.cache_clear()

    def test_stationary_start_takes_no_step(self):
        fun, _ = _table_problem(25, 2, seed=1)
        x0 = np.zeros(50)
        res = _lbfgsb(fun, x0, 1e-9 / 25**2, 2000)
        assert (res.nit, res.nfev, res.success) == (0, 1, True)
        assert np.array_equal(res.x, x0)


_PROTOCOL_FOOTPRINT_SCRIPT = """
import hashlib, json, sys
import numpy as np
from fragcov import SolveConfig, band_mask, estimate_covariance, evaluate_on_grid, scenario_kernel

def scipy_loaded():
    return sorted(m for m in ("scipy.optimize", "scipy.linalg", "_lbfgsb", "_fblas", "_dcsrch") if m in sys.modules)

K = 30
truth = evaluate_on_grid(scenario_kernel("A", 2), (np.arange(K) + 0.5) / K)
mask = band_mask(K, 0.5)
lbfgs = estimate_covariance(truth, SolveConfig(rank_policy="fixed:2"), mask=mask)
seen = {"lbfgs": scipy_loaded()}
bfgs = estimate_covariance(truth, SolveConfig(method="bfgs", rank_policy="fixed:2"), mask=mask)
seen["bfgs"] = scipy_loaded()
digests = [hashlib.sha256(est.matrix.values.tobytes()).hexdigest() for est in (lbfgs, bfgs)]
print(json.dumps({"seen": seen, "digests": digests}))
"""


def test_library_protocol_loads_no_scipy_optimize(fresh_python):
    # L-BFGS-B loads scipy's _lbfgsb extension alone, unregistered, and the
    # table protocol scipy's _fblas extension and _dcsrch file; both fit as
    # they do where scipy.optimize was imported first (as in this process)
    out = fresh_python(_PROTOCOL_FOOTPRINT_SCRIPT)
    assert out["seen"] == {"lbfgs": [], "bfgs": []}
    K = 30
    truth = evaluate_on_grid(scenario_kernel("A", 2), (np.arange(K) + 0.5) / K)
    estimates = [
        estimate_covariance(truth, SolveConfig(method=method, rank_policy="fixed:2"), mask=band_mask(K, 0.5))
        for method in ("lbfgs", "bfgs")
    ]
    assert out["digests"] == [hashlib.sha256(est.matrix.values.tobytes()).hexdigest() for est in estimates]


class TestSolveProtocols:
    """method alone picks the descent and its budget."""

    def test_method_pins_the_budget(self, monkeypatch):
        calls = []
        descend = complete.minimize

        def recording_minimize(fun, x0, method, gtol, max_iter):
            calls.append((method, max_iter, gtol))
            return descend(fun, x0, method=method, gtol=gtol, max_iter=max_iter)

        monkeypatch.setattr(complete, "minimize", recording_minimize)
        banded, mask, _ = _banded(scenario_kernel("A", 2), 20, 0.5, seed=3)
        solve_fixed_rank(banded, mask, 2, SolveConfig(method="bfgs"))
        solve_fixed_rank(banded, mask, 2, SolveConfig(method="lbfgs"))
        solve_fixed_rank(banded, mask, 2)
        lbfgs = ("L-BFGS-B", 2000, 1e-9 / 20**2)
        assert calls == [("BFGS", 100, 1e-8), lbfgs, lbfgs]

    def test_unknown_descent_rejected(self):
        fun, x0 = _table_problem(25, 1, seed=1)
        with pytest.raises(ValueError, match="unknown descent method 'trust-ncg'"):
            complete.minimize(fun, x0, method="trust-ncg", gtol=1e-8, max_iter=10)

    @pytest.mark.parametrize("method", ["BFGS", "newton", ""])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ValueError, match=f"unknown solve method {method!r}"):
            SolveConfig(method=method)

    # each message names the field, where a solve would fail later or silently run one start
    @pytest.mark.parametrize("field, value, message", [
        ("max_rank_sweep", 0, "max_rank_sweep must be at least 1, got 0"),
        ("max_rank_sweep", -3, "max_rank_sweep must be at least 1, got -3"),
        ("restarts", 0, "restarts must be at least 1, got 0"),
        ("restarts", -2, "restarts must be at least 1, got -2"),
        ("seed", -1, "seed must be nonnegative, got -1"),
    ])
    def test_impossible_value_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SolveConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_iter", "grad_tol"])
    def test_budget_is_not_a_field(self, field):
        with pytest.raises(TypeError, match=field):
            SolveConfig(**{field: 100})


class TestRankSweep:
    def test_fits_nonincreasing_and_drop_at_true_rank(self):
        banded, mask, _ = _banded(scenario_kernel("A", 2), 50, 0.5, seed=5)
        sweep = rank_sweep(banded, mask, SolveConfig(max_rank_sweep=5))
        assert np.all(np.diff(sweep.fits) <= 1e-10)
        assert sweep.normalized_fits[0] > 1e-2
        assert sweep.normalized_fits[1] < 1e-6
        assert sweep.normalized_fits[0] / max(sweep.normalized_fits[1], 1e-300) > 1e2

    def test_normalized_fits_at_most_one(self):
        banded, mask, _ = _banded(scenario_kernel("B", 3), 40, 0.5, seed=6)
        sweep = rank_sweep(banded, mask, SolveConfig(max_rank_sweep=4))
        assert np.all(sweep.normalized_fits <= 1.0 + 1e-12)
        assert sweep.max_rank == 4

    def test_default_bound(self):
        banded, mask, _ = _banded(scenario_kernel("A", 1), 20, 0.5, seed=7)
        sweep = rank_sweep(banded, mask, SolveConfig())
        assert sweep.max_rank == int(np.ceil(20 * 0.5)) - 3


@lru_cache(maxsize=None)
def _readme_patched():
    """The README library quickstart's patched matrix (scenario A, rank 2, K=50, delta 0.6)."""
    grid = Grid.perturbed(50, seed=0)
    paths = sample_gp(evaluate_on_grid(scenario_kernel("A", 2), grid), n=200, seed=1)
    return patched_regular(fragment(paths, grid, FragmentLaw.fixed(0.6), seed=2))


def _select_with_warnings_off(sweep, policy):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return select_rank(sweep, policy)


_POLICIES = st.one_of(
    st.floats(0.0, 1.5, exclude_min=True).map(lambda eps: f"elbow:{eps!r}"),
    st.one_of(st.just(0.0), st.floats(0.0, 5.0)).map(lambda tau: f"penalty:{tau!r}"),
)


class TestLazySweep:
    @given(
        fits=st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 10.0)), min_size=1, max_size=12),
        base_fit=st.one_of(st.just(0.0), st.floats(1e-3, 20.0)),
        policy=_POLICIES,
    )
    @settings(max_examples=300, deadline=None)
    def test_stop_rule_keeps_the_selected_rank(self, fits, base_fit, policy):
        full = RankSweepResult(sorted(fits, reverse=True), (), base_fit)
        stop = next(
            (k for k in range(1, full.max_rank + 1)
             if _rank_decided(RankSweepResult(full.fits[:k], (), base_fit), policy)),
            full.max_rank,
        )
        prefix = RankSweepResult(full.fits[:stop], (), base_fit)
        assert _select_with_warnings_off(prefix, policy) == _select_with_warnings_off(full, policy)

    @pytest.mark.parametrize("case, taus", [("readme", (1e-4, 1e-3)), ("scenarioB3", (5e-6, 2e-4))])
    def test_estimate_equals_selection_from_the_full_sweep(self, case, taus):
        if case == "readme":
            patched = _readme_patched()
        else:
            grid = Grid.perturbed(40, seed=4)
            paths = sample_gp(evaluate_on_grid(scenario_kernel("B", 3), grid), n=200, seed=5)
            patched = patched_regular(fragment(paths, grid, FragmentLaw.fixed(0.6), seed=6))
        config = SolveConfig(max_rank_sweep=6, seed=3)
        full = rank_sweep(patched, effective_mask(patched), config)
        for policy in ("elbow", *(f"penalty:{tau}" for tau in taus)):
            est = estimate_covariance(patched, replace(config, rank_policy=policy))
            rank = select_rank(full, policy)
            assert est.rank == rank
            assert est.fit == full.fits[rank - 1]
            assert est.matrix.values.tobytes() == full.factors[rank - 1].matrix().tobytes()
            assert np.array_equal(est.sweep.fits, full.fits[: est.sweep.max_rank])
            if policy == "elbow":
                assert est.sweep.max_rank == rank

    def test_readme_elbow_visits_two_ranks(self):
        est = estimate_covariance(_readme_patched(), SolveConfig(rank_policy="elbow"))
        assert est.rank == 2
        assert est.sweep.max_rank == 2

    def test_sweep_without_policy_visits_every_rank(self):
        sweep = rank_sweep(_readme_patched(), effective_mask(_readme_patched()), SolveConfig(max_rank_sweep=4))
        assert sweep.max_rank == 4
        assert select_rank(sweep, "elbow") == 2

    def test_sweep_rejects_a_fixed_policy(self):
        banded, mask, _ = _banded(scenario_kernel("A", 2), 20, 0.5, seed=12)
        with pytest.raises(ValueError, match="fixed:2"):
            rank_sweep(banded, mask, SolveConfig(max_rank_sweep=3), until="fixed:2")

    def test_sweep_is_logged(self, caplog):
        banded, mask, _ = _banded(scenario_kernel("A", 2), 40, 0.5, seed=12)
        with caplog.at_level(logging.DEBUG, logger="fragcov.complete"):
            rank_sweep(banded, mask, SolveConfig(max_rank_sweep=5), until="elbow")
            rank_sweep(banded, mask, SolveConfig(max_rank_sweep=3))
        records = [r for r in caplog.records if r.getMessage().startswith("sweep ")]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        assert [r.getMessage() for r in records] == [
            "sweep policy=elbow visited=2 bound=5",
            "sweep policy=None visited=3 bound=3",
        ]


class TestSelectRank:
    @staticmethod
    def _toy_sweep(normalized):
        normalized = np.asarray(normalized, dtype=float)
        return type(
            "Sweep", (), {"fits": normalized * 2.0, "normalized_fits": normalized, "max_rank": len(normalized)}
        )()

    def test_fixed(self):
        assert select_rank(self._toy_sweep([0.5, 0.2, 0.1]), "fixed:2") == 2

    def test_elbow_on_exact_band(self):
        banded, mask, _ = _banded(BALANCED_RANK3, 50, 0.5, seed=8)
        sweep = rank_sweep(banded, mask, SolveConfig(max_rank_sweep=5))
        assert select_rank(sweep, "elbow:0.01") == 3

    def test_elbow_default_smallest_hit(self):
        assert select_rank(self._toy_sweep([0.5, 0.005, 0.001]), "elbow") == 2

    def test_elbow_all_equal_below(self):
        assert select_rank(self._toy_sweep([0.001, 0.001, 0.001]), "elbow") == 1

    def test_elbow_never_met_warns(self):
        with pytest.warns(UserWarning, match="elbow threshold"):
            rank = select_rank(self._toy_sweep([0.9, 0.8, 0.7]), "elbow:0.01")
        assert rank == 3

    def test_penalty_large_tau_picks_one(self):
        s = self._toy_sweep([0.5, 0.2, 0.1])
        assert select_rank(s, f"penalty:{10.0}") == 1

    def test_penalty_ties_to_smaller(self):
        s = type("S", (), {"fits": np.array([1.0, 1.0]), "normalized_fits": np.array([1.0, 1.0]), "max_rank": 2})()
        assert select_rank(s, "penalty:0.0") == 1

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_rank_policy("magic:3")
        with pytest.raises(ValueError):
            select_rank(self._toy_sweep([0.5]), "penalty")

    # a threshold that can never be met (elbow eps <= 0, a negative penalty)
    # would sweep to the bound; a bad q would fail inside every solve
    @pytest.mark.parametrize("policy", [
        "fixed:-1", "fixed:0", "fixed:x", "fixed:2.5", "fixed:",
        "elbow:0", "elbow:-1", "elbow:nan", "elbow:inf",
        "penalty:-0.5", "penalty:inf", "penalty:nan", "penalty",
    ])
    def test_malformed_policy_rejected(self, policy):
        with pytest.raises(ValueError, match=f"rank policy {re.escape(repr(policy))}: "):
            parse_rank_policy(policy)
        with pytest.raises(ValueError, match=re.escape(repr(policy))):
            SolveConfig(rank_policy=policy)

    @pytest.mark.parametrize("policy, parsed", [
        ("fixed:1", ("fixed", 1)), ("elbow", ("elbow", 0.01)), ("ELBOW:1e-9", ("elbow", 1e-9)),
        ("elbow:1.5", ("elbow", 1.5)), ("penalty:0", ("penalty", 0.0)), ("penalty:2e-4", ("penalty", 2e-4)),
    ])
    def test_valid_policy_parsed(self, policy, parsed):
        assert parse_rank_policy(policy) == parsed
        assert SolveConfig(rank_policy=policy).rank_policy == policy


class TestEstimateCovariance:
    def test_step_kernel_hits_cell_centers(self):
        banded, mask, truth = _banded(scenario_kernel("A", 2), 30, 0.6, seed=10)
        patched = PatchedCovariance(
            matrix=SymMatrix(banded, (mask.include * 30).astype(int)), delta_effective=0.5
        )
        est = estimate_covariance(patched, SolveConfig(rank_policy="fixed:2"), mask=mask)
        centers = (np.arange(30) + 0.5) / 30
        vals = est.step_kernel(centers[:, None], centers[None, :])
        assert np.array_equal(vals, est.matrix.values)
        assert est.rank == 2

    # the rank is the factor's column count and the step kernel the matrix's,
    # so neither is a field that could disagree with them
    def test_rank_and_step_kernel_are_derived(self):
        est = CovarianceEstimate.from_factor(LowRankFactor(np.arange(18.0).reshape(6, 3)), 0.5)
        assert [f.name for f in fields(est)] == ["matrix", "rank", "fit", "sweep"]
        assert (est.rank, est.fit, est.sweep) == (3, 0.5, None)
        assert est.step_kernel.values is est.matrix.values
        with pytest.raises(TypeError):
            CovarianceEstimate.from_factor(LowRankFactor(np.ones((6, 3))), 3, 0.5)  # a rank before the fit

    def test_exact_band_low_error(self):
        banded, mask, truth = _banded(scenario_kernel("B", 2), 50, 0.5, seed=11)
        est = estimate_covariance(banded, SolveConfig(rank_policy="fixed:2"), mask=mask)
        assert np.linalg.norm(est.matrix.values - truth) / np.linalg.norm(truth) < 1e-3

    def test_elbow_pipeline_selects_true_rank(self):
        banded, mask, _ = _banded(scenario_kernel("A", 2), 40, 0.5, seed=12)
        est = estimate_covariance(banded, SolveConfig(rank_policy="elbow", max_rank_sweep=5), mask=mask)
        assert est.rank == 2
        assert est.sweep is not None

    @pytest.mark.parametrize("policy", ["elbow", "penalty:0.001"])
    def test_rng_drives_the_sweep(self, policy):
        # a caller's generator seeds the sweep's starts as config.seed does
        # without one; the two seeds reach rank 2 from different jitter
        grid = Grid.perturbed(20, seed=4)
        paths = sample_gp(evaluate_on_grid(scenario_kernel("B", 3), grid), n=100, seed=5)
        patched = patched_regular(fragment(paths, grid, FragmentLaw.fixed(0.6), seed=6))

        def estimate(seed, rng=None):
            est = estimate_covariance(patched, SolveConfig(rank_policy=policy, seed=seed), rng=rng)
            return est.matrix.values.tobytes()

        assert estimate(0, rng=np.random.default_rng(7)) == estimate(7) != estimate(0)

    # the fit is in squared units: scaling every value by c scales the estimate by c^2
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("c", [0.5, 4.0])
    @pytest.mark.parametrize("kernel, q", [(("A", 3), 3), (("B", 2), 2)])
    def test_scale_equivariance(self, kernel, q, c, seed):
        rng = np.random.default_rng(seed)
        grid = Grid.perturbed(30, rng)
        paths = sample_gp(evaluate_on_grid(scenario_kernel(*kernel), grid), n=200, seed=rng)
        sample = fragment(paths, grid, FragmentLaw.fixed(0.6), seed=rng)
        config = SolveConfig(rank_policy=f"fixed:{q}")
        base = estimate_covariance(patched_regular(sample), config).matrix.values
        scaled = estimate_covariance(patched_regular(replace(sample, x=c * sample.x)), config).matrix.values
        assert np.linalg.norm(scaled - c * c * base) <= 1e-6 * np.linalg.norm(c * c * base)

    def test_mask_required_for_bare_matrix(self):
        with pytest.raises(ValueError):
            estimate_covariance(np.eye(5), SolveConfig())

    def test_penalty_without_tau_fails_before_the_sweep(self, monkeypatch):
        import fragcov.complete as complete

        def no_sweep(*args, **kwargs):
            raise AssertionError("rank_sweep ran before the policy was checked")

        monkeypatch.setattr(complete, "rank_sweep", no_sweep)
        banded, mask, _ = _banded(scenario_kernel("A", 2), 20, 0.5, seed=12)
        with pytest.raises(ValueError, match="tau"):
            estimate_covariance(banded, SolveConfig(rank_policy="penalty"), mask=mask)


class TestStepKernel:
    def test_boundaries(self):
        sk = StepKernel(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert sk(0.0, 0.0) == 1.0
        assert sk(1.0, 1.0) == 4.0  # x = 1 falls in the last cell
        assert sk(0.49, 0.51) == 2.0

    # K is the matrix's size, not a field a caller could set and see ignored
    def test_K_follows_the_values(self):
        assert StepKernel(np.eye(3)).K == 3
        with pytest.raises(TypeError):
            StepKernel(np.eye(3), K=5)


class TestExactBandCompletion:
    def test_rank_one_hand_value(self):
        v = np.arange(1.0, 8.0)
        R = np.outer(v, v)
        mask = band_mask(7, 0.5)  # half-width floor(3.5)-1 = 2
        banded = R * mask.include
        completed = exact_band_completion(banded, mask, 1)
        assert completed.values[0, 2] == pytest.approx(3.0)  # v1 * v3
        assert np.abs(completed.values - R).max() < 1e-9

    def test_wide_band_identity(self):
        banded, mask, truth = _banded(scenario_kernel("A", 2), 12, 0.99, seed=13)
        completed = exact_band_completion(banded, mask, 2)
        assert np.linalg.norm(completed.values - truth) / np.linalg.norm(truth) < 1e-10

    @pytest.mark.parametrize("scen,q", [("A", 1), ("A", 3), ("B", 3)])
    def test_identity_on_scenario_bands(self, scen, q):
        banded, mask, truth = _banded(scenario_kernel(scen, q), 50, 0.5, seed=q + 20)
        completed = exact_band_completion(banded, mask, q)
        assert np.linalg.norm(completed.values - truth) / np.linalg.norm(truth) < 1e-8

    def test_bump_counterexample_not_identifiable(self):
        k1, _ = counterexample_bump_pair(0.5)
        grid = Grid.perturbed(50, seed=14)
        truth = evaluate_on_grid(k1, grid)
        mask = band_mask(50, 1 / 3)
        banded = truth.values * mask.include
        try:
            completed = exact_band_completion(banded, mask, 3)
        except CompletionError as exc:
            assert "singular minor" in str(exc)
        else:
            off = ~mask.include
            assert np.abs(completed.values - truth.values)[off].max() > 1e-6

    # the regular grid's first window on the first unknown diagonal is singular
    def test_singular_minor_names_its_entry(self):
        k1, _ = counterexample_bump_pair(0.5)
        truth = evaluate_on_grid(k1, Grid.regular(60)).values
        mask = band_mask(60, 0.4)  # half-width 23
        with pytest.raises(CompletionError, match=re.escape("singular minor at (0, 23): completion not identifiable")):
            exact_band_completion(truth * mask.include, mask, 3)

    # the batched windows take the rows and columns a per-entry np.linspace gives
    def test_window_indices_match_per_window_linspace(self):
        for q in range(1, 9):
            for offset in range(2, 400):
                j = np.unique(np.r_[0:5, 5 : 400 - offset : 41, 399 - offset])
                rows, cols = complete._spread(j, offset, q), complete._spread(j + 1, offset, q)
                for i, start in enumerate(j):
                    l = start + offset
                    assert np.array_equal(rows[i], np.round(np.linspace(start, l - 1, q + 1)).astype(int))
                    assert np.array_equal(cols[i], np.round(np.linspace(start + 1, l, q + 1)).astype(int))

    def test_narrow_band_rejected(self):
        mask = band_mask(20, 0.3)  # half-width 5 < 2q for q=3
        with pytest.raises(ValueError, match="too narrow"):
            exact_band_completion(np.eye(20) * mask.include, mask, 3)

    def test_diagonal_excluded_rejected(self):
        mask = band_mask(20, 0.5, exclude_diagonal=True)
        with pytest.raises(ValueError):
            exact_band_completion(np.zeros((20, 20)), mask, 1)


def test_low_rank_factor_psd():
    f = LowRankFactor(np.random.default_rng(0).standard_normal((5, 2)))
    eigs = np.linalg.eigvalsh(f.matrix())
    assert eigs.min() >= -1e-10 * eigs.max()


@lru_cache(maxsize=None)
def _k200_patched():
    """Patched scenario A rank-3 matrix: K=200, 300 fragments of length 0.5.
    (At K=100 a fixed:3 solve gives the same bytes at 1 and 2 threads even
    unpinned; at K=200 its matmuls are large enough for OpenBLAS to thread.)"""
    grid = Grid.perturbed(200, seed=0)
    paths = sample_gp(evaluate_on_grid(scenario_kernel("A", 3), grid), n=300, seed=1)
    return patched_regular(fragment(paths, grid, FragmentLaw.fixed(0.5), seed=2))


_TABLE_PROTOCOL = SolveConfig(method="bfgs", rank_policy="fixed:3")


@lru_cache(maxsize=None)
def _k100_patched():
    """Patched scenario A rank-3 matrix as in the T7 table cell: K=100, 200
    fragments of length 0.5."""
    grid = Grid.perturbed(100, seed=0)
    paths = sample_gp(evaluate_on_grid(scenario_kernel("A", 3), grid), n=200, seed=1)
    return patched_regular(fragment(paths, grid, FragmentLaw.fixed(0.5), seed=2))


class TestSingleThreadBlas:
    """Every solve runs the bundled OpenBLAS on one thread and restores the
    caller's counts; nested pins do nothing."""

    @staticmethod
    def _counts():
        return [get() for get, _ in complete._openblas()]

    @pytest.fixture()
    def two_threads(self):
        before = self._counts()
        if not before:
            pytest.skip("numpy and scipy load no bundled OpenBLAS here")
        complete._set_blas_threads(2)
        yield [2] * len(before)
        complete._set_blas_threads(before)

    def test_estimate_independent_of_the_caller_thread_count(self, two_threads):
        patched = _k200_patched()
        config = SolveConfig(rank_policy="fixed:3")
        at_two = estimate_covariance(patched, config).matrix.values.tobytes()
        assert self._counts() == two_threads
        complete._set_blas_threads(1)
        at_one = estimate_covariance(patched, config).matrix.values.tobytes()
        complete._set_blas_threads(2)
        assert at_two == at_one
        with pytest.raises(ValueError, match="mask dimension"):
            estimate_covariance(patched, config, mask=band_mask(199, 0.5))
        assert self._counts() == two_threads

    def test_every_descent_runs_pinned(self, two_threads, monkeypatch):
        seen = []

        def recording(gamma, target, mask):
            seen.append(self._counts())
            return masked_objective_grad(gamma, target, mask)

        monkeypatch.setattr(complete, "masked_objective_grad", recording)
        banded, mask, _ = _banded(scenario_kernel("A", 2), 30, 0.5, seed=5)
        ones = [1] * len(two_threads)
        for solve in (
            lambda: solve_fixed_rank(banded, mask, 2),
            lambda: solve_fixed_rank(banded, mask, 2, SolveConfig(method="bfgs")),
            lambda: rank_sweep(banded, mask, SolveConfig(max_rank_sweep=4), until="elbow"),
            lambda: estimate_covariance(banded, SolveConfig(rank_policy="elbow", max_rank_sweep=4), mask=mask),
        ):
            seen.clear()
            solve()
            assert seen and all(counts == ones for counts in seen)
            assert self._counts() == two_threads

    def test_table_protocol_independent_of_the_caller_thread_count(self, two_threads):
        # _bfgs updates its inverse Hessian on scipy's OpenBLAS, numpy's runs the objective
        patched = _k100_patched()
        at_two = estimate_covariance(patched, _TABLE_PROTOCOL).matrix.values.tobytes()
        assert self._counts() == two_threads
        complete._set_blas_threads(1)
        at_one = estimate_covariance(patched, _TABLE_PROTOCOL).matrix.values.tobytes()
        assert self._counts() == [1] * len(two_threads)
        complete._set_blas_threads(2)
        assert at_two == at_one

    def test_run_cell_pins_once(self, two_threads, monkeypatch):
        calls = []
        set_threads = complete._set_blas_threads

        def recording(counts):
            calls.append(counts)
            set_threads(counts)

        monkeypatch.setattr(complete, "_set_blas_threads", recording)
        cfg = ExperimentConfig(kernel="scenarioA:1", n=60, K=20, delta=(0.6, 0.6), rank_policy="fixed:1", replications=3)
        assert not run_cell(cfg, workers=1).failures
        assert calls == [1, two_threads]

    def test_other_blas_builds_are_logged_once(self, monkeypatch, caplog):
        monkeypatch.setattr(complete, "_OPENBLAS_THREADS", ())
        monkeypatch.setattr(complete, "_controls", None)
        banded, mask, _ = _banded(scenario_kernel("A", 1), 20, 0.5, seed=6)
        with caplog.at_level(logging.DEBUG, logger="fragcov.complete"):
            solve_fixed_rank(banded, mask, 1)
            solve_fixed_rank(banded, mask, 1)
        assert complete._openblas() == []
        records = [r for r in caplog.records if r.getMessage().startswith("no bundled OpenBLAS")]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert "own thread count" in records[0].getMessage()
