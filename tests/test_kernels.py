import math
import re

import numpy as np
import pytest
from scipy.stats import norm

from fragcov import (
    Grid,
    MaternKernel,
    MercerKernel,
    SumKernel,
    counterexample_bump_pair,
    esseen_pair,
    evaluate_on_grid,
    kernel_from_id,
    scenario_kernel,
)


class TestScenarioKernels:
    def test_A1_at_half(self):
        assert scenario_kernel("A", 1)(0.5, 0.5) == pytest.approx(1.5)

    def test_A2_at_quarter(self):
        # 1.5 + 0.55 * sin(pi/2)^2
        assert scenario_kernel("A", 2)(0.25, 0.25) == pytest.approx(2.05)

    def test_B1_against_reference_pdf(self):
        expected = 1.5 * norm.pdf(0.5, loc=0.5, scale=0.6) ** 2
        assert scenario_kernel("B", 1)(0.5, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_B3_against_reference_pdf(self):
        s, t = 0.3, 0.7
        params = ((1.50, 0.5, 0.60), (0.55, 0.2, 0.25), (0.20, 0.8, 0.20))
        expected = sum(b * norm.pdf(s, m, sd) * norm.pdf(t, m, sd) for b, m, sd in params)
        assert scenario_kernel("B", 3)(s, t) == pytest.approx(expected, rel=1e-12)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            scenario_kernel("A", 4)
        with pytest.raises(ValueError, match="unknown scenario 'C'"):
            scenario_kernel("C", 1)

    def test_symmetry(self):
        k = scenario_kernel("B", 3)
        assert k(0.2, 0.9) == pytest.approx(k(0.9, 0.2), abs=1e-12)


class TestMercerKernel:
    @pytest.mark.parametrize("eigenvalues, n_functions, message", [
        ((1.0, 0.5), 1, "need one eigenfunction per eigenvalue"),
        ((1.0,), 2, "need one eigenfunction per eigenvalue"),
        ((), 0, "need one eigenfunction per eigenvalue"),
        ((1.0, 0.0), 2, "eigenvalues must be strictly positive"),
        ((1.0, -0.5), 2, "eigenvalues must be strictly positive"),
        ((0.5, 1.0), 2, "eigenvalues must be nonincreasing"),
    ])
    def test_impossible_spectrum_rejected(self, eigenvalues, n_functions, message):
        with pytest.raises(ValueError, match=message):
            MercerKernel(eigenvalues, (np.ones_like,) * n_functions)


class TestMatern:
    def test_value_at_zero_distance(self):
        k = MaternKernel(1.5, 0.5, 2.0)
        assert k(0.3, 0.3) == pytest.approx(2.0)

    @pytest.mark.parametrize("d", [0.1, 0.5, 1.0])
    def test_closed_form_nu_three_halves(self, d):
        rho, s2 = 0.5, 1.3
        k = MaternKernel(1.5, rho, s2)
        x = math.sqrt(3.0) * d / rho
        assert k.at_distance(d) == pytest.approx(s2 * (1 + x) * math.exp(-x), rel=1e-10)

    @pytest.mark.parametrize("d", [0.1, 0.5, 1.0])
    def test_closed_form_nu_five_halves(self, d):
        rho, s2 = 0.8, 1.0
        k = MaternKernel(2.5, rho, s2)
        x = math.sqrt(5.0) * d / rho
        expected = s2 * (1 + x + x * x / 3.0) * math.exp(-x)
        assert k.at_distance(d) == pytest.approx(expected, rel=1e-10)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MaternKernel(-1.0, 0.5)

    def test_full_numerical_rank_on_grid(self):
        M = evaluate_on_grid(MaternKernel(1.5, 0.5, 1.0), Grid.regular(50))
        sv = np.linalg.svd(M.values, compute_uv=False)
        assert sv.min() > 0
        assert sv.min() > 1e-14 * sv.max()


class TestSumKernel:
    def test_identity_plus_zero_like(self):
        m = MaternKernel(1.5, 0.5, 1.0)
        s = SumKernel(m, scenario_kernel("A", 2))
        assert s(0.0, 0.0) == pytest.approx(m(0.0, 0.0) + 1.5)

    def test_matern_plus_A2_at_origin(self):
        s = SumKernel(MaternKernel(1.5, 0.5, 1.0), scenario_kernel("A", 2))
        assert s(0.0, 0.0) == pytest.approx(2.5)

    def test_symmetry(self):
        s = SumKernel(MaternKernel(1.5, 0.5, 1.0), scenario_kernel("A", 2))
        assert s(0.2, 0.7) == pytest.approx(s(0.7, 0.2), abs=1e-12)


class TestBumpPair:
    def test_agree_inside_band(self):
        k1, k2 = counterexample_bump_pair(0.5)
        assert k2(0.1, 0.4) == pytest.approx(k1(0.1, 0.4), abs=1e-15)

    def test_cross_term_value(self):
        lam = 0.3
        k1, k2 = counterexample_bump_pair(lam)
        gap = k2(1 / 6, 5 / 6) - k1(1 / 6, 5 / 6)
        assert gap == pytest.approx(math.sqrt(lam) * math.exp(-2.0), rel=1e-12)

    def test_zero_outside_supports(self):
        k1, _ = counterexample_bump_pair(0.5)
        # the supports tile (0, 1); only their boundary points miss all three
        for t in (0.0, 1 / 3, 2 / 3, 1.0):
            assert k1(t, t) == 0.0

    def test_grid_agreement_band_third(self):
        k1, k2 = counterexample_bump_pair(0.5)
        g = Grid.perturbed(50, seed=5)
        m1 = evaluate_on_grid(k1, g).values
        m2 = evaluate_on_grid(k2, g).values
        lag = np.abs(np.subtract.outer(g.points, g.points))
        inside = lag <= 1 / 3
        assert np.abs(m1 - m2)[inside].max() < 1e-12
        assert np.abs(m1 - m2)[~inside].max() > 0.01

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            counterexample_bump_pair(1.5)


class TestEsseenPair:
    def test_agree_below_one(self):
        p1, p2 = esseen_pair()
        assert p2(0.0, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert p1(0.0, 0.5) == pytest.approx(p2(0.0, 0.5))

    def test_linear_piece(self):
        _, p2 = esseen_pair()
        assert p2(0.0, 1.5) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)

    def test_zero_beyond_two(self):
        _, p2 = esseen_pair()
        assert p2(0.0, 2.0) == 0.0
        assert p2(-1.0, 1.5) == 0.0

    def test_grid_agreement_pattern(self):
        p1, p2 = esseen_pair()
        pts = np.linspace(-math.pi, math.pi, 64)
        m1 = evaluate_on_grid(p1, pts).values
        m2 = evaluate_on_grid(p2, pts).values
        lag = np.abs(np.subtract.outer(pts, pts))
        assert np.abs(m1 - m2)[lag < 1.0].max() == 0.0
        between = (lag > 1.0) & (lag < 2.0)
        assert np.abs(m1 - m2)[between].max() > 0.01


class TestEvaluateOnGrid:
    def test_rank_one_constant(self):
        M = evaluate_on_grid(scenario_kernel("A", 1), Grid.regular(10))
        assert np.allclose(M.values, 1.5)

    @pytest.mark.parametrize("scen,q", [("A", 2), ("A", 3), ("B", 3)])
    def test_numerical_rank(self, scen, q):
        for seed in range(20):
            M = evaluate_on_grid(scenario_kernel(scen, q), Grid.perturbed(50, seed))
            sv = np.linalg.svd(M.values, compute_uv=False)
            assert (sv > 1e-8 * sv[0]).sum() == q

    def test_psd_up_to_tolerance(self):
        for kid in ("scenarioA:3", "scenarioB:2", "matern:1.5,0.5,1.0", "bump3:0.5", "esseen:2"):
            k = kernel_from_id(kid)
            pts = Grid.perturbed(40, 7).points if "esseen" not in kid else np.linspace(-3, 3, 40)
            vals = np.linalg.eigvalsh(evaluate_on_grid(k, pts).values)
            assert vals.min() >= -1e-8 * max(vals.max(), 1e-30)


class TestKernelIds:
    def test_scenario_ids(self):
        assert len(kernel_from_id("scenarioA:2").eigenvalues) == 2
        assert len(kernel_from_id("scenarioB:3").eigenvalues) == 3

    def test_matern_id(self):
        k = kernel_from_id("matern:1.5,0.5,2.0")
        assert k(0.1, 0.1) == pytest.approx(2.0)

    def test_matern_plus_A2(self):
        k = kernel_from_id("matern+A2:1.5,0.5")
        assert k(0.0, 0.0) == pytest.approx(2.5)

    def test_bump_and_esseen(self):
        k1 = kernel_from_id("bump3")
        k2 = kernel_from_id("bump3:0.5")
        assert k2(1 / 6, 5 / 6) != k1(1 / 6, 5 / 6)
        assert kernel_from_id("esseen:2")(0.0, 1.5) == pytest.approx(0.5 * math.exp(-1))

    # each used to return the first kernel of the pair in silence
    @pytest.mark.parametrize("kid", ["esseen:x", "esseen:3", "esseen:1", "esseen:2.0"])
    def test_esseen_takes_no_argument_or_2(self, kid):
        with pytest.raises(ValueError, match=re.escape(f"kernel id {kid!r}: esseen takes no argument or 2")):
            kernel_from_id(kid)

    # matern+A2 with one number ended in a TypeError traceback; a fourth number was ignored
    @pytest.mark.parametrize("kid", ["matern", "matern:1.5", "matern:1.5,0.5,1.0,9", "matern+A2:1.5",
                                     "matern+A2:1.5,0.5,1.0,9"])
    def test_matern_ids_need_two_or_three_numbers(self, kid):
        with pytest.raises(ValueError, match=re.escape("matern id needs nu,rho[,sigma2]")):
            kernel_from_id(kid)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            kernel_from_id("fourier:3")
