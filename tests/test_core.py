import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragcov import BandMask, Grid, SymMatrix, band_mask, masked_frobenius_sq, relative_error


class TestGrid:
    def test_regular_midpoints(self):
        g = Grid.regular(4)
        assert np.allclose(g.points, [0.125, 0.375, 0.625, 0.875])

    def test_perturbed_stays_in_cells(self):
        g = Grid.perturbed(50, seed=3)
        j = np.arange(50)
        assert np.all((j / 50 <= g.points) & (g.points <= (j + 1) / 50))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.2, 0.1]))

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.5, 1.2]))


class TestBandMask:
    def test_width_formula_K15(self):
        # floor(15 * 0.5) - 1 = 6: offset 5 in, offset 6 out (1-based pairs (1,6)/(1,7))
        m = band_mask(15, 0.5)
        assert m.include[0, 5]
        assert not m.include[0, 6]

    def test_wide_band_K10(self):
        m = band_mask(10, 0.99)
        offs = np.abs(np.subtract.outer(np.arange(10), np.arange(10)))
        assert np.array_equal(m.include, offs < 8)

    def test_exclude_diagonal(self):
        m = band_mask(50, 0.4, exclude_diagonal=True)
        assert not m.include.diagonal().any()
        assert m.include[2, 3]
        assert m.half_width == 19

    def test_degenerate_band(self):
        with pytest.raises(ValueError, match="band degenerate"):
            band_mask(10, 0.1)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            band_mask(10, 1.5)

    @given(
        K=st.integers(5, 60),
        d1=st.floats(0.2, 0.95),
        d2=st.floats(0.2, 0.95),
        excl=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_delta(self, K, d1, d2, excl):
        lo, hi = sorted((d1, d2))
        try:
            small = band_mask(K, lo, excl)
            big = band_mask(K, hi, excl)
        except ValueError:
            return
        assert np.all(big.include[small.include])

    @given(K=st.integers(3, 40), d=st.floats(0.3, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, K, d):
        try:
            m = band_mask(K, d)
        except ValueError:
            return
        assert np.array_equal(m.include, m.include.T)


class TestRelativeError:
    def test_exact_match(self):
        t = SymMatrix(np.eye(3))
        assert relative_error(t, t) == 0.0

    def test_zero_estimate(self):
        t = np.eye(3) * 2.0
        assert relative_error(np.zeros((3, 3)), t) == pytest.approx(100.0)

    def test_double_estimate(self):
        t = np.eye(3) * 2.0
        assert relative_error(2 * t, t) == pytest.approx(100.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="undefined relative error"):
            relative_error(np.eye(2), np.zeros((2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            relative_error(np.eye(2), np.eye(3))

    @given(c=st.floats(0.01, 100.0), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_scale_covariant(self, c, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        est, tru = a + a.T, np.eye(4) + 0.1
        assert relative_error(c * est, c * tru) == pytest.approx(relative_error(est, tru), rel=1e-9)


class TestMaskedFrobenius:
    def test_equal_matrices(self):
        m = band_mask(4, 0.9)
        assert masked_frobenius_sq(np.eye(4), np.eye(4), m) == 0.0

    def test_all_ones_full_mask(self):
        m = BandMask(np.ones((2, 2), dtype=bool), delta=0.99)
        a = np.ones((2, 2))
        assert masked_frobenius_sq(a, np.zeros((2, 2)), m) == pytest.approx(1.0)

    def test_off_band_difference_invisible(self):
        m = band_mask(10, 0.5)
        a = np.zeros((10, 10))
        b = np.zeros((10, 10))
        b[0, 9] = b[9, 0] = 7.0  # outside the band
        assert masked_frobenius_sq(a, b, m) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            masked_frobenius_sq(np.eye(3), np.eye(3), band_mask(4, 0.9))

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        b = rng.standard_normal((6, 6))
        b = b + b.T
        m = band_mask(6, 0.7)
        fwd = masked_frobenius_sq(a, b, m)
        assert fwd >= 0.0
        assert fwd == pytest.approx(masked_frobenius_sq(b, a, m))


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_counts_validation(self):
        vals = np.eye(2)
        with pytest.raises(ValueError):
            SymMatrix(vals, np.array([[1, 2], [3, 4]]))
        with pytest.raises(ValueError):
            SymMatrix(vals, -np.ones((2, 2), dtype=int))

    def test_immutable(self):
        s = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            s.values[0, 0] = 5.0
