from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragcov import (
    FragmentLaw,
    Grid,
    band_mask,
    effective_mask,
    evaluate_on_grid,
    fragment,
    fragment_irregular,
    patched_binned,
    patched_regular,
    sample_gp,
    scenario_kernel,
)
from fragcov.core import as_generator
from fragcov.patch import _pairwise_completed
from fragcov.simulate import FragmentSample, add_noise


def _common_sample(n=80, K=20, delta=(0.6, 0.6), seed=0, values=None):
    grid = Grid.perturbed(K, seed=seed)
    if values is None:
        truth = evaluate_on_grid(scenario_kernel("A", 2), grid)
        values = sample_gp(truth, n, seed=seed + 1)
    return fragment(values, grid, FragmentLaw(*delta), seed=seed + 2), values, grid


def _empirical_cov(values):
    centered = values - values.mean(axis=0)
    return centered.T @ centered / len(values)


class TestPatchedRegular:
    def test_complete_observation_equals_empirical(self):
        sample, values, _ = _common_sample(n=60, K=15, delta=(0.92, 0.92), seed=3)
        # force complete observation by re-fragmenting with intervals covering [0,1]
        full = FragmentSample(
            t=np.tile(sample.grid.points, 60),
            x=values.ravel(),
            sizes=np.full(60, 15),
            intervals=np.array([[0.0, 1.0 - 1e-12]] * 60),
            grid=sample.grid,
            columns=np.tile(np.arange(15), 60),
        )
        patched = patched_regular(full)
        assert np.abs(patched.values - _empirical_cov(values)).max() < 1e-12
        assert np.all(patched.counts == 60)

    def test_single_curve_gives_zeros(self):
        grid = Grid.regular(6)
        one = FragmentSample(
            t=grid.points[1:5],
            x=np.array([1.0, -2.0, 3.0, 0.5]),
            sizes=[4],
            intervals=np.array([[grid.points[1], grid.points[4] - grid.points[1]]]),
            grid=grid,
            columns=np.arange(1, 5),
        )
        patched = patched_regular(one)
        assert np.all(patched.values == 0.0)
        assert patched.counts[2, 3] == 1

    def test_zero_outside_delta_band(self):
        sample, _, grid = _common_sample(n=100, K=25, delta=(0.5, 0.5), seed=1)
        patched = patched_regular(sample)
        lag = np.abs(np.subtract.outer(grid.points, grid.points))
        outside = lag > 0.5
        assert np.all(patched.values[outside] == 0.0)
        assert np.all(patched.counts[outside] == 0)

    def test_exactly_symmetric(self):
        sample, _, _ = _common_sample(seed=7)
        patched = patched_regular(sample)
        assert np.array_equal(patched.values, patched.values.T)
        assert np.array_equal(patched.counts, patched.counts.T)

    def test_counts_bounded_by_n(self):
        sample, _, _ = _common_sample(n=40, seed=2)
        assert patched_regular(sample).counts.max() <= 40

    def test_requires_common_grid(self):
        irr = fragment_irregular(scenario_kernel("A", 1), 10, FragmentLaw.fixed(0.5), "type2", 50, seed=0)
        with pytest.raises(ValueError):
            patched_regular(irr)

    def test_delta_to_one_approaches_empirical(self):
        K = 20
        grid = Grid.perturbed(K, seed=9)
        truth = evaluate_on_grid(scenario_kernel("A", 2), grid)
        values = sample_gp(truth, 150, seed=10)
        emp = _empirical_cov(values)
        dists = []
        for eps in (0.4, 0.2, 0.05):
            sample = fragment(values, grid, FragmentLaw.fixed(1 - eps), seed=11)
            patched = patched_regular(sample)
            dists.append(np.linalg.norm(patched.values - emp))
        assert dists[0] > dists[1] > dists[2]

    def test_band_entries_converge_with_n(self):
        # max in-band entry error decreases with the sample size
        kern = scenario_kernel("A", 2)
        mask = band_mask(20, 0.4)
        meds = []
        for n in (100, 400, 1600):
            errs = []
            for rep in range(20):
                grid = Grid.perturbed(20, seed=1000 + rep)
                truth = evaluate_on_grid(kern, grid)
                values = sample_gp(truth, n, seed=2000 + rep)
                sample = fragment(values, grid, FragmentLaw.fixed(0.5), seed=3000 + rep)
                patched = patched_regular(sample)
                errs.append(np.abs((patched.values - truth.values))[mask.include].max())
            meds.append(np.median(errs))
        assert meds[0] > meds[1] > meds[2]


def _fragment_per_curve(values, grid, law, seed):
    """fragment's intervals, times, values and indices, one curve at a time."""
    intervals = law.draw(len(values), as_generator(seed))
    times, vals, indices = [], [], []
    for i, (s, d) in enumerate(intervals):
        idx = np.nonzero((grid.points >= s) & (grid.points <= s + d))[0]
        times.append(grid.points[idx])
        vals.append(values[i, idx])
        indices.append(idx)
    return intervals, times, vals, indices


def _per_curve(sample, flat):
    """Curve i's piece of a flat per-observation array."""
    return np.split(flat, np.cumsum(sample.sizes))[:-1]


def _patched_per_curve(sample):
    """patched_regular's entries and counts, filling one curve at a time."""
    avail = np.zeros((sample.n, sample.grid.resolution))
    vals = np.zeros_like(avail)
    for i, (idx, v) in enumerate(zip(_per_curve(sample, sample.columns), _per_curve(sample, sample.x))):
        avail[i, idx] = 1.0
        vals[i, idx] = v
    return _pairwise_completed(vals, avail)


def _binned_per_curve(sample, K):
    """patched_binned's entries and counts, two bincounts per curve."""
    occ = np.zeros((sample.n, K))
    acc = np.zeros((sample.n, K))
    for i, (t, v) in enumerate(zip(sample.times, _per_curve(sample, sample.x))):
        bins = np.minimum((t * K).astype(int), K - 1)
        occ[i] = np.bincount(bins, minlength=K)
        acc[i] = np.bincount(bins, weights=v, minlength=K)
    return _pairwise_completed(acc, occ)


def _noise_per_curve(sample, noise_sd, seed):
    """add_noise's values, one normal draw per curve."""
    rng = as_generator(seed)
    return [v + rng.normal(0.0, noise_sd, size=v.size) for v in _per_curve(sample, sample.x)]


class TestCommonGridMatchesPerCurveLoop:
    """fragment and patched_regular fill every curve at once; their output is
    bit-identical to filling one curve at a time."""

    # K=4 with length 0.1 leaves some curves without a grid point; the 0..1
    # grid has points on the ends of the intervals clipped to [0, 1]
    @pytest.mark.parametrize(
        "K, delta, ends_on_grid",
        [(4, (0.1, 0.1), False), (20, (0.3, 0.8), False), (100, (0.2, 0.6), False), (21, (0.5, 0.5), True)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical(self, K, delta, ends_on_grid, seed):
        grid = Grid(np.linspace(0.0, 1.0, K)) if ends_on_grid else Grid.perturbed(K, seed=seed)
        values = sample_gp(evaluate_on_grid(scenario_kernel("A", 2), grid), 60, seed=seed + 1)
        law = FragmentLaw(*delta)
        sample = fragment(values, grid, law, seed=seed + 2)
        intervals, times, vals, indices = _fragment_per_curve(values, grid, law, seed + 2)
        assert np.array_equal(sample.intervals, intervals)
        assert np.array_equal(sample.sizes, [idx.size for idx in indices])
        for got, want in zip((sample.t, sample.x, sample.columns), (times, vals, indices)):
            want = np.concatenate(want)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if K == 4:
            assert np.any(sample.sizes == 0)
        if ends_on_grid:
            assert any(idx[0] == 0 for idx in indices) and any(idx[-1] == K - 1 for idx in indices)
        patched = patched_regular(sample)
        entries, counts = _patched_per_curve(sample)
        assert np.array_equal(patched.values, entries)
        assert np.array_equal(patched.counts, counts.astype(int))

    def test_no_curves(self):
        grid = Grid.regular(10)
        sample = fragment(np.zeros((0, 10)), grid, FragmentLaw.fixed(0.5), seed=1)
        assert sample.n == 0 and sample.columns.size == 0
        patched = patched_regular(sample)
        assert np.all(patched.values == 0.0) and np.all(patched.counts == 0)

    def test_misaligned_indices_are_rejected(self):
        grid = Grid.regular(6)
        with pytest.raises(ValueError, match="align"):
            FragmentSample(
                t=np.concatenate([grid.points[1:3], grid.points[2:5]]),
                x=np.ones(5),
                sizes=[2, 3],
                intervals=np.array([[0.2, 0.3], [0.3, 0.5]]),
                grid=grid,
                columns=np.concatenate([np.arange(1, 4), np.arange(2, 4)[:1]]),
            )


def _parity_sample(kind, seed):
    if kind == "common":
        return _common_sample(n=70, K=30, delta=(0.3, 0.7), seed=seed)[0]
    return fragment_irregular(scenario_kernel("A", 3), 70, FragmentLaw(0.4, 0.6), kind, 30, seed=seed)


class TestFlatLayoutMatchesPerCurve:
    """patched_regular, patched_binned and add_noise work on the flat arrays
    in one pass; their bytes equal those of the per-curve references above."""

    @pytest.mark.parametrize("kind", ["common", "type1", "type2"])
    @pytest.mark.parametrize("noise_sd", [0.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bytes_equal_per_curve(self, kind, noise_sd, seed):
        sample = _parity_sample(kind, seed)
        if noise_sd:
            noisy = add_noise(sample, noise_sd, seed=seed + 10)
            assert noisy.x.tobytes() == np.concatenate(_noise_per_curve(sample, noise_sd, seed + 10)).tobytes()
            sample = noisy
        pairs = [(patched_binned(sample, K), _binned_per_curve(sample, K)) for K in (1, 7, 30)]
        if kind != "type2":
            pairs.append((patched_regular(sample), _patched_per_curve(sample)))
        for patched, (entries, counts) in pairs:
            assert patched.values.tobytes() == entries.tobytes()
            assert patched.counts.tobytes() == counts.astype(int).tobytes()
            assert patched.noise_flag == (noise_sd > 0)


class TestPatchedBinned:
    def test_type1_on_shared_grid_matches_regular(self):
        kern = scenario_kernel("A", 2)
        sample = fragment_irregular(kern, 60, FragmentLaw.fixed(0.6), "type1", 30, seed=4)
        binned = patched_binned(sample, 30)
        regular = patched_regular(sample)
        assert np.abs(binned.values - regular.values).max() < 1e-12
        assert np.array_equal(binned.counts, regular.counts)

    @staticmethod
    def _brute_force(sample, K):
        """Direct enumeration over all ordered within-curve time pairs."""
        sums = np.zeros((K, K))
        sums_a = np.zeros((K, K))
        sums_b = np.zeros((K, K))
        counts = np.zeros((K, K))
        for t, v in zip(sample.times, _per_curve(sample, sample.x)):
            bins = np.minimum((t * K).astype(int), K - 1)
            for a in range(len(t)):
                for b in range(len(t)):
                    j, l = bins[a], bins[b]
                    counts[j, l] += 1
                    sums[j, l] += v[a] * v[b]
                    sums_a[j, l] += v[a]
                    sums_b[j, l] += v[b]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = sums / counts - (sums_a / counts) * (sums_b / counts)
        return np.where(counts > 0, out, 0.0), counts

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        times, values = [], []
        for _ in range(7):
            q = rng.integers(2, 6)
            t = np.sort(rng.uniform(0.1, 0.9, q))
            times.append(t)
            values.append(rng.standard_normal(q))
        sample = FragmentSample(
            t=np.concatenate(times),
            x=np.concatenate(values),
            sizes=[t.size for t in times],
            intervals=np.array([[t.min(), t.max() - t.min()] for t in times]),
        )
        for K in (1, 4, 9):
            patched = patched_binned(sample, K)
            expected, counts = self._brute_force(sample, K)
            assert np.abs(patched.values - expected).max() < 1e-12
            assert np.array_equal(patched.counts, counts.astype(int))

    def test_single_bin_is_grand_pair_average(self):
        t = np.array([0.1, 0.6])
        sample = FragmentSample(
            t=np.tile(t, 2),
            x=np.array([1.0, 3.0, -1.0, 5.0]),
            sizes=[2, 2],
            intervals=np.array([[0.05, 0.6], [0.05, 0.6]]),
        )
        patched = patched_binned(sample, 1)
        expected, counts = self._brute_force(sample, 1)
        assert patched.values[0, 0] == pytest.approx(expected[0, 0], abs=1e-12)
        assert patched.counts[0, 0] == counts[0, 0] == 8

    def test_untouched_bin_pair_is_zero(self):
        t = np.array([0.05, 0.1])
        sample = FragmentSample(
            t=t,
            x=np.array([1.0, 2.0]),
            sizes=[2],
            intervals=np.array([[0.0, 0.2]]),
        )
        patched = patched_binned(sample, 10)
        assert patched.counts[5, 5] == 0
        assert patched.values[5, 5] == 0.0

    def test_no_data_rejected(self):
        empty = FragmentSample(t=[], x=[], sizes=[], intervals=np.empty((0, 2)))
        with pytest.raises(ValueError):
            patched_binned(empty, 5)
        with pytest.raises(ValueError, match="K must be positive"):
            patched_binned(empty, 0)


class TestEffectiveMask:
    def test_fixed_delta_policy(self):
        sample, _, _ = _common_sample(n=300, K=20, delta=(0.5, 0.5), seed=5)
        patched = patched_regular(sample)
        assert patched.delta_effective == pytest.approx(0.4)
        mask = effective_mask(patched)
        assert mask.half_width == int(np.floor(20 * 0.4)) - 1
        assert not mask.exclude_diagonal

    def test_variable_delta_policy(self):
        sample, _, _ = _common_sample(n=300, K=20, delta=(0.5, 0.7), seed=6)
        patched = patched_regular(sample)
        assert patched.delta_effective == pytest.approx(0.5, abs=0.01)

    def test_noise_excludes_diagonal(self):
        sample, _, _ = _common_sample(n=400, K=20, delta=(0.6, 0.6), seed=7)
        noisy = add_noise(sample, 1.0, seed=8)
        patched = patched_regular(noisy)
        assert patched.noise_flag
        mask = effective_mask(replace(patched, delta_effective=0.5))
        assert mask.exclude_diagonal

    def test_mask_exceeding_support_rejected(self):
        grid = Grid.regular(10)
        one = FragmentSample(
            t=grid.points[:4],
            x=np.zeros(4),
            sizes=[4],
            intervals=np.array([[0.0, 0.4]]),
            grid=grid,
            columns=np.arange(4),
        )
        patched = patched_regular(one)
        with pytest.raises(ValueError, match="mask exceeds data support"):
            effective_mask(replace(patched, delta_effective=0.9))


def _invariance_sample(binned, n, K, delta, seed):
    """A scenario A rank-2 sample: common-grid fragments, or type-2 fragments
    binned into K cells. Returns it with its patching function."""
    law = FragmentLaw(*delta)
    if binned:
        sample = fragment_irregular(scenario_kernel("A", 2), n, law, "type2", base_resolution=20, seed=seed)
        return sample, lambda s: patched_binned(s, K)
    return _common_sample(n=n, K=K, delta=delta, seed=seed)[0], patched_regular


def _assert_close(got, want, scale):
    """Entrywise |got - want| <= 1e-12 * scale, scale the size of the terms
    the entries are computed from."""
    assert np.abs(got - want).max() <= 1e-12 * scale


_SAMPLES = dict(
    binned=st.booleans(),
    n=st.integers(5, 40),
    K=st.integers(3, 16),
    delta=st.tuples(st.floats(0.3, 0.95), st.floats(0.0, 0.3)).map(lambda d: (d[0], min(d[0] + d[1], 0.99))),
    seed=st.integers(0, 2**16),
)


class TestPatchedInvariances:
    """patched_regular and patched_binned depend on the curves as a set, are
    quadratic in the values, and centre by pair-specific means."""

    @given(**_SAMPLES)
    @settings(max_examples=60, deadline=None)
    def test_curve_permutation(self, binned, n, K, delta, seed):
        sample, patch = _invariance_sample(binned, n, K, delta, seed)
        perm = np.random.default_rng(seed).permutation(sample.n)
        pieces = _per_curve(sample, np.arange(sample.t.size))
        order = np.concatenate([pieces[i] for i in perm])
        permuted = replace(
            sample,
            t=sample.t[order],
            x=sample.x[order],
            sizes=sample.sizes[perm],
            intervals=sample.intervals[perm],
            columns=None if sample.columns is None else sample.columns[order],
            curve_ids=tuple(sample.curve_ids[i] for i in perm),
        )
        a, b = patch(sample), patch(permuted)
        assert np.array_equal(a.counts, b.counts)
        _assert_close(b.values, a.values, np.abs(a.values).max())

    @given(**_SAMPLES, c=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3))
    @settings(max_examples=60, deadline=None)
    def test_scaling_values_scales_by_c_squared(self, binned, n, K, delta, seed, c):
        sample, patch = _invariance_sample(binned, n, K, delta, seed)
        a = patch(sample)
        b = patch(replace(sample, x=c * sample.x))
        assert np.array_equal(a.counts, b.counts)
        _assert_close(b.values, c * c * a.values, c * c * np.abs(a.values).max())

    @given(**_SAMPLES, shift=st.floats(-10.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_constant_shift_cancels(self, binned, n, K, delta, seed, shift):
        sample, patch = _invariance_sample(binned, n, K, delta, seed)
        shifted = replace(sample, x=sample.x + shift)
        a, b = patch(sample), patch(shifted)
        assert np.array_equal(a.counts, b.counts)
        # each entry is a mean product minus a product of means, both of the
        # size of the squared shifted values; only their rounding remains
        largest = np.abs(shifted.x).max(initial=0.0)
        _assert_close(b.values, a.values, max(np.abs(a.values).max(), largest**2))
