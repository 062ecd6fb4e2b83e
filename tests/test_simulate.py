import hashlib
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fragcov import (
    FragmentLaw,
    Grid,
    add_noise,
    evaluate_on_grid,
    fragment,
    fragment_irregular,
    kernel_from_id,
    sample_gp,
    scenario_kernel,
    write_fragments,
)
from fragcov import simulate
from fragcov.simulate import STAGE_INTERVALS, STAGE_NOISE, STAGE_PATHS, STAGE_TIMES, FragmentSample, stage_rng

DATA = Path(__file__).parent / "data"


class TestSampleGP:
    def test_zero_covariance(self):
        x = sample_gp(np.zeros((5, 5)), 10, seed=0)
        assert np.all(x == 0.0)

    def test_identity_lln(self):
        x = sample_gp(np.eye(4), 10_000, seed=1)
        emp = x.T @ x / len(x)
        assert np.abs(emp - np.eye(4)).max() < 0.1

    def test_rank_one_paths_are_constant(self):
        truth = evaluate_on_grid(scenario_kernel("A", 1), Grid.regular(50))
        x = sample_gp(truth, 20, seed=2)
        assert np.abs(x - x[:, :1]).max() < 1e-8

    def test_not_psd_rejected(self):
        bad = np.diag([1.0, -0.5])
        with pytest.raises(ValueError, match="not PSD"):
            sample_gp(bad, 5, seed=0)

    def test_deterministic(self):
        t = evaluate_on_grid(scenario_kernel("A", 2), Grid.regular(20))
        assert np.array_equal(sample_gp(t, 7, seed=9), sample_gp(t, 7, seed=9))


class TestFragmentLaw:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            FragmentLaw(0.0, 0.5)
        with pytest.raises(ValueError):
            FragmentLaw(0.7, 0.5)

    def test_lengths_within_bounds(self):
        law = FragmentLaw(0.4, 0.6)
        iv = law.draw(500, np.random.default_rng(0))
        assert np.all(iv[:, 1] >= 0.4) and np.all(iv[:, 1] <= 0.6)
        assert np.all(iv[:, 0] >= 0.0) and np.all(iv[:, 0] + iv[:, 1] <= 1.0 + 1e-12)

    def test_clipped_center_covers_boundary(self):
        law = FragmentLaw.fixed(0.5)
        iv = law.draw(2000, np.random.default_rng(1))
        # boundary-hugging atoms: a positive fraction starts exactly at 0
        assert (iv[:, 0] == 0.0).mean() > 0.1


class TestFragmentCommon:
    def test_observed_counts_bound_K15(self):
        grid = Grid.perturbed(15, seed=4)
        values = np.zeros((300, 15))
        sample = fragment(values, grid, FragmentLaw.fixed(0.5), seed=5)
        counts = sample.sizes
        assert counts.min() >= 6 and counts.max() <= 9  # floor(7.5)-1 .. ceil(7.5)+1

    def test_near_full_delta_retains_almost_everything(self):
        K = 20
        grid = Grid.perturbed(K, seed=0)
        sample = fragment(np.zeros((50, K)), grid, FragmentLaw.fixed(1 - 1 / K), seed=1)
        assert sample.sizes.min() >= K - 2

    def test_times_inside_intervals(self):
        grid = Grid.perturbed(30, seed=2)
        sample = fragment(np.zeros((100, 30)), grid, FragmentLaw(0.4, 0.7), seed=3)
        for t, (s, d) in zip(sample.times, sample.intervals):
            assert t.min() >= s and t.max() <= s + d

    def test_deterministic(self):
        grid = Grid.perturbed(10, seed=0)
        vals = np.arange(50.0).reshape(5, 10)
        a = fragment(vals, grid, FragmentLaw.fixed(0.6), seed=11)
        b = fragment(vals, grid, FragmentLaw.fixed(0.6), seed=11)
        for ta, tb in zip(a.times, b.times):
            assert np.array_equal(ta, tb)
        assert np.array_equal(a.intervals, b.intervals)

    def test_values_must_match_the_grid(self):
        with pytest.raises(ValueError, match="value columns must match the grid resolution"):
            fragment(np.zeros((5, 9)), Grid.perturbed(10, seed=0), FragmentLaw.fixed(0.6), seed=1)


class TestFragmentIrregular:
    def test_type1_quota(self):
        kern = scenario_kernel("A", 2)
        sample = fragment_irregular(kern, 40, FragmentLaw.fixed(0.6), "type1", 50, seed=0)
        assert np.all(sample.sizes == 30)  # ceil(50 * 0.6)
        # times are a subset of the shared grid
        assert np.array_equal(sample.t, sample.grid.points[sample.columns])

    def test_type2_quota_bounds(self):
        kern = scenario_kernel("A", 1)
        sample = fragment_irregular(kern, 60, FragmentLaw(0.4, 0.6), "type2", 50, seed=1)
        sizes = sample.sizes
        assert sizes.min() >= 20 and sizes.max() <= 30

    def test_times_inside_intervals(self):
        kern = scenario_kernel("A", 2)
        for gt in ("type1", "type2"):
            sample = fragment_irregular(kern, 30, FragmentLaw(0.5, 0.7), gt, 50, seed=2)
            for t, (s, d) in zip(sample.times, sample.intervals):
                assert t.min() >= s - 1e-12 and t.max() <= s + d + 1e-12

    def test_too_sparse(self):
        kern = scenario_kernel("A", 1)
        with pytest.raises(ValueError, match="fragment too sparse"):
            fragment_irregular(kern, 5, FragmentLaw(0.2, 0.2), "type2", 5, seed=0)

    def test_bad_grid_type(self):
        with pytest.raises(ValueError):
            fragment_irregular(scenario_kernel("A", 1), 5, FragmentLaw.fixed(0.5), "type3", 50, seed=0)
        # each stage draws from its own child of the seed, which a Generator cannot give
        with pytest.raises(TypeError, match="needs an int or SeedSequence seed"):
            fragment_irregular(scenario_kernel("A", 1), 5, FragmentLaw.fixed(0.5), "type2", 50,
                               seed=np.random.default_rng(0))

    def test_deterministic(self):
        kern = scenario_kernel("A", 2)
        a = fragment_irregular(kern, 20, FragmentLaw(0.5, 0.7), "type2", 50, seed=7)
        b = fragment_irregular(kern, 20, FragmentLaw(0.5, 0.7), "type2", 50, seed=7)
        assert np.array_equal(a.x, b.x)


def _type2_per_curve(kernel, n, law, base_resolution, seed):
    """Reference type-2 sampler: one curve at a time, each with its own kernel
    matrix, eigendecomposition and draws."""
    rng_paths = stage_rng(seed, STAGE_PATHS)
    rng_intervals = stage_rng(seed, STAGE_INTERVALS)
    rng_times = stage_rng(seed, STAGE_TIMES)
    deltas = law.draw_lengths(n, rng_intervals)
    quotas = np.ceil(base_resolution * deltas).astype(int)
    starts = law.place(deltas, rng_intervals)
    times, vals, intervals = [], [], np.empty((n, 2))
    for i in range(n):
        s, d, q = starts[i], deltas[i], quotas[i]
        t = np.sort(rng_times.uniform(s, s + d, size=q))
        cov = evaluate_on_grid(kernel, t).values
        ev, vecs = np.linalg.eigh(cov)
        root = vecs * np.sqrt(np.clip(ev, 0.0, None))
        times.append(t)
        vals.append(root @ rng_paths.standard_normal(q))
        intervals[i] = (s, d)
    return times, vals, intervals


class TestType2BatchedParity:
    """fragment_irregular draws type-2 fragments in batches of equal quota;
    it must reproduce the per-curve sampler bit for bit."""

    @pytest.mark.parametrize("kernel", ["scenarioA:3", "scenarioB:3", "matern:1.5,0.5", "matern+A2"])
    @pytest.mark.parametrize(
        "law",
        [
            FragmentLaw(0.4, 0.6),
            FragmentLaw(0.3, 0.8),
            FragmentLaw.fixed(0.5),  # every curve has the same quota
            FragmentLaw.fixed(0.35),
        ],
        # every law clips its intervals into [0, 1]
        ids=["variable-clipped", "variable-0.3-0.8", "fixed-clipped", "fixed-0.35"],
    )
    def test_same_draws_as_per_curve_loop(self, kernel, law):
        kern = kernel_from_id(kernel)
        for seed in (0, 1, 2024):
            sample = fragment_irregular(kern, 40, law, "type2", 30, seed=seed)
            times, vals, intervals = _type2_per_curve(kern, 40, law, 30, seed)
            assert all(map(np.array_equal, sample.times, times))
            assert np.array_equal(sample.x, np.concatenate(vals))
            assert np.array_equal(sample.intervals, intervals)

    def test_sparse_curve_still_rejected(self):
        # quotas ceil(4 * delta) range over 1..3: some curves, not all, are too sparse
        with pytest.raises(ValueError, match="fragment too sparse"):
            fragment_irregular(scenario_kernel("A", 1), 50, FragmentLaw(0.2, 0.6), "type2", 4, seed=0)

    # 700 curves of one quota span three stacked blocks; the digest was
    # recorded when every curve of a quota shared one eigendecomposition
    def test_blocks_of_one_quota_pinned(self):
        sample = fragment_irregular(kernel_from_id("scenarioA:3"), 700, FragmentLaw.fixed(0.5), "type2", 20, seed=3)
        assert set(sample.sizes) == {10} and sample.n > 2 * simulate._DRAW_BLOCK
        digest = hashlib.sha256()
        for a in (sample.t, sample.x, sample.sizes.astype(np.int64), sample.intervals):
            digest.update(np.ascontiguousarray(a).tobytes())
        assert digest.hexdigest() == "185ef95284059b1fed7c0c985b51bc4906e902a65ed1a1b3ce4e26bfb5b017ef"


def test_write_fragments_in_blocks_matches_one_string(tmp_path):
    sample = fragment_irregular(kernel_from_id("scenarioA:2"), 800, FragmentLaw(0.4, 0.6), "type2", 50, seed=1)
    assert sample.t.size > 2 * simulate._WRITE_BLOCK
    sample = replace(sample, curve_ids=tuple(f"curve-{i}" for i in range(sample.n)))
    write_fragments(sample, tmp_path / "s.csv")
    ids = np.repeat(sample.curve_ids, sample.sizes).tolist()
    expected = "curve_id,t,value\n" + "".join(f"{c},{t!r},{v!r}\n" for c, t, v in
                                               zip(ids, sample.t.tolist(), sample.x.tolist()))
    # compared line by line: a failure then names the first line that differs
    assert (tmp_path / "s.csv").read_text().splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_write_fragments_bytes_pinned(tmp_path):
    # fixture written by the per-curve sampler and writer (scenarioB:2, noise 0.1)
    sample = fragment_irregular(kernel_from_id("scenarioB:2"), 8, FragmentLaw(0.3, 0.5), "type2", 12, seed=5)
    sample = add_noise(sample, 0.1, stage_rng(5, STAGE_NOISE))
    write_fragments(sample, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == (DATA / "type2_noisy.csv").read_bytes()
    assert (tmp_path / "s.json").read_bytes() == (DATA / "type2_noisy.json").read_bytes()


class TestAddNoise:
    def test_zero_noise_identity(self):
        kern = scenario_kernel("A", 1)
        sample = fragment_irregular(kern, 10, FragmentLaw.fixed(0.5), "type2", 50, seed=0)
        assert add_noise(sample, 0.0, seed=1) is sample

    def test_noise_variance(self):
        kern = scenario_kernel("A", 1)
        sample = fragment_irregular(kern, 400, FragmentLaw.fixed(0.9), "type2", 300, seed=3)
        noisy = add_noise(sample, 1.0, seed=4)
        diffs = noisy.x - sample.x
        assert diffs.size > 1e5
        assert abs(diffs.var() - 1.0) < 0.02
        assert noisy.noise_sd == 1.0

    def test_noise_stage_independent_of_paths(self):
        # toggling noise must not perturb the underlying draws
        kern = scenario_kernel("A", 2)
        clean = fragment_irregular(kern, 15, FragmentLaw.fixed(0.6), "type2", 50, seed=8)
        seed = np.random.SeedSequence(8)
        noisy = add_noise(
            fragment_irregular(kern, 15, FragmentLaw.fixed(0.6), "type2", 50, seed=8),
            1.0,
            stage_rng(seed, STAGE_NOISE),
        )
        assert np.all(clean.x != noisy.x)
        # paths stream unaffected by having drawn the noise stream
        again = fragment_irregular(kern, 15, FragmentLaw.fixed(0.6), "type2", 50, seed=8)
        assert np.array_equal(clean.x, again.x)


class TestFragmentSample:
    """Observations are stored flat, sizes[i] of them per curve; construction
    rejects arrays that do not fit together."""

    GRID = Grid.regular(4)  # points 0.125, 0.375, 0.625, 0.875

    def _sample(self, **changes):
        fields = dict(
            t=[0.125, 0.375, 0.625, 0.875],
            x=[1.0, 2.0, 3.0, 4.0],
            sizes=[2, 2],
            intervals=[[0.1, 0.3], [0.6, 0.3]],
            grid=self.GRID,
            columns=[0, 1, 2, 3],
        )
        return FragmentSample(**{**fields, **changes})

    def test_flat_arrays_and_per_curve_views(self):
        sample = self._sample()
        assert sample.n == 2 and sample.curve_ids == (0, 1)
        assert [t.tolist() for t in sample.times] == [[0.125, 0.375], [0.625, 0.875]]
        for arr in (sample.t, sample.x, sample.sizes, sample.intervals, sample.columns, *sample.times):
            assert not arr.flags.writeable
        empty = FragmentSample(t=[], x=[], sizes=[], intervals=np.empty((0, 2)))
        assert empty.n == 0 and empty.times == ()

    @pytest.mark.parametrize(
        "changes",
        [dict(sizes=[4]), dict(intervals=[[0.1, 0.3]]), dict(intervals=[0.1, 0.3]), dict(sizes=[[2, 2]])],
        ids=["fewer-sizes", "fewer-intervals", "flat-intervals", "2d-sizes"],
    )
    def test_sizes_and_intervals_must_align(self, changes):
        with pytest.raises(ValueError, match="times, values and intervals must align"):
            self._sample(**changes)

    @pytest.mark.parametrize(
        "changes",
        [dict(x=[1.0, 2.0, 3.0]), dict(sizes=[2, 3]), dict(t=[0.125, 0.375, 0.625], sizes=[2, 1], columns=[0, 1, 2])],
        ids=["short-x", "sizes-past-end", "short-t"],
    )
    def test_times_and_values_must_align(self, changes):
        with pytest.raises(ValueError, match="per-curve times and values must align"):
            self._sample(**changes)

    @pytest.mark.parametrize(
        "changes",
        [dict(columns=[0, 1, 2]), dict(columns=[0, 1, 2, 4]), dict(columns=[-1, 1, 2, 3]), dict(grid=None)],
        ids=["short", "past-grid", "negative", "no-grid"],
    )
    def test_columns_must_index_the_grid_per_time(self, changes):
        with pytest.raises(ValueError, match="columns must align with the times and index the grid"):
            self._sample(**changes)

    # other-curve: 0.375 lies in the first curve's interval, not in its own curve's
    @pytest.mark.parametrize(
        "changes, message",
        [(dict(intervals=[[0.2, 0.3], [0.6, 0.3]]), "curve 0: t=0.125 outside its interval (start 0.2, delta 0.3)"),
         (dict(intervals=[[0.1, 0.2], [0.6, 0.3]]), "curve 0: t=0.375 outside its interval (start 0.1, delta 0.2)"),
         (dict(sizes=[1, 3], intervals=[[0.1, 0.6], [0.6, 0.3]]),
          "curve 1: t=0.375 outside its interval (start 0.6, delta 0.3)"),
         # NaN fails both comparisons of a test for "outside", so the test is for "not inside"
         (dict(intervals=[[0.1, 0.3], [0.6, float("nan")]]),
          "curve 1: t=0.625 outside its interval (start 0.6, delta nan)")],
        ids=["before-start", "after-end", "other-curve", "nan-delta"],
    )
    def test_time_outside_its_interval(self, changes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self._sample(**changes)

    @pytest.mark.parametrize(
        "changes, message",
        [(dict(noise_sd=-1.0), "noise_sd must be nonnegative, got -1.0"),
         (dict(noise_sd=float("nan")), "noise_sd must be nonnegative, got nan")],
        ids=["negative-noise", "nan-noise"],
    )
    def test_noise_must_be_valid(self, changes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self._sample(**changes)


def test_stage_rng_disjoint_streams():
    seed = np.random.SeedSequence(5)
    a = stage_rng(seed, STAGE_PATHS).standard_normal(4)
    b = stage_rng(seed, STAGE_NOISE).standard_normal(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, stage_rng(np.random.SeedSequence(5), STAGE_PATHS).standard_normal(4))
    with pytest.raises(TypeError, match="stage_rng needs an int or SeedSequence, not a Generator"):
        stage_rng(np.random.default_rng(5), STAGE_PATHS)
