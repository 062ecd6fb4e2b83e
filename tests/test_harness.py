import hashlib
import json
import re
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fragcov import (
    CompletionError,
    ExperimentConfig,
    FragmentLaw,
    SolveConfig,
    fragment_irregular,
    ingest_fragments,
    run_cell,
    run_table,
    scenario_kernel,
    table_cells,
    write_fragments,
)
from fragcov import harness
from fragcov.harness import five_number_summary, format_table, results_to_csv


class TestFiveNumberSummary:
    def test_even_hundred(self):
        vals = np.arange(1.0, 101.0)
        med, q1, q3 = five_number_summary(vals)
        assert med == pytest.approx(50.5)  # mean of the 50th and 51st
        assert q1 == pytest.approx(25.5)  # midpoint rule on the lower half
        assert q3 == pytest.approx(75.5)

    def test_odd(self):
        med, q1, q3 = five_number_summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert med == 3.0
        assert q1 == 1.5  # lower half [1, 2], middle element excluded
        assert q3 == 4.5

    def test_singleton(self):
        med, q1, q3 = five_number_summary([7.0])
        assert med == q1 == q3 == 7.0

    def test_unsorted_input(self):
        assert five_number_summary([3.0, 1.0, 2.0])[0] == 2.0

    @given(st.lists(st.floats(-1e300, 1e300), max_size=119))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_midpoint_rule_bit_for_bit(self, values):
        def midpoint(v):
            m = len(v)
            if m == 0:
                return float("nan")
            return float(v[m // 2]) if m % 2 else 0.5 * float(v[m // 2 - 1] + v[m // 2])

        v = np.sort(np.asarray(values, dtype=float))
        h = len(v) // 2
        want = (midpoint(v),) * 3 if h == 0 else (midpoint(v), midpoint(v[:h]), midpoint(v[len(v) - h :]))
        # bit for bit once zeros are unsigned: np.median sums from +0.0, so it
        # returns +0.0 where the midpoint rule keeps -0.0
        assert (np.array(five_number_summary(values)) + 0.0).tobytes() == (np.array(want) + 0.0).tobytes()


SMALL = dict(kernel="scenarioA:1", n=60, K=20, delta=(0.6, 0.6), rank_policy="fixed:1", replications=4, seed=3)


class TestRunCell:
    def test_smoke_and_summary_order(self):
        res = run_cell(ExperimentConfig(**SMALL), workers=1)
        assert len(res.errors) == 4
        assert res.q1 <= res.median <= res.q3
        assert np.all(res.errors >= 0)
        assert not res.failures

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        kernel=st.sampled_from(["scenarioA:1", "scenarioA:2", "scenarioB:1", "scenarioB:2"]),
        grid_type=st.sampled_from(harness.GRID_TYPES),
        noise_sd=st.sampled_from([0.0, 0.5]),
        fixed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kernel="scenarioA:1", grid_type="common", noise_sd=0.0, fixed=True, seed=3)  # SMALL
    def test_deterministic_across_worker_counts(self, kernel, grid_type, noise_sd, fixed, seed):
        cell = dict(SMALL, kernel=kernel, grid_type=grid_type, noise_sd=noise_sd, seed=seed,
                    rank_policy=f"fixed:{kernel[-1]}" if fixed else "elbow")
        if grid_type != "common":
            cell.update(K=None, base_resolution=20)
        a = run_cell(ExperimentConfig(**cell), workers=1)
        b = run_cell(ExperimentConfig(**cell), workers=2)
        assert a.errors.tobytes() == b.errors.tobytes()
        assert a.failures == b.failures

    # the elbow rule never meets 1e-9 here and warns as it falls back to the
    # maximal sweep rank; a filter that raises warnings must not fail the replication
    def test_outcome_ignores_the_callers_warnings_filter(self):
        cell = ExperimentConfig(kernel="matern:1.5,0.5,1.0", n=40, K=20, delta=(0.6, 0.6), noise_sd=1.0,
                                rank_policy="elbow:1e-9", replications=2)
        results = []
        for action in ("error", "ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                results.append(run_cell(cell, workers=1))
        a, b = results
        assert a.failures == b.failures == ()
        assert a.errors.size == 2 and a.errors.tobytes() == b.errors.tobytes()

    def test_failures_recorded_not_raised(self, monkeypatch):
        # a failure no check can see when the cell is built
        def fail(*args, **kwargs):
            raise CompletionError("diverged: non-finite objective during descent")

        monkeypatch.setattr(harness, "estimate_covariance", fail)
        res = run_cell(ExperimentConfig(**SMALL), workers=1)
        assert len(res.failures) == 4
        assert res.failures[0] == (0, "CompletionError: diverged: non-finite objective during descent")
        assert res.errors.size == 0
        assert np.isnan(res.median)

    def test_type2_realized_resolution(self):
        cfg = ExperimentConfig(
            kernel="scenarioA:1", n=40, K=None, base_resolution=30, delta=(0.5, 0.7),
            grid_type="type2", rank_policy="fixed:1", replications=2, seed=1,
        )
        res = run_cell(cfg, workers=1)
        # K = 4/(5n) * sum(Q_i) with Q_i between 15 and 21
        assert 10 <= res.realized_K <= 18
        assert not res.failures


class TestTables:
    def test_cell_counts(self):
        assert len(table_cells("T2")) == 30
        assert len(table_cells("T4")) == 40
        assert len(table_cells("T5")) == 48
        assert len(table_cells("T6")) == 48
        assert len(table_cells("T7")) == 30

    # each table's cells, field for field and in their stable order (--cells indexes it)
    @pytest.mark.parametrize("table, count, digest", [
        ("T2", 30, "29eb96d2ec7d64608efa5ac0d3071b8907bb42f8ba6f180907fd132ab99b8feb"),
        ("T4", 40, "b4c04a83858db8f84451fd377083d4803447421c6d13c67a2a967bd2f842f4dd"),
        ("T5", 48, "fc049545d7a2510af69546de85b7e00c96d85f61de44be3bade65bff95ad0adb"),
        ("T6", 48, "3f7087985e6832689d13a533d7ddea02784d28b6841d16385bb8677813e1975f"),
        ("T7", 30, "5cd7f9dc88b30ab012729d8981d69a78cb0398e7a83943b4775b1cfdedd32a5f"),
    ])
    def test_cells_pinned(self, table, count, digest):
        cells = table_cells(table)
        assert len(cells) == count
        assert hashlib.sha256("\n".join(c.to_json() for c in cells).encode()).hexdigest() == digest

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            table_cells("T9")

    def test_t2_structure(self):
        cells = table_cells("T2")
        assert cells[0].kernel == "scenarioA:1"
        assert cells[0].delta == (0.5, 0.5)
        assert cells[-1].kernel == "scenarioB:3"
        assert cells[-1].delta == (0.9, 0.9)
        assert all(c.rank_policy.startswith("fixed:") for c in cells)

    def test_t6_uses_formula_resolution(self):
        assert all(c.K is None for c in table_cells("T6"))
        assert all(c.grid_type == "type2" for c in table_cells("T6"))

    def test_run_table_with_cell_filter(self):
        results = run_table("T2", seed=5, replications=2, cells=[0], workers=1)
        assert len(results) == 1
        assert results[0].config.kernel == "scenarioA:1"

    # T2 has 30 cells; a negative index is rejected, not counted from the end
    @pytest.mark.parametrize("index", [30, 99, -1])
    def test_run_table_rejects_a_cell_outside_the_table(self, index):
        with pytest.raises(ValueError, match=f"cell index {index} outside table T2's 30 cells"):
            run_table("t2", replications=1, cells=[0, index], workers=1)

    def test_csv_and_text_output(self):
        results = run_table("T2", seed=5, replications=2, cells=[0, 15], workers=1)
        csv = results_to_csv(results)
        lines = csv.strip().splitlines()
        assert lines[0] == "scenario,rank,delta1,delta2,n,K,grid_type,noise,median,q1,q3,failures,seed"
        assert len(lines) == 3
        assert "scenarioB:1" in lines[2]
        text = format_table(results)
        assert "scenarioA:1" in text


class TestConfigJson:
    def test_round_trip(self):
        cfg = ExperimentConfig(
            kernel="scenarioB:2", n=123, delta=(0.4, 0.6), grid_type="type1",
            noise_sd=1.0, rank_policy="elbow:0.02", replications=9, seed=42,
        )
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_json_is_plain(self):
        payload = json.loads(ExperimentConfig(kernel="scenarioA:1").to_json())
        assert payload["kernel"] == "scenarioA:1"
        assert payload["delta"] == [0.5, 0.5]

    @pytest.mark.parametrize("policy", ["penalty:-1", "fixed:x", "elbow:0"])
    def test_malformed_rank_policy_rejected_when_built(self, policy):
        with pytest.raises(ValueError, match=f"rank policy '{policy}'"):
            ExperimentConfig(**{**SMALL, "rank_policy": policy})
        payload = json.loads(ExperimentConfig(**SMALL).to_json())
        payload["rank_policy"] = policy
        with pytest.raises(ValueError, match=f"rank policy '{policy}'"):
            ExperimentConfig.from_json(json.dumps(payload))

    # a cell carries no solver config: a nested solve.tau is rejected for its solve key
    @pytest.mark.parametrize("where, key", [(None, "placement"), ("solve", "tau")])
    def test_unknown_key_rejected(self, where, key):
        payload = json.loads(ExperimentConfig(kernel="scenarioA:1").to_json())
        (payload.setdefault(where, {}) if where else payload)[key] = None
        with pytest.raises(ValueError, match=f"unknown ExperimentConfig keys: {where or key}$"):
            ExperimentConfig.from_json(json.dumps(payload))

    def test_solve_is_not_a_field(self):
        with pytest.raises(TypeError, match="solve"):
            ExperimentConfig(kernel="scenarioA:1", solve=SolveConfig(method="bfgs"))


class TestCellChecks:
    """A cell that cannot run is rejected when it is built."""

    # the truth lives on the base grid and the estimate on K bins
    def test_type1_K_must_be_the_base_resolution(self):
        cell = dict(kernel="scenarioA:1", n=40, base_resolution=30, grid_type="type1", rank_policy="fixed:1")
        with pytest.raises(ValueError, match=r"type1 cell: K=40 must be None or base_resolution \(30\)"):
            ExperimentConfig(**cell, K=40)
        payload = json.loads(ExperimentConfig(**cell, K=None).to_json())
        payload["K"] = 40
        with pytest.raises(ValueError, match="base_resolution"):
            ExperimentConfig.from_json(json.dumps(payload))
        assert ExperimentConfig(**cell, K=30).K == 30

    @pytest.mark.parametrize("replications", [0, -1])
    def test_replications_must_be_positive(self, replications):
        with pytest.raises(ValueError, match=f"replications must be at least 1, got {replications}"):
            ExperimentConfig(**{**SMALL, "replications": replications})
        with pytest.raises(ValueError, match="replications must be at least 1"):
            table_cells("T2", replications=replications)


    # each of these failed every replication (median nan) or ran a cell other than
    # the one it reports; the message is the one the replication raised
    @pytest.mark.parametrize("field, value, message", [
        ("grid_type", "type3", "unknown grid type 'type3'"),
        ("kernel", "nope:1", "unknown kernel id 'nope:1'"),
        ("delta", (0.9, 0.5), "need 0 < delta_min <= delta_max < 1"),
        ("K", 1, "K must be at least 2"),
        ("K", 0, "K must be at least 2"),
        ("delta_prime", 2.0, "delta must lie in"),
        ("delta_prime", 0.05, "band degenerate"),
        ("n", 0, "n must be at least 2, got 0"),
        ("n", 1, "n must be at least 2, got 1"),
        ("noise_sd", -1.0, "noise_sd must be nonnegative"),
        ("noise_sd", float("nan"), "noise_sd must be nonnegative and finite, got nan"),
        ("noise_sd", float("inf"), "noise_sd must be nonnegative and finite, got inf"),
        ("seed", -1, "seed must be nonnegative, got -1"),
        ("kernel", "scenarioA:x", "kernel id 'scenarioA:x': invalid literal for int"),
    ])
    def test_cell_that_cannot_run_is_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{**SMALL, field: value})
        payload = json.loads(ExperimentConfig(**SMALL).to_json())
        payload[field] = value
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(json.dumps(payload))

    # a count or seed is rejected when the config is built, not in a later
    # range() or SeedSequence; a bool is no integer
    @pytest.mark.parametrize("cls, field, bad, good", [
        (SolveConfig, "max_rank_sweep", 2.5, 3),
        (SolveConfig, "max_rank_sweep", True, 3),
        (SolveConfig, "seed", 1.5, 3),
        (ExperimentConfig, "n", 20.5, 20),
        (ExperimentConfig, "K", 20.5, 30),
        (ExperimentConfig, "base_resolution", 30.0, 30),
        (ExperimentConfig, "replications", 2.5, 2),
        (ExperimentConfig, "replications", True, 2),
        (ExperimentConfig, "seed", 1.5, 3),
    ])
    def test_integer_fields_take_only_integers(self, cls, field, bad, good):
        base = SMALL if cls is ExperimentConfig else {}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {bad!r}$"):
            cls(**{**base, field: bad})
        built = getattr(cls(**{**base, field: np.int64(good)}), field)
        assert built == good and type(built) is int

    # every field, drawn from its own values and from every other kind: building
    # either rejects the value naming the field (or, for a compound name, its
    # first word: "unknown grid type", "rank policy", "delta must lie in"), or
    # gives a config that to_json writes and from_json reads back unchanged
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_every_field_is_rejected_by_name_or_round_trips(self, data):
        base = dict(kernel="scenarioA:1", n=40, K=None, base_resolution=30, delta=(0.6, 0.6),
                    rank_policy="fixed:1", replications=2, seed=3)
        numbers = st.integers(-3, 60) | st.floats() | st.floats(0.0, 1.0)
        own = {
            "kernel": st.sampled_from(["scenarioA:2", "scenarioB:1", "matern:1.5,0.5,1.0", "nope:1", "scenarioA:x"]),
            "n": st.integers(-2, 300),
            "K": st.none() | st.integers(-2, 120),
            "base_resolution": st.integers(-2, 120),
            "delta": st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            "grid_type": st.sampled_from(harness.GRID_TYPES + ("type3",)),
            "noise_sd": st.floats(-1.0, 2.0) | st.sampled_from([float("nan"), float("inf")]),
            "delta_prime": st.none() | st.floats(0.0, 1.2),
            "rank_policy": st.sampled_from(["fixed:1", "elbow", "elbow:0.02", "penalty:0.1", "fixed:x", "elbow:0"]),
            "replications": st.integers(-1, 5),
            "seed": st.integers(-1, 2**40),
        }
        field = data.draw(st.sampled_from(sorted(own)))
        scalar = own[field] | numbers | st.booleans() | st.none() | st.text("xyz0.:", max_size=5)
        numpy_scalar = (st.integers(-3, 300).map(np.int64) | st.floats(width=32).map(np.float32)
                        | st.floats(0.0, 1.0).map(np.float64) | st.booleans().map(np.bool_))
        pairs = st.lists(numbers | numpy_scalar, min_size=2, max_size=3)
        value = data.draw(scalar | numpy_scalar | pairs | pairs.map(tuple)
                          | st.lists(st.dictionaries(st.text(max_size=2), numbers)))
        try:
            cfg = ExperimentConfig(**{**base, field: value})
        except ValueError as exc:
            assert field.split("_")[0] in str(exc)
            return
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    # the delta' band is checked at the K each grid type runs at, where it is known
    def test_band_checked_at_the_grid_K(self):
        with pytest.raises(ValueError, match="band degenerate"):
            ExperimentConfig(kernel="scenarioA:1", K=None, delta=(0.6, 0.6), delta_prime=0.03)
        with pytest.raises(ValueError, match="band degenerate"):
            ExperimentConfig(kernel="scenarioA:1", K=None, base_resolution=20, grid_type="type1", delta_prime=0.08)
        # a type2 cell bins at most at round(0.8 * ceil(50 * 0.5)) = 20 here
        with pytest.raises(ValueError, match="band degenerate"):
            ExperimentConfig(kernel="scenarioA:1", K=None, grid_type="type2", delta_prime=0.03)
        assert ExperimentConfig(kernel="scenarioA:1", K=None, grid_type="type2", delta_prime=0.1).K is None

    # every replication of this cell failed at its realized K (24), and the row read nan
    def test_type2_band_checked_at_its_largest_K(self):
        with pytest.raises(ValueError, match="band degenerate"):
            ExperimentConfig(**{**SMALL, "K": None, "grid_type": "type2", "delta_prime": 0.05})


class TestResolvedDeltaPrime:
    @pytest.mark.parametrize("delta, expected", [((0.5, 0.5), 0.4), ((0.4, 0.6), 0.4), ((0.7, 0.9), 0.7)])
    def test_rule_on_the_law_lengths(self, delta, expected):
        assert ExperimentConfig(kernel="scenarioA:1", delta=delta).resolved_delta_prime() == pytest.approx(expected)

    def test_explicit_value_wins(self):
        assert ExperimentConfig(kernel="scenarioA:1", delta_prime=0.3).resolved_delta_prime() == 0.3

    def test_no_band_left(self):
        with pytest.raises(ValueError, match="trusted band"):
            ExperimentConfig(kernel="scenarioA:1", delta=(0.1, 0.1)).resolved_delta_prime()


UNMATCHED = "intervals must all carry distinct curve_ids, or none and number one per curve"


class TestIngest:
    def test_round_trip(self, tmp_path):
        sample = fragment_irregular(scenario_kernel("A", 2), 12, FragmentLaw(0.5, 0.7), "type2", 40, seed=2)
        path = tmp_path / "sample.csv"
        write_fragments(sample, path)
        back = ingest_fragments(path)
        assert back.n == sample.n
        for name in ("t", "x", "sizes"):
            assert np.array_equal(getattr(back, name), getattr(sample, name))
        assert np.allclose(back.intervals, sample.intervals)

    def test_rows_sorted_by_time_keep_their_intervals(self, tmp_path):
        sample = fragment_irregular(scenario_kernel("A", 2), 12, FragmentLaw(0.3, 0.5), "type2", 40, seed=2)
        path = tmp_path / "sample.csv"
        write_fragments(sample, path)
        header, *rows = path.read_text().splitlines()
        rows.sort(key=lambda row: float(row.split(",")[1]))
        path.write_text("\n".join([header, *rows]) + "\n")
        back = ingest_fragments(path)
        assert back.curve_ids != tuple(str(c) for c in sample.curve_ids)  # first appearance is not curve order
        by_id = dict(zip(back.curve_ids, back.intervals))
        for cid, interval in zip(sample.curve_ids, sample.intervals):
            assert np.array_equal(by_id[str(cid)], interval)

    def test_sidecar_missing_a_curve(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("curve_id,t,value\na,0.1,1.0\na,0.2,2.0\nb,0.5,3.0\nb,0.6,4.0\n")
        sidecar = {"intervals": [{"curve_id": "a", "start": 0.0, "delta": 0.3}]}
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="no interval for curve 'b'"):
            ingest_fragments(path)

    # the message names the sidecar, the curve and the time, to FragmentSample's slack
    def test_sidecar_interval_must_hold_its_curve(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("curve_id,t,value\na,0.1,1.0\na,0.2,2.0\nb,0.5,3.0\nb,0.6,4.0\n")
        intervals = [{"curve_id": "a", "start": 0.0, "delta": 0.3}, {"curve_id": "b", "start": 0.55, "delta": 0.3}]
        path.with_suffix(".json").write_text(json.dumps({"intervals": intervals}))
        sidecar = re.escape(str(path.with_suffix(".json")))
        with pytest.raises(ValueError, match=rf"^{sidecar}: curve 'b': t=0.5 outside its interval \(start 0.55, delta 0.3\)$"):
            ingest_fragments(path)
        intervals[1]["start"] = 0.5 - 1e-13  # within the slack FragmentSample allows
        path.with_suffix(".json").write_text(json.dumps({"intervals": intervals}))
        assert ingest_fragments(path).curve_ids == ("a", "b")

    # without intervals the sidecar still gives the noise, and an old grid_type
    # key is ignored; one interval for two curves is not silently replaced
    @pytest.mark.parametrize("intervals", [None, [], [{"start": 0.0, "delta": 0.3}]],
                             ids=["no-intervals", "empty-list", "count-mismatch"])
    def test_sidecar_noise_read_without_usable_intervals(self, tmp_path, intervals):
        path = tmp_path / "f.csv"
        path.write_text("curve_id,t,value\na,0.1,1.0\na,0.2,2.0\nb,0.5,3.0\nb,0.6,4.0\n")
        sidecar = {"grid_type": "typo", "noise_sd": 0.5}
        if intervals is not None:
            sidecar["intervals"] = intervals
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        if intervals:
            message = f"{path.with_suffix('.json')}: {UNMATCHED} (1 for 2 curves)"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ingest_fragments(path)
            return
        sample = ingest_fragments(path)
        assert sample.noise_sd == 0.5
        assert np.allclose(sample.intervals, [[0.1, 0.1], [0.5, 0.1]])  # inferred

    # intervals that cannot be matched to the curves by id or by position
    @pytest.mark.parametrize("intervals", [
        [{"curve_id": "b", "start": 0.4, "delta": 0.3}, {"start": 0.0, "delta": 0.3}],
        [{"curve_id": "a", "start": 0.0, "delta": 0.3}, {"curve_id": "a", "start": 0.0, "delta": 0.3}],
        [{"start": 0.0, "delta": 0.7}] * 3,
    ], ids=["mixed", "repeated-id", "one-too-many"])
    def test_sidecar_intervals_that_cannot_be_matched(self, tmp_path, intervals):
        path = tmp_path / "f.csv"
        path.write_text("curve_id,t,value\na,0.1,1.0\na,0.2,2.0\nb,0.5,3.0\nb,0.6,4.0\n")
        path.with_suffix(".json").write_text(json.dumps({"intervals": intervals}))
        message = f"{path.with_suffix('.json')}: {UNMATCHED} ({len(intervals)} for 2 curves)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_fragments(path)

    @pytest.mark.parametrize("key, value, message", [
        ("noise_sd", -1, "noise_sd must be nonnegative, got -1.0"),
    ])
    def test_sidecar_value_sample_rejects_names_the_sidecar(self, tmp_path, key, value, message):
        path = tmp_path / "f.csv"
        path.write_text("curve_id,t,value\na,0.1,1.0\na,0.2,2.0\n")
        path.with_suffix(".json").write_text(json.dumps({key: value}))
        sidecar = re.escape(str(path.with_suffix(".json")))
        with pytest.raises(ValueError, match=rf"^{sidecar}: {re.escape(message)}$"):
            ingest_fragments(path)

    def test_short_curve_dropped_with_warning(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("curve_id,t,value\na,0.1,1.0\na,0.2,2.0\nb,0.5,3.0\n")
        with pytest.warns(UserWarning, match="fewer than 2"):
            sample = ingest_fragments(path)
        assert sample.n == 1
        assert sample.curve_ids == ("a",)

    def test_short_curve_dropped_with_sidecar(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "curve_id,t,value\na,0.1,1.0\na,0.2,2.0\nb,0.5,3.0\nc,0.7,4.0\nc,0.9,5.0\n"
        )
        intervals = [{"start": 0.05, "delta": 0.3}, {"start": 0.4, "delta": 0.2}, {"start": 0.6, "delta": 0.35}]
        sidecar = {"n": 3, "grid_type": "type1", "noise_sd": 0.5, "intervals": intervals}
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        with pytest.warns(UserWarning, match="fewer than 2"):
            sample = ingest_fragments(path)
        assert sample.curve_ids == ("a", "c")
        assert np.array_equal(sample.intervals, [[0.05, 0.3], [0.6, 0.35]])
        assert sample.noise_sd == 0.5

    def test_unsorted_rows_sorted(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("curve_id,t,value\na,0.9,9.0\na,0.1,1.0\na,0.5,5.0\n")
        sample = ingest_fragments(path)
        assert np.array_equal(sample.times[0], [0.1, 0.5, 0.9])
        assert np.array_equal(sample.x, [1.0, 5.0, 9.0])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "f.csv"
        for bad in ("a,not-a-number,2.0", "a,0.2,nan", "a,0.2,inf", "a,0.2,-inf", "a,0.1,2.0"):
            path.write_text(f"curve_id,t,value\na,0.1,1.0\n{bad}\n")
            with pytest.raises(ValueError, match=":3"):
                ingest_fragments(path)
        for bad in ("a,0.2", "a,0.2,2.0,4"):
            path.write_text(f"curve_id,t,value\na,0.1,1.0\n{bad}\n")
            with pytest.raises(ValueError, match=":3: malformed row"):
                ingest_fragments(path)
        # a blank line is skipped, and still counted in the line numbers
        path.write_text("curve_id,t,value\na,0.1,1.0\n\na,0.2,2.0\n")
        assert np.array_equal(ingest_fragments(path).x, [1.0, 2.0])
        path.write_text("curve_id,t,value\na,0.1,1.0\n\na,0.2\n")
        with pytest.raises(ValueError, match=":4: malformed row"):
            ingest_fragments(path)

    def test_out_of_domain_time(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("curve_id,t,value\na,0.1,1.0\na,1.4,2.0\n")
        with pytest.raises(ValueError, match="outside"):
            ingest_fragments(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,time,y\na,0.1,1.0\n")
        with pytest.raises(ValueError, match="header"):
            ingest_fragments(path)


def test_worker_count_env_override(monkeypatch):
    from fragcov.harness import _worker_count

    monkeypatch.setenv("FRAGCOV_THREADS", "3")
    assert _worker_count() == 3
    monkeypatch.setenv("FRAGCOV_THREADS", "0")
    assert _worker_count() == 1
    for bad in ("abc", "2.5", "1e3"):
        monkeypatch.setenv("FRAGCOV_THREADS", bad)
        with pytest.raises(ValueError, match=f"^FRAGCOV_THREADS must be an integer, got '{bad}'$"):
            _worker_count()
    monkeypatch.delenv("FRAGCOV_THREADS")
    assert _worker_count() >= 1


def _openblas_threads() -> list[int]:
    from fragcov import complete

    return [get() for get, _ in complete._openblas()]


def test_replications_run_single_thread_blas():
    from fragcov import complete

    before = _openblas_threads()
    if not before:
        pytest.skip("numpy and scipy load no bundled OpenBLAS here")
    ones, twos = [1] * len(before), [2] * len(before)
    complete._set_blas_threads(2)
    try:
        with complete._single_thread_blas():
            assert _openblas_threads() == ones
        assert _openblas_threads() == twos
        with ProcessPoolExecutor(1, initializer=complete._set_blas_threads, initargs=(1,)) as pool:
            assert pool.submit(_openblas_threads).result(timeout=120) == ones
        assert _openblas_threads() == twos
    finally:
        complete._set_blas_threads(before)


_POOL_SCRIPT = """
import json, sys
import fragcov
from fragcov import harness

started_with = []

class Pool(harness.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        # scipy files loaded by _scipy_module, and whether scipy.optimize was imported
        started_with.append([fragcov.complete._scipy_module.cache_info().currsize, "scipy.optimize" in sys.modules])
        super().__init__(*args, **kwargs)

harness.ProcessPoolExecutor = Pool
cfg = fragcov.ExperimentConfig(kernel="scenarioA:1", K=12, n=40, delta=(0.6, 0.6), rank_policy="fixed:1", replications=2)
result = harness.run_cell(cfg, workers=2)
print(json.dumps({"started_with": started_with, "failures": len(result.failures)}))
"""

_BLAS_SCRIPT = """
import json, sys
from pathlib import Path
import fragcov
from fragcov import complete

assert "scipy" not in sys.modules
set_threads, restored = complete._set_blas_threads, []

def recording_set(counts):
    restored.append(counts)
    set_threads(counts)

complete._set_blas_threads = recording_set
with complete._single_thread_blas():
    inside = [get() for get, _ in complete._openblas()]

import numpy, scipy
bundled = [p for m in (numpy, scipy) for p in Path(m.__file__).parent.with_name(m.__name__ + ".libs").glob("*openblas*")]
print(json.dumps({"inside": inside, "restored": restored[-1], "bundled": len(bundled)}))
"""


def test_pool_and_blas_threads_see_scipy_loaded(fresh_python):
    # fragcov imports scipy where a solve runs. The pool must fork after
    # the table protocol's two scipy files (_fblas, _dcsrch) are loaded, or
    # each worker loads them for itself, and without scipy.optimize; and
    # scipy's OpenBLAS must be loaded before thread counts are saved and set,
    # or a solve loads it at its default count and the restore misses it.
    pool = fresh_python(_POOL_SCRIPT)
    assert pool == {"started_with": [[2, False]], "failures": 0}
    blas = fresh_python(_BLAS_SCRIPT)
    if not blas["bundled"]:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    assert blas["inside"] == [1] * blas["bundled"]
    assert len(blas["restored"]) == blas["bundled"]


def test_bigger_cell_independent_of_worker_count():
    # at K=100 OpenBLAS's threaded reductions change the last bits of the
    # errors, so this holds only with BLAS on one thread in every process
    cfg = ExperimentConfig(kernel="scenarioA:3", K=100, delta=(0.5, 0.5), rank_policy="fixed:3", replications=4, seed=1)
    assert run_cell(cfg, workers=1).errors.tobytes() == run_cell(cfg, workers=2).errors.tobytes()


def test_run_cell_byte_stable_csv():
    results1 = run_table("T2", seed=7, replications=3, cells=[2], workers=1)
    results2 = run_table("T2", seed=7, replications=3, cells=[2], workers=2)
    assert results_to_csv(results1) == results_to_csv(results2)
