"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this file:

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
import os

RUN_SECONDS = 35

# The gated workloads. workloads.py also has oracle_band, which is not gated:
# its operation time follows the shared host's speed too closely (see
# README.md); the oracle is measured per layer by a traced elbow_k50 run.
WORKLOADS = [
    ("table_k100", "T7 cell scenarioA:3 K=100 under the table protocol: dense BFGS dominates, no sweep, no ingest"),
    ("elbow_k50", "README quickstart matrix, elbow rank sweep to 8: L-BFGS, trust-ncg polish and hessp dominate"),
    ("cli_type2", "simulate/patch/complete CLI chain, n=5000 type-2 curves: process start, CSV I/O, ingest, binning"),
]

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_per_s", "1/s", "higher", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("rel_err_pct", "%", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Per-layer metrics are per traced operation unless the unit says otherwise.
# A workload reports 0 for a layer it does not reach.
_minimize = []
for _method in ("BFGS", "L-BFGS-B", "trust-ncg"):
    _minimize += [
        (f"complete.minimize.{_method}.calls", "count", "lower"),
        (f"complete.minimize.{_method}.nit", "count", "lower"),
        (f"complete.minimize.{_method}.nfev", "count", "lower"),
        (f"complete.minimize.{_method}.self_s", "s", "lower"),
        (f"complete.minimize.{_method}.unconverged", "count", "lower"),
    ]

PER_LAYER = _minimize + [
    ("complete.hessp.calls", "count", "lower"),
    ("complete.hessp.s", "s", "lower"),
    ("complete.polish.calls", "count", "lower"),
    ("complete.polish.improved_ratio", "ratio", "higher"),
    ("complete.rank_sweep.s", "s", "lower"),
    ("complete.rank_sweep.ranks_visited", "count", "lower"),
    ("complete.rank_sweep.useful_ratio", "ratio", "higher"),
    ("complete.solve_fixed_rank.calls", "count", "lower"),
    ("complete.estimate_covariance.s", "s", "lower"),
    ("complete.exact_band_completion.s", "s", "lower"),
    ("complete.exact_band_completion.rel_err", "ratio", "lower"),
    ("complete.exact_band_completion.above_1e-8", "count", "lower"),
    ("backend.objective.calls", "count", "lower"),
    ("backend.objective.s", "s", "lower"),
    ("backend.objective.us_per_call", "us", "lower"),
    ("backend.objective.flops_per_call", "flop", "lower"),
    ("backend.objective.bytes_per_call", "B", "lower"),
    ("harness.rep.simulate_s", "s", "lower"),
    ("harness.rep.patch_s", "s", "lower"),
    ("harness.rep.solve_s", "s", "lower"),
    ("harness.rep.score_s", "s", "lower"),
    ("harness.ingest.s", "s", "lower"),
    ("harness.ingest.rows_per_s", "rows/s", "higher"),
    ("harness.pool.workers", "count", "higher"),
    ("harness.pool.reps_per_s_1", "1/s", "higher"),
    ("harness.pool.reps_per_s_nproc", "1/s", "higher"),
    ("harness.pool.speedup", "ratio", "higher"),
    ("harness.pool.spread_1", "ratio", "lower"),
    ("harness.pool.spread_nproc", "ratio", "lower"),
    ("harness.pool.median_matches", "bool", "higher"),
    ("kernels.evaluate_on_grid.s", "s", "lower"),
    ("simulate.sample_gp.s", "s", "lower"),
    ("simulate.fragment.s", "s", "lower"),
    ("simulate.fragment_irregular.s", "s", "lower"),
    ("simulate.write_fragments.s", "s", "lower"),
    ("simulate.write_fragments.bytes", "B", "lower"),
    ("patch.patched_regular.s", "s", "lower"),
    ("patch.patched_binned.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.simulate_s", "s", "lower"),
    ("cli.patch_s", "s", "lower"),
    ("cli.complete_s", "s", "lower"),
    ("layer.simulate.self_s", "s", "lower"),
    ("layer.patch.self_s", "s", "lower"),
    ("layer.complete.self_s", "s", "lower"),
    ("layer.harness.self_s", "s", "lower"),
    ("layer.cli.self_s", "s", "lower"),
    ("layer.complete.share", "ratio", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


def unit_of(name: str) -> str:
    for entries in (END_TO_END, PER_LAYER):
        for entry in entries:
            if entry[0] == name:
                return entry[1]
    raise KeyError(name)


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    with open(MANIFEST, "w") as fh:
        fh.write(render())
