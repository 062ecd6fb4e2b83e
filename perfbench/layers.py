"""The traced run: per-layer numbers from spans, plus the records that only
a traced run makes (pool scaling on table_k100, the oracle panel on
elbow_k50, CLI import time on cli_type2).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace

from spans import LAYERS, Tracer, layer_of, objective_cost
from workloads import OracleBand, derive

POOL_REPS = 8
POOL_TRIALS = 2
IMPORT_PROBES = 3


def traced_run(wl, args, fc, run_loop, out_dir):
    """Run the workload with tracing; return (loop, metrics, details)."""
    tracer = Tracer()
    loop = run_loop(wl, args.seconds, tracer=tracer, fc=fc)
    metrics, details = layer_metrics(tracer, loop)
    if wl.name == "oracle_band":
        metrics.update(oracle_errors([e / 100.0 for e in loop.traced_errors]))
    if wl.name == "elbow_k50":
        metrics.update(oracle_panel(fc, args, loop, out_dir))
    if wl.name == "table_k100":
        metrics.update(pool_scaling(wl, fc, args))
    if wl.name == "cli_type2":
        metrics["cli.import_s"] = cli_import_s(fc)
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
    return loop, metrics, details


def layer_metrics(tracer: Tracer, loop) -> tuple[dict, dict]:
    total, self_time, calls = tracer.totals()
    ops = max(len(loop.traced), 1)
    c = tracer.counters
    m: dict[str, float] = {"trace.ops": len(loop.traced)}

    for method in ("BFGS", "L-BFGS-B", "trust-ncg"):
        key = f"complete.minimize.{method}"
        for field in ("calls", "nit", "nfev", "unconverged"):
            m[f"{key}.{field}"] = c[f"{key}.{field}"] / ops
        m[f"{key}.self_s"] = self_time[key] / ops

    m["complete.hessp.calls"] = calls["complete.hessp"] / ops
    m["complete.hessp.s"] = total["complete.hessp"] / ops
    m["complete.polish.calls"] = c["complete.polish.calls"] / ops
    m["complete.polish.improved_ratio"] = ratio(c["complete.polish.improved"], c["complete.polish.calls"])
    m["complete.rank_sweep.s"] = total["complete.rank_sweep"] / ops
    m["complete.rank_sweep.ranks_visited"] = c["complete.rank_sweep.ranks_visited"] / ops
    m["complete.rank_sweep.useful_ratio"] = ratio(
        c["complete.rank_sweep.ranks_selected"], c["complete.rank_sweep.ranks_visited"]
    )
    m["complete.solve_fixed_rank.calls"] = calls["complete.solve_fixed_rank"] / ops
    m["complete.estimate_covariance.s"] = total["complete.estimate_covariance"] / ops
    m["complete.exact_band_completion.s"] = total["complete.exact_band_completion"] / ops

    obj_calls = sum(n for n, _ in tracer.shapes.values())
    m["backend.objective.calls"] = obj_calls / ops
    m["backend.objective.s"] = total["backend.objective"] / ops
    m["backend.objective.us_per_call"] = 1e6 * ratio(total["backend.objective"], obj_calls)
    flops = sum(n * objective_cost(K, r)[0] for (K, r), (n, _) in tracer.shapes.items())
    nbytes = sum(n * objective_cost(K, r)[1] for (K, r), (n, _) in tracer.shapes.items())
    m["backend.objective.flops_per_call"] = ratio(flops, obj_calls)
    m["backend.objective.bytes_per_call"] = ratio(nbytes, obj_calls)

    stages = tracer.child_time("harness.rep")
    by_stage = defaultdict(float)
    for name, t in stages.items():
        by_stage[{"kernels": "simulate", "simulate": "simulate", "patch": "patch", "complete": "solve",
                  "core": "score"}.get(name.split(".", 1)[0], "other")] += t
    for stage in ("simulate", "patch", "solve", "score"):
        m[f"harness.rep.{stage}_s"] = by_stage[stage] / ops

    m["harness.ingest.s"] = total["harness.ingest"] / ops
    m["harness.ingest.rows_per_s"] = ratio(c["harness.ingest.rows"], total["harness.ingest"])
    for name in ("kernels.evaluate_on_grid", "simulate.sample_gp", "simulate.fragment",
                 "simulate.fragment_irregular", "simulate.write_fragments", "patch.patched_regular",
                 "patch.patched_binned"):
        m[f"{name}.s"] = total[name] / ops
    m["simulate.write_fragments.bytes"] = c["simulate.write_fragments.bytes"] / ops
    for sub in ("simulate", "patch", "complete"):
        m[f"cli.{sub}_s"] = total[f"cli.{sub}"] / ops

    layer_self = defaultdict(float)
    for name, t in self_time.items():
        layer_self[layer_of(name)] += t
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer] / ops
    m["layer.complete.share"] = ratio(layer_self["complete"], total["bench.op"])

    untraced = statistics.median(loop.durations) if loop.durations else 0.0
    traced = statistics.median(loop.traced) if loop.traced else 0.0
    m["trace.overhead_s"] = traced - untraced
    m["trace.overhead_pct"] = 100.0 * ratio(traced - untraced, untraced)

    details = {
        "objective_by_shape": {
            f"K{K}_r{r}": {"calls": n, "us_per_call": 1e6 * ratio(t, n),
                           "flops_per_call": objective_cost(K, r)[0], "bytes_per_call": objective_cost(K, r)[1]}
            for (K, r), (n, t) in sorted(tracer.shapes.items())
        },
        "span_totals_s": dict(sorted(total.items())),
        "span_self_s": dict(sorted(self_time.items())),
        "span_calls": dict(sorted(calls.items())),
        "untraced_op_s": loop.durations,
        "traced_op_s": loop.traced,
        "note": "per-layer values are per traced operation; flops and bytes are computed, not measured",
    }
    return m, details


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pool_scaling(wl, fc, args) -> dict:
    """run_cell replications per second at 1 worker and at nproc workers.

    Runs in the inherited environment, BLAS threads included, so it records
    the pool as users get it. Ungated: the nproc figure is not steady today.
    """
    nproc = os.cpu_count() or 1
    reps = 2 if args.smoke else POOL_REPS
    cell = replace(wl.cell, seed=derive(args.seed, 10**6), replications=reps)
    rates: dict[int, list[float]] = {1: [], nproc: []}
    medians = set()
    for _ in range(POOL_TRIALS):
        for workers in (1, nproc):
            start = time.perf_counter()
            result = fc.harness.run_cell(cell, workers=workers)
            rates[workers].append(reps / (time.perf_counter() - start))
            medians.add(repr(result.median))
    one, many = statistics.median(rates[1]), statistics.median(rates[nproc])
    return {
        "harness.pool.workers": nproc,
        "harness.pool.reps_per_s_1": one,
        "harness.pool.reps_per_s_nproc": many,
        "harness.pool.speedup": ratio(many, one),
        "harness.pool.spread_1": ratio(max(rates[1]) - min(rates[1]), one),
        "harness.pool.spread_nproc": ratio(max(rates[nproc]) - min(rates[nproc]), many),
        "harness.pool.median_matches": 1.0 if len(medians) == 1 else 0.0,
    }


def oracle_errors(rel: list[float]) -> dict:
    return {
        "complete.exact_band_completion.rel_err": max(rel, default=0.0),
        "complete.exact_band_completion.above_1e-8": sum(e > 1e-8 for e in rel),
    }


def oracle_panel(fc, args, loop, out_dir) -> dict:
    """exact_band_completion over oracle_band's fixed panel of grids, traced.

    The oracle is not a gated workload (its time follows the host's speed too
    closely), so its layer is recorded here: seconds per completion, the worst
    relative error and the count above criterion 01's 1e-8. A completion that
    fails its check counts as a failed operation of the run.
    """
    oracle = OracleBand(fc, args.seed, args.smoke, out_dir)
    oracle.setup()
    tracer = Tracer()
    rel = []
    tracer.install(fc)
    try:
        for i in range(oracle.acc_ops):
            inp = oracle.make_input(i)
            loop.attempted += 1
            try:
                rel.append(oracle.check(inp, oracle.run(inp)) / 100.0)
            except Exception as exc:  # noqa: BLE001 - a failed completion is a result, not a crash
                loop.fail(f"oracle panel grid {i}: {exc!r}")
    finally:
        tracer.unpatch()
    total, _, calls = tracer.totals()
    name = "complete.exact_band_completion"
    return {f"{name}.s": ratio(total[name], calls[name]), **oracle_errors(rel)}


def cli_import_s(fc) -> float:
    """Median time to import fragcov.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import fragcov.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=fc.src)
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)
