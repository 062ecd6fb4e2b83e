"""Run the benchmark over several seeds and print each metric's median and spread.

    python3 perfbench/suite.py                          # every workload, seeds 0-9
    python3 perfbench/suite.py --workloads elbow_k50 --seeds 0-4
    python3 perfbench/suite.py --trace 1 --seeds 0

Runs are made one at a time, each in a fresh ``run.py`` process. For every
metric the table shows the median over seeds, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (q3 - q1) / median and the
metric's bound; a spread at or above the bound (setup_s excepted) is flagged.
All results are also saved to ``.perfbench/suite-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(name: str, values: list[float], bound: float | None) -> str:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    flag = ""
    if bound is not None and name != "setup_s" and spread >= bound:
        flag = "  SPREAD >= BOUND"
    elif bound is not None and spread >= bound / 3:
        flag = "  spread >= bound/3"
    shown_bound = f"{bound:.2f}" if bound is not None else "-"
    return f"  {name:<44} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f}  bound {shown_bound}{flag}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(n for n, _ in WORKLOADS))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {n: b for n, _, _, b in END_TO_END}
    names = [n for n, *_ in (PER_LAYER if args.trace else END_TO_END)]
    saved = {}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            ok &= bool(result["correct"])
            print(f"{workload} seed {seed}: correct {result['correct']} attempted {result['attempted']} "
                  f"failed {result['failed']} wall {result['wall_s']:.1f} s", flush=True)
        saved[workload] = results
        print(f"{workload}: {len(results)} runs, wall median {statistics.median(r['wall_s'] for r in results):.1f} s")
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            print(summarize(name, values, bounds.get(name)), flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", f"suite-{time.strftime('%Y%m%d-%H%M%S')}.json"), "w") as fh:
        json.dump(saved, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
