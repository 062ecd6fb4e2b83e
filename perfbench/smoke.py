"""The benchmark's own test: every workload at tiny sizes, both run modes.

    python3 perfbench/smoke.py

Checks that each run prints, as its last line, the result object with exactly
the keys and metric names of BENCHMARK.json; that BENCHMARK.json matches
spec.py; that the same seed gives the same accuracy figure; and that without
the program (only BENCHMARK.json and perfbench/ present) a run fails without
printing a result. Exits 1 on the first failed check. Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from spec import END_TO_END, MANIFEST, PER_LAYER, WORKLOADS, render

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int, seed: int = 0) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)


def check_result(proc, workload: str, trace: int) -> dict:
    label = f"{workload} trace {trace}"
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0, f"{label}: not correct\n{proc.stderr[-2000:]}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    spec = PER_LAYER if trace else END_TO_END
    check(list(result["metrics"]) == [entry[0] for entry in spec], f"{label}: metric names differ from spec")
    for name, unit, *_ in spec:
        metric = result["metrics"][name]
        check(metric["unit"] == unit and isinstance(metric["value"], (int, float)), f"{label}: {name} {metric}")
        if not trace:
            check(metric["value"] > 0, f"{label}: {name} is not positive")
    print(f"ok   {label}: {result['attempted']} ops")
    return result


def main() -> int:
    with open(MANIFEST) as fh:
        check(fh.read() == render(), "BENCHMARK.json is out of date; run python3 perfbench/spec.py")
    print("ok   BENCHMARK.json matches spec.py")

    for workload, _ in WORKLOADS:
        for trace in (0, 1):
            check_result(run(ROOT, workload, trace), workload, trace)

    again = [check_result(run(ROOT, "elbow_k50", 0, seed=3), "elbow_k50", 0) for _ in range(2)]
    same = [r["metrics"]["rel_err_pct"]["value"] for r in again]
    check(same[0] == same[1], f"same seed, different accuracy: {same}")
    print("ok   same seed gives the same accuracy figure")

    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(MANIFEST, bare)
    try:
        proc = run(bare, WORKLOADS[0][0], 0)
        check(proc.returncode != 0 and "correct" not in proc.stdout, "a run without the program printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   without the program a run fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
