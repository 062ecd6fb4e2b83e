"""fragcov's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload table_k100 --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
checkout this file lives in; nothing is installed. The run

1. sets up: imports fragcov, builds the workload's inputs and runs one
   untimed warm-up operation. ``setup_s`` is the median of this set-up in
   this process and in two fresh set-up-only processes;
2. runs the workload as a serial closed loop for ``--seconds`` seconds (and
   at least the operations its accuracy figure needs), checking every output;
3. prints a human-readable summary, then, as its last line, one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end metrics of ``spec.py``.
With ``--trace 1`` every input is run twice, untraced and then traced (see
``spans.py``); the metrics are the per-layer numbers from the traced
operations, plus the tracing overhead. The run record (machine, BLAS,
versions, seed) and, for traced runs, the spans go to ``.perfbench/`` in the
checkout. ``--smoke`` runs tiny sizes and skips the reference checks.

Exit status is 0 when a result was printed, 2 when the program is missing or
the arguments are wrong.
"""

import time

# set-up time counts from here, before numpy, scipy or fragcov is imported
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

import workloads  # noqa: E402
from spec import END_TO_END, PER_LAYER, unit_of  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 2
# a run ends after this long even if its accuracy operations are unfinished
HARD_LIMIT_S = 150.0


def load_program():
    """Import fragcov from the checkout's src/, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "fragcov", "__init__.py")):
        print(f"perfbench: no program at {SRC}/fragcov; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import fragcov
    import fragcov.cli
    import fragcov.complete
    import fragcov.harness

    if os.path.dirname(os.path.dirname(os.path.abspath(fragcov.__file__))) != SRC:
        print(f"perfbench: imported fragcov from {fragcov.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return types.SimpleNamespace(
        pkg=fragcov, harness=fragcov.harness, complete=fragcov.complete, cli=fragcov.cli, src=SRC
    )


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Loop:
    """Outcome of a timed loop: op durations, RE% of the accuracy ops, failures."""

    def __init__(self):
        self.durations, self.traced, self.errors, self.traced_errors = [], [], [], []
        self.attempted = self.failed = 0
        self.first_failure = None

    def fail(self, message):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = message
        print(f"perfbench: {message}", file=sys.stderr)


def timed_call(wl, inp, in_process=False):
    start = time.perf_counter()
    out = wl.run(inp, in_process=in_process)
    return out, time.perf_counter() - start


def run_loop(wl, seconds, tracer=None, fc=None):
    """Serial closed loop over inputs 0, 1, ... until seconds have passed.

    With a tracer, each input runs untraced and then traced, so the two
    medians give the tracing overhead.
    """
    loop = Loop()
    start = time.perf_counter()
    i = 0
    while i < wl.acc_ops or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > HARD_LIMIT_S:
            loop.fail(f"stopped after {HARD_LIMIT_S:.0f} s with {i} of {wl.acc_ops} accuracy operations done")
            break
        inp = wl.make_input(i)
        variants = (False, True) if tracer is not None else (False,)
        for traced in variants:
            loop.attempted += 1
            try:
                if traced:
                    tracer.install(fc)
                    try:
                        out, dt = tracer.call("bench.op", timed_call, wl, inp, True)[0]
                    finally:
                        tracer.unpatch()
                else:
                    out, dt = timed_call(wl, inp, in_process=tracer is not None)
                re = wl.check(inp, out)
            except workloads.CheckFailed as exc:
                loop.fail(f"{wl.name} input {i}: {exc}")
                continue
            except Exception:  # noqa: BLE001 - a failing operation is a result, not a crash
                loop.fail(f"{wl.name} input {i} raised:\n{traceback.format_exc()}")
                continue
            if traced:
                loop.traced.append(dt)
                loop.traced_errors.append(re)
            else:
                loop.durations.append(dt)
                if i < wl.acc_ops:
                    loop.errors.append(re)
        i += 1
    return loop


def peak_rss_mb():
    """Largest resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probes(args, count):
    """Set-up time of count fresh processes that stop after set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def end_to_end_metrics(loop, setup_times, accuracy):
    metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb()}
    if loop.durations:
        metrics["throughput_ops_per_s"] = len(loop.durations) / sum(loop.durations)
        metrics["op_s_p50"] = statistics.median(loop.durations)
    if accuracy is not None:
        metrics["rel_err_pct"] = accuracy
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no reference checks")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    fc = load_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](fc, args.seed, args.smoke, OUT_DIR)
    try:
        wl.setup()
        try:
            wl.warm_up(in_process=bool(args.trace))
        except Exception:  # noqa: BLE001 - the timed loop records the failure
            traceback.print_exc()
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        import record

        run_record = record.run_record(fc, args)
        print("record " + json.dumps(run_record))
        if args.trace:
            import layers

            loop, metrics, details = layers.traced_run(wl, args, fc, run_loop, OUT_DIR)
            wanted = [name for name, *_ in PER_LAYER]
            # a layer the workload does not reach reads 0
            metrics = {name: metrics.get(name, 0.0) for name in wanted}
        else:
            setup_times = [setup_s] + setup_probes(args, SETUP_PROBES)
            loop = run_loop(wl, args.seconds)
            details = {"setup_samples_s": setup_times}
            wanted = [name for name, *_ in END_TO_END]
        accuracy = None
        try:
            accuracy = wl.accuracy(loop.errors) if loop.errors else None
        except workloads.CheckFailed as exc:
            loop.fail(f"{wl.name}: {exc}")
        if not args.trace:
            metrics = end_to_end_metrics(loop, setup_times, accuracy)
    finally:
        wl.close()

    correct = loop.failed == 0 and all(name in metrics for name in wanted)
    report(args, loop, metrics, wanted, run_record, details)
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit_of(name)} for name in wanted},
    }
    print(json.dumps(result))
    return 0


def report(args, loop, metrics, wanted, run_record, details):
    """Print the summary and write the run file under .perfbench/."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {loop.attempted} (failed {loop.failed})")
    if loop.durations:
        q1, q2, q3 = quartiles(loop.durations)
        print(f"  op time  n={len(loop.durations)}  p25 {q1:.4f} s  p50 {q2:.4f} s  p75 {q3:.4f} s  "
              f"max {max(loop.durations):.4f} s")
    for name in wanted:
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit_of(name)}")
    path = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"record": run_record, "metrics": metrics, "details": details,
                   "op_durations_s": loop.durations, "first_failure": loop.first_failure}, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
