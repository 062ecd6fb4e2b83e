"""Outside-in tracing: spans around calls into fragcov's modules.

The tracer replaces names in the modules that look them up at call time
(``fragcov.harness.estimate_covariance``, ``fragcov.complete.minimize``,
...) with wrappers that record a span per call, and puts the originals back
afterwards. Nothing under ``src/`` is edited. Spans are kept in memory as
``(name, start, end, parent)`` rows, one list per run, and written out when
the run ends; counters that only the call's arguments or result can give
(iterations, convergence, bytes written) are accumulated beside them.
"""

from __future__ import annotations

import gzip
import os
import time
from collections import defaultdict

# Layer of each span name prefix. `kernels` is folded into `simulate`, and the
# backend and the scipy optimizer into `complete`, whose calls they serve.
LAYER_OF = {
    "bench": "bench",
    "cli": "cli",
    "harness": "harness",
    "core": "harness",
    "kernels": "simulate",
    "simulate": "simulate",
    "patch": "patch",
    "complete": "complete",
    "backend": "complete",
}
LAYERS = ("simulate", "patch", "complete", "harness", "cli")


def objective_cost(K: int, r: int) -> tuple[int, int]:
    """Computed flops and bytes of one numpy-backend objective/gradient call.

    Flops: gamma gamma^T (2K^2 r), subtract and mask (2K^2), squared sum
    (2K^2), residual @ gamma (2K^2 r). Bytes: each of the eight K x K float64
    passes of the fallback (matmul write, subtract read/write plus the target,
    mask multiply read/write, the squared sum read, the final matmul read) at
    8 bytes, the uint8 mask once, and gamma read twice plus the gradient
    written. Computed from array sizes; cache reuse is ignored.
    """
    flops = 4 * K * K * r + 4 * K * K
    nbytes = 8 * 8 * K * K + K * K + 3 * 8 * K * r
    return flops, nbytes


class Tracer:
    """Collects spans and counters while its patches are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.shapes: defaultdict[tuple[int, int], list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; returns (result, span index)."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((self._name_id(name), 0.0, 0.0, parent))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), idx
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (self.spans[idx][0], start, end, parent)

    def duration(self, idx: int) -> float:
        _, start, end, _ = self.spans[idx]
        return end - start

    # -- patching ------------------------------------------------------------

    def patch(self, module, attr: str, name: str, after=None):
        """Replace module.attr by a spanning wrapper; after(args, kwargs, out, idx)."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            out, idx = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(args, kwargs, out, idx)
            return out

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def install(self, fragcov_modules) -> None:
        """Patch every layer boundary the workloads cross."""
        harness, complete, cli = fragcov_modules.harness, fragcov_modules.complete, fragcov_modules.cli

        # harness: a cell, one replication and the stage calls it makes
        self.patch(harness, "run_cell", "harness.run_cell")
        self.patch(harness, "_replicate", "harness.rep")
        for attr, name in (
            ("evaluate_on_grid", "kernels.evaluate_on_grid"),
            ("sample_gp", "simulate.sample_gp"),
            ("fragment", "simulate.fragment"),
            ("fragment_irregular", "simulate.fragment_irregular"),
            ("add_noise", "simulate.add_noise"),
            ("patched_regular", "patch.patched_regular"),
            ("patched_binned", "patch.patched_binned"),
            ("estimate_covariance", "complete.estimate_covariance"),
            ("relative_error", "core.relative_error"),
        ):
            self.patch(harness, attr, name, after=self._after_estimate if attr == "estimate_covariance" else None)

        # complete: the solver's own calls, the backend and scipy
        self.patch(complete, "rank_sweep", "complete.rank_sweep")
        self.patch(complete, "solve_fixed_rank", "complete.solve_fixed_rank")
        self.patch(complete, "estimate_covariance", "complete.estimate_covariance", after=self._after_estimate)
        self.patch(complete, "exact_band_completion", "complete.exact_band_completion")
        self.patch(complete, "masked_objective_grad", "backend.objective", after=self._after_objective)
        self._patch_minimize(complete)

        # cli: the subcommands and the library calls they make
        self.patch(cli, "fragment_irregular", "simulate.fragment_irregular")
        self.patch(cli, "write_fragments", "simulate.write_fragments", after=self._after_write)
        self.patch(cli, "ingest_fragments", "harness.ingest", after=self._after_ingest)
        self.patch(cli, "patched_binned", "patch.patched_binned")
        self.patch(cli, "estimate_covariance", "complete.estimate_covariance", after=self._after_estimate)
        original_main = cli.main

        def main(argv=None):
            return self.call(f"cli.{argv[0]}", original_main, argv)[0]

        setattr(cli, "main", main)
        self._patches.append((cli, "main", original_main))

    def _patch_minimize(self, complete) -> None:
        original = complete.minimize
        tracer = self

        def minimize(fun, x0, *args, **kwargs):
            method = kwargs.get("method", "BFGS")
            hessp = kwargs.get("hessp")
            if hessp is not None:
                kwargs["hessp"] = lambda x, d: tracer.call("complete.hessp", hessp, x, d)[0]
            res, _ = tracer.call(f"complete.minimize.{method}", original, fun, x0, *args, **kwargs)
            c = tracer.counters
            key = f"complete.minimize.{method}"
            c[key + ".calls"] += 1
            c[key + ".nit"] += int(getattr(res, "nit", 0))
            c[key + ".nfev"] += int(getattr(res, "nfev", 0))
            c[key + ".unconverged"] += 0 if res.success else 1
            if method == "trust-ncg":
                # the polish starts at the L-BFGS point: evaluate it untraced
                tracer._paused = True
                try:
                    start_value = float(fun(x0)[0])
                finally:
                    tracer._paused = False
                c["complete.polish.calls"] += 1
                c["complete.polish.improved"] += 1 if res.fun < start_value else 0
            return res

        complete.minimize = minimize
        self._patches.append((complete, "minimize", original))

    # -- counters from arguments and results ---------------------------------

    def _after_objective(self, args, kwargs, out, idx) -> None:
        K, r = args[0].shape
        entry = self.shapes[(K, r)]
        entry[0] += 1
        entry[1] += self.duration(idx)

    def _after_estimate(self, args, kwargs, out, idx) -> None:
        if out.sweep is not None:
            self.counters["complete.rank_sweep.ranks_visited"] += out.sweep.max_rank
            self.counters["complete.rank_sweep.ranks_selected"] += out.rank

    def _after_write(self, args, kwargs, out, idx) -> None:
        path = os.fspath(args[1])
        sidecar = os.path.splitext(path)[0] + ".json"
        self.counters["simulate.write_fragments.bytes"] += os.path.getsize(path) + os.path.getsize(sidecar)

    def _after_ingest(self, args, kwargs, out, idx) -> None:
        self.counters["harness.ingest.rows"] += sum(len(t) for t in out.times)

    # -- derived numbers -----------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total duration, total self time and call count."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for i, (name_id, start, end, _) in enumerate(self.spans):
            name = self.names[name_id]
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        return total, self_time, calls

    def child_time(self, parent_name: str) -> defaultdict[str, float]:
        """Time of the direct children of spans called parent_name, by child name."""
        parent_id = self._name_ids.get(parent_name)
        out: defaultdict[str, float] = defaultdict(float)
        if parent_id is None:
            return out
        for name_id, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == parent_id:
                out[self.names[name_id]] += end - start
        return out

    def write(self, path) -> None:
        """Write the spans as gzip CSV rows name,start_s,end_s,parent_index."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name_id, start, end, parent in self.spans:
                fh.write(f"{self.names[name_id]},{start:.9f},{end:.9f},{parent}\n")


def layer_of(name: str) -> str:
    return LAYER_OF[name.split(".", 1)[0]]
