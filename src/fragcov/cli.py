"""Command-line interface: simulate, patch, complete, run."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness
from .complete import CompletionError, CovarianceEstimate, SolveConfig, estimate_covariance, parse_rank_policy, rank_sweep
from .core import SymMatrix, _json_field, _json_object
from .harness import ExperimentConfig, _draw_sample, ingest_fragments
from .kernels import kernel_from_id
from .patch import PatchedCovariance, effective_mask, patched_binned
from .simulate import FragmentLaw, write_fragments
from .simulate import fragment_irregular  # noqa: F401 - not called here; perfbench/spans.py patches it by name


def _write_matrix(path, matrix: np.ndarray) -> None:
    lines = [",".join(repr(float(v)) for v in row) for row in np.asarray(matrix)]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_matrix(path, counts: bool = False) -> np.ndarray:
    """The CSV's numeric rows, a square symmetric matrix (by SymMatrix's rule)
    of finite entries; with counts, as integers, each entry a whole number in
    [0, 2^53] (beyond that a float no longer holds every integer)."""
    rows, linenos = [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric entry in {line!r}") from exc
        if len(rows[-1]) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: {len(rows[-1])} entries, expected {len(rows[0])}")
        if not counts and not np.isfinite(rows[-1]).all():  # a count fails the whole-number check below
            raise ValueError(f"{path}:{lineno}: non-finite entry in {line!r}")
        linenos.append(lineno)
    matrix = np.array(rows)
    if counts:
        bad = ~((matrix >= 0) & (matrix <= 2.0**53) & (matrix == np.floor(matrix)))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"{path}:{linenos[i]}: count {float(matrix[i, j])!r} is not a whole number in [0, 2^53]")
        matrix = matrix.astype(np.int64)
    try:
        SymMatrix(matrix)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return matrix


def _scree_csv(sweep) -> str:
    lines = ["rank,fit,normalized_fit"]
    for i in range(sweep.max_rank):
        lines.append(f"{i + 1},{float(sweep.fits[i])!r},{float(sweep.normalized_fits[i])!r}")
    return "\n".join(lines) + "\n"


def _cell_indices(text: str) -> list[int]:
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated cell indices, got {text!r}") from None


def _lengths(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a fragment length or a min,max pair, got {text!r}") from None


def _cmd_simulate(args) -> int:
    if len(args.delta) > 2:
        raise ValueError(f"--delta takes one length or a min,max pair, got {args.delta}")
    for flag, value in (("--n", args.n), ("--k", args.k)):
        if value < 2:
            raise ValueError(f"{flag} must be at least 2, got {value}")
    law = FragmentLaw(args.delta[0], args.delta[-1])
    sample = _draw_sample(kernel_from_id(args.kernel), args.n, law, args.grid_type, args.k, args.noise_sd, args.seed)
    write_fragments(sample, args.out)
    print(f"wrote {sample.n} curves to {args.out}")
    return 0


def _cmd_patch(args) -> int:
    if args.k < 2:
        raise ValueError(f"--k must be at least 2, got {args.k}")
    sample = ingest_fragments(args.input)
    patched = patched_binned(sample, args.k)
    _write_matrix(args.out, patched.values)
    _write_matrix(args.counts_out, patched.counts)
    meta = {"delta_effective": patched.delta_effective, "noise_flag": patched.noise_flag}
    Path(args.out).with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")
    print(f"patched {patched.K}x{patched.K} matrix -> {args.out}")
    return 0


def _load_patched(args) -> PatchedCovariance:
    values = _read_matrix(args.input)
    counts = _read_matrix(args.counts, counts=True) if args.counts else None
    if counts is not None and counts.shape != values.shape:
        raise ValueError(f"{args.counts}: counts shape {counts.shape} must match values {values.shape} in {args.input}")
    meta_path = Path(args.input).with_suffix(".json")
    meta = _json_object(meta_path.read_text(), meta_path) if meta_path.exists() else {}
    delta_effective = args.delta_prime
    if delta_effective is None:
        delta_effective = _json_field(meta, "delta_effective", "float | None", meta_path, None)
        if delta_effective is not None and not 0 < delta_effective < 1:
            raise ValueError(f"{meta_path}: key 'delta_effective' must lie in (0, 1), got {delta_effective!r}")
    return PatchedCovariance(
        matrix=SymMatrix(values, counts),
        delta_effective=delta_effective,
        noise_flag=_json_field(meta, "noise_flag", "bool", meta_path, False),
    )


def _cmd_complete(args) -> int:
    if args.delta_prime is not None and not 0 < args.delta_prime < 1:
        raise ValueError(f"--delta-prime must lie in (0, 1), got {args.delta_prime}")
    # --rank is a rank policy, or 'auto' for the elbow rule, or a bare q for fixed:q
    rank_policy = "elbow" if args.rank == "auto" else args.rank
    if rank_policy.isdigit():
        rank_policy = f"fixed:{rank_policy}"
    cfg = SolveConfig(max_rank_sweep=args.max_rank, rank_policy=rank_policy, seed=args.seed)
    patched = _load_patched(args)
    mask = effective_mask(patched)
    # the scree covers every rank to --max-rank; under elbow or penalty the
    # estimate's lazy sweep is a prefix of it, so select from the scree's sweep
    scree = rank_sweep(patched, mask, cfg) if args.scree_out else None
    if scree is not None and parse_rank_policy(rank_policy)[0] != "fixed":
        estimate = CovarianceEstimate.from_sweep(scree, rank_policy)
    else:
        estimate = estimate_covariance(patched, cfg, mask=mask)
    _write_matrix(args.out, estimate.matrix.values)
    if scree is not None:
        Path(args.scree_out).write_text(_scree_csv(scree))
    print(f"completed at rank {estimate.rank} (fit {estimate.fit:.3e}) -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    given = {k: v for k, v in (("seed", args.seed), ("replications", args.reps)) if v is not None}
    if args.config is not None:
        cfg = ExperimentConfig.from_json(Path(args.config).read_text(), source=args.config)
        results = [harness.run_cell(replace(cfg, **given))]
    else:
        results = harness.run_table(args.table, cells=args.cells, **given)
    print(harness.format_table(results), end="")
    if args.out:
        Path(args.out).write_text(harness.results_to_csv(results))
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fragcov", description="Covariance recovery from functional fragments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a fragment sample and write it as CSV")
    p.add_argument("--kernel", required=True, help="kernel id, e.g. scenarioA:2 or matern:1.5,0.5,1.0")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--k", type=int, default=50, help="grid resolution (base resolution for type2)")
    p.add_argument("--delta", type=_lengths, default=[0.5], help="fragment length, or a min,max pair")
    p.add_argument("--grid-type", choices=harness.GRID_TYPES, default="common")
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("patch", help="build the binned patched covariance from a fragment CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--out", required=True)
    p.add_argument("--counts-out", required=True)
    p.set_defaults(func=_cmd_patch)

    p = sub.add_parser("complete", help="complete a patched covariance matrix")
    p.add_argument("--input", required=True, help="patched matrix CSV")
    p.add_argument("--counts", default=None, help="counts CSV")
    p.add_argument("--delta-prime", type=float, default=None)
    p.add_argument("--rank", default="auto",
                   help="rank rule: q or fixed:q, elbow[:eps], penalty:tau; 'auto' (default) is elbow")
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--scree-out", default=None, help="write the rank-sweep fits up to --max-rank as CSV")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("run", help="run a benchmark table or a JSON experiment config")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--table", choices=harness.TABLE_IDS)
    source.add_argument("--config", help="JSON file mirroring ExperimentConfig")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--cells", type=_cell_indices, default=None, help="comma-separated cell indices to run")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CompletionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
