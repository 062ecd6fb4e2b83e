"""The run record: what machine, libraries and settings produced a run."""

from __future__ import annotations

import importlib.util
import os
import platform


def blas_info(numpy) -> dict:
    """BLAS vendor and version numpy was built against."""
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy older than 1.25 has no dict mode
        return {}
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def run_record(fc, args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(numpy),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.endswith("_NUM_THREADS") or k in ("VECLIB_MAXIMUM_THREADS", "FRAGCOV_THREADS", "FRAGCOV_BACKEND")},
        "fragcov_backend": fc.pkg.BACKEND,
        "cython_present": importlib.util.find_spec("Cython") is not None,
    }
