"""fragcov: covariance recovery from functional fragments.

Curves observed only on subintervals carry covariance information inside a
band around the diagonal; under smoothness and finite-rank conditions the
full covariance matrix is the unique low-rank completion of that band. This
package builds the banded empirical ("patched") covariance from fragments,
completes it by masked rank-constrained least squares, selects the rank
from a scree of fits, and ships an exact determinant-propagation completion
for noiseless finite-rank inputs plus a replicated benchmark harness.
"""

from .core import (
    BandMask,
    Grid,
    SymMatrix,
    band_mask,
    masked_frobenius_sq,
    relative_error,
)
from .kernels import (
    MaternKernel,
    MercerKernel,
    SumKernel,
    counterexample_bump_pair,
    esseen_pair,
    evaluate_on_grid,
    kernel_from_id,
    scenario_kernel,
)
from .simulate import (
    FragmentLaw,
    FragmentSample,
    add_noise,
    fragment,
    fragment_irregular,
    sample_gp,
    write_fragments,
)
from .patch import PatchedCovariance, effective_mask, patched_binned, patched_regular
from .complete import (
    CompletionError,
    CovarianceEstimate,
    LowRankFactor,
    RankSweepResult,
    SolveConfig,
    StepKernel,
    estimate_covariance,
    exact_band_completion,
    gradient,
    objective,
    rank_sweep,
    select_rank,
    solve_fixed_rank,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    ingest_fragments,
    run_cell,
    run_table,
    table_cells,
)

__version__ = "0.1.0"

# Benchmark run records name the objective implementation; numpy is the only one.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "BandMask",
    "Grid",
    "SymMatrix",
    "band_mask",
    "masked_frobenius_sq",
    "relative_error",
    "MaternKernel",
    "MercerKernel",
    "SumKernel",
    "counterexample_bump_pair",
    "esseen_pair",
    "evaluate_on_grid",
    "kernel_from_id",
    "scenario_kernel",
    "FragmentLaw",
    "FragmentSample",
    "add_noise",
    "fragment",
    "fragment_irregular",
    "sample_gp",
    "write_fragments",
    "PatchedCovariance",
    "effective_mask",
    "patched_binned",
    "patched_regular",
    "CompletionError",
    "CovarianceEstimate",
    "LowRankFactor",
    "RankSweepResult",
    "SolveConfig",
    "StepKernel",
    "estimate_covariance",
    "exact_band_completion",
    "gradient",
    "objective",
    "rank_sweep",
    "select_rank",
    "solve_fixed_rank",
    "ExperimentConfig",
    "ExperimentResult",
    "ingest_fragments",
    "run_cell",
    "run_table",
    "table_cells",
    "__version__",
]
