"""fragcov: covariance recovery from functional fragments.

Curves observed only on subintervals carry covariance information inside a
band around the diagonal; under smoothness and finite-rank conditions the
full covariance matrix is the unique low-rank completion of that band. This
package builds the banded empirical ("patched") covariance from fragments,
completes it by masked rank-constrained least squares, selects the rank
from a scree of fits, and ships an exact determinant-propagation completion
for noiseless finite-rank inputs plus a replicated benchmark harness.
"""

from . import complete, core, harness, kernels, patch, simulate
from .core import *  # noqa: F403
from .kernels import *  # noqa: F403
from .simulate import *  # noqa: F403
from .patch import *  # noqa: F403
from .complete import *  # noqa: F403
from .harness import *  # noqa: F403

__version__ = "0.1.0"

# Benchmark run records name the objective implementation; numpy is the only one.
BACKEND = "python"

__all__ = ["BACKEND", "__version__", *core.__all__, *kernels.__all__, *simulate.__all__, *patch.__all__,
           *complete.__all__, *harness.__all__]
