"""Tools for extreme points of matrix unit balls and the maps that preserve them.

The package answers two computational questions about complex matrices:

* is a given matrix an extreme point of the unit ball of ``M_n`` (operator
  norm), and if not, how does it decompose as a mean of unitaries?
* does a given linear map ``M_n -> M_m`` carry extreme points to extreme
  points, and if so, what are the unitaries ``U, V`` with ``Phi(A) = U A V``
  or ``Phi(A) = U A^t V``?

Everything is certified: verdicts come with residuals measured in operator
norm, and negative verdicts carry explicit witnesses.
"""

from .extremal import (
    ExtremePointReport,
    ExtremeVerdict,
    IsometryClass,
    StarAlgebraBasis,
    classify_isometry,
    contraction_mean_of_unitaries,
    kadison_extreme_test,
    selfadjoint_mean_of_unitaries,
)
from .gen import InstanceKind, InstanceSpec, corpus, derive_seed, generate, trace_pinch_map
from .jordan import MapKind, StormerSplit, stormer_split
from .jordan import jordan_check  # noqa: F401  unlisted; perfbench/reference.py imports it from here
from .linalg import DEFAULT_TOL, RNG_NAME, Tolerance, haar_unitary, operator_norm
from .preserver import (
    PreserverCertificate,
    PreserverVerdict,
    classify_preserver,
    falsify_by_sampling,
    identity_residuals,
    perturb,
)
from .superop import (
    BlockKind,
    SuperOperator,
    compose,
    direct_sum_embedding,
    from_left_right,
    identity_map,
    transpose_map,
    vec,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Tolerance",
    "DEFAULT_TOL",
    "RNG_NAME",
    "operator_norm",
    "haar_unitary",
    "IsometryClass",
    "ExtremeVerdict",
    "StarAlgebraBasis",
    "ExtremePointReport",
    "classify_isometry",
    "kadison_extreme_test",
    "selfadjoint_mean_of_unitaries",
    "contraction_mean_of_unitaries",
    "SuperOperator",
    "BlockKind",
    "vec",
    "identity_map",
    "from_left_right",
    "transpose_map",
    "compose",
    "direct_sum_embedding",
    "MapKind",
    "StormerSplit",
    "stormer_split",
    "PreserverVerdict",
    "PreserverCertificate",
    "classify_preserver",
    "falsify_by_sampling",
    "identity_residuals",
    "perturb",
    "InstanceKind",
    "InstanceSpec",
    "derive_seed",
    "generate",
    "corpus",
    "trace_pinch_map",
]
