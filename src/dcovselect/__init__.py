"""Distance-covariance feature screening with a reject-option classifier.

The package bundles four layers: exact sample distance covariance /
correlation statistics (``dcov``), marginal ranking and greedy joint-dcov
selection with an automatic stopping rule (``screening``), an l1-penalized
generalized-hinge classifier that may withhold decisions (``svm_reject``),
and resampling harnesses with ensemble voting and permutation nulls
(``cv``).  ``data``/``report``/``cli`` provide ingestion, synthetic
benchmarks, table emission, and the command-line front end.
"""

__version__ = "0.1.0"

from .dcov import dcor2, dcov2, dcov2_joint, dvar2  # noqa: F401
from .errors import DataValidationError, DcovSelectError, SolverError  # noqa: F401
from .screening import (  # noqa: F401
    ScreeningConfig,
    ScreeningResult,
    marginal_rank,
    one_vs_rest_screen,
    screen,
)
from .svm_reject import (  # noqa: F401
    RejectLossParams,
    RejectModel,
    bayes_risk,
    bayes_rule,
    fit,
    generalized_hinge,
    l_loss,
    predict,
)
