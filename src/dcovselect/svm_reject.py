"""Binary classification with a reject option.

A linear score ``f(x) = coef . x + intercept`` is reported as ``sign(f(x))``
only when ``|f(x)| > delta``; otherwise the decision is withheld (label 0).
Withholding costs ``d`` in [0, 1/2) against cost 1 for a misclassification,
and the score is fitted by minimizing the l1-penalized empirical risk of the
generalized hinge surrogate

    phi(z) = max(0, 1 - z, 1 - a*z),   a = (1 - d) / d >= 1,

which is a linear program.  It is solved in its dual form: maximize
``(1/n) sum_i min(u_i, 1)`` over subject weights ``0 <= u_i <= a`` subject
to ``|sum_i y_i xs_ij u_i| <= n r`` for every column ``j`` of the design
``xs`` (z-scored unless ``standardize`` is off) and, with an intercept,
``sum_i y_i u_i = 0``.  That is ``m + 1`` rows against the primal's ``2n``.
Stated as minimizing ``-sum_i min(u_i, 1)``, its rows' duals are the
negated coefficients and intercept.  The plug-in reference rule on a known
class-1 probability ``eta`` (reject on ``d <= eta <= 1 - d``) and its risk
are provided for synthetic-data validation.

``fit_path`` solves a penalty grid on one program; ``fit`` is its one-point
grid.  The grid is one model of the ``_Highs`` class of scipy's private
HiGHS bindings (scipy 1.15 or later), warm-started along the penalties,
which change only the feature rows' bounds; the bindings' extension module
is loaded from its file and the CSC arrays are built with numpy, so neither
``scipy.optimize`` nor ``scipy.sparse`` is imported.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError

__all__ = [
    "RejectLossParams",
    "RejectModel",
    "generalized_hinge",
    "l_loss",
    "fit",
    "fit_path",
    "decision_scores",
    "decide",
    "predict",
    "bayes_rule",
    "bayes_risk",
]

COEF_ZERO_TOL = 1e-9

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_extension(name: str):
    """Load scipy's extension module ``name`` from its file, without its parent packages.

    The module is registered under its real name, so a later ``import`` of
    it (or of ``scipy.optimize``, which imports it) returns this object.
    Returns None where the file is missing or does not load.
    """
    import scipy

    stem = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:])
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES if os.path.isfile(stem + suffix)]
    if not paths:
        return None
    try:
        spec = importlib.util.spec_from_file_location(name, paths[0])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        sys.modules.pop(name, None)
        return None
    return module


_HIGHS_LOCK = threading.Lock()


@functools.cache
def _highs_core():
    """scipy's private HiGHS bindings, which every ``fit_path`` solves with.

    ``_Highs`` is not public scipy API; scipy 1.15 is the first release that
    has it, so an older scipy raises ``ImportError`` on the first
    ``fit_path``.  Pool threads may make that first call together; the lock
    lets one load the extension, and the others then find it in
    ``sys.modules``.
    """
    with _HIGHS_LOCK:
        # importing scipy.optimize costs ~0.2 s and ~48 MB of RSS; the extension alone loads in ~3 ms
        core = sys.modules.get(_HIGHS_MODULE) or _load_extension(_HIGHS_MODULE)
        if core is None:
            try:
                from scipy.optimize._highspy import _core as core
            except ImportError:
                pass
    if not hasattr(core, "_Highs"):
        import scipy

        raise ImportError(f"the LP solver needs scipy >= 1.15 (HiGHS's _Highs class); found scipy {scipy.__version__}")
    return core


# the options scipy.optimize's HiGHS methods set; every other option keeps its default
_HIGHS_OPTIONS = (
    ("presolve", "on"),
    ("highs_debug_level", 0),
    ("log_to_console", False),
    ("output_flag", False),
    ("simplex_strategy", 1),  # dual simplex
)


@dataclass(frozen=True)
class RejectLossParams:
    """Rejection cost ``d``, reject half-width ``delta``, and slope ``a``."""

    d: float
    delta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.d < 0.5:
            raise ValueError(f"rejection cost d must lie in (0, 1/2), got {self.d}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")

    @property
    def a(self) -> float:
        return (1.0 - self.d) / self.d


@dataclass
class RejectModel:
    """Fitted reject-option classifier.

    ``coef``/``intercept`` act on the raw feature scale.  ``objective`` is
    the optimal penalized empirical risk, read from the dual's optimum, in
    the space the program was solved in (standardized columns when
    ``standardize`` is set); ``coef_internal``
    and ``intercept_internal`` are the solution in that space, and carry the
    sparsity pattern that the l1 penalty actually produced.
    """

    coef: np.ndarray
    intercept: float
    r: float
    params: RejectLossParams
    objective: float
    standardize: bool
    fit_intercept: bool
    coef_internal: np.ndarray = field(repr=False, default=None)
    intercept_internal: float = field(repr=False, default=0.0)
    center: np.ndarray = field(repr=False, default=None)
    scale: np.ndarray = field(repr=False, default=None)

    @property
    def nonzero_features(self) -> list[int]:
        """Indices of design columns kept by the penalty."""
        return [int(j) for j in np.flatnonzero(np.abs(self.coef_internal) > COEF_ZERO_TOL)]


def generalized_hinge(z, params: RejectLossParams):
    """Convex surrogate loss: 1 - a*z below 0, 1 - z on [0, 1), 0 beyond."""
    z = np.asarray(z, dtype=float)
    out = np.where(z < 0.0, 1.0 - params.a * z, np.where(z < 1.0, 1.0 - z, 0.0))
    return out if out.ndim else float(out)


def l_loss(label, truth, d: float):
    """Decision loss: 1 for a wrong sign, ``d`` for a withheld decision, else 0."""
    label = np.asarray(label)
    truth = np.asarray(truth)
    out = np.where(label == 0, d, np.where(label == truth, 0.0, 1.0))
    return out if out.ndim else float(out)


def _validate_training(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("training data contains non-finite values")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.unique(y).size < 2:
        raise ValueError("training data contains a single class")
    return x, y


@dataclass(frozen=True)
class _Program:
    """The dual linear program of one fit; only the feature rows' bounds depend on ``r``.

    Each subject's weight ``u_i = s_i + t_i`` is split into ``s_i`` in [0, 1]
    (the first ``n`` columns, cost -1) and ``t_i`` in [0, a - 1] (the next
    ``n``, cost 0), so the program minimizes ``-sum_i s_i``, ``n`` times the
    negated objective.  Row ``j`` of the first ``m_feats`` rows is the
    feature's correlation ``sum_i y_i xs_ij u_i``, kept within ``[-n r, n r]``;
    with an intercept, a last row ``sum_i y_i u_i = 0``.  ``g`` is the
    ``rows x n`` block that both halves of the columns share.
    """

    params: RejectLossParams
    fit_intercept: bool
    standardize: bool
    center: np.ndarray
    scale: np.ndarray
    g: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[1]

    @property
    def m_feats(self) -> int:
        return self.center.size

    @property
    def cost(self) -> np.ndarray:
        return np.concatenate([np.full(self.n, -1.0), np.zeros(self.n)])

    @property
    def upper(self) -> np.ndarray:
        """The columns' upper bounds; every lower bound is 0."""
        return np.concatenate([np.ones(self.n), np.full(self.n, self.params.a - 1.0)])

    def csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The constraint matrix ``[g, g]`` as CSC column starts, row indices and values.

        Exact zeros of ``g`` (-0.0 too) are dropped, so HiGHS gets the
        nonzeros ``scipy.sparse`` would hold, in its layout.
        """
        cols, rows = np.nonzero(self.g.T)
        counts = np.tile(np.count_nonzero(self.g, axis=0), 2)
        start = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        return start, np.tile(rows, 2).astype(np.int32), np.tile(self.g[rows, cols], 2)

    def failure(self, status, message, r: float) -> SolverError:
        return SolverError(
            f"linear program failed (status {status}): {message} "
            f"[n={self.n}, features={self.m_feats}, r={r}, d={self.params.d}]"
        )

    def model(self, row_dual: np.ndarray, objective: float, r: float) -> RejectModel:
        """The fit at penalty ``r`` from the optimum and the rows' duals (feature rows, then the intercept row)."""
        # 0.0 - x, not -x: a zero dual gives +0.0, not -0.0
        coef_internal = 0.0 - row_dual[: self.m_feats]
        intercept_internal = 0.0 - float(row_dual[self.m_feats]) if self.fit_intercept else 0.0
        coef = coef_internal / self.scale
        intercept = intercept_internal - float(np.dot(coef_internal, self.center / self.scale))
        return RejectModel(
            coef=coef,
            intercept=intercept,
            r=float(r),
            params=self.params,
            objective=-float(objective) / self.n,
            standardize=self.standardize,
            fit_intercept=self.fit_intercept,
            coef_internal=coef_internal,
            intercept_internal=intercept_internal,
            center=self.center,
            scale=self.scale,
        )


def _program(x, y, params: RejectLossParams, fit_intercept: bool, standardize: bool) -> _Program:
    """Validate the training data and build the program ``fit_path`` solves."""
    x, y = _validate_training(x, y)
    n, m_feats = x.shape
    if standardize:
        center = x.mean(axis=0)
        scale = x.std(axis=0)
        scale = np.where(scale > 0.0, scale, 1.0)
    else:
        center = np.zeros(m_feats)
        scale = np.ones(m_feats)
    xs = (x - center) / scale
    g = (y[:, None] * xs).T
    if fit_intercept:
        g = np.vstack([g, y])
    return _Program(params=params, fit_intercept=fit_intercept, standardize=standardize, center=center, scale=scale, g=g)


def _check_penalty(r: float) -> None:
    if not 0.0 < r < math.inf:
        raise ValueError(f"penalty r must be positive and finite, got {r}")


def fit(
    x,
    y,
    r: float,
    params: RejectLossParams,
    *,
    fit_intercept: bool = True,
    standardize: bool = True,
) -> RejectModel:
    """Minimize ``mean(phi(y_i f(x_i))) + r * ||coef||_1``, solved as the dual linear program.

    The dual has one row per feature and, with an intercept, one equality
    row, over two bounded columns per subject; the coefficients and the
    intercept are the rows' negated duals.  Columns are z-scored first
    (unless ``standardize`` is off) and the solution mapped back, so
    penalties are comparable across feature scales.  Each call solves from
    scratch: it is the one-point grid of ``fit_path``.
    """
    return fit_path(x, y, [r], params, fit_intercept=fit_intercept, standardize=standardize)[0]


def fit_path(
    x,
    y,
    r_grid,
    params: RejectLossParams,
    *,
    fit_intercept: bool = True,
    standardize: bool = True,
) -> list[RejectModel]:
    """``fit`` at every penalty of ``r_grid``, in grid order, on one program.

    The program is the dual of the penalized fit: maximize
    ``(1/n) sum_i min(u_i, 1)`` over subject weights ``0 <= u_i <= a`` with
    ``|sum_i y_i xs_ij u_i| <= n r`` for every feature ``j`` and, with an
    intercept, ``sum_i y_i u_i = 0``.  That is ``m + 1`` two-sided rows (the
    primal has ``2n``), and ``r`` enters only the feature rows' bounds.
    It is solved as minimizing ``-sum_i min(u_i, 1)``, ``n`` times the
    negated objective, since HiGHS's dual feasibility tolerance is absolute:
    at costs of ``1/n`` one fresh solve stopped 9e-8 (relative) short of
    the optimum.  The coefficients are then the feature rows' negated duals,
    the intercept the equality row's negated dual, and ``objective`` the
    negated optimum over ``n``, the primal's optimum.

    The program is one HiGHS model with the options scipy's HiGHS methods
    set; for each later ``r`` the feature rows' bounds change and the dual
    simplex restarts from the previous optimal basis, which stays dual
    feasible.  Objectives agree with a fresh solve and with the primal
    program within 1e-9 relative, but a degenerate program (tied, zero or
    duplicate columns) has several optimal vertices, and a warm start may
    reach another one than a fresh solve: of 2 700 path points on random
    such designs, 23 differed from a fresh fit in a training decision (all
    on tied designs) and 1 in the nonzero set.  Any non-optimal status
    raises ``SolverError``.
    """
    r_grid = list(r_grid)
    for r in r_grid:
        _check_penalty(r)
    lp = _program(x, y, params, fit_intercept, standardize)
    if not r_grid:
        return []
    core = _highs_core()
    highs = core._Highs()
    for option, value in _HIGHS_OPTIONS:
        highs.setOptionValue(option, value)
    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = 2 * lp.n
    model.num_row_ = model.a_matrix_.num_row_ = lp.g.shape[0]
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_, model.a_matrix_.index_, model.a_matrix_.value_ = lp.csc()
    model.col_cost_ = lp.cost
    model.col_lower_, model.col_upper_ = np.zeros(2 * lp.n), lp.upper
    bound, equality = lp.n * r_grid[0], np.zeros(lp.g.shape[0] - lp.m_feats)
    model.row_lower_ = np.concatenate([np.full(lp.m_feats, -bound), equality])
    model.row_upper_ = np.concatenate([np.full(lp.m_feats, bound), equality])
    if highs.passModel(model) == core.HighsStatus.kError:
        status = core.HighsModelStatus.kModelError
        raise lp.failure(int(status), highs.modelStatusToString(status), r_grid[0])

    models = []
    for k, r in enumerate(r_grid):
        if k:
            bound = lp.n * r
            for j in range(lp.m_feats):
                highs.changeRowBounds(j, -bound, bound)
        highs.run()
        status = highs.getModelStatus()
        if status != core.HighsModelStatus.kOptimal:
            raise lp.failure(int(status), highs.modelStatusToString(status), r)
        row_dual = np.array(highs.getSolution().row_dual)
        models.append(lp.model(row_dual, highs.getInfo().objective_function_value, r))
    return models


def decision_scores(model: RejectModel, x) -> np.ndarray:
    """Linear scores ``f(x)`` of the rows of the 2-D ``x``, on the raw feature scale."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    if x.shape[1] != model.coef.shape[0]:
        raise ValueError(
            f"feature count mismatch: model has {model.coef.shape[0]}, input has {x.shape[1]}"
        )
    return x @ model.coef + model.intercept


def decide(scores, delta: float):
    """Map scores to labels: sign when ``|f| > delta``, 0 (withhold) otherwise."""
    scores = np.asarray(scores, dtype=float)
    labels = np.where(scores > delta, 1, np.where(scores < -delta, -1, 0))
    return labels if labels.ndim else int(labels)


def predict(model: RejectModel, x):
    """Three-way labels in {-1, 0, +1} for the rows of ``x``."""
    return decide(decision_scores(model, x), model.params.delta)


def bayes_rule(eta, d: float):
    """Cost-optimal three-way rule for known class-(+1) probability ``eta``."""
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0.0) or np.any(eta > 1.0):
        raise ValueError("eta must lie in [0, 1]")
    out = np.where(eta < d, -1, np.where(eta > 1.0 - d, 1, 0))
    return out if out.ndim else int(out)


def bayes_risk(eta, d: float) -> float:
    """Risk of the optimal rule: mean of ``min(eta, 1 - eta, d)`` over samples."""
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0.0) or np.any(eta > 1.0):
        raise ValueError("eta must lie in [0, 1]")
    return float(np.minimum(np.minimum(eta, 1.0 - eta), d).mean())
