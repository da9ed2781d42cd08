"""Binary classification with a reject option.

A linear score ``f(x) = coef . x + intercept`` is reported as ``sign(f(x))``
only when ``|f(x)| > delta``; otherwise the decision is withheld (label 0).
Withholding costs ``d`` in [0, 1/2) against cost 1 for a misclassification,
and the score is fitted by minimizing the l1-penalized empirical risk of the
generalized hinge surrogate

    phi(z) = max(0, 1 - z, 1 - a*z),   a = (1 - d) / d >= 1,

which is a linear program after splitting the coefficients into positive and
negative parts.  The plug-in reference rule on a known class-1 probability
``eta`` (reject on ``d <= eta <= 1 - d``) and its risk are provided for
synthetic-data validation.

``fit`` solves one penalty cold through ``scipy.optimize.linprog``.
``fit_path`` solves a whole penalty grid on one HiGHS model: only the cost
of the coefficient columns depends on the penalty, so each later grid point
restarts the dual simplex from the previous optimal basis.  It uses scipy's
private HiGHS bindings where they exist and falls back to ``fit`` per
penalty where they do not.  The bindings' extension module is loaded from
its file, so ``fit_path`` imports neither ``scipy.optimize`` nor
``scipy.sparse``; the program's CSC arrays are built with numpy, and only
``fit`` wraps them in a ``scipy.sparse`` matrix for ``linprog``.
"""

import functools
import importlib.machinery
import importlib.util
import os
import sys
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


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first solve."""
    # scipy.optimize adds ~0.25 s to start-up; commands without an LP never pay it
    from scipy.optimize import linprog as _linprog

    return _linprog(*args, **kwargs)


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


@functools.cache
def _highs_core():
    """scipy's private HiGHS bindings, or None where they have no ``_Highs``.

    ``_Highs`` is not public scipy API (scipy 1.10 lacks it), so its presence
    is checked once, on the first ``fit_path``.
    """
    # importing scipy.optimize costs ~0.2 s and ~48 MB of RSS; the extension alone loads in ~3 ms
    core = sys.modules.get(_HIGHS_MODULE) or _load_extension(_HIGHS_MODULE)
    if core is None:
        try:
            from scipy.optimize._highspy import _core as core
        except ImportError:
            return None
    return core if hasattr(core, "_Highs") else None


# the options linprog(method="highs") sets; every other option keeps its default
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
    the achieved penalized empirical risk in the space the program was solved
    in (standardized columns when ``standardize`` is set); ``coef_internal``
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
    """The linear program of one fit; only the penalty columns' cost depends on ``r``.

    Variables are the coefficient split ``coef = p - m`` with ``p, m >= 0``
    (the ``2 * m_feats`` penalty columns), an unpenalized free intercept, and
    one slack per subject bounded below by every linear piece of the hinge.
    """

    params: RejectLossParams
    fit_intercept: bool
    standardize: bool
    center: np.ndarray
    scale: np.ndarray
    a_data: np.ndarray  # A_ub in CSC form: values, row indices, column starts
    a_indices: np.ndarray
    a_indptr: np.ndarray
    b_ub: np.ndarray
    bounds: np.ndarray

    @property
    def n(self) -> int:
        return self.b_ub.size // 2

    @property
    def m_feats(self) -> int:
        return self.center.size

    @property
    def shape(self) -> tuple[int, int]:
        """Rows and columns of ``A_ub``."""
        return self.b_ub.size, self.bounds.shape[0]

    def cost(self, r: float) -> np.ndarray:
        # variable layout: [p (m), m (m), b?, xi (n)]
        n_b = 1 if self.fit_intercept else 0
        return np.concatenate([np.full(2 * self.m_feats, r), np.zeros(n_b), np.full(self.n, 1.0 / self.n)])

    def failure(self, status, message, r: float) -> SolverError:
        return SolverError(
            f"linear program failed (status {status}): {message} "
            f"[n={self.n}, features={self.m_feats}, r={r}, d={self.params.d}]"
        )

    def model(self, sol: np.ndarray, objective: float, r: float) -> RejectModel:
        m_feats = self.m_feats
        coef_internal = sol[:m_feats] - sol[m_feats : 2 * m_feats]
        intercept_internal = float(sol[2 * m_feats]) if self.fit_intercept else 0.0
        coef = coef_internal / self.scale
        intercept = intercept_internal - float(np.dot(coef_internal, self.center / self.scale))
        return RejectModel(
            coef=coef,
            intercept=intercept,
            r=float(r),
            params=self.params,
            objective=float(objective),
            standardize=self.standardize,
            fit_intercept=self.fit_intercept,
            coef_internal=coef_internal,
            intercept_internal=intercept_internal,
            center=self.center,
            scale=self.scale,
        )


def _program(x, y, params: RejectLossParams, fit_intercept: bool, standardize: bool) -> _Program:
    """Validate the training data and build the program ``fit`` and ``fit_path`` solve."""
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

    yx = y[:, None] * xs
    # xi_i >= 1 - z_i  and  xi_i >= 1 - a z_i, with z_i = y_i (xs_i . (p-m) + b);
    # the slack columns are two stacked -I blocks, stored as CSC so memory
    # grows as n (2m + 3), not n^2.  The dense block's exact zeros (-0.0
    # too) are dropped, so HiGHS gets the same nonzeros as from a dense
    # matrix, laid out as scipy.sparse would lay them out.
    lin = np.hstack([-yx, yx, -y[:, None]] if fit_intercept else [-yx, yx])
    block = np.vstack([lin, params.a * lin]).T  # one row per column of A_ub
    cols, rows = np.nonzero(block)
    slack_rows = np.column_stack([np.arange(n), np.arange(n, 2 * n)]).ravel()
    counts = np.concatenate([np.count_nonzero(block, axis=1), np.full(n, 2)])
    lower = np.concatenate([np.zeros(2 * m_feats), np.full(1 if fit_intercept else 0, -np.inf), np.zeros(n)])
    return _Program(
        params=params,
        fit_intercept=fit_intercept,
        standardize=standardize,
        center=center,
        scale=scale,
        a_data=np.concatenate([block[cols, rows], np.full(2 * n, -1.0)]),
        a_indices=np.concatenate([rows, slack_rows]).astype(np.int32),
        a_indptr=np.concatenate([[0], np.cumsum(counts)]).astype(np.int32),
        b_ub=np.full(2 * n, -1.0),
        bounds=np.column_stack([lower, np.full(lower.size, np.inf)]),
    )


def _check_penalty(r: float) -> None:
    if not r > 0.0:
        raise ValueError(f"penalty r must be positive, got {r}")


def fit(
    x,
    y,
    r: float,
    params: RejectLossParams,
    *,
    fit_intercept: bool = True,
    standardize: bool = True,
) -> RejectModel:
    """Minimize ``mean(phi(y_i f(x_i))) + r * ||coef||_1`` as a linear program.

    Variables are the coefficient split ``coef = p - m`` with ``p, m >= 0``,
    an unpenalized free intercept, and one slack per subject bounded below by
    every linear piece of the hinge.  Columns are z-scored first (unless
    ``standardize`` is off) and the solution mapped back, so penalties are
    comparable across feature scales.  Each call solves from scratch.
    """
    # importing scipy.sparse costs ~0.07 s and ~21 MB of RSS; only linprog needs it
    from scipy import sparse

    lp = _program(x, y, params, fit_intercept, standardize)
    _check_penalty(r)
    a_ub = sparse.csc_matrix((lp.a_data, lp.a_indices, lp.a_indptr), shape=lp.shape)
    res = linprog(lp.cost(r), A_ub=a_ub, b_ub=lp.b_ub, bounds=lp.bounds, method="highs")
    if res.status != 0 or res.x is None:
        raise lp.failure(res.status, res.message, r)
    return lp.model(res.x, res.fun, r)


def fit_path(
    x,
    y,
    r_grid,
    params: RejectLossParams,
    *,
    fit_intercept: bool = True,
    standardize: bool = True,
) -> list[RejectModel]:
    """``fit`` at every penalty of ``r_grid``, in grid order, on one warm-started model.

    The program is built once and handed to HiGHS with the options
    ``linprog(method="highs")`` uses, so the first grid point is bitwise
    equal to ``fit``.  For each later ``r`` only the cost of the ``2m``
    coefficient columns changes, and the dual simplex restarts from the
    previous optimal basis.  Objectives agree with ``fit`` to rounding
    (within 1e-9 relative).  On a degenerate program a warm start can end on
    another optimal vertex, so coefficients, and rarely decisions, may
    differ from ``fit``'s: of 4 800 fits on random designs with tied values,
    zero columns or duplicate columns, 29 differed in at least one training
    decision (27 of them on tied designs).  Any non-optimal model status
    raises ``SolverError``.  Where scipy has no ``_Highs`` class this is
    ``[fit(x, y, r, params, ...) for r in r_grid]``.
    """
    core = _highs_core()
    if core is None:
        return [
            fit(x, y, r, params, fit_intercept=fit_intercept, standardize=standardize)
            for r in r_grid
        ]
    lp = _program(x, y, params, fit_intercept, standardize)
    r_grid = list(r_grid)
    for r in r_grid:
        _check_penalty(r)
    if not r_grid:
        return []

    highs = core._Highs()
    for option, value in _HIGHS_OPTIONS:
        highs.setOptionValue(option, value)
    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.shape[1]
    model.num_row_ = model.a_matrix_.num_row_ = lp.shape[0]
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_ = lp.a_indptr
    model.a_matrix_.index_ = lp.a_indices
    model.a_matrix_.value_ = lp.a_data
    model.col_cost_ = lp.cost(r_grid[0])
    model.col_lower_ = lp.bounds[:, 0]
    model.col_upper_ = lp.bounds[:, 1]
    model.row_lower_ = np.full(lp.b_ub.size, -np.inf)
    model.row_upper_ = lp.b_ub
    if highs.passModel(model) == core.HighsStatus.kError:
        status = core.HighsModelStatus.kModelError
        raise lp.failure(int(status), highs.modelStatusToString(status), r_grid[0])

    penalty_cols = np.arange(2 * lp.m_feats, dtype=np.int32)
    models = []
    for k, r in enumerate(r_grid):
        if k:
            highs.changeColsCost(penalty_cols.size, penalty_cols, np.full(penalty_cols.size, float(r)))
        highs.run()
        status = highs.getModelStatus()
        if status != core.HighsModelStatus.kOptimal:
            raise lp.failure(int(status), highs.modelStatusToString(status), r)
        sol = np.array(highs.getSolution().col_value)
        models.append(lp.model(sol, highs.getInfo().objective_function_value, r))
    return models


def decision_scores(model: RejectModel, x) -> np.ndarray:
    """Linear scores ``f(x)`` on the raw feature scale."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.coef.shape[0]:
        raise ValueError(
            f"feature count mismatch: model has {model.coef.shape[0]}, input has {x.shape[1]}"
        )
    scores = x @ model.coef + model.intercept
    return scores[0] if single else scores


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
