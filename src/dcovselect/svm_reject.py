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
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError

__all__ = [
    "RejectLossParams",
    "RejectModel",
    "generalized_hinge",
    "l_loss",
    "fit",
    "decision_scores",
    "decide",
    "predict",
    "bayes_rule",
    "bayes_risk",
    "kkt_residual",
]

COEF_ZERO_TOL = 1e-9


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first solve."""
    # scipy.optimize adds ~0.25 s to start-up; commands without an LP never pay it
    from scipy.optimize import linprog as _linprog

    return _linprog(*args, **kwargs)


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
    comparable across feature scales.
    """
    # scipy.sparse adds ~0.12 s to start-up; imported here, where the LP is built
    from scipy import sparse

    x, y = _validate_training(x, y)
    if not r > 0.0:
        raise ValueError(f"penalty r must be positive, got {r}")
    n, m_feats = x.shape

    if standardize:
        center = x.mean(axis=0)
        scale = x.std(axis=0)
        scale = np.where(scale > 0.0, scale, 1.0)
    else:
        center = np.zeros(m_feats)
        scale = np.ones(m_feats)
    xs = (x - center) / scale

    a = params.a
    n_b = 1 if fit_intercept else 0
    # variable layout: [p (m), m (m), b?, xi (n)]
    c = np.concatenate(
        [np.full(2 * m_feats, r), np.zeros(n_b), np.full(n, 1.0 / n)]
    )
    yx = y[:, None] * xs
    # xi_i >= 1 - z_i  and  xi_i >= 1 - a z_i, with z_i = y_i (xs_i . (p-m) + b);
    # the slack columns are two stacked -I blocks, kept sparse so memory
    # grows as n (2m + 3), not n^2.  Converting the dense block drops its
    # exact zeros, so HiGHS gets the same nonzeros as from a dense matrix.
    lin = np.hstack([-yx, yx, -y[:, None]] if fit_intercept else [-yx, yx])
    eye = sparse.identity(n, format="csc")
    a_ub = sparse.hstack(
        [sparse.csc_matrix(np.vstack([lin, a * lin])), -sparse.vstack([eye, eye])],
        format="csc",
    )
    b_ub = np.full(2 * n, -1.0)
    bounds = (
        [(0.0, None)] * (2 * m_feats)
        + ([(None, None)] if fit_intercept else [])
        + [(0.0, None)] * n
    )

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0 or res.x is None:
        raise SolverError(
            f"linear program failed (status {res.status}): {res.message} "
            f"[n={n}, features={m_feats}, r={r}, d={params.d}]"
        )
    sol = res.x
    coef_internal = sol[:m_feats] - sol[m_feats : 2 * m_feats]
    intercept_internal = float(sol[2 * m_feats]) if fit_intercept else 0.0

    coef = coef_internal / scale
    intercept = intercept_internal - float(np.dot(coef_internal, center / scale))

    return RejectModel(
        coef=coef,
        intercept=intercept,
        r=float(r),
        params=params,
        objective=float(res.fun),
        standardize=standardize,
        fit_intercept=fit_intercept,
        coef_internal=coef_internal,
        intercept_internal=intercept_internal,
        center=center,
        scale=scale,
    )


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


def kkt_residual(model: RejectModel, x, y, kink_tol: float = 1e-7) -> float:
    """Stationarity residual of the fitted solution.

    Computes the minimum-norm element of the subdifferential of the penalized
    empirical risk at the returned coefficients (in the space the program was
    solved in) and reports its infinity norm; at an exact optimum this is
    zero.  Margins within ``kink_tol`` of a hinge kink, and coefficients
    within tolerance of zero, contribute interval-valued terms, over which
    the norm is minimized by a box-constrained least squares.
    """
    x, y = _validate_training(x, y)
    xs = (x - model.center) / model.scale
    n, m_feats = xs.shape
    a = model.params.a
    lam = model.coef_internal
    z = y * (xs @ lam + model.intercept_internal)

    # hinge slope intervals per subject: fixed slope inside a piece,
    # interval-valued exactly at the two kinks
    conds = [z < -kink_tol, np.abs(z) <= kink_tol, z < 1.0 - kink_tol, np.abs(z - 1.0) <= kink_tol]
    g_lo = np.select(conds, [-a, -a, -1.0, -1.0], default=0.0)
    g_hi = np.select(conds, [-a, -1.0, -1.0, 0.0], default=0.0)

    # l1 subgradient intervals per coefficient
    s_lo = np.where(lam > COEF_ZERO_TOL, 1.0, -1.0)
    s_hi = np.where(lam < -COEF_ZERO_TOL, -1.0, 1.0)

    # stationarity rows: one per coefficient (+ intercept); unknowns are the
    # interval-valued g_i and s_j, everything else folds into the constant
    yx = (y[:, None] * xs) / n
    rows = m_feats + (1 if model.fit_intercept else 0)
    free_g = np.flatnonzero(g_hi > g_lo)
    free_s = np.flatnonzero(s_hi > s_lo)

    const = np.zeros(rows)
    fixed_g = np.setdiff1d(np.arange(n), free_g)
    if fixed_g.size:
        const[:m_feats] += yx[fixed_g].T @ g_lo[fixed_g]
        if model.fit_intercept:
            const[m_feats] += float((y[fixed_g] / n) @ g_lo[fixed_g])
    fixed_s = np.setdiff1d(np.arange(m_feats), free_s)
    if fixed_s.size:
        const[fixed_s] += model.r * s_lo[fixed_s]

    cols = free_g.size + free_s.size
    if cols == 0:
        return float(np.abs(const).max())
    mat = np.zeros((rows, cols))
    for k, i in enumerate(free_g):
        mat[:m_feats, k] = yx[i]
        if model.fit_intercept:
            mat[m_feats, k] = y[i] / n
    for k, j in enumerate(free_s):
        mat[j, free_g.size + k] = model.r
    lower = np.concatenate([g_lo[free_g], s_lo[free_s]])
    upper = np.concatenate([g_hi[free_g], s_hi[free_s]])

    # scipy.optimize adds ~0.25 s to start-up; only this check needs lsq_linear
    from scipy.optimize import lsq_linear

    sol = lsq_linear(mat, -const, bounds=(lower, upper), tol=1e-14)
    residual = mat @ sol.x + const
    return float(np.abs(residual).max())
