"""Independent reference implementations used only by the test suite.

Everything here is deliberately written as direct, loop-level evaluation of
the defining formulas (plus a first-order method for the penalized fit, and
the primal linear program whose dual the package solves), with no code
shared with the package, so the tests compare two separately coded paths.
"""

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# Brute-force distance covariance: literal double sums, fsum accumulation.
# ---------------------------------------------------------------------------


def brute_distance_matrix(x):
    """Row-pair Euclidean distances via explicit loops."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1:
        x = x.T
    n, k = x.shape
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = math.fsum((x[i, c] - x[j, c]) ** 2 for c in range(k))
            d[i][j] = math.sqrt(s)
    return d


def brute_centered(d):
    """Double centering evaluated term by term from the definition."""
    n = len(d)
    row = [math.fsum(d[i][j] for j in range(n)) / n for i in range(n)]
    col = [math.fsum(d[i][j] for i in range(n)) / n for j in range(n)]
    grand = math.fsum(math.fsum(r) for r in d) / (n * n)
    return [[d[i][j] - row[i] - col[j] + grand for j in range(n)] for i in range(n)]


def brute_dcov2(x, y):
    """(1/n^2) * sum_ij A_ij B_ij with both matrices built from scratch."""
    a = brute_centered(brute_distance_matrix(x))
    b = brute_centered(brute_distance_matrix(y))
    n = len(a)
    return math.fsum(a[i][j] * b[i][j] for i in range(n) for j in range(n)) / (n * n)


def brute_dvar2(x):
    return brute_dcov2(x, x)


def brute_dcor2(x, y):
    v2 = brute_dcov2(x, y)
    vx2 = brute_dvar2(x)
    vy2 = brute_dvar2(y)
    if vx2 * vy2 > 0.0:
        return v2 / math.sqrt(vx2 * vy2)
    return 0.0


# ---------------------------------------------------------------------------
# Projected subgradient oracle for the l1-penalized generalized-hinge fit.
# ---------------------------------------------------------------------------


def subgradient_fit(instances, fit_intercept=True, iters=20000, restarts=2):
    """Projected subgradient descent on the split-variable formulation.

    Each instance ``(X, y, r, a)`` minimizes (1/n) sum phi(y_i (x_i . (p - m)
    + b)) + r * sum(p + m) over p, m >= 0 and free b; the result holds the
    best objective found for each.  Steps are normalized with a
    geometrically decaying length (sweeping several orders of magnitude per
    restart, each restart resuming from the incumbent with a tighter sweep),
    which homes in reliably on the polyhedral minimum of these tiny
    instances; the worst observed gap to the optimum is well below 1e-5.

    All instances descend together, zero-padded to common sizes: padded
    rows are masked out of the hinge and its gradient, padded columns out of
    the step and its norm.  An instance whose step norm vanishes stops for
    the rest of that restart.  A single instance is a batch of one.
    """
    k = len(instances)
    n_max = max(x.shape[0] for x, _, _, _ in instances)
    m_max = max(x.shape[1] for x, _, _, _ in instances)
    X = np.zeros((k, n_max, m_max))
    Y = np.zeros((k, n_max))
    rows = np.zeros((k, n_max))
    cols = np.zeros((k, m_max))
    for i, (x, y, _, _) in enumerate(instances):
        X[i, : x.shape[0], : x.shape[1]] = x
        Y[i, : x.shape[0]] = y
        rows[i, : x.shape[0]] = 1.0
        cols[i, : x.shape[1]] = 1.0
    n = rows.sum(axis=1)
    r = np.array([inst[2] for inst in instances], dtype=float)[:, None]
    a = np.array([inst[3] for inst in instances], dtype=float)[:, None]
    Xt = X.transpose(0, 2, 1)

    def margins(lam, b):
        return Y * ((X @ lam[:, :, None])[:, :, 0] + b[:, None])

    def objective(z, lam):
        hinge = np.where(z < 0.0, 1.0 - a * z, np.where(z < 1.0, 1.0 - z, 0.0)) * rows
        return hinge.sum(axis=1) / n + r[:, 0] * np.abs(lam).sum(axis=1)

    p = np.zeros((k, m_max))
    m = np.zeros((k, m_max))
    b = np.zeros(k)
    best_overall = np.full(k, np.inf)
    start, end = 1.0, 1e-9
    for _ in range(restarts):
        decay = (end / start) ** (1.0 / iters)
        gamma = start
        z = margins(p - m, b)
        best = objective(z, p - m)
        best_p, best_m, best_b = p.copy(), m.copy(), b.copy()
        live = np.ones(k, dtype=bool)
        for _ in range(iters):
            # Y is zero on padded rows, which keeps them out of the gradient
            gy = np.where(z < 0.0, -a, np.where(z < 1.0, -1.0, 0.0)) * Y
            grad_lam = (Xt @ gy[:, :, None])[:, :, 0] / n[:, None]
            gp = (grad_lam + r) * cols
            gm = (r - grad_lam) * cols
            gb = gy.sum(axis=1) / n if fit_intercept else np.zeros(k)
            norm = np.sqrt((gp * gp).sum(axis=1) + (gm * gm).sum(axis=1) + gb * gb)
            live &= norm >= 1e-16
            if not live.any():
                break
            step = gamma / np.where(live, norm, np.inf)  # a stopped instance takes no step
            p = np.maximum(p - step[:, None] * gp, 0.0)
            m = np.maximum(m - step[:, None] * gm, 0.0)
            b = b - step * gb
            lam = p - m
            z = margins(lam, b)
            f = objective(z, lam)
            better = live & (f < best)
            best = np.where(better, f, best)
            best_p[better], best_m[better], best_b[better] = p[better], m[better], b[better]
            gamma *= decay
        p, m, b = best_p.copy(), best_m.copy(), best_b.copy()
        best_overall = np.minimum(best_overall, best)
        start, end = 0.01, 1e-10
    return best_overall


# ---------------------------------------------------------------------------
# Stationarity residual of a fitted reject-option model.
# ---------------------------------------------------------------------------


COEF_ZERO_TOL = 1e-9


def kkt_residual(model, x, y, kink_tol=1e-7):
    """Stationarity residual of a fitted solution.

    Computes the minimum-norm element of the subdifferential of the penalized
    empirical risk at the model's coefficients (in the space the program was
    solved in, from ``model.center``/``model.scale``) and reports its
    infinity norm; at an exact optimum this is zero.  Margins within
    ``kink_tol`` of a hinge kink, and coefficients within ``COEF_ZERO_TOL``
    of zero, contribute interval-valued terms, over which the norm is
    minimized by a box-constrained least squares.  ``bvls`` solves that box
    problem exactly; the default ``trf`` stops early on large degenerate
    boxes and reports a false residual.
    """
    from scipy.optimize import lsq_linear

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xs = (x - model.center) / model.scale
    n, m_feats = xs.shape
    a = (1.0 - model.params.d) / model.params.d
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

    sol = lsq_linear(mat, -const, bounds=(lower, upper), method="bvls", tol=1e-14)
    residual = mat @ sol.x + const
    return float(np.abs(residual).max())


# ---------------------------------------------------------------------------
# The primal linear program of the penalized fit, solved cold by linprog.
# The package solves its dual; this is the program it replaced.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimalProgram:
    """The primal program of one fit; only the penalty columns' cost depends on ``r``.

    Variables are the coefficient split ``coef = p - m`` with ``p, m >= 0``
    (the ``2 * m_feats`` penalty columns), an unpenalized free intercept, and
    one slack per subject bounded below by every linear piece of the hinge:
    ``2n`` rows ``xi_i >= 1 - z_i`` and ``xi_i >= 1 - a z_i``.
    """

    fit_intercept: bool
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
    def shape(self) -> tuple:
        """Rows and columns of ``A_ub``."""
        return self.b_ub.size, self.bounds.shape[0]

    def cost(self, r):
        # variable layout: [p (m), m (m), b?, xi (n)]
        n_b = 1 if self.fit_intercept else 0
        return np.concatenate([np.full(2 * self.m_feats, r), np.zeros(n_b), np.full(self.n, 1.0 / self.n)])


def primal_program(x, y, params, fit_intercept, standardize):
    """The primal's ``A_ub`` built as CSC arrays with numpy, laid out as ``scipy.sparse`` lays them out.

    The dense block's exact zeros (-0.0 too) are dropped; the slack columns
    are two stacked -I blocks, so memory grows as n (2m + 3), not n^2.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m_feats = x.shape
    if standardize:
        center = x.mean(axis=0)
        scale = x.std(axis=0)
        scale = np.where(scale > 0.0, scale, 1.0)
    else:
        center = np.zeros(m_feats)
        scale = np.ones(m_feats)
    yx = y[:, None] * ((x - center) / scale)
    lin = np.hstack([-yx, yx, -y[:, None]] if fit_intercept else [-yx, yx])
    block = np.vstack([lin, params.a * lin]).T  # one row per column of A_ub
    cols, rows = np.nonzero(block)
    slack_rows = np.column_stack([np.arange(n), np.arange(n, 2 * n)]).ravel()
    counts = np.concatenate([np.count_nonzero(block, axis=1), np.full(n, 2)])
    lower = np.concatenate([np.zeros(2 * m_feats), np.full(1 if fit_intercept else 0, -np.inf), np.zeros(n)])
    return PrimalProgram(
        fit_intercept=fit_intercept,
        center=center,
        scale=scale,
        a_data=np.concatenate([block[cols, rows], np.full(2 * n, -1.0)]),
        a_indices=np.concatenate([rows, slack_rows]).astype(np.int32),
        a_indptr=np.concatenate([[0], np.cumsum(counts)]).astype(np.int32),
        b_ub=np.full(2 * n, -1.0),
        bounds=np.column_stack([lower, np.full(lower.size, np.inf)]),
    )


def primal_fit_path(x, y, r_grid, params, *, fit_intercept=True, standardize=True):
    """Each penalty of ``r_grid`` solved cold on the primal by ``linprog``, as ``RejectModel``s."""
    from scipy import sparse
    from scipy.optimize import linprog

    from dcovselect.svm_reject import RejectModel

    lp = primal_program(x, y, params, fit_intercept, standardize)
    a_ub = sparse.csc_matrix((lp.a_data, lp.a_indices, lp.a_indptr), shape=lp.shape)
    m_feats = lp.m_feats
    models = []
    for r in r_grid:
        res = linprog(lp.cost(r), A_ub=a_ub, b_ub=lp.b_ub, bounds=lp.bounds, method="highs")
        assert res.status == 0, res.message
        coef_internal = res.x[:m_feats] - res.x[m_feats : 2 * m_feats]
        intercept_internal = float(res.x[2 * m_feats]) if fit_intercept else 0.0
        models.append(RejectModel(
            coef=coef_internal / lp.scale,
            intercept=intercept_internal - float(np.dot(coef_internal, lp.center / lp.scale)),
            r=float(r),
            params=params,
            objective=float(res.fun),
            standardize=standardize,
            fit_intercept=fit_intercept,
            coef_internal=coef_internal,
            intercept_internal=intercept_internal,
            center=lp.center,
            scale=lp.scale,
        ))
    return models


# ---------------------------------------------------------------------------
# The screening kernels as they were composed before they reused buffers:
# every step makes new arrays.  The lean kernels must match these bit for bit.
# ---------------------------------------------------------------------------


def composed_center(d):
    """``d - row means - column means + grand mean``, each step a new array."""
    d = np.asarray(d, dtype=float)
    return d - d.mean(axis=1)[:, None] - d.mean(axis=0)[None, :] + float(d.mean())


def composed_standardize(x):
    """Column z-scores as ``(x - mean) / std``; constant columns become zeros."""
    x = np.asarray(x, dtype=float)
    std = x.std(axis=0)
    return (x - x.mean(axis=0)) / np.where(std > 0.0, std, 1.0)


def composed_marginal_dcor2(x, b_entries):
    """Marginal squared distance correlations against a centered response matrix.

    The row sweeps for the cross term, and dVar^2 from the sorted gaps with
    each cumulative sum and square in a new array.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    vy2 = float(np.mean(b_entries * b_entries))
    vy2 = vy2 if vy2 > 0.0 else 0.0
    cross = np.zeros(p)
    for i in range(n - 1):
        dist = np.abs(x[i + 1 :] - x[i])
        dist *= b_entries[i, i + 1 :, None]
        cross += dist.sum(axis=0)
    v2 = np.maximum(2.0 * cross / (n * n), 0.0)
    gaps = np.diff(np.sort(x, axis=0), axis=0)
    below = np.arange(1, n, dtype=float)[:, None]
    rows = np.zeros((n, p))
    np.cumsum(below * gaps, axis=0, out=rows[1:])
    rows[:-1] += np.cumsum((below[::-1] * gaps)[::-1], axis=0)[::-1]
    vx2 = 2.0 * x.var(axis=0) - 2.0 * (rows * rows).sum(axis=0) / n**3 + (rows.sum(axis=0) / n**2) ** 2
    vx2 = np.maximum(vx2, 0.0)
    denom2 = vx2 * vy2
    r2 = np.zeros(p)
    pos = denom2 > 0.0
    r2[pos] = np.minimum(v2[pos] / np.sqrt(denom2[pos]), 1.0)
    return r2


def unfused_cross_sums(response, x):
    """``sum_{i<j} |x_i - x_j| B_ij`` of every column, as ``SortedResponse.cross_sums`` swept before column blocks.

    ``response`` is a ``SortedResponse`` and ``x`` holds the subjects in its
    order.  Each of the ``n - 1`` rows makes four full passes over all
    columns at once: subtract, absolute value, multiply by ``u[i+1:] -
    v[i]`` and sum down the rows.
    """
    n, p = x.shape
    cross = np.zeros(p)
    buf = np.empty((n - 1, p))
    for i in range(n - 1):
        dist = buf[: n - 1 - i]
        np.subtract(x[i + 1 :], x[i], out=dist)
        np.abs(dist, out=dist)
        dist *= (response.u[i + 1 :] - response.v[i])[:, None]
        cross += dist.sum(axis=0)
    return cross


def composed_greedy_walk(x, ranking, b_entries, epsilon, m):
    """The greedy walk over ``ranking`` with every candidate sum a new array.

    Each joint value is ``mean(sqrt(sq + d*d) * B)``, clamped at 0.  Returns
    ``(selected, trajectory, trajectory_features, trajectory_accepted)``.
    """

    def sq_diff(col):
        d = col[:, None] - col[None, :]
        return d * d

    def joint(sq):
        v2 = float(np.mean(np.sqrt(sq) * b_entries))
        return v2 if v2 > 0.0 else 0.0

    top = int(ranking[0])
    sq = sq_diff(x[:, top])
    current = joint(sq)
    selected, trajectory, features, accepted = [top], [current], [top], [True]
    remaining = [int(i) for i in ranking[1:]]
    while remaining:
        admitted = None
        for pos, j in enumerate(remaining[:m]):
            cand = sq + sq_diff(x[:, j])
            value = joint(cand)
            ok = value >= current - epsilon
            trajectory.append(value)
            features.append(j)
            accepted.append(ok)
            if ok:
                admitted, sq, current = pos, cand, value
                selected.append(j)
                break
        if admitted is None:
            break
        remaining.pop(admitted)
    return selected, trajectory, features, accepted


# ---------------------------------------------------------------------------
# Voting as it was counted before it was vectorized: one subject, one
# decision and one bin at a time.
# ---------------------------------------------------------------------------


def loop_voting_scores(test_sets, decisions, n_subjects, mode):
    """``(subject, s, w, r, v)`` per subject, counted decision by decision."""
    s, w, r = [0] * n_subjects, [0] * n_subjects, [0] * n_subjects
    for test_idx, rep_decisions in zip(test_sets, decisions):
        counted = [int(i) for i in test_idx] if mode == "testing" else range(n_subjects)
        for i in counted:
            if rep_decisions[i] == 1:
                s[i] += 1
            elif rep_decisions[i] == 0:
                w[i] += 1
            elif rep_decisions[i] == -1:
                r[i] += 1
    out = []
    for i in range(n_subjects):
        if s[i] + w[i] + r[i] == 0:
            v = float("nan")
        elif w[i] > 0:
            v = (float(s[i]) - float(r[i])) / float(w[i])
        elif s[i] == r[i]:
            v = 0.0
        else:
            v = float("inf") if s[i] > r[i] else float("-inf")
        out.append((i, s[i], w[i], r[i], v))
    return out


def loop_voting_bins(scores, truths, bins):
    """One row per ``(lo, hi]`` bin, then the ``outside`` row of scored subjects in no bin."""
    rows = []
    claimed = set()
    for lo, hi in bins:
        members = [i for i, v in enumerate(scores) if not math.isnan(v) and lo < v <= hi]
        claimed.update(members)
        positives = sum(1 for i in members if truths[i] == 1.0)
        rows.append({
            "lo": lo,
            "hi": hi,
            "frequency": len(members),
            "positive_proportion": positives / len(members) if members else float("nan"),
        })
    outside = [i for i, v in enumerate(scores) if not math.isnan(v) and i not in claimed]
    positives = sum(1 for i in outside if truths[i] == 1.0)
    rows.append({
        "lo": float("nan"),
        "hi": float("nan"),
        "frequency": len(outside),
        "positive_proportion": positives / len(outside) if outside else float("nan"),
    })
    return rows
