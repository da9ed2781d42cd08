"""Independent reference implementations used only by the test suite.

Everything here is deliberately written as direct, loop-level evaluation of
the defining formulas (plus a first-order method for the penalized fit), with
no code shared with the package, so the tests compare two separately coded
paths.
"""

import math

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


def _hinge_value(z, a):
    if z < 0.0:
        return 1.0 - a * z
    if z < 1.0:
        return 1.0 - z
    return 0.0


def subgradient_objective(X, y, lam, b, r, a):
    """Penalized empirical risk at (lam, b)."""
    n = X.shape[0]
    z = y * (X @ lam + b)
    risk = math.fsum(_hinge_value(zi, a) for zi in z) / n
    return risk + r * float(np.abs(lam).sum())


def subgradient_fit(X, y, r, a, fit_intercept=True, iters=20000, restarts=2):
    """Projected subgradient descent on the split-variable formulation.

    Minimizes (1/n) sum phi(y_i (x_i . (p - m) + b)) + r * sum(p + m) over
    p, m >= 0 and free b.  Steps are normalized with a geometrically
    decaying length (sweeping several orders of magnitude per restart, each
    restart resuming from the incumbent with a tighter sweep), which homes in
    reliably on the polyhedral minimum of these tiny instances; the worst
    observed gap to the optimum is well below 1e-5.
    """
    n, M = X.shape
    p = np.zeros(M)
    m = np.zeros(M)
    b = 0.0
    best_overall = None
    start, end = 1.0, 1e-9
    for _ in range(restarts):
        decay = (end / start) ** (1.0 / iters)
        gamma = start
        best = subgradient_objective(X, y, p - m, b, r, a)
        best_point = (p.copy(), m.copy(), b)
        for _ in range(iters):
            lam = p - m
            z = y * (X @ lam + b)
            g = np.where(z < 0.0, -a, np.where(z < 1.0, -1.0, 0.0))
            gy = g * y
            grad_lam = (X.T @ gy) / n
            gp = grad_lam + r
            gm = -grad_lam + r
            gb = float(gy.sum()) / n if fit_intercept else 0.0
            norm = math.sqrt(float(gp @ gp + gm @ gm + gb * gb))
            if norm < 1e-16:
                break
            step = gamma / norm
            p = np.maximum(p - step * gp, 0.0)
            m = np.maximum(m - step * gm, 0.0)
            if fit_intercept:
                b -= step * gb
            f = subgradient_objective(X, y, p - m, b, r, a)
            if f < best:
                best = f
                best_point = (p.copy(), m.copy(), b)
            gamma *= decay
        p, m, b = best_point[0].copy(), best_point[1].copy(), best_point[2]
        best_overall = best if best_overall is None else min(best_overall, best)
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
