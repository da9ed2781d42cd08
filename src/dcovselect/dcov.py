"""Sample distance covariance, variance and correlation.

All statistics are the biased sample versions built from pairwise Euclidean
distance matrices: with ``a_ij = |x_i - x_j|`` and the double-centered matrix

    A_ij = a_ij - rowmean_i - colmean_j + grandmean,

the squared sample distance covariance of two blocks observed on the same
``n`` subjects is ``(1/n^2) * sum_ij A_ij * B_ij``.  A "block" is an ``n x k``
matrix whose ``k >= 1`` columns are treated as one vector-valued variable, so
joint statistics over several variables are just statistics of the
column-concatenated block.

Screening a large feature panel against one response does not build a
matrix per feature: ``marginal_dcor2`` centers the response once and obtains
every feature's statistics from sorted columns and row sweeps (see its
docstring).  The per-matrix functions (``centered_distances``, which
double-centers the distance matrix in place, and the statistics built on
it) are the reference that path is tested against.  Distances come from
``pairwise_distances``, a numpy kernel that sums squared coordinate
differences in column order, as ``scipy.spatial.distance.cdist`` does, so
this module needs no scipy.
All functions are pure, apart from the constant-response warning; results
depend only on the inputs.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError

__all__ = [
    "CenteredDistanceMatrix",
    "DCovStats",
    "as_block",
    "pairwise_distances",
    "centered_distances",
    "dcov2",
    "dvar2",
    "dcor2",
    "dcov2_joint",
    "dcov2_centered",
    "marginal_dcor2",
]


@dataclass(frozen=True)
class CenteredDistanceMatrix:
    """Double-centered distance matrix.

    ``entries`` is symmetric and every row and column sums to zero (up to
    roundoff).
    """

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DCovStats:
    """Squared distance covariance, the two variances, and correlation.

    ``r2`` is ``v2 / sqrt(vx2 * vy2)`` clipped to [0, 1], and defined as 0
    whenever either variance vanishes (constant block).
    """

    v2: float
    vx2: float
    vy2: float
    r2: float


def as_block(values) -> np.ndarray:
    """Validate and return a variable block as an ``n x k`` float array.

    1-D input is treated as a single column.  Rejects fewer than two rows
    (centering is undefined) and any non-finite entry.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DataValidationError(f"variable block must be 1-D or 2-D, got ndim={x.ndim}")
    if x.shape[0] < 2:
        raise DataValidationError(f"variable block needs at least 2 rows, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise DataValidationError("variable block contains non-finite values")
    return x


def pairwise_distances(block) -> np.ndarray:
    """Euclidean distance matrix of the rows of ``block``.

    Symmetric with zero diagonal; entry (i, j) is ``|row_i - row_j|``.
    Squared differences are added one coordinate at a time, in column order,
    and the root taken last, so each entry is computed exactly as
    ``scipy.spatial.distance.cdist`` computes it, without importing scipy.
    """
    x = as_block(block)
    sq = np.zeros((x.shape[0], x.shape[0]))
    for k in range(x.shape[1]):
        diff = x[:, k, None] - x[None, :, k]
        diff *= diff
        sq += diff
    return np.sqrt(sq, out=sq)


def centered_distances(block) -> CenteredDistanceMatrix:
    """Pairwise distances of ``block``, double-centered in place.

    The distance matrix gets ``d - row means - column means + grand mean``,
    evaluated left to right, so its entries are bitwise those of the same
    expression in new arrays.  It is square, symmetric and zero on the
    diagonal by construction; only finiteness is checked (a finite block
    can overflow).
    """
    d = pairwise_distances(block)
    if not np.all(np.isfinite(d)):
        raise DataValidationError("distance matrix contains non-finite values")
    row_means = d.mean(axis=1)
    col_means = d.mean(axis=0)
    grand_mean = float(d.mean())
    d -= row_means[:, None]
    d -= col_means[None, :]
    d += grand_mean
    return CenteredDistanceMatrix(entries=d)


def dcov2_centered(a: CenteredDistanceMatrix, b: CenteredDistanceMatrix) -> float:
    """Squared distance covariance from two precomputed centered matrices."""
    if a.n != b.n:
        raise ValueError(f"sample counts differ: {a.n} vs {b.n}")
    v2 = float(np.mean(a.entries * b.entries))
    # The biased estimator is nonnegative in exact arithmetic; clamp roundoff.
    return v2 if v2 > 0.0 else 0.0


def dcov2(x, y) -> float:
    """Squared sample distance covariance between two blocks.

    Symmetric in its arguments and nonnegative; zero when either block is
    constant.
    """
    return dcor2(x, y).v2


def dvar2(x) -> float:
    """Squared sample distance variance, ``dcov2(x, x)``."""
    a = centered_distances(x)
    return dcov2_centered(a, a)


def dcor2(x, y) -> DCovStats:
    """Squared sample distance correlation of two blocks, with components."""
    a = centered_distances(x)
    b = centered_distances(y)
    v2 = dcov2_centered(a, b)
    vx2 = dcov2_centered(a, a)
    vy2 = dcov2_centered(b, b)
    denom2 = vx2 * vy2
    r2 = min(v2 / np.sqrt(denom2), 1.0) if denom2 > 0.0 else 0.0
    return DCovStats(v2=v2, vx2=vx2, vy2=vy2, r2=float(r2))


def dcov2_joint(selected, y) -> float:
    """Squared distance covariance of several blocks, jointly, against ``y``.

    The blocks are column-concatenated into a single vector-valued variable;
    equivalent to padding each block with zero columns to a common width and
    summing (a constant or zero column contributes nothing to any pairwise
    distance).
    """
    blocks = [as_block(b) for b in selected]
    if not blocks:
        raise ValueError("joint distance covariance needs at least one block")
    n = blocks[0].shape[0]
    for b in blocks[1:]:
        if b.shape[0] != n:
            raise ValueError(f"sample counts differ: {n} vs {b.shape[0]}")
    joint = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
    return dcov2(joint, y)


def marginal_dcor2(x, response) -> np.ndarray:
    """Squared distance correlation of each column of ``x`` with ``response``.

    ``x`` is an ``n x p`` matrix whose columns are separate univariate
    variables; ``response`` is an ``n x k`` block, or its
    ``CenteredDistanceMatrix`` ``B`` when the caller has already built it.
    Entry ``j`` of the result is ``dcor2(x[:, j], response).r2``, obtained
    without forming any per-column ``n x n`` matrix:

    * ``B`` has zero row and column sums, so ``sum_ij A_ij B_ij`` equals
      ``sum_ij a_ij B_ij = 2 sum_{i<j} |x_i - x_j| B_ij``, accumulated for
      all columns in ``n - 1`` sweeps over the rows;
    * ``n^2 dVar^2(x) = sum_ij a_ij^2 - (2/n) sum_i a_i.^2 + a..^2 / n^2``,
      with ``sum_ij a_ij^2 = 2n sum_i (x_i - mean)^2`` and the row sums
      ``a_i.`` read off the gaps of the sorted column.

    Cost is O(n^2 p) flops in vectorised sweeps and O(np) memory.  Every
    column goes through the same operations, so identical columns get
    identical values.  A constant response warns and gives all zeros.
    """
    b = response if isinstance(response, CenteredDistanceMatrix) else centered_distances(response)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    n, p = x.shape
    if n != b.n:
        raise ValueError(f"sample counts differ: {n} vs {b.n}")
    if not np.all(np.isfinite(x)):
        raise DataValidationError("feature matrix contains non-finite values")
    vy2 = dcov2_centered(b, b)
    if vy2 == 0.0:
        warnings.warn("response is constant: all marginal distance correlations are zero", stacklevel=2)
        return np.zeros(p)

    # Cross term, summed over the upper triangle (reductions along axis 0
    # treat every column alike, unlike a BLAS product).  Every sweep reuses
    # the rows of one buffer.
    cross = np.zeros(p)
    buf = np.empty((n - 1, p))
    for i in range(n - 1):
        dist = buf[: n - 1 - i]
        np.subtract(x[i + 1 :], x[i], out=dist)
        np.abs(dist, out=dist)
        dist *= b.entries[i, i + 1 :, None]
        cross += dist.sum(axis=0)
    del buf, dist  # not held through the dVar^2 block
    v2 = np.maximum(2.0 * cross / (n * n), 0.0)

    vx2 = _column_dvar2(x)
    denom2 = vx2 * vy2
    r2 = np.zeros(p)
    pos = denom2 > 0.0
    r2[pos] = np.minimum(v2[pos] / np.sqrt(denom2[pos]), 1.0)
    return r2


def _column_dvar2(x: np.ndarray) -> np.ndarray:
    """Squared distance variance of every column of ``x``, from sorted gaps.

    Row sums of |x_i - x_l| in sorted order: gap m (between sorted entries
    m and m+1) is crossed by the m+1 entries below it and the n-1-m above.
    Both cumulative sums run in place, one in ``rows`` and one in the gap
    array, so the block holds two n x p arrays at a time.
    """
    n, p = x.shape
    gaps = np.diff(np.sort(x, axis=0), axis=0)
    below = np.arange(1, n, dtype=float)[:, None]
    rows = np.zeros((n, p))
    np.multiply(below, gaps, out=rows[1:])
    np.cumsum(rows[1:], axis=0, out=rows[1:])
    # the sums from the top: cumulate the reversed products in the reversed gaps
    np.multiply(below[::-1], gaps, out=gaps)
    np.cumsum(gaps[::-1], axis=0, out=gaps[::-1])
    rows[:-1] += gaps
    del gaps
    row_total = rows.sum(axis=0)
    rows *= rows
    vx2 = 2.0 * x.var(axis=0) - 2.0 * rows.sum(axis=0) / n**3 + (row_total / n**2) ** 2
    return np.maximum(vx2, 0.0)
