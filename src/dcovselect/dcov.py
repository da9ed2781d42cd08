"""Sample distance covariance, variance and correlation.

All statistics are the biased sample versions built from pairwise Euclidean
distance matrices: with ``a_ij = |x_i - x_j|`` and the double-centered matrix

    A_ij = a_ij - rowmean_i - colmean_j + grandmean,

the squared sample distance covariance of two blocks observed on the same
``n`` subjects is ``(1/n^2) * sum_ij A_ij * B_ij``.  A "block" is an ``n x k``
matrix whose ``k >= 1`` columns are treated as one vector-valued variable, so
joint statistics over several variables are just statistics of the
column-concatenated block.

``centered_distances``, which double-centers the distance matrix in place,
and the ``dcor2`` family built on it are the reference.  Screening builds
no ``n x n`` array: its response is one column, kept in one of two forms,
and both put the subjects in an ``order`` of their own in which every
screen works from start to finish.

* A column with exactly two values, however coded, has a centered matrix
  that is one constant per class-pair block.  ``class_blocks`` keeps the
  stable class order (class 0 first), the size ``n0`` of class 0, those
  2 x 2 constants and dVar^2, from the class counts (``ClassBlocks``).
* Any other column is its ``sorted_response`` (``SortedResponse``).  With
  the subjects in (stable) y order, the centered entry on and above the
  diagonal is ``B_ij = u_j - v_i``, where ``u = y - m + g/2``, ``v = y + m
  - g/2``, ``m`` holds the row means of ``|y_i - y_j|`` and ``g`` is their
  mean (a shift of y cancels, so y is taken less its smallest value); ``m``
  and dVar^2 come from the sorted column's gaps.

``marginal_dcor2`` copies the features into the response's order once and
scores every one against either form without a per-feature matrix: by
class blocks from the sorted class slices, O(n log n) per feature, or by
``n - 1`` row sweeps over each contiguous block of columns, O(n^2) per
feature: a block is as wide as keeps its ``n - 1`` rows of distances
within ``SWEEP_BYTES``, and one ``einsum`` weighs row ``i`` by ``u[i+1:] -
v[i]`` and sums it down the rows, in the same order for every column.
``JointDistances`` serves the greedy walk on columns in the response's
order: it keeps the selected block's summed squared distances
as the strict upper triangle plus the diagonal squares, in row blocks of
``ROW_BLOCK`` rows (block ``[i, i + k)`` holds columns ``i .. n - 1``), so
the walk holds about ``n^2 / 2`` floats, and it has one weighting rule:
each form multiplies its own ``B`` into a row block of distances.
Distances come from ``pairwise_distances``, a numpy kernel that sums
squared coordinate differences in column order, as
``scipy.spatial.distance.cdist`` does, so this module needs no scipy.  All
functions are pure, apart from the constant-response warning; results
depend only on the inputs.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError

__all__ = [
    "ROW_BLOCK",
    "SWEEP_BYTES",
    "ClassBlocks",
    "SortedResponse",
    "DCovStats",
    "as_block",
    "pairwise_distances",
    "centered_distances",
    "dcov2",
    "dvar2",
    "dcor2",
    "dcov2_joint",
    "class_blocks",
    "sorted_response",
    "column_terms",
    "marginal_dcor2",
    "JointDistances",
]

# rows per block of ``JointDistances`` and ``pairwise_distances``; a block's scratch array holds ROW_BLOCK * n floats
ROW_BLOCK = 64
# bytes of the row-sweep scratch array of ``SortedResponse.cross_sums``, which sets its column block width from n
SWEEP_BYTES = 1 << 20
# the strict lower triangle of a row block's diagonal square, sliced by ``SortedResponse.weigh``
_BELOW_DIAGONAL = np.tri(ROW_BLOCK, k=-1, dtype=bool)


@dataclass(frozen=True)
class ClassBlocks:
    """The centered distance matrix of a two-valued column, without the matrix.

    ``order`` puts the subjects of class 0 (the smaller value) first and
    those of class 1 after them, each in their original order, and ``n0``
    is the size of class 0.  ``beta[a, b]`` is the matrix's entry on every
    pair of subjects of classes ``(a, b)``: bitwise the entries
    ``centered_distances`` computes for the -1/+1 and 0/1 codings, and
    equal to rounding for others.  ``vy2`` is the column's dVar^2.
    """

    order: np.ndarray
    n0: int
    beta: np.ndarray
    vy2: float

    @property
    def n(self) -> int:
        return self.order.size

    def cross_sums(self, x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        """``sum_{i<j} |x_i - x_j| B_ij`` of every column of ``x``, overwriting ``x``.

        ``x`` holds the subjects in ``order`` and ``pairs`` each column's
        pair sum over all of them; the pair sum within each class comes
        from that class's slice of ``x``, sorted in place (the class-block
        kernel of ``marginal_dcor2``).
        """
        within = []
        for rows in (x[: self.n0], x[self.n0 :]):
            rows.sort(axis=0)
            within.append(_sorted_pair_sums(rows))
        beta = self.beta
        return beta[0, 0] * within[0] + beta[1, 1] * within[1] + beta[0, 1] * (pairs - within[0] - within[1])

    def weigh(self, dist: np.ndarray, i: int, scratch: np.ndarray) -> None:
        """Multiply ``B``'s rows ``i .. i + k - 1`` and columns ``i .. n - 1`` into the ``k``-row ``dist``.

        In ``order`` that part of ``B`` is one constant on each of at most
        four rectangles, scaled in place; ``scratch`` is not needed.
        """
        c = max(self.n0 - i, 0)  # the columns of class 0
        r = min(c, dist.shape[0])  # and the rows
        dist[:r, :c] *= self.beta[0, 0]
        dist[:r, c:] *= self.beta[0, 1]
        dist[r:, :c] *= self.beta[1, 0]
        dist[r:, c:] *= self.beta[1, 1]


@dataclass(frozen=True)
class SortedResponse:
    """The centered distance matrix of a one-column response, without the matrix.

    ``order`` sorts the subjects by the response (stable), and ``u`` and
    ``v`` are indexed in that order: the matrix's entry on subjects
    ``order[i]`` and ``order[j]`` with ``i <= j`` is ``u[j] - v[i]``.
    ``vy2`` is the response's dVar^2, exactly 0 when it is constant.
    """

    order: np.ndarray
    u: np.ndarray
    v: np.ndarray
    vy2: float

    @property
    def n(self) -> int:
        return self.order.size

    def cross_sums(self, x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        """``sum_{i<j} |x_i - x_j| B_ij`` of every column of ``x``, in ``n - 1`` row sweeps per column block.

        ``x`` holds the subjects in ``order``, so row ``i``'s entries of
        ``B`` right of the diagonal are ``u[i+1:] - v[i]``; ``pairs`` is not
        needed.  The columns are swept in contiguous blocks of near-equal
        width (``_column_blocks``), so that a block's distances, at most
        ``SWEEP_BYTES``, stay in cache from one row to the next.  Each row
        takes its distances in one scratch array, and one ``einsum``, numpy's
        own sum-of-products loop rather than a BLAS product, weighs them and
        adds them down the rows in row order, for every column alike.  The
        scratch array is at least two columns wide, so a block of one column
        is strided and summed in the same order.
        """
        n = x.shape[0]
        blocks = _column_blocks(n, x.shape[1])
        cross = np.zeros(x.shape[1])
        buf = np.empty((n - 1, max(max(hi - lo for lo, hi in blocks), 2)))
        weights = np.empty(n - 1)
        for lo, hi in blocks:
            cols = np.ascontiguousarray(x[:, lo:hi])
            acc = cross[lo:hi]
            for i in range(n - 1):
                dist = buf[: n - 1 - i, : hi - lo]
                np.subtract(cols[i + 1 :], cols[i], out=dist)
                np.abs(dist, out=dist)
                acc += np.einsum("ij,i->j", dist, np.subtract(self.u[i + 1 :], self.v[i], out=weights[: n - 1 - i]))
        return cross

    def weigh(self, dist: np.ndarray, i: int, scratch: np.ndarray) -> None:
        """Multiply ``B``'s rows ``i .. i + k - 1`` and columns ``i .. n - 1`` into the ``k``-row ``dist``.

        That part of ``B`` is built in ``scratch`` as ``u_c - v_r`` on and
        above the diagonal, and mirrored below it in the diagonal square.
        """
        k = dist.shape[0]
        w = scratch[: dist.size].reshape(dist.shape)
        np.subtract(self.u[None, i:], self.v[i : i + k, None], out=w)
        np.copyto(w[:, :k], w[:, :k].T, where=_BELOW_DIAGONAL[:k, :k])
        dist *= w


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
    The first coordinate goes straight into the result and each later one
    through a scratch array of ``ROW_BLOCK`` rows: one ``n x n`` array.
    """
    x = as_block(block)
    n = x.shape[0]
    sq = np.subtract(x[:, 0, None], x[None, :, 0])
    sq *= sq
    buf = np.empty(min(ROW_BLOCK, n) * n)
    for i in range(0, n, ROW_BLOCK):
        rows = sq[i : i + ROW_BLOCK]
        diff = buf[: rows.size].reshape(rows.shape)
        for k in range(1, x.shape[1]):
            np.subtract(x[i : i + ROW_BLOCK, k, None], x[None, :, k], out=diff)
            diff *= diff
            rows += diff
    return np.sqrt(sq, out=sq)


def centered_distances(block) -> np.ndarray:
    """Pairwise distances of ``block``, double-centered in place.

    The distance matrix gets ``d - row means - column means + grand mean``,
    evaluated left to right, so its entries are bitwise those of the same
    expression in new arrays.  It is square, symmetric and zero on the
    diagonal by construction; only finiteness is checked (a finite block
    can overflow).  Only the ``dcor2`` family builds it; screening keeps a
    response as its ``class_blocks`` or ``sorted_response``.
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
    return d


def class_blocks(response) -> ClassBlocks | None:
    """The class form of a response that is one column with exactly two values.

    Returns None for any other response.  Whatever the two values, a row of
    class ``c`` sums the gap once per member of the other class, column
    means equal row means, and block ``(a, b)`` holds ``((distance -
    mean_a) - mean_b) + grand``.  When every distance, row sum and the
    total are exact (a whole-number gap up to 2^26 with ``gap n^2 <=
    2^53``), the generic path's means round exactly as here.  dVar^2 is
    ``sum_ab n_a n_b beta_ab^2 / n^2`` over the class counts ``n_a``.  A
    constant or dVar^2 that overflows raises, as in ``centered_distances``.
    """
    x = as_block(response)
    values = np.unique(x[:, 0]) if x.shape[1] == 1 else ()
    if len(values) != 2:
        return None
    gap = float(values[1] - values[0])
    classes = x[:, 0] == values[1]
    n = classes.size
    n1 = int(classes.sum())
    n0 = n - n1
    means = (n1 * gap / n, n0 * gap / n)
    grand = 2 * n0 * n1 * gap / (n * n)
    beta = np.array([[((gap * (a != b) - means[a]) - means[b]) + grand for b in (0, 1)] for a in (0, 1)])
    counts = np.array([n0, n1], dtype=float)
    vy2 = float((np.outer(counts, counts) * beta * beta).sum()) / (n * n)
    if not np.isfinite(vy2):  # both classes are populated, so this covers every constant
        raise DataValidationError("class-block distance statistics contain non-finite values")
    return ClassBlocks(order=np.argsort(classes, kind="stable"), n0=n0, beta=beta, vy2=vy2)


def sorted_response(response) -> SortedResponse:
    """The sorted form of a one-column response; more columns raise ValueError.

    The column is taken in stable sort order less its smallest value, so
    ``u`` and ``v`` are of the size of its spread, however far from zero
    it lies.  Its row sums and dVar^2 come from its gaps and its variance
    through the same code as each feature column's in ``column_terms``.
    A constant column has ``vy2`` exactly 0; a non-finite statistic (a
    finite column can overflow) raises, as in ``centered_distances``.
    """
    y = as_block(response)
    if y.shape[1] != 1:
        raise ValueError(f"a screening response must be one column, got {y.shape[1]}")
    order = np.argsort(y[:, 0], kind="stable")
    s = y[order] - y[order[0]]
    rows = _row_sums(s.copy())
    m = rows[:, 0] / s.shape[0]
    h = m - m.mean() / 2  # u = y - h and v = y + h
    vy2 = float(_column_dvar2(s.var(axis=0), rows)[0][0]) if s[0, 0] != s[-1, 0] else 0.0
    u, v = s[:, 0] - h, s[:, 0] + h
    if not np.all(np.isfinite(np.r_[u, v, vy2])):
        raise DataValidationError("sorted-response distance statistics contain non-finite values")
    return SortedResponse(order=order, u=u, v=v, vy2=vy2)


def dcov2(x, y) -> float:
    """Squared sample distance covariance between two blocks.

    Symmetric in its arguments and nonnegative; zero when either block is
    constant.
    """
    return dcor2(x, y).v2


def dvar2(x) -> float:
    """Squared sample distance variance, ``dcov2(x, x)``."""
    return dcor2(x, x).vx2


def dcor2(x, y) -> DCovStats:
    """Squared sample distance correlation of two blocks, with components.

    The reference: each statistic is the mean of the products of two
    ``centered_distances`` matrices.
    """
    a = centered_distances(x)
    b = centered_distances(y)
    if a.shape != b.shape:
        raise ValueError(f"sample counts differ: {a.shape[0]} vs {b.shape[0]}")
    # The biased estimator is nonnegative in exact arithmetic; clamp roundoff.
    v2, vx2, vy2 = (v if v > 0.0 else 0.0 for v in (float(np.mean(p * q)) for p, q in ((a, b), (a, a), (b, b))))
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
    return dcov2(np.hstack(blocks), y)  # blocks of different sample counts raise ValueError here


def marginal_dcor2(x, response, columns=None) -> np.ndarray:
    """Squared distance correlation of each column of ``x`` with ``response``.

    ``x`` is an ``n x p`` matrix whose columns are separate univariate
    variables; ``response`` is one column, or the ``ClassBlocks`` or
    ``SortedResponse`` ``B`` the caller has already built for it.  A raw
    column becomes its ``class_blocks`` when it has exactly two values and
    its ``sorted_response`` otherwise; more columns raise ValueError.
    Entry ``j`` of the result is ``dcor2(x[:, j], response).r2`` (to
    rounding), obtained without any ``n x n`` matrix.  ``B`` has zero row
    and column sums, so ``sum_ij A_ij B_ij`` equals ``sum_ij a_ij B_ij = 2
    sum_{i<j} |x_i - x_j| B_ij``.  The features are copied once into the
    response's ``order``, and the form's ``cross_sums`` takes that cross
    sum one of two ways:

    * class blocks, for ``ClassBlocks``: ``B`` is ``beta_ab`` on the block
      of classes ``(a, b)``, so the cross sum is ``beta_00 U_0 + beta_11
      U_1 + beta_01 (U - U_0 - U_1)``, where ``U`` sums ``|x_i - x_j|`` over
      all pairs and ``U_c`` over the pairs within class ``c``.  A sorted
      column ``s`` of length ``K`` has pair sum ``sum_k s_k (2k - K + 1)``;
      ``U`` is the column's pair sum and each ``U_c`` sorts that class's
      contiguous slice of the copy in place.  This kernel sees each column
      only as one multiset per class: columns with the same multisets
      (duplicates, constant columns, within-class permutations of one
      column) get bitwise-equal values.  O(n log n) per column;
    * row sweeps, for a ``SortedResponse``: ``n - 1`` sweeps over each
      block of columns accumulate the upper triangle of every column, row
      ``i`` weighted by ``u[i+1:] - v[i]``.  O(n^2) per column; for a
      response without ties the result does not depend on the order of
      the subjects.

    Either way ``n^2 dVar^2(x) = sum_ij a_ij^2 - (2/n) sum_i a_i.^2 +
    a..^2 / n^2``, with ``sum_ij a_ij^2 = 2n sum_i (x_i - mean)^2`` and the
    row sums ``a_i.`` read off the gaps of the sorted column.  These terms
    and each column's pair sum come from ``columns`` when given:
    ``column_terms(x)``, computed once for several responses on the same
    ``x``.  Memory is O(np); every column goes through the same
    operations, so identical columns get identical values.  A constant
    response warns and gives all zeros.
    """
    b = response
    if not isinstance(b, (ClassBlocks, SortedResponse)):
        b = class_blocks(response) or sorted_response(response)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    n, p = x.shape
    if n != b.n:
        raise ValueError(f"sample counts differ: {n} vs {b.n}")
    if not np.all(np.isfinite(x)):
        raise DataValidationError("feature matrix contains non-finite values")
    if b.vy2 == 0.0:
        warnings.warn("response is constant: all marginal distance correlations are zero", stacklevel=2)
        return np.zeros(p)
    vx2, pairs = column_terms(x) if columns is None else columns
    return _r2(b.cross_sums(x[b.order], pairs), vx2, b.vy2, n)


def column_terms(x) -> tuple[np.ndarray, np.ndarray]:
    """dVar^2 and pair sum ``sum_{i<j} |x_i - x_j|`` of every column of ``x``.

    These are the terms of ``marginal_dcor2`` that do not depend on the
    response, all taken from the sorted columns.
    """
    s = np.sort(np.asarray(x, dtype=float), axis=0)
    vx2, row_total = _column_dvar2(s.var(axis=0), _row_sums(s))  # the variance is taken before s is overwritten
    return vx2, 0.5 * row_total


def _r2(cross: np.ndarray, vx2: np.ndarray, vy2: float, n: int) -> np.ndarray:
    v2 = np.maximum(2.0 * cross / (n * n), 0.0)
    denom2 = vx2 * vy2
    r2 = np.zeros(cross.size)
    pos = denom2 > 0.0
    r2[pos] = np.minimum(v2[pos] / np.sqrt(denom2[pos]), 1.0)
    return r2


def _sorted_pair_sums(s: np.ndarray) -> np.ndarray:
    """``sum_{k<l} (s_l - s_k)`` of each sorted column, overwriting ``s``.

    That is ``sum_k s_k (2k - K + 1)``, taken on the column less its
    smallest entry, so a column of one repeated value sums to exactly 0.
    """
    k = s.shape[0]
    s[1:] -= s[0]
    tail = s[1:]
    tail *= np.arange(3 - k, k, 2, dtype=float)[:, None]
    return tail.sum(axis=0)


def _row_sums(s: np.ndarray) -> np.ndarray:
    """Row sums ``a_i. = sum_l |s_i - s_l|`` of every sorted column of ``s``, in ``s``.

    Gap m (between sorted entries m and m+1) is crossed by the m+1 entries
    below it and the n-1-m above.  Both cumulative sums run in place, one
    in ``s`` and one in the gap array, so the block holds two n x p arrays
    at a time.
    """
    gaps = np.diff(s, axis=0)
    below = np.arange(1, s.shape[0], dtype=float)[:, None]
    s[0] = 0.0
    np.multiply(below, gaps, out=s[1:])
    np.cumsum(s[1:], axis=0, out=s[1:])
    # the sums from the top: cumulate the reversed products in the reversed gaps
    np.multiply(below[::-1], gaps, out=gaps)
    np.cumsum(gaps[::-1], axis=0, out=gaps[::-1])
    s[:-1] += gaps
    return s


def _column_dvar2(var: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared distance variance of every column, and its row-sum total.

    ``var`` holds the columns' variances and ``rows`` their ``_row_sums``,
    which are overwritten.  The row-sum total ``sum_i a_i.`` of a column is
    twice its pair sum.
    """
    n = rows.shape[0]
    row_total = rows.sum(axis=0)
    rows *= rows
    vx2 = 2.0 * var - 2.0 * rows.sum(axis=0) / n**3 + (row_total / n**2) ** 2
    return np.maximum(vx2, 0.0), row_total


class JointDistances:
    """A growing block of columns and its joint squared distance covariance with a response.

    ``response`` is the ``ClassBlocks`` or ``SortedResponse`` of the
    response, and every column passed in holds the subjects in its
    ``order``.  The block is kept as the sum of its columns' squared
    pairwise differences over the strict upper triangle and the diagonal
    squares, in row blocks of at most ``ROW_BLOCK`` rows: block ``[i, i +
    k)`` holds columns ``i .. n - 1``, so the state is about ``n^2 / 2``
    floats.  Its distances are the square roots of these sums; ``B`` has
    zero row and column sums, so double-centering them would not change
    their inner product with ``B``, and ``n^2 dCov^2 = 2 sum(rectangle) +
    sum(diagonal square)`` over the blocks of distances weighted by ``B``,
    the rectangle being columns ``i + k .. n - 1``.  There is one
    weighting rule: the response's ``weigh`` multiplies its part of ``B``
    into each block.  Scoring a candidate takes a scratch array of at most
    ``ROW_BLOCK * n`` floats, and a sorted response's weights a second.
    """

    def __init__(self, response):
        n = response.n
        self._response = response
        self._blocks = _row_blocks(0, n)
        self._sq = [np.zeros((end - i, n - i)) for i, end in self._blocks]
        self._buf = np.empty((2, min(ROW_BLOCK, n) * n))  # the second row is touched only by sorted weights
        self._n = n

    def dcov2_with(self, column) -> float:
        """Joint squared distance covariance of the block plus ``column``; the block is unchanged."""
        total = 0.0
        for (i, end), sq in zip(self._blocks, self._sq):
            dist = self._squared_differences(column, i, end)
            dist += sq
            np.sqrt(dist, out=dist)
            self._response.weigh(dist, i, self._buf[1])
            k = end - i
            total += float(dist[:, :k].sum()) + 2.0 * float(dist[:, k:].sum())
        v2 = total / (self._n * self._n)
        # The biased estimator is nonnegative in exact arithmetic; clamp roundoff.
        return v2 if v2 > 0.0 else 0.0

    def add(self, column) -> None:
        """Admit ``column`` into the block."""
        for (i, end), sq in zip(self._blocks, self._sq):
            sq += self._squared_differences(column, i, end)

    def _squared_differences(self, col: np.ndarray, i: int, end: int) -> np.ndarray:
        """``(col_r - col_c)^2`` for rows ``[i, end)`` and columns ``i .. n - 1``, in the scratch array."""
        out = self._buf[0, : (end - i) * (self._n - i)].reshape(end - i, self._n - i)
        np.subtract(col[i:end, None], col[None, i:], out=out)
        out *= out
        return out


def _row_blocks(start: int, stop: int) -> list[tuple[int, int]]:
    return [(i, min(i + ROW_BLOCK, stop)) for i in range(start, stop, ROW_BLOCK)]


def _column_blocks(n: int, p: int) -> list[tuple[int, int]]:
    """The column blocks of a row sweep over ``n`` rows: as few as keep ``n - 1`` rows of one within ``SWEEP_BYTES``.

    Their widths differ by at most one, so no block is much narrower than
    the rest.
    """
    count = max(-(-p // max(SWEEP_BYTES // (8 * (n - 1)), 1)), 1)
    edges = [p * k // count for k in range(count + 1)]
    return list(zip(edges, edges[1:]))
