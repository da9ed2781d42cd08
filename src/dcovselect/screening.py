"""Feature screening by distance correlation.

``screen(x, response, config)`` is the entry point.  It ranks all features
by marginal squared distance correlation with the response
(``marginal_rank``) and selects by ``config.method``:

* ``dc_sis``: keep the top ``d`` of the ranking (default
  ``floor(n / log n)``, or all ``p`` features when there are fewer).
* ``dcov_greedy``: walk the same ranking and grow a selected set, admitting
  the next candidate as long as the joint squared distance covariance of the
  selected block with the response does not decrease (an ``epsilon`` slack
  relaxes the comparison; a lookahead of ``m`` tries the next ``m`` ranked
  candidates before giving up).

Multicategory problems are screened one-versus-rest with 0/1 class
indicators (``one_vs_rest_screen``), each through ``screen``'s own step, and
the per-class selections are unioned.  The response is one column, built
once per screen as ``dcov.class_blocks`` when it has two values and as
``dcov.sorted_response`` otherwise, so no screen builds an ``n x n`` array.
Every screen works in its response's ``order`` from start to finish: the
ranking copies the features into it, and the greedy walk copies them once
more, takes the z-scores there, and weighs each row block of distances by
the response's one weighting rule.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .dcov import JointDistances, class_blocks, column_terms, marginal_dcor2, sorted_response

__all__ = [
    "ScreeningConfig",
    "ScreeningResult",
    "default_model_size",
    "marginal_rank",
    "dcov_greedy",
    "screen",
    "one_vs_rest_screen",
]

STOP_DECREASE = "decrease_observed"
STOP_EXHAUSTED = "exhausted"
STOP_MODEL_SIZE = "model_size_reached"


@dataclass(frozen=True)
class ScreeningConfig:
    """Options shared by both screening methods.

    ``d_model_size`` applies to ``dc_sis`` only (``None`` means
    ``floor(n / log n)``, capped at the feature count ``p``; a size above
    ``p`` is rejected before any ranking).  ``epsilon`` relaxes the greedy
    stop rule in the keep-adding direction: a candidate is admitted when
    the joint value drops by no more than ``epsilon``.  ``standardize``
    z-scores the feature columns for the greedy walk alone: a column's
    marginal r^2 does not change under ``x -> a x + b``, so both methods
    rank the raw columns, but the joint covariance of a concatenated block
    depends on each column's scale.
    """

    method: str = "dcov_greedy"
    d_model_size: int | None = None
    epsilon: float = 0.0
    m_lookahead: int = 1
    standardize: bool = True

    def __post_init__(self):
        if self.method not in ("dc_sis", "dcov_greedy"):
            raise ValueError(f"unknown screening method {self.method!r}")
        if not self.epsilon >= 0:  # NaN compares false with every value
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.m_lookahead < 1:
            raise ValueError("m_lookahead must be a positive integer")
        if self.d_model_size is not None and self.d_model_size < 1:
            raise ValueError("d_model_size must be a positive integer")


@dataclass
class ScreeningResult:
    """Ranking, selection, and the audit trail of the greedy walk.

    ``trajectory`` records every evaluated joint value in evaluation order,
    including the final rejected one, with ``trajectory_features`` naming the
    candidate tested at each entry (the first entry is the top-ranked seed)
    and ``trajectory_accepted`` whether it was admitted.
    """

    ranking: np.ndarray
    marginal_r2: np.ndarray
    selected: list[int]
    trajectory: list[float]
    trajectory_features: list[int]
    trajectory_accepted: list[bool]
    stop_reason: str


def _standardize_in_place(z: np.ndarray) -> np.ndarray:
    """Z-score each column of a float array, overwriting it; constant columns become all zeros."""
    mean = z.mean(axis=0)
    std = z.std(axis=0)
    z -= mean
    z /= np.where(std > 0.0, std, 1.0)
    return z


def default_model_size(n: int) -> int:
    """Conventional screening size ``floor(n / log n)`` for sample size n."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    return max(1, int(np.floor(n / np.log(n))))


def marginal_rank(x: np.ndarray, response, columns=None) -> tuple[np.ndarray, np.ndarray]:
    """Rank features by marginal squared distance correlation with response.

    Returns ``(ranking, r2)`` where ``ranking`` sorts feature indices by
    decreasing ``r2`` with ties broken by ascending original index.  A tie
    is bitwise equality of ``r2``, which every group of identical columns
    gets, constant columns included (r2 exactly 0).  Against a response
    column with two values, however coded, the class-block kernel also
    gives it to within-class permutations of one column.  Any other
    response column is scored by row sweeps in its sort order, so for a
    response without ties the values do not depend on the order of the
    subjects.  ``response`` may also be its already built ``ClassBlocks``
    or ``SortedResponse``, and ``columns`` the ``column_terms`` of ``x``;
    both pass through to ``marginal_dcor2``, which copies the features into
    the response's order once and scores them all against it at once.
    """
    r2 = marginal_dcor2(x, response, columns)
    if r2.size < 1:
        raise ValueError("need at least one feature")
    ranking = np.argsort(-r2, kind="stable")  # stable sort -> ascending index on ties
    return ranking, r2


def dcov_greedy(x: np.ndarray, b, ranking: np.ndarray, r2: np.ndarray, config: ScreeningConfig) -> ScreeningResult:
    """Greedy forward selection along ``ranking`` with auto stop, against the response form ``b``.

    Starting from the top-ranked feature, each step evaluates the joint
    squared distance covariance of the current selection plus one candidate.
    The candidate is admitted when the value does not decrease (within
    ``config.epsilon``); with lookahead ``m > 1`` the next ``m`` unconsumed
    candidates are tried in rank order and the first admissible one is
    consumed, skipped ones staying eligible for later steps.  The walk stops
    when no candidate in the window qualifies, or when the ranking is
    exhausted.

    The walk copies the float matrix ``x`` once into ``b.order`` (class
    order or y order) and, with ``config.standardize``, z-scores that copy
    in place, so the means and deviations are summed in that order too: for
    a response without ties the walk does not depend on the order of the
    subjects, to the bit.  The selection is kept as
    ``dcov.JointDistances``: summed squared differences in upper-triangle
    row blocks, about ``n^2 / 2`` floats, scored block by block in scratch
    arrays of at most ``ROW_BLOCK * n`` floats, each block weighted by the
    response's own ``weigh``.  No ``n x n`` array is built.
    """
    x = x[b.order]
    if config.standardize:
        _standardize_in_place(x)
    joint = JointDistances(b)
    top = int(ranking[0])
    current = joint.dcov2_with(x[:, top])
    joint.add(x[:, top])

    selected = [top]
    trajectory = [current]
    traj_features = [top]
    traj_accepted = [True]
    remaining = [int(i) for i in ranking[1:]]
    stop_reason = STOP_EXHAUSTED

    while remaining:
        window = remaining[: config.m_lookahead]
        admitted_pos = None
        for pos, j in enumerate(window):
            value = joint.dcov2_with(x[:, j])
            accepted = value >= current - config.epsilon
            trajectory.append(value)
            traj_features.append(j)
            traj_accepted.append(accepted)
            if accepted:
                admitted_pos = pos
                joint.add(x[:, j])
                current = value
                selected.append(j)
                break
        if admitted_pos is None:
            stop_reason = STOP_DECREASE
            break
        remaining.pop(admitted_pos)

    return ScreeningResult(
        ranking=ranking,
        marginal_r2=r2,
        selected=selected,
        trajectory=trajectory,
        trajectory_features=traj_features,
        trajectory_accepted=traj_accepted,
        stop_reason=stop_reason,
    )


def _check_model_size(x: np.ndarray, config: ScreeningConfig) -> None:
    """Reject a ``dc_sis`` model size above the feature count, before any ranking."""
    if config.method == "dc_sis" and (config.d_model_size or 0) > x.shape[-1]:
        raise ValueError(f"model size must be in [1, {x.shape[-1]}], got {config.d_model_size}")


def screen(x: np.ndarray, response, config: ScreeningConfig | None = None) -> ScreeningResult:
    """Rank the features of ``x`` against ``response`` and select by ``config.method``.

    The response is built once, for ranking and walk: a column with exactly
    two values, however coded, as its ``class_blocks``, and any other
    column as its ``sorted_response``; a response of more than one column
    raises ValueError.
    """
    config = config or ScreeningConfig()
    x = np.asarray(x, dtype=float)
    _check_model_size(x, config)
    return _screen(x, response, config)


def _screen(x: np.ndarray, response, config: ScreeningConfig, columns=None) -> ScreeningResult:
    """``screen`` of the float matrix ``x``, with ``columns`` passed to ``marginal_rank``."""
    b = class_blocks(response) or sorted_response(response)
    ranking, r2 = marginal_rank(x, b, columns)
    if config.method == "dcov_greedy":
        return dcov_greedy(x, b, ranking, r2, config)
    d = config.d_model_size or min(default_model_size(x.shape[0]), ranking.size)
    return ScreeningResult(
        ranking=ranking,
        marginal_r2=r2,
        selected=[int(i) for i in ranking[:d]],
        trajectory=[],
        trajectory_features=[],
        trajectory_accepted=[],
        stop_reason=STOP_MODEL_SIZE,
    )


def one_vs_rest_screen(
    x: np.ndarray, class_labels, config: ScreeningConfig | None = None
) -> tuple[dict, list[int]]:
    """Screen a multicategory problem one class at a time.

    For each class the response is an indicator taking 0 on that class and 1
    elsewhere; classes with fewer than two members are skipped with a
    warning.  Returns ``(per_class, union)`` where ``per_class`` maps each
    screened class label to its ScreeningResult and ``union`` is the sorted
    union of the selected sets.  Each class's result is ``screen``'s for
    its indicator: ranking and walk work in that indicator's class order,
    and the walk z-scores the columns there, per class.  Only the
    columns' dVar^2 and pair sums (``column_terms``), which do not depend
    on the order, are computed once for all classes.
    """
    config = config or ScreeningConfig()
    labels = np.asarray(class_labels)
    classes = [c for c in np.unique(labels)]
    if len(classes) < 2:
        raise ValueError("one-versus-rest screening needs at least 2 classes")
    x = np.asarray(x, dtype=float)
    _check_model_size(x, config)
    columns = column_terms(x)
    per_class = {}
    union: set[int] = set()
    for c in classes:
        members = int((labels == c).sum())
        if members < 2:
            warnings.warn(f"class {c!r} has {members} member(s); skipped", stacklevel=2)
            continue
        result = _screen(x, np.where(labels == c, 0.0, 1.0), config, columns)
        per_class[c] = result
        union.update(result.selected)
    if not per_class:
        raise ValueError("no class had at least 2 members")
    return per_class, sorted(union)
