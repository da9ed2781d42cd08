"""Feature screening by distance correlation.

Two selection methods over one ranking:

* ``dc_sis``: rank all features by marginal squared distance correlation with
  the response and keep the top ``d`` (default ``floor(n / log n)``).
* ``dcov_greedy``: walk the same ranking and grow a selected set, admitting
  the next candidate as long as the joint squared distance covariance of the
  selected block with the response does not decrease (an ``epsilon`` slack
  relaxes the comparison; a lookahead of ``m`` tries the next ``m`` ranked
  candidates before giving up).

Multicategory problems are screened one-versus-rest with 0/1 class
indicators and the per-class selections are unioned.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dcov import centered_distances, marginal_dcor2

__all__ = [
    "ScreeningConfig",
    "ScreeningResult",
    "standardize_columns",
    "default_model_size",
    "marginal_rank",
    "dc_sis_select",
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
    ``floor(n / log n)``).  ``epsilon`` relaxes the greedy stop rule in the
    keep-adding direction: a candidate is admitted when the joint value drops
    by no more than ``epsilon``.  ``standardize`` z-scores the feature
    columns first; marginal ranking is scale-invariant per column but the
    joint covariance of a concatenated block is not, so this is where the
    choice has to live.
    """

    method: str = "dcov_greedy"
    d_model_size: int | None = None
    epsilon: float = 0.0
    m_lookahead: int = 1
    standardize: bool = True

    def __post_init__(self):
        if self.method not in ("dc_sis", "dcov_greedy"):
            raise ValueError(f"unknown screening method {self.method!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
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
    standardized: bool = True
    notes: list[str] = field(default_factory=list)


def standardize_columns(x: np.ndarray) -> np.ndarray:
    """Z-score each column; constant columns become all zeros."""
    x = np.asarray(x, dtype=float)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return (x - mean) / std


def default_model_size(n: int) -> int:
    """Conventional screening size ``floor(n / log n)`` for sample size n."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    return max(1, int(np.floor(n / np.log(n))))


def marginal_rank(x: np.ndarray, response) -> tuple[np.ndarray, np.ndarray]:
    """Rank features by marginal squared distance correlation with response.

    Returns ``(ranking, r2)`` where ``ranking`` sorts feature indices by
    decreasing ``r2`` with ties broken by ascending original index.
    ``response`` may also be its already built ``CenteredDistanceMatrix``;
    ``marginal_dcor2`` scores all features against it at once.
    """
    r2 = marginal_dcor2(x, response)
    if r2.size < 1:
        raise ValueError("need at least one feature")
    ranking = np.argsort(-r2, kind="stable")  # stable sort -> ascending index on ties
    return ranking, r2


def dc_sis_select(ranking: np.ndarray, d_model_size: int) -> list[int]:
    """Top-``d`` prefix of the marginal ranking."""
    p = len(ranking)
    if not 1 <= d_model_size <= p:
        raise ValueError(f"model size must be in [1, {p}], got {d_model_size}")
    return [int(i) for i in ranking[:d_model_size]]


def dcov_greedy(x: np.ndarray, response, config: ScreeningConfig | None = None) -> ScreeningResult:
    """Greedy forward selection along the marginal ranking with auto stop.

    Starting from the top-ranked feature, each step evaluates the joint
    squared distance covariance of the current selection plus one candidate.
    The candidate is admitted when the value does not decrease (within
    ``config.epsilon``); with lookahead ``m > 1`` the next ``m`` unconsumed
    candidates are tried in rank order and the first admissible one is
    consumed, skipped ones staying eligible for later steps.  The walk stops
    when no candidate in the window qualifies, or when the ranking is
    exhausted.
    """
    config = config or ScreeningConfig()
    x = np.asarray(x, dtype=float)
    if config.standardize:
        x = standardize_columns(x)
    b = centered_distances(response)
    ranking, r2 = marginal_rank(x, b)

    top = int(ranking[0])
    # running sum of squared per-coordinate distances of the selected block;
    # adding a column only adds its own squared differences
    sq = _sq_diff(x[:, top])
    current = _joint_dcov2(sq, b)

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
            cand_sq = sq + _sq_diff(x[:, j])
            value = _joint_dcov2(cand_sq, b)
            accepted = value >= current - config.epsilon
            trajectory.append(value)
            traj_features.append(j)
            traj_accepted.append(accepted)
            if accepted:
                admitted_pos = pos
                sq = cand_sq
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
        standardized=config.standardize,
    )


def _sq_diff(col: np.ndarray) -> np.ndarray:
    d = col[:, None] - col[None, :]
    return d * d


def _joint_dcov2(sq: np.ndarray, b) -> float:
    # b has zero row and column sums, so double-centering the joint
    # distances sqrt(sq) would not change their inner product with it
    v2 = float(np.mean(np.sqrt(sq) * b.entries))
    return v2 if v2 > 0.0 else 0.0


def screen(x: np.ndarray, response, config: ScreeningConfig | None = None) -> ScreeningResult:
    """Run the configured screening method and return its result."""
    config = config or ScreeningConfig()
    if config.method == "dcov_greedy":
        return dcov_greedy(x, response, config)

    x = np.asarray(x, dtype=float)
    xs = standardize_columns(x) if config.standardize else x
    ranking, r2 = marginal_rank(xs, response)
    d = config.d_model_size or default_model_size(x.shape[0])
    selected = dc_sis_select(ranking, d)
    return ScreeningResult(
        ranking=ranking,
        marginal_r2=r2,
        selected=selected,
        trajectory=[],
        trajectory_features=[],
        trajectory_accepted=[],
        stop_reason=STOP_MODEL_SIZE,
        standardized=config.standardize,
    )


def one_vs_rest_screen(
    x: np.ndarray, class_labels, config: ScreeningConfig | None = None
) -> tuple[dict, list[int]]:
    """Screen a multicategory problem one class at a time.

    For each class the response is an indicator taking 0 on that class and 1
    elsewhere; classes with fewer than two members are skipped with a
    warning.  Returns ``(per_class, union)`` where ``per_class`` maps each
    screened class label to its ScreeningResult and ``union`` is the sorted
    union of the selected sets.
    """
    labels = np.asarray(class_labels)
    classes = [c for c in np.unique(labels)]
    if len(classes) < 2:
        raise ValueError("one-versus-rest screening needs at least 2 classes")
    per_class = {}
    union: set[int] = set()
    for c in classes:
        members = int((labels == c).sum())
        if members < 2:
            warnings.warn(f"class {c!r} has {members} member(s); skipped", stacklevel=2)
            continue
        indicator = np.where(labels == c, 0.0, 1.0)
        result = screen(x, indicator, config)
        per_class[c] = result
        union.update(result.selected)
    if not per_class:
        raise ValueError("no class had at least 2 members")
    return per_class, sorted(union)
