"""Cross-validation harnesses, ensemble voting, and permutation utilities.

Two resampling pipelines wrap screening + reject-option fitting:

* ``five_fold_cv``: k non-overlapping folds; screen and fit on k-1 folds,
  tune the penalty on the held-out fold by mean decision loss.
* ``mcv_run``: repeated three-way resplits (1/5 tuning, 8/15 training, 4/15
  testing); screen and fit on training, tune on tuning, predict testing;
  repeated ``n_reps`` times with independent per-replication streams.

Both take a list of rejection costs ``d``.  Each split is screened once.
For each ``d`` its penalty grid is one ``svm_reject.fit_path`` call, which
warm-starts HiGHS along the grid.  With more than one ``d`` the paths run
concurrently on the usable CPUs (HiGHS releases the GIL while it solves);
models are gathered in ``d`` order, so results do not depend on the worker
count.

Per-subject three-way decisions from the replications aggregate into voting
scores ``v = (s - r) / w`` (support minus against, scaled by withhold
count), summarized over score bins.  Label permutation and a k-nearest
neighbor check complete the evaluation toolkit.
"""

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .dcov import euclidean_distances
from .rng import stream
from .screening import ScreeningConfig, screen
from .svm_reject import RejectLossParams, RejectModel, decide, decision_scores, fit_path, l_loss

__all__ = [
    "FoldResult",
    "ReplicationRecord",
    "McvSummary",
    "VotingRecord",
    "DEFAULT_VOTING_BINS",
    "kfold_partition",
    "tune_train_test_split",
    "mean_l_loss",
    "tune_penalty",
    "five_fold_cv",
    "selection_overlap",
    "mcv_run",
    "summarize_mcv",
    "voting_scores",
    "voting_bins",
    "permute_response",
    "knn_classify",
]

VOTE_SENTINEL = float("inf")
DEFAULT_VOTING_BINS = ((-0.1, 0.0), (0.0, 0.1), (0.1, 0.2), (0.2, 0.4), (0.4, 1.5))


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(int(seed_or_rng), "partition")


def kfold_partition(n: int, k: int, seed_or_rng) -> list[np.ndarray]:
    """Split ``0..n-1`` into k non-overlapping folds of near-equal size.

    Fold sizes differ by at most one; deterministic for a given seed.
    """
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > n:
        raise ValueError(f"cannot make {k} folds from {n} subjects")
    rng = _as_rng(seed_or_rng)
    perm = rng.permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def tune_train_test_split(n: int, seed_or_rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three-way split with fractions 1/5 tuning, 8/15 training, 4/15 testing.

    Sizes are rounded deterministically: tuning to the nearest integer,
    training to the floor of two thirds of the rest, testing takes the
    remainder (n = 279 gives 56/148/75).
    """
    if n < 3:
        raise ValueError("need at least 3 subjects for a three-way split")
    n_tune = int(round(n / 5.0))
    n_train = int(math.floor((n - n_tune) * 2.0 / 3.0))
    n_tune = max(1, min(n_tune, n - 2))
    n_train = max(1, min(n_train, n - n_tune - 1))
    rng = _as_rng(seed_or_rng)
    perm = rng.permutation(n)
    tune = np.sort(perm[:n_tune])
    train = np.sort(perm[n_tune : n_tune + n_train])
    test = np.sort(perm[n_tune + n_train :])
    return tune, train, test


# ---------------------------------------------------------------------------
# Loss and tuning
# ---------------------------------------------------------------------------


def mean_l_loss(labels, truths, d: float) -> float:
    """Average decision loss over a set of subjects (rejections cost ``d``)."""
    labels = np.asarray(labels)
    truths = np.asarray(truths)
    if labels.size == 0:
        raise ValueError("mean decision loss over an empty set is undefined")
    if labels.shape != truths.shape:
        raise ValueError("labels and truths differ in length")
    return float(np.mean(l_loss(labels, truths, d)))


def tune_penalty(
    models: list[RejectModel],
    x_tune: np.ndarray,
    y_tune: np.ndarray,
    d: float,
    tie: str = "largest",
) -> tuple[int, list[float]]:
    """Pick the model minimizing mean decision loss on the tuning set.

    ``tie`` breaks exact loss ties toward the largest penalty (sparser
    model) or the smallest, assuming models are ordered by increasing
    penalty.  Returns the chosen index and the per-model losses.
    """
    if tie not in ("largest", "smallest"):
        raise ValueError(f"tie must be 'largest' or 'smallest', got {tie!r}")
    losses = []
    for model in models:
        labels = decide(decision_scores(model, x_tune), model.params.delta)
        losses.append(mean_l_loss(labels, y_tune, d))
    best = min(losses)
    indices = [i for i, v in enumerate(losses) if v == best]
    chosen = indices[-1] if tie == "largest" else indices[0]
    return chosen, losses


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass
class ReplicationRecord:
    """Everything one replication produced.

    ``decisions`` covers all subjects (the tuned model applied to the full
    matrix); accuracies are computed over the subjects of the respective
    split that received a definite decision, and are NaN when there were
    none.
    """

    rep_id: int
    tune_idx: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    selected: list[int]
    post_model_features: list[int]
    tuned_r: float
    tuning_losses: list[float]
    decisions: np.ndarray
    scores: np.ndarray
    training_accuracy: float
    testing_accuracy: float
    n_decision_train: int
    n_decision_test: int
    max_marginal_r2: float
    flagged: str | None = None


@dataclass
class FoldResult:
    """Selections and tuned models from one k-fold pass."""

    d: float
    seed: int
    selections: list[list[int]]
    records: list[ReplicationRecord]


@dataclass
class McvSummary:
    """Aggregate over replications, restricted to decisive ones.

    A replication is decisive when at least one testing subject received a
    definite decision; accuracy and count statistics are means/standard
    deviations over those replications only (NaN when there are none).
    """

    d: float
    n_reps: int
    n_decisive: int
    mean_train_accuracy: float
    std_train_accuracy: float
    mean_test_accuracy: float
    std_test_accuracy: float
    mean_n_train_decision: float
    std_n_train_decision: float
    mean_n_test_decision: float
    std_n_test_decision: float


@dataclass
class McvResult:
    d: float
    seed: int
    records: list[ReplicationRecord]
    summary: McvSummary


@dataclass
class VotingRecord:
    """Per-subject decision frequencies and voting score.

    ``v = (s - r) / w``; with no withholds the score saturates to +/-inf
    (0 when supports equal againsts), and subjects never scored get NaN.
    """

    subject: int
    s: int
    w: int
    r: int
    v: float


# ---------------------------------------------------------------------------
# Core per-split pipeline
# ---------------------------------------------------------------------------


def _accuracy_over_decided(decisions, truths):
    decided = decisions != 0
    n_dec = int(decided.sum())
    if n_dec == 0:
        return float("nan"), 0
    correct = float((decisions[decided] == truths[decided]).sum())
    return correct / n_dec, n_dec


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _lp_map(paths_per_split: int):
    """``map`` for one run's LP paths, on ``min(paths per split, usable CPUs)`` threads.

    With one worker it is the builtin ``map`` and no thread starts.  A pool
    lives for the whole run: creating one per split costs more than the
    overlap saves.
    """
    workers = min(paths_per_split, _usable_cpus())
    if workers < 2:
        yield map
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def _screen_fit_evaluate(
    ds: Dataset,
    rep_id: int,
    tune_idx: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    grid_params: list[RejectLossParams],
    r_grid,
    config: ScreeningConfig,
    tie: str,
    lp_map,
) -> list[ReplicationRecord]:
    """Screen one split once, fit the penalty path of every ``d``, and tune per ``d``.

    Returns one record per entry of ``grid_params``, in order.
    """
    y = ds.y.astype(float)
    scr = screen(ds.X[train_idx], y[train_idx], config)
    selected = scr.selected
    x_train = ds.X[np.ix_(train_idx, selected)]
    y_train = y[train_idx]
    # ``fit_path`` is looked up at call time, so a wrapper installed on this
    # module sees every path
    paths = list(lp_map(lambda params: fit_path(x_train, y_train, r_grid, params), grid_params))
    x_all = ds.X[:, selected]
    x_tune = x_all[tune_idx]
    max_marginal_r2 = float(scr.marginal_r2.max())

    records = []
    for params, grid in zip(grid_params, paths):
        if tune_idx.size:
            chosen, losses = tune_penalty(grid, x_tune, y[tune_idx], params.d, tie)
        else:
            chosen, losses = 0, []
        model = grid[chosen]

        scores = decision_scores(model, x_all)
        decisions = decide(scores, params.delta)
        train_acc, n_train_dec = _accuracy_over_decided(decisions[train_idx], y_train)
        if test_idx.size:
            test_acc, n_test_dec = _accuracy_over_decided(decisions[test_idx], y[test_idx])
        else:
            test_acc, n_test_dec = float("nan"), 0

        records.append(
            ReplicationRecord(
                rep_id=rep_id,
                tune_idx=tune_idx,
                train_idx=train_idx,
                test_idx=test_idx,
                selected=list(selected),
                post_model_features=[selected[j] for j in model.nonzero_features],
                tuned_r=model.r,
                tuning_losses=losses,
                decisions=decisions,
                scores=scores,
                training_accuracy=train_acc,
                testing_accuracy=test_acc,
                n_decision_train=n_train_dec,
                n_decision_test=n_test_dec,
                max_marginal_r2=max_marginal_r2,
            )
        )
    return records


def _degenerate_record(rep_id, tune_idx, train_idx, test_idx, n, reason) -> ReplicationRecord:
    return ReplicationRecord(
        rep_id=rep_id,
        tune_idx=tune_idx,
        train_idx=train_idx,
        test_idx=test_idx,
        selected=[],
        post_model_features=[],
        tuned_r=float("nan"),
        tuning_losses=[],
        decisions=np.zeros(n, dtype=int),
        scores=np.zeros(n),
        training_accuracy=float("nan"),
        testing_accuracy=float("nan"),
        n_decision_train=0,
        n_decision_test=0,
        max_marginal_r2=float("nan"),
        flagged=reason,
    )


def _binary_or_raise(ds: Dataset):
    y = np.asarray(ds.y)
    if y.dtype.kind not in "fiu" or not np.all(np.isin(y.astype(float), (-1.0, 1.0))):
        raise ValueError("pipeline needs a binary -1/+1 response")


# ---------------------------------------------------------------------------
# Five-fold cross validation
# ---------------------------------------------------------------------------


def _grid_params(d_values, delta: float) -> list[RejectLossParams]:
    """Loss parameters per distinct ``d``, in first-seen order (validated up front)."""
    params = [RejectLossParams(d=d, delta=delta) for d in dict.fromkeys(d_values)]
    if not params:
        raise ValueError("need at least one rejection cost d")
    return params


def five_fold_cv(
    ds: Dataset,
    d_values,
    r_grid,
    seed: int,
    *,
    config: ScreeningConfig | None = None,
    delta: float = 0.5,
    k: int = 5,
    tie: str = "smallest",
) -> dict[float, FoldResult]:
    """Screen/fit on k-1 folds, tune the penalty on the held-out fold.

    Returns ``{d: FoldResult}`` for each distinct ``d`` in ``d_values``.
    Folds and screening depend only on ``seed``, so every ``d`` shares the
    per-fold selections.  Tuning ties go to the smallest penalty here.
    Folds whose training side is single-class are flagged and skipped while
    the run continues.
    """
    _binary_or_raise(ds)
    config = config or ScreeningConfig()
    r_grid = sorted(float(r) for r in r_grid)
    grid_params = _grid_params(d_values, delta)
    folds = kfold_partition(ds.n, k, stream(seed, "partition", "kfold"))
    y = ds.y.astype(float)

    no_test = np.array([], dtype=int)
    selections = []
    records = {params.d: [] for params in grid_params}
    with _lp_map(len(grid_params)) as lp_map:
        for fold_id, held_out in enumerate(folds):
            train_idx = np.sort(np.concatenate([f for j, f in enumerate(folds) if j != fold_id]))
            if np.unique(y[train_idx]).size < 2:
                warnings.warn(f"fold {fold_id}: training split is single-class; skipped")
                for params in grid_params:
                    records[params.d].append(
                        _degenerate_record(fold_id, held_out, train_idx, no_test, ds.n, "single_class_train")
                    )
                selections.append([])
                continue
            fold_records = _screen_fit_evaluate(
                ds, fold_id, held_out, train_idx, no_test, grid_params, r_grid, config, tie, lp_map
            )
            for params, record in zip(grid_params, fold_records):
                records[params.d].append(record)
            selections.append(fold_records[0].selected)
    return {
        d: FoldResult(d=d, seed=seed, selections=selections, records=recs)
        for d, recs in records.items()
    }


def selection_overlap(selections: list[list[int]]) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Pairwise intersection counts plus per-feature frequencies.

    Returns ``(matrix, union, frequencies)`` where ``matrix[i][j]`` counts
    the intersection of selections i and j (diagonal = set sizes), ``union``
    is the sorted union, and ``frequencies[k]`` counts how many selections
    contain ``union[k]``.
    """
    if not selections:
        raise ValueError("need at least one selection")
    sets = [set(s) for s in selections]
    k = len(sets)
    matrix = np.zeros((k, k), dtype=int)
    for i in range(k):
        for j in range(k):
            matrix[i, j] = len(sets[i] & sets[j])
    union = sorted(set().union(*sets))
    freq = np.array([sum(f in s for s in sets) for f in union], dtype=int)
    return matrix, union, freq


# ---------------------------------------------------------------------------
# Multiple cross validation
# ---------------------------------------------------------------------------


def _mcv_replication(ds, rep_id, seed, grid_params, r_grid, config, tie, lp_map) -> list[ReplicationRecord]:
    y = ds.y.astype(float)
    rng = stream(seed, "partition", "mcv", rep_id)

    def both_classes_everywhere(splits):
        return all(np.unique(y[idx]).size == 2 for idx in splits)

    splits = tune_train_test_split(ds.n, rng)
    if not both_classes_everywhere(splits):
        # one resample from the replication's own stream, then give up
        splits = tune_train_test_split(ds.n, rng)
        if not both_classes_everywhere(splits):
            return [_degenerate_record(rep_id, *splits, ds.n, "single_class_split") for _ in grid_params]
    tune_idx, train_idx, test_idx = splits
    return _screen_fit_evaluate(ds, rep_id, tune_idx, train_idx, test_idx, grid_params, r_grid, config, tie, lp_map)


def mcv_run(
    ds: Dataset,
    d_values,
    r_grid,
    n_reps: int = 50,
    seed: int = 0,
    *,
    config: ScreeningConfig | None = None,
    delta: float = 0.5,
    tie: str = "largest",
) -> dict[float, McvResult]:
    """Repeated tune/train/test resplits with screening and penalty tuning.

    Returns ``{d: McvResult}`` for each distinct ``d`` in ``d_values``.
    Each replication draws its partition from a stream keyed by (seed,
    replication id) and screens it once for all ``d``, so results are
    independent of execution order and of the number of CPUs.
    Single-class training splits are resampled once, then flagged and
    excluded from the summary.
    """
    _binary_or_raise(ds)
    config = config or ScreeningConfig()
    r_grid = sorted(float(r) for r in r_grid)
    grid_params = _grid_params(d_values, delta)
    if n_reps < 1:
        raise ValueError("need at least one replication")

    records = {params.d: [] for params in grid_params}
    with _lp_map(len(grid_params)) as lp_map:
        for rep_id in range(n_reps):
            rep_records = _mcv_replication(ds, rep_id, seed, grid_params, r_grid, config, tie, lp_map)
            for params, record in zip(grid_params, rep_records):
                records[params.d].append(record)
    return {
        d: McvResult(d=d, seed=seed, records=recs, summary=summarize_mcv(recs, d))
        for d, recs in records.items()
    }


def _mean_std(values) -> tuple[float, float]:
    if len(values) == 0:
        return float("nan"), float("nan")
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else float("nan")
    return mean, std


def summarize_mcv(records: list[ReplicationRecord], d: float) -> McvSummary:
    """Aggregate replication records, restricted to decisive replications."""
    usable = [rec for rec in records if rec.flagged is None]
    decisive = [rec for rec in usable if rec.n_decision_test > 0]
    train_acc = _mean_std([rec.training_accuracy for rec in decisive if not math.isnan(rec.training_accuracy)])
    test_acc = _mean_std([rec.testing_accuracy for rec in decisive])
    n_train = _mean_std([rec.n_decision_train for rec in decisive])
    n_test = _mean_std([rec.n_decision_test for rec in decisive])
    return McvSummary(
        d=d,
        n_reps=len(records),
        n_decisive=len(decisive),
        mean_train_accuracy=train_acc[0],
        std_train_accuracy=train_acc[1],
        mean_test_accuracy=test_acc[0],
        std_test_accuracy=test_acc[1],
        mean_n_train_decision=n_train[0],
        std_n_train_decision=n_train[1],
        mean_n_test_decision=n_test[0],
        std_n_test_decision=n_test[1],
    )


# ---------------------------------------------------------------------------
# Voting
# ---------------------------------------------------------------------------


def voting_scores(
    test_sets,
    decisions,
    n_subjects: int,
    mode: str = "testing",
) -> list[VotingRecord]:
    """Accumulate per-subject decision frequencies across replications.

    ``test_sets[k]`` holds the testing-subject indices of replication k and
    ``decisions[k]`` its -1/0/+1 decision for every subject; pass only the
    replications that were not flagged.  ``mode='testing'`` counts a
    subject only in replications whose testing set contains it (each
    subject is out of sample in a fraction of the replications);
    ``mode='all'`` counts every subject in every replication.  ``s + w + r``
    equals the number of replications in which the subject was counted.
    """
    if mode not in ("testing", "all"):
        raise ValueError(f"mode must be 'testing' or 'all', got {mode!r}")
    s = np.zeros(n_subjects, dtype=int)
    w = np.zeros(n_subjects, dtype=int)
    r = np.zeros(n_subjects, dtype=int)
    for test_idx, rep_decisions in zip(test_sets, decisions, strict=True):
        idx = np.asarray(test_idx, dtype=int) if mode == "testing" else np.arange(n_subjects)
        dec = np.asarray(rep_decisions)[idx]
        np.add.at(s, idx[dec == 1], 1)
        np.add.at(w, idx[dec == 0], 1)
        np.add.at(r, idx[dec == -1], 1)
    out = []
    never = 0
    for i in range(n_subjects):
        total = int(s[i] + w[i] + r[i])
        if total == 0:
            never += 1
            v = float("nan")
        elif w[i] > 0:
            v = (float(s[i]) - float(r[i])) / float(w[i])
        elif s[i] == r[i]:
            v = 0.0
        else:
            v = VOTE_SENTINEL if s[i] > r[i] else -VOTE_SENTINEL
        out.append(VotingRecord(subject=i, s=int(s[i]), w=int(w[i]), r=int(r[i]), v=v))
    if never:
        warnings.warn(f"{never} subject(s) were never scored by any replication")
    return out


def voting_bins(
    votes: list[VotingRecord],
    truths,
    bins=DEFAULT_VOTING_BINS,
) -> list[dict]:
    """Bin voting scores and report the positive-class share per bin.

    Bins are left-open/right-closed intervals.  A final ``outside`` row
    collects scored subjects falling in no bin (including the +/-inf
    saturated scores), so counts are conserved.
    """
    truths = np.asarray(truths, dtype=float)
    rows = []
    claimed = np.zeros(len(votes), dtype=bool)
    for lo, hi in bins:
        members = [
            i
            for i, vote in enumerate(votes)
            if not math.isnan(vote.v) and lo < vote.v <= hi
        ]
        claimed[members] = True
        positives = int(np.sum(truths[members] == 1.0)) if members else 0
        rows.append(
            {
                "lo": lo,
                "hi": hi,
                "frequency": len(members),
                "positive_proportion": positives / len(members) if members else float("nan"),
            }
        )
    outside = [
        i for i, vote in enumerate(votes) if not math.isnan(vote.v) and not claimed[i]
    ]
    positives = int(np.sum(truths[outside] == 1.0)) if outside else 0
    rows.append(
        {
            "lo": float("nan"),
            "hi": float("nan"),
            "frequency": len(outside),
            "positive_proportion": positives / len(outside) if outside else float("nan"),
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Permutation and k-NN
# ---------------------------------------------------------------------------


def permute_response(ds: Dataset, seed_or_rng) -> Dataset:
    """Return a copy of the dataset with the response randomly permuted.

    The label multiset is preserved and the feature matrix untouched.
    """
    if isinstance(seed_or_rng, np.random.Generator):
        rng = seed_or_rng
    else:
        rng = stream(int(seed_or_rng), "permutation")
    perm = rng.permutation(ds.n)
    return ds.with_response(np.asarray(ds.y)[perm])


def knn_classify(train_x, train_y, test_x, k: int = 3) -> np.ndarray:
    """Majority vote over the k nearest training rows (Euclidean).

    Neighbor order is stable for distance ties; vote ties go to the smallest
    label in sort order, so results are deterministic.
    """
    train_x = np.asarray(train_x, dtype=float)
    test_x = np.asarray(test_x, dtype=float)
    train_y = np.asarray(train_y)
    if train_x.shape[0] == 0:
        raise ValueError("empty training set")
    if k < 1 or k > train_x.shape[0]:
        raise ValueError(f"k must be in [1, {train_x.shape[0]}], got {k}")
    distances = euclidean_distances(test_x, train_x)
    order = np.argsort(distances, axis=1, kind="stable")[:, :k]
    labels = np.empty(test_x.shape[0], dtype=train_y.dtype)
    for i in range(test_x.shape[0]):
        neigh = train_y[order[i]]
        values, counts = np.unique(neigh, return_counts=True)
        labels[i] = values[np.argmax(counts)]  # unique sorts: smallest label wins ties
    return labels
