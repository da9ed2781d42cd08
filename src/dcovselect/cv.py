"""Cross-validation harnesses, ensemble voting, and permutation utilities.

Two resampling pipelines wrap screening + reject-option fitting:

* ``five_fold_cv``: five non-overlapping folds; screen and fit on four,
  tune the penalty on the held-out fold by mean decision loss, ties going
  to the smallest penalty.
* ``mcv_run``: repeated three-way resplits (1/5 tuning, 8/15 training, 4/15
  testing); screen and fit on training, tune on tuning (ties going to the
  largest penalty), predict testing; repeated ``n_reps`` times with
  independent per-replication streams.

Both take a list of rejection costs ``d`` and return one result per
distinct ``d``.  Each split is screened once, and ``five_fold_cv`` also
screens all subjects once, for the overlap table.
For each ``d`` its penalty grid is one ``svm_reject.fit_path`` call, which
warm-starts HiGHS along the grid.  Splits and (split, ``d``) paths share
one thread pool per run, of one thread per usable CPU, at most one per
job and at least one: it screens every split (and, for ``five_fold_cv``,
all subjects), then fits, tunes and scores every path, split-major (numpy
releases the GIL in the screening kernels, HiGHS while it solves).  Every
host and every run takes this one path.  Only the split draws, the
single-class warnings and the flagged splits' records stay in the
calling thread.  Results are gathered in split order, so they do not
depend on the worker count.
The first failing path, in split-major order, raises, and the queued ones
are dropped.

Per-subject three-way decisions from the replications aggregate into voting
scores ``v = (s - r) / w`` (support minus against, scaled by withhold
count), summarized over score bins; label permutation gives the null run.
"""

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, response_kind
from .rng import stream
from .screening import ScreeningConfig, ScreeningResult, screen
from .svm_reject import RejectLossParams, RejectModel, _check_penalty, decide, decision_scores, fit_path, l_loss

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
]

VOTE_SENTINEL = float("inf")
DEFAULT_VOTING_BINS = ((-0.1, 0.0), (0.0, 0.1), (0.1, 0.2), (0.2, 0.4), (0.4, 1.5))


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def _as_rng(seed_or_rng, name: str = "partition") -> np.random.Generator:
    """A given generator as is, or the seed's stream ``name``."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(int(seed_or_rng), name)


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
    none.  The defaults are a flagged split's: no selection, NaN penalty,
    accuracies and r², and no decisions.
    """

    rep_id: int
    tune_idx: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    decisions: np.ndarray
    selected: list[int] = field(default_factory=list)
    post_model_features: list[int] = field(default_factory=list)
    tuned_r: float = math.nan
    tuning_losses: list[float] = field(default_factory=list)
    training_accuracy: float = math.nan
    testing_accuracy: float = math.nan
    n_decision_train: int = 0
    n_decision_test: int = 0
    max_marginal_r2: float = math.nan
    flagged: str | None = None


@dataclass
class FoldResult:
    """Selections and tuned models from one five-fold pass.

    ``all_subjects`` is the selection screened from every subject at once.
    """

    records: list[ReplicationRecord]
    all_subjects: list[int]

    @property
    def selections(self) -> list[list[int]]:
        """Each fold's selection, in fold order; empty for a flagged fold."""
        return [rec.selected for rec in self.records]


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
def _run_map(jobs: int):
    """``map`` for one run's jobs, on ``min(jobs, usable CPUs)`` threads, at least one.

    Results come back in job order.  One pool lives for the whole run; when a
    job fails, the jobs still queued are cancelled, not run.
    """
    pool = ThreadPoolExecutor(max_workers=max(min(jobs, _usable_cpus()), 1))
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass
class _Split:
    """One resample's subject sets, and why it is skipped, if it is; each of its records takes these fields."""

    rep_id: int
    tune_idx: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    flagged: str | None = None


def _run_splits(
    ds: Dataset,
    splits: list[_Split],
    grid_params: list[RejectLossParams],
    r_grid: list[float],
    config: ScreeningConfig,
    tie: str,
    *,
    screen_all: bool = False,
) -> tuple[list[list[ReplicationRecord]], ScreeningResult | None]:
    """One list of records per entry of ``grid_params``, each in split order.

    One pool serves the run.  It screens every split that is not flagged
    (and, with ``screen_all``, all subjects last), then fits, tunes and
    scores the penalty path of every (split, ``d``) pair, split-major; each
    such job returns its finished record.  The calling thread gives each
    flagged split the record of its subject sets and no decisions, and
    groups the records by ``d``.
    Returns those lists and the all-subjects screen (``None`` without
    ``screen_all``).  ``screen`` and ``fit_path`` are looked up at call
    time, so a wrapper installed on this module sees every call.
    """
    y = ds.y.astype(float)
    live = [split for split in splits if split.flagged is None]

    def screen_rows(rows):
        return screen(ds.X[rows], y[rows], config)

    def path_job(job):
        (split, scr), params = job
        grid = fit_path(ds.X[np.ix_(split.train_idx, scr.selected)], y[split.train_idx], r_grid, params)
        return _evaluate(ds, y, split, scr, params, grid, tie)

    rows = [split.train_idx for split in live] + [slice(None)] * screen_all  # all subjects, as a view
    with _run_map(max(len(live) * len(grid_params), len(rows))) as run_map:
        screened = list(run_map(screen_rows, rows))
        paths = [(job, params) for job in zip(live, screened) for params in grid_params]
        finished = iter(list(run_map(path_job, paths)))
    by_split = [
        [
            next(finished)
            if split.flagged is None
            else ReplicationRecord(**vars(split), decisions=np.zeros(ds.n, dtype=int))
            for _ in grid_params
        ]
        for split in splits
    ]
    return [list(records) for records in zip(*by_split)], screened[-1] if screen_all else None


def _evaluate(
    ds: Dataset,
    y: np.ndarray,
    split: _Split,
    scr: ScreeningResult,
    params: RejectLossParams,
    grid: list[RejectModel],
    tie: str,
) -> ReplicationRecord:
    """Tune one ``d``'s penalty path of a screened split and score its decisions."""
    selected = scr.selected
    x_all = ds.X[:, selected]
    chosen, losses = tune_penalty(grid, x_all[split.tune_idx], y[split.tune_idx], params.d, tie)
    model = grid[chosen]
    decisions = decide(decision_scores(model, x_all), params.delta)
    train_acc, n_train_dec = _accuracy_over_decided(decisions[split.train_idx], y[split.train_idx])
    test_acc, n_test_dec = _accuracy_over_decided(decisions[split.test_idx], y[split.test_idx])
    return ReplicationRecord(
        **vars(split),
        decisions=decisions,
        selected=list(selected),
        post_model_features=[selected[j] for j in model.nonzero_features],
        tuned_r=model.r,
        tuning_losses=losses,
        training_accuracy=train_acc,
        testing_accuracy=test_acc,
        n_decision_train=n_train_dec,
        n_decision_test=n_test_dec,
        max_marginal_r2=float(scr.marginal_r2.max()),
    )


def _binary_or_raise(ds: Dataset):
    if response_kind(ds) != "binary":
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


def _penalty_grid(r_grid) -> list[float]:
    """The penalties in increasing order, validated before any split is screened."""
    grid = sorted(float(r) for r in r_grid)
    if not grid:
        raise ValueError("need at least one penalty r (--r-grid is empty)")
    for r in grid:
        _check_penalty(r)
    return grid


def five_fold_cv(
    ds: Dataset,
    d_values,
    r_grid,
    seed: int,
    *,
    config: ScreeningConfig | None = None,
    delta: float = 0.5,
) -> dict[float, FoldResult]:
    """Screen/fit on four of five folds, tune the penalty on the held-out fold.

    Returns ``{d: FoldResult}`` for each distinct ``d`` in ``d_values``.
    Folds and screening depend only on ``seed``, so every ``d`` shares the
    per-fold selections and the all-subjects one.  Tuning ties go to the
    smallest penalty here.  Folds whose training side is single-class are
    flagged and skipped while the run continues.

    All subjects are screened too, as the last screening job of the pool,
    and every ``FoldResult`` holds that selection as ``all_subjects``; a
    one-class response makes that screen warn that the response is
    constant, from its pool thread.
    """
    _binary_or_raise(ds)
    config = config or ScreeningConfig()
    r_grid = _penalty_grid(r_grid)
    grid_params = _grid_params(d_values, delta)
    folds = kfold_partition(ds.n, 5, stream(seed, "partition", "kfold"))
    y = ds.y.astype(float)

    no_test = np.array([], dtype=int)
    splits = []
    for fold_id, held_out in enumerate(folds):
        train_idx = np.sort(np.concatenate([f for j, f in enumerate(folds) if j != fold_id]))
        split = _Split(fold_id, held_out, train_idx, no_test)
        if np.unique(y[train_idx]).size < 2:
            warnings.warn(f"fold {fold_id}: training split is single-class; skipped")
            split.flagged = "single_class_train"
        splits.append(split)
    records, full = _run_splits(ds, splits, grid_params, r_grid, config, "smallest", screen_all=True)
    return {params.d: FoldResult(recs, full.selected) for params, recs in zip(grid_params, records)}


def selection_overlap(selections: list[list[int]]) -> tuple[np.ndarray, list[int]]:
    """Pairwise intersection counts and the union of the selections.

    Returns ``(matrix, union)`` where ``matrix[i][j]`` counts the
    intersection of selections i and j (diagonal = set sizes) and ``union``
    is the sorted union.
    """
    if not selections:
        raise ValueError("need at least one selection")
    sets = [set(s) for s in selections]
    k = len(sets)
    matrix = np.zeros((k, k), dtype=int)
    for i in range(k):
        for j in range(k):
            matrix[i, j] = len(sets[i] & sets[j])
    return matrix, sorted(set().union(*sets))


# ---------------------------------------------------------------------------
# Multiple cross validation
# ---------------------------------------------------------------------------


def _mcv_split(ds: Dataset, rep_id: int, seed: int) -> _Split:
    """Replication ``rep_id``'s split, drawn from its own stream.

    A split with a single-class part is redrawn once from the same stream,
    then flagged.
    """
    y = ds.y.astype(float)
    rng = stream(seed, "partition", "mcv", rep_id)

    def both_classes_everywhere(splits):
        return all(np.unique(y[idx]).size == 2 for idx in splits)

    splits = tune_train_test_split(ds.n, rng)
    if not both_classes_everywhere(splits):
        splits = tune_train_test_split(ds.n, rng)
        if not both_classes_everywhere(splits):
            return _Split(rep_id, *splits, flagged="single_class_split")
    return _Split(rep_id, *splits)


def mcv_run(
    ds: Dataset,
    d_values,
    r_grid,
    n_reps: int = 50,
    seed: int = 0,
    *,
    config: ScreeningConfig | None = None,
    delta: float = 0.5,
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
    r_grid = _penalty_grid(r_grid)
    grid_params = _grid_params(d_values, delta)
    if n_reps < 1:
        raise ValueError("need at least one replication")

    splits = [_mcv_split(ds, rep_id, seed) for rep_id in range(n_reps)]
    records, _ = _run_splits(ds, splits, grid_params, r_grid, config, "largest")
    return {params.d: McvResult(recs, summarize_mcv(recs, params.d)) for params, recs in zip(grid_params, records)}


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
    equals the number of replications in which the subject was counted.  A
    decision other than -1, 0 or +1 is a ``ValueError``.
    """
    if mode not in ("testing", "all"):
        raise ValueError(f"mode must be 'testing' or 'all', got {mode!r}")
    counts = np.zeros((3, n_subjects), dtype=int)  # rows s, w, r: decisions +1, 0, -1
    for test_idx, rep_decisions in zip(test_sets, decisions, strict=True):
        idx = np.asarray(test_idx, dtype=int) if mode == "testing" else np.arange(n_subjects)
        dec = np.asarray(rep_decisions)[idx]
        if not np.isin(dec, (-1, 0, 1)).all():
            raise ValueError("decisions must be -1, 0 or +1")
        np.add.at(counts, (1 - dec.astype(int), idx), 1)
    s, w, r = counts
    unscored = counts.sum(axis=0) == 0
    v = np.select(
        [unscored, w > 0, s == r],
        [np.nan, (s - r) / np.maximum(w, 1), 0.0],  # the max keeps w = 0 out of the division
        np.copysign(VOTE_SENTINEL, s - r),
    )
    never = int(unscored.sum())
    if never:
        warnings.warn(f"{never} subject(s) were never scored by any replication")
    return [VotingRecord(i, *row) for i, row in enumerate(zip(*counts.tolist(), v.tolist()))]


def voting_bins(votes: list[VotingRecord], truths) -> list[dict]:
    """Bin voting scores and report the positive-class share per bin.

    The bins are ``DEFAULT_VOTING_BINS``, left-open/right-closed intervals.  A final ``outside`` row
    collects scored subjects falling in no bin (including the +/-inf
    saturated scores), so counts are conserved.
    """
    truths = np.asarray(truths, dtype=float)
    v = np.array([vote.v for vote in votes], dtype=float)
    masks = [(lo < v) & (v <= hi) for lo, hi in DEFAULT_VOTING_BINS]
    masks.append(~np.isnan(v) & ~np.any(masks, axis=0))
    rows = []
    for (lo, hi), members in zip([*DEFAULT_VOTING_BINS, (float("nan"), float("nan"))], masks):
        n = int(members.sum())
        positives = int(np.sum(truths[members] == 1.0))
        rows.append({"lo": lo, "hi": hi, "frequency": n, "positive_proportion": positives / n if n else float("nan")})
    return rows


# ---------------------------------------------------------------------------
# Permutation
# ---------------------------------------------------------------------------


def permute_response(ds: Dataset, seed_or_rng) -> Dataset:
    """Return a copy of the dataset with the response randomly permuted.

    The label multiset is preserved and the feature matrix untouched.
    """
    perm = _as_rng(seed_or_rng, "permutation").permutation(ds.n)
    return ds.with_response(np.asarray(ds.y)[perm])
