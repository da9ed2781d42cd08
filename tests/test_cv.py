import dataclasses
import math

import numpy as np
import pytest

from dcovselect import cv
from dcovselect.cv import (
    DEFAULT_VOTING_BINS,
    VotingRecord,
    five_fold_cv,
    kfold_partition,
    knn_classify,
    mcv_run,
    mean_l_loss,
    permute_response,
    selection_overlap,
    summarize_mcv,
    tune_penalty,
    tune_train_test_split,
    voting_bins,
    voting_scores,
)
from dcovselect.data import synth_generate
from dcovselect.errors import SolverError
from dcovselect.screening import ScreeningConfig
from dcovselect.svm_reject import RejectLossParams, fit, predict

R_GRID = [0.01, 0.03, 0.1, 0.3, 1.0, 2.0, 4.0, 8.0]


def planted_dataset(n=150, p=30, seed=5, coef=1.5, prior=0.65):
    ds, truth = synth_generate(
        n, p, model="logistic", active=4, coef=coef, prior=prior, seed=seed
    )
    return ds, truth


class TestPartitions:
    def test_even_folds(self):
        folds = kfold_partition(10, 5, 0)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    def test_279_fold_sizes(self):
        folds = kfold_partition(279, 5, 0)
        assert sorted(len(f) for f in folds) == [55, 56, 56, 56, 56]

    def test_folds_cover_everything_once(self):
        folds = kfold_partition(57, 5, 42)
        combined = np.sort(np.concatenate(folds))
        assert np.array_equal(combined, np.arange(57))

    def test_deterministic(self):
        a = kfold_partition(30, 4, 9)
        b = kfold_partition(30, 4, 9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_too_many_folds(self):
        with pytest.raises(ValueError):
            kfold_partition(3, 5, 0)

    def test_three_way_sizes_at_279(self):
        tune, train, test = tune_train_test_split(279, 1)
        assert (len(tune), len(train), len(test)) == (56, 148, 75)

    def test_three_way_disjoint_exhaustive(self):
        tune, train, test = tune_train_test_split(100, 2)
        combined = np.sort(np.concatenate([tune, train, test]))
        assert np.array_equal(combined, np.arange(100))


class TestMeanLLoss:
    def test_all_correct(self):
        assert mean_l_loss([1, -1, 1], [1, -1, 1], 0.25) == 0.0

    def test_all_rejected(self):
        assert mean_l_loss([0, 0], [1, -1], 0.25) == 0.25

    def test_mixed_case(self):
        # 1 wrong + 1 rejected + 2 correct at d = 1/5
        labels = [1, 0, 1, -1]
        truths = [-1, 1, 1, -1]
        assert mean_l_loss(labels, truths, 0.2) == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_l_loss([], [], 0.25)


class TestTunePenalty:
    def _models(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        y = np.sign(x[:, 0] + 0.3 * rng.normal(size=40))
        y[y == 0] = 1.0
        params = RejectLossParams(d=0.25)
        return [fit(x, y, r, params) for r in (0.01, 0.1, 1.0)], x, y

    def test_picks_minimum_loss(self):
        models, x, y = self._models()
        chosen, losses = tune_penalty(models, x, y, 0.25)
        assert losses[chosen] == min(losses)

    def test_tie_direction(self):
        models, x, y = self._models()
        # force a tie by duplicating one model
        pair = [models[0], models[0]]
        largest, _ = tune_penalty(pair, x, y, 0.25, tie="largest")
        smallest, _ = tune_penalty(pair, x, y, 0.25, tie="smallest")
        assert largest == 1
        assert smallest == 0


class TestFiveFold:
    def test_strong_signal_selections_share_drivers(self):
        ds, truth = planted_dataset(n=150, p=25, coef=2.0)
        result = five_fold_cv(ds, [1 / 4], R_GRID, seed=2)[1 / 4]
        assert len(result.selections) == 5
        for sel in result.selections:
            assert set(truth["active"]) & set(sel)

    def test_deterministic(self):
        ds, _ = planted_dataset(n=100, p=15)
        a = five_fold_cv(ds, [1 / 4], R_GRID, seed=3)[1 / 4]
        b = five_fold_cv(ds, [1 / 4], R_GRID, seed=3)[1 / 4]
        assert a.selections == b.selections
        assert [r.tuned_r for r in a.records] == [r.tuned_r for r in b.records]

    def test_d_one_third_with_majority_prior_gets_decisions(self):
        # with the positive share above 1/3 the all-reject model never wins
        # tuning outright, so decisive models exist
        ds, _ = planted_dataset(n=150, p=20, prior=0.7)
        result = five_fold_cv(ds, [1 / 3], R_GRID, seed=4)[1 / 3]
        decisive = [r for r in result.records if r.flagged is None and np.any(r.decisions != 0)]
        assert decisive

    def test_requires_binary_response(self):
        ds, _ = synth_generate(40, 6, model="linear", active=2, seed=0)
        with pytest.raises(ValueError, match="binary"):
            five_fold_cv(ds, [1 / 4], R_GRID, seed=0)


class TestSelectionOverlap:
    def test_identical_sets(self):
        matrix, union, freq = selection_overlap([[1, 2, 3], [1, 2, 3]])
        assert np.array_equal(matrix, [[3, 3], [3, 3]])
        assert union == [1, 2, 3]
        assert np.array_equal(freq, [2, 2, 2])

    def test_disjoint_sets(self):
        matrix, _, _ = selection_overlap([[1, 2], [3, 4]])
        assert matrix[0, 1] == 0

    def test_partial_overlap(self):
        matrix, union, freq = selection_overlap([[1, 2, 3], [2, 3, 4]])
        assert matrix[0, 1] == 2
        assert union == [1, 2, 3, 4]
        assert np.array_equal(freq, [1, 2, 2, 1])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            selection_overlap([])


class TestMcv:
    def test_planted_signal_beats_prior(self):
        ds, _ = planted_dataset(n=200, p=40, coef=1.5, prior=0.65)
        res = mcv_run(ds, [1 / 5], R_GRID, n_reps=8, seed=6)[1 / 5]
        assert res.summary.n_decisive >= 6
        assert res.summary.mean_test_accuracy > 0.65 + 0.1

    def test_single_rep_summary_matches_record(self):
        ds, _ = planted_dataset(n=120, p=15)
        res = mcv_run(ds, [1 / 4], R_GRID, n_reps=1, seed=7)[1 / 4]
        rec = res.records[0]
        if rec.n_decision_test > 0:
            assert res.summary.mean_test_accuracy == rec.testing_accuracy
            assert math.isnan(res.summary.std_test_accuracy)
            assert res.summary.n_decisive == 1

    def test_records_account_decisions(self):
        ds, _ = planted_dataset(n=120, p=15)
        res = mcv_run(ds, [1 / 4], R_GRID, n_reps=3, seed=9)[1 / 4]
        for rec in res.records:
            assert rec.n_decision_test == int(np.sum(rec.decisions[rec.test_idx] != 0))
            assert rec.n_decision_train == int(np.sum(rec.decisions[rec.train_idx] != 0))

    def test_no_decisive_reps_summary_is_blank(self):
        records = []
        summary = summarize_mcv(records, 0.2)
        assert summary.n_decisive == 0
        assert math.isnan(summary.mean_test_accuracy)


def raw(value):
    """A result as nested plain values, with arrays and floats as bytes (NaN-safe)."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {k: raw(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [raw(v) for v in value]
    if isinstance(value, (np.ndarray, float)):
        arr = np.asarray(value)
        return str(arr.dtype), arr.shape, arr.tobytes()
    return value


class TestLpGrid:
    """One screen per split; one penalty path per (split, d), the paths on a thread pool."""

    D_VALUES = [1 / 3, 1 / 4, 1 / 5]

    def test_path_models_match_cold_fits(self, monkeypatch):
        # a warm-started path may end on another optimal vertex of a
        # degenerate program, so only its first grid point is bitwise equal
        # to a cold fit; objectives agree to rounding and decisions exactly
        ds, _ = planted_dataset(n=120, p=15)
        calls = []
        real_fit_path = cv.fit_path

        def recording_fit_path(x, y, r_grid, params):
            models = real_fit_path(x, y, r_grid, params)
            calls.append((x, params, models))
            return models

        monkeypatch.setattr(cv, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cv, "fit_path", recording_fit_path)
        results = mcv_run(ds, self.D_VALUES, R_GRID, n_reps=3, seed=8)
        assert len(calls) == 3 * len(self.D_VALUES)
        for d in self.D_VALUES:
            for rec in results[d].records:
                x = ds.X[np.ix_(rec.train_idx, rec.selected)]
                (models,) = [m for cx, cp, m in calls if cp.d == d and np.array_equal(cx, x)]
                assert [m.r for m in models] == R_GRID
                y = ds.y[rec.train_idx].astype(float)
                cold = [fit(x, y, r, RejectLossParams(d=d)) for r in R_GRID]
                assert models[0].coef.tobytes() == cold[0].coef.tobytes()
                assert models[0].intercept == cold[0].intercept
                assert models[0].objective == cold[0].objective
                x_all = ds.X[:, rec.selected]
                for model, reference in zip(models, cold):
                    assert abs(model.objective - reference.objective) <= 1e-9 * abs(reference.objective)
                    assert np.array_equal(predict(model, x_all), predict(reference, x_all))

    def test_records_independent_of_cpu_count(self, monkeypatch):
        ds, _ = planted_dataset(n=120, p=15)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(cv, "_usable_cpus", lambda cpus=cpus: cpus)
            runs.append((
                mcv_run(ds, self.D_VALUES, R_GRID, n_reps=4, seed=8),
                five_fold_cv(ds, self.D_VALUES, R_GRID, seed=3),
            ))
        (mcv_1, folds_1), (mcv_2, folds_2) = runs
        assert raw(mcv_1) == raw(mcv_2)
        assert raw(folds_1) == raw(folds_2)

    def test_d_list_equals_per_d_runs_and_screens_once_per_split(self, monkeypatch):
        ds, _ = planted_dataset(n=120, p=15)
        screened = []
        real_screen = cv.screen

        def counting_screen(x, y, config):
            screened.append(x.shape)
            return real_screen(x, y, config)

        monkeypatch.setattr(cv, "screen", counting_screen)
        joint_mcv = mcv_run(ds, self.D_VALUES, R_GRID, n_reps=3, seed=8)
        assert len(screened) == 3
        screened.clear()
        joint_folds = five_fold_cv(ds, self.D_VALUES, R_GRID, seed=3)
        assert len(screened) == 5
        for d in self.D_VALUES:
            assert raw(joint_mcv[d]) == raw(mcv_run(ds, [d], R_GRID, n_reps=3, seed=8)[d])
            assert raw(joint_folds[d]) == raw(five_fold_cv(ds, [d], R_GRID, seed=3)[d])

    def test_repeated_d_is_run_once(self):
        ds, _ = planted_dataset(n=60, p=8)
        assert list(mcv_run(ds, [1 / 4, 1 / 4], R_GRID, n_reps=1, seed=1)) == [1 / 4]

    def test_empty_d_list_rejected(self):
        ds, _ = planted_dataset(n=60, p=8)
        with pytest.raises(ValueError, match="rejection cost"):
            mcv_run(ds, [], R_GRID, n_reps=1, seed=1)
        with pytest.raises(ValueError, match="rejection cost"):
            five_fold_cv(ds, [], R_GRID, seed=1)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_solver_failure_leaves_the_pool(self, monkeypatch, finishes, cpus):
        ds, _ = planted_dataset(n=120, p=15)
        real_fit_path = cv.fit_path

        def failing_fit_path(x, y, r_grid, params):
            if params.d == 1 / 4 and 0.3 in r_grid:
                raise SolverError("linear program failed (status 4) [r=0.3]")
            return real_fit_path(x, y, r_grid, params)

        monkeypatch.setattr(cv, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cv, "fit_path", failing_fit_path)
        for call in (
            lambda: mcv_run(ds, self.D_VALUES, R_GRID, n_reps=3, seed=8),
            lambda: five_fold_cv(ds, self.D_VALUES, R_GRID, seed=3),
        ):
            outcome = finishes(call)
            assert isinstance(outcome.get("error"), SolverError)


class TestVoting:
    def test_score_arithmetic(self):
        rec = VotingRecord(subject=0, s=30, w=10, r=10, v=(30 - 10) / 10)
        assert rec.v == 2.0

    def test_always_withheld_subject_scores_zero(self):
        ds, _ = planted_dataset(n=30, p=6)
        rec = mcv_run(ds, [1 / 4], [1e6], n_reps=1, seed=1)[1 / 4].records[0]
        # an absurd penalty forces withholding wherever the intercept-only
        # model stays inside the reject band
        usable = [r for r in [rec] if r.flagged is None]
        votes = voting_scores([r.test_idx for r in usable], [r.decisions for r in usable], ds.n, mode="all")
        withheld = [v for v in votes if v.w > 0 and v.s == 0 and v.r == 0]
        assert withheld
        assert all(v.v == 0.0 for v in withheld)

    def test_all_withheld_scores_zero(self):
        ds, _ = planted_dataset(n=60, p=8)
        votes = voting_scores([], [], ds.n, mode="testing")
        # no records at all: every subject flagged as never scored
        assert all(math.isnan(v.v) for v in votes)

    def test_conservation(self):
        ds, _ = planted_dataset(n=120, p=15)
        res = mcv_run(ds, [1 / 4], R_GRID, n_reps=6, seed=10)[1 / 4]
        kept = [rec for rec in res.records if rec.flagged is None]
        votes = voting_scores([rec.test_idx for rec in kept], [rec.decisions for rec in kept], ds.n, mode="all")
        usable = sum(1 for rec in res.records if rec.flagged is None)
        for v in votes:
            assert v.s + v.w + v.r == usable

    def test_testing_mode_counts_test_membership(self):
        ds, _ = planted_dataset(n=120, p=15)
        res = mcv_run(ds, [1 / 4], R_GRID, n_reps=6, seed=11)[1 / 4]
        kept = [rec for rec in res.records if rec.flagged is None]
        votes = voting_scores([rec.test_idx for rec in kept], [rec.decisions for rec in kept], ds.n, mode="testing")
        appearances = np.zeros(ds.n, dtype=int)
        for rec in res.records:
            if rec.flagged is None:
                appearances[rec.test_idx] += 1
        for v in votes:
            assert v.s + v.w + v.r == appearances[v.subject]

    def test_sentinel_scores(self):
        votes = [
            VotingRecord(0, 5, 0, 0, float("inf")),
            VotingRecord(1, 0, 0, 5, float("-inf")),
            VotingRecord(2, 3, 0, 3, 0.0),
        ]
        rows = voting_bins(votes, np.array([1.0, -1.0, 1.0]))
        outside = rows[-1]
        assert outside["frequency"] == 2  # both infinities land outside
        zero_bin = rows[0]
        assert zero_bin["frequency"] == 1  # v = 0 falls in (-0.1, 0]

    def test_default_bins_are_the_five_intervals(self):
        assert DEFAULT_VOTING_BINS == (
            (-0.1, 0.0),
            (0.0, 0.1),
            (0.1, 0.2),
            (0.2, 0.4),
            (0.4, 1.5),
        )

    def test_bin_edges_left_open_right_closed(self):
        votes = [VotingRecord(0, 0, 10, 0, 0.1), VotingRecord(1, 1, 10, 0, 0.1000001)]
        rows = voting_bins(votes, np.array([1.0, 1.0]))
        assert rows[1]["frequency"] == 1  # 0.1 in (0, 0.1]
        assert rows[2]["frequency"] == 1  # 0.1000001 in (0.1, 0.2]


class TestPermutation:
    def test_label_multiset_preserved(self):
        ds, _ = planted_dataset(n=90, p=10)
        perm = permute_response(ds, 3)
        assert sorted(perm.y) == sorted(ds.y)
        assert perm.X is ds.X

    def test_deterministic(self):
        ds, _ = planted_dataset(n=90, p=10)
        a = permute_response(ds, 3)
        b = permute_response(ds, 3)
        assert np.array_equal(a.y, b.y)

    def test_different_seed_differs(self):
        ds, _ = planted_dataset(n=90, p=10)
        a = permute_response(ds, 3)
        b = permute_response(ds, 4)
        assert not np.array_equal(a.y, b.y)


class TestKnn:
    def test_exact_match_k1(self):
        train = np.array([[0.0, 0.0], [5.0, 5.0]])
        labels = np.array(["a", "b"])
        out = knn_classify(train, labels, np.array([[5.0, 5.0]]), k=1)
        assert out[0] == "b"

    def test_separated_clusters(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(20, 2))
        b = rng.normal(size=(20, 2)) + 50.0
        train = np.vstack([a, b])
        labels = np.array([0] * 20 + [1] * 20)
        test = np.vstack([rng.normal(size=(5, 2)), rng.normal(size=(5, 2)) + 50.0])
        out = knn_classify(train, labels, test, k=3)
        assert np.array_equal(out, [0] * 5 + [1] * 5)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            knn_classify(np.empty((0, 2)), np.array([]), np.zeros((1, 2)))

    def test_vote_tie_takes_smallest_label(self):
        train = np.array([[0.0], [1.0]])
        labels = np.array([5, 2])
        out = knn_classify(train, labels, np.array([[0.5]]), k=2)
        assert out[0] == 2

    def test_screened_features_classify_held_out_tumors_perfectly(self):
        # 4 tumor-like classes with disjoint driver pairs: screen on the
        # training block one-versus-rest, then 3-NN on the union features
        # must label a held-out set without error
        from dcovselect.screening import one_vs_rest_screen

        ds, truth = synth_generate(83, 300, model="multiclass", classes=4, class_sep=3.0, seed=13)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n)
        train, test = perm[:63], perm[63:]
        _, union = one_vs_rest_screen(ds.X[train], ds.y[train])
        predicted = knn_classify(ds.X[np.ix_(train, union)], ds.y[train], ds.X[np.ix_(test, union)], k=3)
        assert np.array_equal(predicted, ds.y[test])
