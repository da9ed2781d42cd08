import dataclasses
import hashlib
import math
import struct
import threading
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dcovselect import cv, dcov, screening
from dcovselect.cv import (
    DEFAULT_VOTING_BINS,
    VotingRecord,
    five_fold_cv,
    kfold_partition,
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
from dcovselect.data import Dataset, synth_generate
from dcovselect.errors import SolverError
from dcovselect.screening import ScreeningConfig, screen
from dcovselect.svm_reject import RejectLossParams, fit, predict
from oracles import composed_marginal_dcor2, loop_voting_bins, loop_voting_scores, primal_fit_path

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
        matrix, union = selection_overlap([[1, 2, 3], [1, 2, 3]])
        assert np.array_equal(matrix, [[3, 3], [3, 3]])
        assert union == [1, 2, 3]

    def test_disjoint_sets(self):
        matrix, union = selection_overlap([[1, 2], [3, 4]])
        assert np.array_equal(matrix, [[2, 0], [0, 2]])
        assert union == [1, 2, 3, 4]

    def test_partial_overlap(self):
        matrix, union = selection_overlap([[1, 2, 3], [2, 3, 4], []])
        assert np.array_equal(matrix, [[3, 2, 0], [2, 3, 0], [0, 0, 0]])
        assert union == [1, 2, 3, 4]

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

    @pytest.mark.parametrize("flag", ["single_class_split", "single_class_train"])
    def test_flagged_record_holds_empty_selections_nan_and_zero_decisions(self, flag):
        if flag == "single_class_split":
            # 20/4 classes: most three-way splits leave a part single-class, even after the redraw
            ds, _ = synth_generate(24, 12, model="logistic", active=2, coef=0.3, class_counts=(20, 4), seed=4)
            records = mcv_run(ds, [1 / 4], R_GRID, n_reps=6, seed=1)[1 / 4].records

            def split_of(rec):  # the redraw from the replication's own stream
                rng = cv.stream(1, "partition", "mcv", rec.rep_id)
                tune_train_test_split(ds.n, rng)
                return tune_train_test_split(ds.n, rng)
        else:
            ds, _ = planted_dataset(n=60, p=8)
            y = -np.ones(ds.n)
            y[17] = 1.0  # only the fold that holds subject 17 out trains on one class
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                records = five_fold_cv(ds.with_response(y), [1 / 4], R_GRID, seed=3)[1 / 4].records
            folds = kfold_partition(ds.n, 5, cv.stream(3, "partition", "kfold"))

            def split_of(rec):
                rest = np.sort(np.concatenate([f for j, f in enumerate(folds) if j != rec.rep_id]))
                return folds[rec.rep_id], rest, np.array([], dtype=int)
        flagged = [rec for rec in records if rec.flagged is not None]
        assert flagged and any(rec.flagged is None for rec in records)
        for rec in flagged:
            fields = dataclasses.asdict(rec)
            assert fields.pop("flagged") == flag
            assert fields.pop("rep_id") == rec.rep_id
            for key, want in zip(("tune_idx", "train_idx", "test_idx"), split_of(rec)):
                got = fields.pop(key)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            decisions = fields.pop("decisions")
            assert decisions.dtype == np.dtype(int) and decisions.tolist() == [0] * ds.n
            for key in ("selected", "post_model_features", "tuning_losses"):
                assert fields.pop(key) == []
            for key in ("tuned_r", "training_accuracy", "testing_accuracy", "max_marginal_r2"):
                value = fields.pop(key)
                assert type(value) is float and math.isnan(value)
            for key in ("n_decision_train", "n_decision_test"):
                value = fields.pop(key)
                assert type(value) is int and value == 0
            assert fields == {}

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
    """One screen per split and one penalty path per (split, d); one thread pool screens the splits,
    then fits, tunes and scores each path."""

    D_VALUES = [1 / 3, 1 / 4, 1 / 5]

    def test_path_models_match_cold_fits(self, monkeypatch):
        # a path's first grid point is bitwise a fresh one-point fit; a fresh
        # fit at every penalty (a cold solve) and the primal oracle reach the
        # same optimum to rounding, and on this continuous design the same
        # support and decisions
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
                primal = primal_fit_path(x, y, R_GRID, RejectLossParams(d=d))
                assert models[0].coef.tobytes() == cold[0].coef.tobytes()
                assert models[0].intercept == cold[0].intercept
                assert models[0].objective == cold[0].objective
                x_all = ds.X[:, rec.selected]
                for model, reference, oracle in zip(models, cold, primal):
                    for found in (model, reference):
                        assert abs(found.objective - oracle.objective) <= 1e-9 * abs(oracle.objective)
                    assert model.nonzero_features == reference.nonzero_features == oracle.nonzero_features
                    assert np.array_equal(predict(model, x_all), predict(reference, x_all))
                    assert np.array_equal(predict(model, x_all), predict(oracle, x_all))

    def test_records_independent_of_cpu_count(self, monkeypatch):
        ds, _ = planted_dataset(n=120, p=15)
        for d_values in (self.D_VALUES, [1 / 4]):
            runs = []
            for cpus in (1, 2, 3):
                monkeypatch.setattr(cv, "_usable_cpus", lambda cpus=cpus: cpus)
                runs.append((
                    raw(mcv_run(ds, d_values, R_GRID, n_reps=4, seed=8)),
                    raw(five_fold_cv(ds, d_values, R_GRID, seed=3)),
                ))
            (mcv_1, folds_1), *others = runs
            for mcv_n, folds_n in others:
                assert mcv_n == mcv_1
                assert folds_n == folds_1

    def test_one_worker_and_two_give_equal_records(self, monkeypatch):
        # one usable CPU runs every job on one pool thread, none in the calling thread;
        # flagged splits, and a run whose splits are all flagged (no job), are among the runs
        threads = []
        real_screen = cv.screen

        def screen_on(x, y, config):
            threads[-1].add(threading.get_ident())
            return real_screen(x, y, config)

        rare, _ = synth_generate(24, 12, model="logistic", active=2, coef=0.3, class_counts=(20, 4), seed=4)
        lone, _ = synth_generate(24, 12, model="logistic", active=2, coef=0.3, class_counts=(1, 23), seed=4)
        runs = (
            lambda: mcv_run(rare, [1 / 3, 1 / 4], R_GRID, n_reps=6, seed=1),
            lambda: five_fold_cv(lone, [1 / 3, 1 / 4], R_GRID, seed=1),
            lambda: mcv_run(lone, [1 / 4], R_GRID, n_reps=3, seed=1),
        )
        monkeypatch.setattr(cv, "screen", screen_on)
        by_workers = {}
        for cpus in (1, 2):
            monkeypatch.setattr(cv, "_usable_cpus", lambda cpus=cpus: cpus)
            results = []
            for call in runs:
                threads.append(set())
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    results.append(call())
            by_workers[cpus] = raw(results)
        for screened_on in threads[: len(runs) - 1]:  # with one CPU; the last run screens nothing
            assert len(screened_on) == 1 and threading.get_ident() not in screened_on
        assert threads[len(runs) - 1] == set()
        assert by_workers[1] == by_workers[2]
        flags = [[rec.flagged for result in run.values() for rec in result.records] for run in results]
        assert "single_class_split" in flags[0] and None in flags[0]
        assert "single_class_train" in flags[1] and None in flags[1]
        assert set(flags[2]) == {"single_class_split"}

    def test_one_d_screens_and_fits_on_pool_threads(self, monkeypatch):
        ds, _ = planted_dataset(n=120, p=15)
        threads = {"screen": set(), "fit_path": set(), "tune_penalty": set()}
        real_screen, real_fit_path, real_tune_penalty = cv.screen, cv.fit_path, cv.tune_penalty

        def screen_on(x, y, config):
            threads["screen"].add(threading.get_ident())
            return real_screen(x, y, config)

        def fit_path_on(x, y, r_grid, params):
            threads["fit_path"].add(threading.get_ident())
            return real_fit_path(x, y, r_grid, params)

        def tune_penalty_on(*args):
            threads["tune_penalty"].add(threading.get_ident())
            return real_tune_penalty(*args)

        monkeypatch.setattr(cv, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cv, "screen", screen_on)
        monkeypatch.setattr(cv, "fit_path", fit_path_on)
        monkeypatch.setattr(cv, "tune_penalty", tune_penalty_on)
        five_fold_cv(ds, [1 / 4], R_GRID, seed=3)
        assert all(threads.values())
        assert threading.get_ident() not in threads["screen"] | threads["fit_path"] | threads["tune_penalty"]

    def test_single_class_warnings_come_from_the_main_thread_in_fold_order(self, monkeypatch):
        ds, _ = planted_dataset(n=60, p=8)
        warned = []

        def record(message, *args, **kwargs):
            warned.append((threading.get_ident(), str(message)))

        monkeypatch.setattr(cv, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cv, "warnings", types.SimpleNamespace(warn=record))
        # one positive subject: only the fold that holds it out trains on one class
        y = -np.ones(ds.n)
        y[17] = 1.0
        result = five_fold_cv(ds.with_response(y), [1 / 4], R_GRID, seed=3)[1 / 4]
        (fold,) = [rec.rep_id for rec in result.records if rec.flagged == "single_class_train"]
        assert 17 in result.records[fold].tune_idx
        assert warned == [(threading.get_ident(), f"fold {fold}: training split is single-class; skipped")]
        assert sum(rec.flagged is None for rec in result.records) == 4
        # one class everywhere: every fold warns, in fold order
        warned.clear()
        five_fold_cv(ds.with_response(-np.ones(ds.n)), [1 / 4], R_GRID, seed=3)
        assert warned == [
            (threading.get_ident(), f"fold {i}: training split is single-class; skipped") for i in range(5)
        ]

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
        # five folds and all subjects, in whichever order the pool threads reach them
        assert sorted(screened) == [(96, 15)] * 5 + [(120, 15)]
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
        started = []
        leading = set()  # split 0's d = 1/3 and 1/4 paths, the first two queued
        released = threading.Event()

        def rows(y):
            return hashlib.sha1(np.asarray(y, dtype=float).tobytes()).hexdigest()

        def failing_fit_path(x, y, r_grid, params):
            started.append(params.d)
            if (rows(y), params.d) not in leading:
                # a path queued after the failing one waits until the pool has cancelled its queue,
                # so how many paths start does not depend on timing
                released.wait(timeout=120.0)
            if params.d == 1 / 4 and 0.3 in r_grid:
                # every split's d = 1/4 path fails, each naming its training labels
                raise SolverError(f"linear program failed (status 4) [r=0.3, rows {rows(y)}]")
            return real_fit_path(x, y, r_grid, params)

        class CancellingPool(ThreadPoolExecutor):
            # cancels the queue first, then lets the held paths run
            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                released.set()
                super().shutdown(wait=wait)

        runs = (
            (lambda: mcv_run(ds, self.D_VALUES, R_GRID, n_reps=3, seed=8), 3),
            (lambda: five_fold_cv(ds, self.D_VALUES, R_GRID, seed=3), 5),
        )
        first_splits = [call().popitem()[1].records[0].train_idx for call, _ in runs]
        monkeypatch.setattr(cv, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cv, "fit_path", failing_fit_path)
        monkeypatch.setattr(cv, "ThreadPoolExecutor", CancellingPool)
        for (call, splits), train_idx in zip(runs, first_splits):
            started.clear()
            released.clear()
            leading.clear()
            leading.update((rows(ds.y[train_idx]), d) for d in self.D_VALUES[:2])
            outcome = finishes(call)
            error = outcome.get("error")
            assert isinstance(error, SolverError)
            # the first failing path in split-major order: split 0, d = 1/4
            assert f"rows {rows(ds.y[train_idx])}]" in str(error)
            # queued paths are cancelled, not solved
            assert len(started) < splits * len(self.D_VALUES)
            if cpus == 1:
                # the one pool thread runs the paths in order, and may take one past the failure
                assert started[:2] == self.D_VALUES[:2] and len(started) <= 3


def tied_genotypes(seed, n=200, p=150, coef=1.5, constant=20):
    """0/1/2 genotype codes with duplicated and constant columns, status driven by SNPs 0-2."""
    rng = np.random.default_rng(seed)
    maf = rng.uniform(0.05, 0.5, size=p)
    x = rng.binomial(2, maf, size=(n, p)).astype(float)
    x[:, 10:20] = x[:, :10]
    x[:, constant] = 1.0
    eta = coef * (x[:, :3] - 2.0 * maf[:3]).sum(axis=1)
    y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-eta)), 1.0, -1.0)
    return Dataset(X=x, feature_names=[f"snp{j}" for j in range(p)], y=y, subject_ids=[str(i) for i in range(n)])


class TestClassPathOutcomes:
    """Two-valued responses are ranked by class blocks; on a tied genotype design every
    discrete outcome equals the row sweep's."""

    @staticmethod
    def outcomes(ds):
        y = ds.y.astype(float)
        found = []
        for method in ("dcov_greedy", "dc_sis"):
            res = screen(ds.X, y, ScreeningConfig(method=method))
            found.append((res.ranking.tolist(), res.selected, res.trajectory_features, res.trajectory_accepted))
        d_values = [1 / 3, 1 / 4, 1 / 5]
        runs = [five_fold_cv(ds, d_values, R_GRID, seed=4), mcv_run(ds, d_values, R_GRID, n_reps=3, seed=4)]
        for run in runs:
            for d, result in run.items():
                found.append((d, getattr(result, "all_subjects", None)))
                found.extend(
                    (rec.selected, rec.post_model_features, rec.tuned_r, rec.decisions.tolist(), rec.flagged)
                    for rec in result.records
                )
        return found

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_class_path_and_sweep_give_the_same_outcomes(self, monkeypatch, seed):
        ds = tied_genotypes(seed)
        by_class = self.outcomes(ds)
        calls = []

        def swept_marginal(x, response, columns=None):
            # the sweep over the class blocks' own matrix, bitwise centered_distances of a -1/+1 status;
            # every screen ranks against the ClassBlocks it built
            calls.append(isinstance(response, dcov.ClassBlocks))
            classes = (np.argsort(response.order) >= response.n0).astype(int)  # class 1 from position n0 of the order on
            return composed_marginal_dcor2(x, response.beta[np.ix_(classes, classes)])

        monkeypatch.setattr(screening, "marginal_dcor2", swept_marginal)
        assert self.outcomes(ds) == by_class
        assert calls and all(calls)  # every screen had a two-valued response


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

    @pytest.mark.parametrize("mode", ["testing", "all"])
    @pytest.mark.parametrize("decision", [2, -2, 0.5])
    def test_decision_outside_the_three_labels_is_rejected(self, mode, decision):
        with pytest.raises(ValueError, match=r"decisions must be -1, 0 or \+1"):
            voting_scores([[0, 1]], [[1, decision]], 2, mode=mode)

    @pytest.mark.parametrize("mode", ["testing", "all"])
    @pytest.mark.parametrize("seed", range(3))
    def test_votes_and_bins_equal_the_loop_oracle(self, mode, seed):
        rng = np.random.default_rng(seed)
        n, n_reps = 60, 12
        test_sets = [np.sort(rng.choice(n, size=rng.integers(0, 10), replace=False)) for _ in range(n_reps)]
        decisions = rng.choice([-1, 0, 1], size=(n_reps, n))
        decisions[:, :20] = rng.choice([-1, 1], size=(n_reps, 20))  # subjects 0..19 are never withheld
        decisions[:, 20] = 1  # s > r wherever subject 20 is counted
        decisions[:, 21] = -1  # s < r
        decisions[:, 22] = np.resize([1, -1], n_reps)  # s = r when counted in every replication
        # the JSON payload hands voting_scores lists; the run hands it arrays
        tables = (test_sets, list(decisions)) if seed else ([t.tolist() for t in test_sets], decisions.tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            votes = voting_scores(*tables, n, mode=mode)
            no_reps = voting_scores([], [], n, mode=mode)
        expected = loop_voting_scores(test_sets, decisions, n, mode)

        def bits(value):
            return struct.pack("<d", value) if isinstance(value, float) else (type(value), value)

        for got, want in ((votes, expected), (no_reps, loop_voting_scores([], [], n, mode))):
            assert [tuple(map(bits, dataclasses.astuple(vote))) for vote in got] == [tuple(map(bits, w)) for w in want]
        cases = [(s, w, r) for _, s, w, r, _ in expected if w == 0 and s + r]
        assert any(s > r for s, _, r in cases) and any(s < r for s, _, r in cases) and any(s == r for s, _, r in cases)
        if mode == "testing":
            assert any(math.isnan(v.v) for v in votes)
        edges = [-0.1, 0.0, 0.1, 0.2, 0.4, 1.5]
        scores = [v.v for v in votes + no_reps] + [math.inf, -math.inf]
        scores += [x for e in edges for x in (np.nextafter(e, -math.inf), e, np.nextafter(e, math.inf))]
        scored = [VotingRecord(i, 0, 0, 0, float(x)) for i, x in enumerate(scores)]
        truths = rng.choice([-1.0, 1.0], size=len(scored))
        rows = voting_bins(scored, truths)
        want_rows = loop_voting_bins([float(x) for x in scores], truths, DEFAULT_VOTING_BINS)
        assert [{k: bits(x) for k, x in row.items()} for row in rows] == [
            {k: bits(x) for k, x in row.items()} for row in want_rows
        ]


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
    """Screened features separate held-out classes under a plain 3-nearest-neighbour vote."""

    @staticmethod
    def knn(train_x, train_y, test_x, k):
        # stable neighbour order; unique sorts, so a vote tie goes to the smallest label
        distances = np.linalg.norm(test_x[:, None, :] - train_x[None, :, :], axis=2)
        order = np.argsort(distances, axis=1, kind="stable")[:, :k]
        votes = [np.unique(train_y[row], return_counts=True) for row in order]
        return np.array([values[np.argmax(counts)] for values, counts in votes])

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
        predicted = self.knn(ds.X[np.ix_(train, union)], ds.y[train], ds.X[np.ix_(test, union)], k=3)
        assert np.array_equal(predicted, ds.y[test])
