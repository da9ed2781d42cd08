import tracemalloc

import numpy as np
import pytest

from dcovselect import screening
from dcovselect.dcov import centered_distances, dcov2, dcov2_joint, marginal_dcor2
from dcovselect.screening import (
    STOP_DECREASE,
    STOP_EXHAUSTED,
    STOP_MODEL_SIZE,
    ScreeningConfig,
    default_model_size,
    marginal_rank,
    one_vs_rest_screen,
    screen,
)

from oracles import composed_greedy_walk, composed_marginal_dcor2, composed_standardize


def greedy_reference(x, response, epsilon=0.0, m=1, standardize=True):
    """Exhaustive re-implementation of the greedy walk for cross-checking.

    Recomputes every joint value from scratch via column concatenation
    instead of the package's incremental distance updates.
    """
    x = np.asarray(x, dtype=float)
    if standardize:
        x = screening._standardize_in_place(x.copy())
    ranking, _ = marginal_rank(x, response)
    selected = [int(ranking[0])]
    current = dcov2(x[:, selected], response)
    remaining = [int(i) for i in ranking[1:]]
    trajectory = [current]
    while remaining:
        admitted = None
        for pos, j in enumerate(remaining[:m]):
            value = dcov2_joint([x[:, selected], x[:, [j]]], response)
            trajectory.append(value)
            if value >= current - epsilon:
                admitted = pos
                current = value
                selected.append(j)
                break
        if admitted is None:
            return selected, STOP_DECREASE, trajectory
        remaining.pop(admitted)
    return selected, STOP_EXHAUSTED, trajectory


class TestMarginalRank:
    def test_exact_driver_ranks_first(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(100, 10))
        y = x[:, 3].copy()
        ranking, r2 = marginal_rank(x, y)
        assert ranking[0] == 3
        assert r2[3] == pytest.approx(1.0, abs=1e-12)

    def test_single_feature(self):
        ranking, _ = marginal_rank(np.arange(5.0)[:, None], np.arange(5.0))
        assert list(ranking) == [0]

    def test_tie_break_prefers_lower_index(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=30)
        x = np.column_stack([rng.normal(size=30), col, col])
        y = col + rng.normal(size=30)
        ranking, r2 = marginal_rank(x, y)
        assert r2[1] == r2[2]
        assert list(ranking[:2]) == [1, 2]

    def test_constant_response_warns_and_zeroes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 4))
        with pytest.warns(UserWarning, match="constant"):
            _, r2 = marginal_rank(x, np.full(20, 1.0))
        assert np.all(r2 == 0.0)


class TestTiedColumns:
    """Mathematically tied columns of a 0/1/2 design tie bitwise and rank by index."""

    @staticmethod
    def design():
        rng = np.random.default_rng(47)
        n = 90
        labels = np.repeat(["a", "b", "c"], [40, 30, 20])
        x = rng.binomial(2, rng.uniform(0.1, 0.5, size=30), size=(n, 30)).astype(float)
        x[:, 0] += labels == "a"  # a driver, so the tied groups rank among the rest
        x[:, 9] = x[:, 3]  # a duplicate
        x[:, 6] = 1.0  # a constant column
        # twins: within-class permutations of one SNP, out of index order
        for j in (11, 2, 7):
            for c in "abc":
                rows = np.flatnonzero(labels == c)
                x[rows, j] = x[rng.permutation(rows), 12]
        return x, labels, [[3, 9], [2, 7, 11, 12]]

    @staticmethod
    def assert_ties_rank_by_index(result, groups):
        position = np.argsort(result.ranking)
        for group in groups:
            assert len({result.marginal_r2[j].tobytes() for j in group}) == 1
            assert np.all(np.diff(position[group]) > 0)

    def test_tied_groups_rank_in_index_order(self):
        x, labels, groups = self.design()
        y = np.where(labels == "a", 1.0, -1.0)
        r2 = marginal_dcor2(x, y)
        for group in groups:
            assert len({r2[j].tobytes() for j in group}) == 1
        assert r2[6] == 0.0
        for method in ("dcov_greedy", "dc_sis"):
            for standardize in (True, False):
                config = ScreeningConfig(method=method, standardize=standardize)
                self.assert_ties_rank_by_index(screen(x, y, config), groups)
                per_class, _ = one_vs_rest_screen(x, labels, config)
                for result in per_class.values():
                    self.assert_ties_rank_by_index(result, groups)


class TestDcSis:
    def test_default_model_size(self):
        assert default_model_size(63) == 15

    def test_full_and_singleton_prefixes(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(40, 6))
        y = x[:, 4] + rng.normal(size=40)
        for k in (1, 6):
            res = screen(x, y, ScreeningConfig(method="dc_sis", d_model_size=k))
            assert res.selected == res.ranking[:k].tolist()

    def test_default_model_size_is_capped_at_the_feature_count(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(60, 10))  # floor(60 / log 60) = 14
        res = screen(x, x[:, 3] + rng.normal(size=60), ScreeningConfig(method="dc_sis"))
        assert sorted(res.selected) == list(range(10))
        labels = np.repeat(["a", "b", "c"], 20)
        _, union = one_vs_rest_screen(x, labels, ScreeningConfig(method="dc_sis"))
        assert union == list(range(10))

    @pytest.mark.parametrize("binary", [False, True])
    def test_model_size_above_the_feature_count_is_rejected_before_ranking(self, monkeypatch, binary):
        def ranked(*args, **kwargs):
            raise AssertionError("ranked before the model size was checked")

        monkeypatch.setattr(screening, "marginal_rank", ranked)
        monkeypatch.setattr(screening, "marginal_dcor2", ranked)
        monkeypatch.setattr(screening, "column_terms", ranked)
        x = np.random.default_rng(17).normal(size=(30, 10))
        config = ScreeningConfig(method="dc_sis", d_model_size=11)
        with pytest.raises(ValueError, match="model size"):
            if binary:
                one_vs_rest_screen(x, np.arange(30) % 3, config)
            else:
                screen(x, x[:, 0], config)

    def test_screen_dispatch(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(63, 30))
        y = x[:, 5] + 0.1 * rng.normal(size=63)
        res = screen(x, y, ScreeningConfig(method="dc_sis"))
        assert len(res.selected) == 15
        assert res.stop_reason == STOP_MODEL_SIZE
        assert res.selected[0] == 5


class TestGreedy:
    def test_constant_column_tie_is_admitted(self):
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=60)
        x = np.column_stack([x1, np.full(60, 7.0)])
        res = screen(x, x1)
        assert res.selected == [0, 1]
        assert res.stop_reason == STOP_EXHAUSTED
        assert res.trajectory[1] == res.trajectory[0]  # exact tie

    def test_independent_noise_stops(self):
        stops = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            x1 = rng.normal(size=200)
            x = np.column_stack([x1, rng.normal(size=200)])
            res = screen(x, x1)
            if res.selected == [0] and res.stop_reason == STOP_DECREASE:
                stops += 1
        assert stops >= 18

    def test_infinite_epsilon_selects_everything(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 6))
        y = x[:, 0] + rng.normal(size=40)
        res = screen(x, y, ScreeningConfig(epsilon=np.inf))
        assert sorted(res.selected) == list(range(6))
        assert res.stop_reason == STOP_EXHAUSTED

    def test_trajectory_records_rejection(self):
        rng = np.random.default_rng(6)
        x1 = rng.normal(size=200)
        x = np.column_stack([x1, rng.normal(size=200)])
        res = screen(x, x1)
        assert res.stop_reason == STOP_DECREASE
        assert len(res.trajectory) == 2
        assert res.trajectory_accepted == [True, False]
        assert res.trajectory[1] < res.trajectory[0]

    def test_accepted_steps_never_drop_more_than_epsilon(self):
        eps = 0.01
        rng = np.random.default_rng(7)
        x = rng.normal(size=(80, 12))
        y = x[:, 2] + 0.5 * x[:, 9] + 0.3 * rng.normal(size=80)
        res = screen(x, y, ScreeningConfig(epsilon=eps))
        accepted = [v for v, a in zip(res.trajectory, res.trajectory_accepted) if a]
        for prev, nxt in zip(accepted, accepted[1:]):
            assert nxt >= prev - eps - 1e-15

    def test_matches_reference_walk(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            x = rng.normal(size=(30, 5))
            y = x[:, 1] + 0.5 * rng.normal(size=30)
            res = screen(x, y)
            sel, reason, traj = greedy_reference(x, y)
            assert res.selected == sel
            assert res.stop_reason == reason
            assert np.allclose(res.trajectory, traj, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("response", ["binary", "continuous"])
    def test_every_step_equals_joint_dcov(self, response):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(40, 8))
        signal = x[:, 2] + 0.5 * x[:, 5]
        y = {
            "binary": (signal > 0).astype(float),
            "continuous": signal + 0.3 * rng.normal(size=40),
        }[response]
        res = screen(x, y, ScreeningConfig(epsilon=0.05, m_lookahead=2))
        xs = screening._standardize_in_place(x.copy())
        selected = []
        for value, j, accepted in zip(res.trajectory, res.trajectory_features, res.trajectory_accepted):
            assert abs(value - dcov2_joint([xs[:, selected + [j]]], y)) < 1e-12
            if accepted:
                selected.append(j)
        assert selected == res.selected

    def test_response_of_several_columns_is_rejected(self):
        x = np.random.default_rng(15).normal(size=(20, 4))
        for y in (np.column_stack([x[:, 0], x[:, 1] ** 2]), np.tile([0.0, 1.0], (10, 2))):
            with pytest.raises(ValueError, match="one column"):
                screen(x, y)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 8))
        y = x[:, 0] + rng.normal(size=50)
        a = screen(x, y)
        b = screen(x, y)
        assert a.selected == b.selected
        assert a.trajectory == b.trajectory
        assert np.array_equal(a.ranking, b.ranking)


class TestLookahead:
    # frozen instance: ranking is [0, 1, 2]; the rank-2 candidate strictly
    # decreases the joint value while the rank-3 one does not
    X_CRAFTED = np.array(
        [
            [0.7, 2.3, -1.7],
            [-0.1, 1.2, 1.1],
            [1.4, 0.2, 1.2],
            [2.4, 0.9, 1.3],
            [-0.6, -2.0, -0.3],
            [-0.1, 1.2, -0.4],
            [0.1, 0.1, 1.7],
            [0.3, -0.3, 0.2],
            [0.4, 1.0, -0.6],
            [1.8, 1.1, 0.7],
            [0.9, -0.0, -1.3],
            [-0.4, -0.7, 1.0],
        ]
    )
    Y_CRAFTED = np.array([0.4, -0.0, 1.6, 1.9, -0.7, -0.1, 0.5, 0.1, 0.6, 1.9, 0.6, -0.1])

    def test_crafted_case_m2_recovers_rank3(self):
        res1 = screen(self.X_CRAFTED, self.Y_CRAFTED, ScreeningConfig(m_lookahead=1))
        res2 = screen(self.X_CRAFTED, self.Y_CRAFTED, ScreeningConfig(m_lookahead=2))
        assert res1.selected == [0]
        assert res2.selected == [0, 2]
        sel_ref, reason_ref, _ = greedy_reference(self.X_CRAFTED, self.Y_CRAFTED, m=2)
        assert res2.selected == sel_ref
        assert res2.stop_reason == reason_ref

    def test_m1_is_plain_greedy(self):
        for seed in range(8):
            rng = np.random.default_rng(300 + seed)
            x = rng.normal(size=(25, 6))
            y = x[:, 0] + 0.4 * rng.normal(size=25)
            plain = screen(x, y, ScreeningConfig(m_lookahead=1))
            look = screen(x, y, ScreeningConfig())
            assert plain.selected == look.selected
            assert plain.trajectory == look.trajectory

    def test_m_equals_p_scans_whole_remainder(self):
        for seed in range(8):
            rng = np.random.default_rng(400 + seed)
            x = rng.normal(size=(25, 6))
            y = x[:, 3] + 0.4 * rng.normal(size=25)
            res = screen(x, y, ScreeningConfig(m_lookahead=6))
            sel, reason, _ = greedy_reference(x, y, m=6)
            assert res.selected == sel
            assert res.stop_reason == reason

    def test_skipped_candidate_stays_eligible(self):
        res2 = screen(self.X_CRAFTED, self.Y_CRAFTED, ScreeningConfig(m_lookahead=2))
        # feature 1 was skipped when feature 2 was admitted but was tested
        # again afterwards before the walk stopped
        assert res2.trajectory_features.count(1) == 2


class TestOneVsRest:
    def test_two_classes_give_identical_sets(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(60, 12))
        labels = np.array(["a"] * 30 + ["b"] * 30)
        x[labels == "a", 0] += 2.0
        per_class, union = one_vs_rest_screen(x, labels)
        assert set(per_class) == {"a", "b"}
        assert per_class["a"].selected == per_class["b"].selected
        assert union == sorted(set(per_class["a"].selected))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            one_vs_rest_screen(np.zeros((4, 2)), np.array(["a", "a", "a", "a"]))

    def test_tiny_class_skipped_with_warning(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(21, 5))
        labels = np.array(["a"] * 10 + ["b"] * 10 + ["c"])
        with pytest.warns(UserWarning, match="skipped"):
            per_class, _ = one_vs_rest_screen(x, labels)
        assert "c" not in per_class

    def test_disjoint_drivers_recovered(self):
        rng = np.random.default_rng(11)
        n_per, classes, p = 20, 4, 40
        x = rng.normal(size=(n_per * classes, p))
        labels = np.repeat([f"c{i}" for i in range(classes)], n_per)
        for i in range(classes):
            x[labels == f"c{i}", 2 * i : 2 * i + 2] += 3.0
        _, union = one_vs_rest_screen(x, labels)
        assert set(range(2 * classes)) <= set(union)

    @pytest.mark.parametrize("method", ["dcov_greedy", "dc_sis"])
    def test_each_class_ranks_as_its_indicator_does(self, method):
        # the column terms are shared across the classes; each class's r^2 stays its own screen's
        rng = np.random.default_rng(13)
        x = rng.integers(0, 3, size=(90, 30)).astype(float)
        x[:, 7] = x[:, 2]
        labels = np.array(["a", "b", "c"])[rng.integers(0, 3, size=90)]
        x[labels == "b", 4] += 1.0
        config = ScreeningConfig(method=method)
        per_class, _ = one_vs_rest_screen(x, labels, config)
        for c, result in per_class.items():
            indicator = np.where(labels == c, 0.0, 1.0)
            ranking, r2 = marginal_rank(x, indicator)
            assert result.marginal_r2.tobytes() == r2.tobytes()
            assert result.ranking.tobytes() == ranking.tobytes()
            alone = screen(x, indicator, config)
            assert result.selected == alone.selected
            assert result.trajectory == alone.trajectory


class TestWalkMemory:
    """No response builds an n x n array; the greedy walk holds about n^2 / 2 floats."""

    @pytest.mark.parametrize("method, bound", [("dcov_greedy", 1.0), ("dc_sis", 0.05)])
    def test_binary_screen_peaks_below_one_square_matrix(self, method, bound):
        n = 2000
        rng = np.random.default_rng(47)
        x = rng.normal(size=(n, 6))
        y = np.where(x[:, 0] + x[:, 1] + x[:, 2] + rng.normal(size=n) > 0.0, 1.0, -1.0)
        tracemalloc.start()
        try:
            result = screen(x, y, ScreeningConfig(method=method, d_model_size=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(result.selected) == [0, 1, 2]
        # one n x n float array is 32 MB
        assert peak < bound * 8 * n * n

    @pytest.mark.parametrize("method, bound", [("dcov_greedy", 1.0), ("dc_sis", 0.05)])
    def test_continuous_screen_peaks_below_one_square_matrix(self, method, bound):
        n = 2000
        rng = np.random.default_rng(47)
        x = rng.normal(size=(n, 6))
        y = x[:, 0] + x[:, 1] + x[:, 2] + 0.5 * rng.normal(size=n)
        tracemalloc.start()
        try:
            result = screen(x, y, ScreeningConfig(method=method, d_model_size=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(result.selected) == [0, 1, 2]
        assert peak < bound * 8 * n * n

    @pytest.mark.parametrize("method, bound", [("dcov_greedy", 1.0), ("dc_sis", 0.05)])
    def test_other_codings_peak_and_select_as_plus_minus_one(self, method, bound):
        n = 2000
        rng = np.random.default_rng(47)
        x = rng.normal(size=(n, 6))
        status = x[:, 0] + x[:, 1] + x[:, 2] + rng.normal(size=n) > 0.0
        config = ScreeningConfig(method=method, d_model_size=3)
        tracemalloc.start()
        try:
            result = screen(x, np.where(status, 0.7, 0.1), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * n * n
        plus_minus_one = screen(x, np.where(status, 1.0, -1.0), config)
        assert np.array_equal(result.ranking, plus_minus_one.ranking)
        assert result.selected == plus_minus_one.selected
        assert result.trajectory_accepted == plus_minus_one.trajectory_accepted


class TestStandardizeFlag:
    def test_affine_rescaling_leaves_selection_unchanged(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(60, 8))
        y = x[:, 1] + 0.5 * x[:, 4] + 0.3 * rng.normal(size=60)
        scales = rng.uniform(0.5, 20.0, size=8) * rng.choice([-1.0, 1.0], size=8)
        shifts = rng.uniform(-5.0, 5.0, size=8)
        base = screen(x, y)
        rescaled = screen(x * scales + shifts, y)
        assert np.array_equal(base.ranking, rescaled.ranking)
        assert base.selected == rescaled.selected

    def test_standardize_off_is_scale_sensitive_jointly(self):
        # blowing one column up by 1e3 without standardization changes the
        # joint walk; with standardization it cannot
        rng = np.random.default_rng(13)
        x = rng.normal(size=(60, 4))
        y = x[:, 0] + x[:, 1] + 0.2 * rng.normal(size=60)
        cfg_raw = ScreeningConfig(standardize=False)
        res_std = screen(x, y)
        x_blown = x.copy()
        x_blown[:, 1] *= 1e3
        res_std_blown = screen(x_blown, y)
        assert res_std.selected == res_std_blown.selected
        assert screen(x, y, cfg_raw).trajectory != screen(x_blown, y, cfg_raw).trajectory


def test_config_validation():
    with pytest.raises(ValueError):
        ScreeningConfig(method="pearson")
    with pytest.raises(ValueError):
        ScreeningConfig(epsilon=-0.1)
    with pytest.raises(ValueError, match="epsilon must be nonnegative, got nan"):
        ScreeningConfig(epsilon=float("nan"))  # every comparison with NaN is false
    assert ScreeningConfig(epsilon=float("inf")).epsilon == float("inf")  # never stop
    with pytest.raises(ValueError):
        ScreeningConfig(m_lookahead=0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "pure interaction components are marginally near-independent of the "
        "response (population dcor^2 ~ 8e-4 vs an n=200 null sampling level of "
        "~1.6e-2), so they cannot reach the top floor(n/log n) marginal ranks; "
        "see the recovery test in the acceptance suite for the attainable "
        "4-driver analog"
    ),
)
def test_recovery_of_additive_plus_weak_interaction_model():
    # y = x1 + x2 + 0.5*x3*x4 + noise, n = 200, p = 1000: all four drivers in
    # the top floor(n / log n) marginal ranks in >= 85% of 20 seeds
    n, p, seeds = 200, 1000, 20
    top = default_model_size(n)
    misses = 0
    for seed in range(seeds):
        rng = np.random.default_rng(9000 + seed)
        x = rng.normal(size=(n, p))
        y = x[:, 0] + x[:, 1] + 0.5 * x[:, 2] * x[:, 3] + rng.normal(size=n)
        ranking, _ = marginal_rank(x, y)
        if not {0, 1, 2, 3} <= set(int(i) for i in ranking[:top]):
            misses += 1
        assert misses <= int(0.15 * seeds), (
            f"drivers missing from the top {top} in {misses} seeds already"
        )


class TestLeanGreedy:
    """The row-block walk and the z-scores against their former compositions."""

    @staticmethod
    def designs():
        rng = np.random.default_rng(41)
        yield rng.normal(size=(2, 3)), np.array([1.0, -1.0])
        x = rng.integers(0, 3, size=(40, 12)).astype(float)  # ties
        x[:, 5] = 1.5  # a constant column
        yield x, np.where(x[:, 0] + rng.normal(size=40) > 1.0, 1.0, -1.0)
        x = rng.normal(size=(60, 15)) * 10.0 ** rng.integers(-3, 4, size=15)
        yield x, x[:, 2] - x[:, 7] ** 2 + rng.normal(size=60)
        for n in (5, 17, 33):
            x = rng.normal(size=(n, 8))
            yield x, rng.normal(size=(n, 2))[:, 0]  # two columns drawn, one kept: the later designs keep their draws
        # below, at and just above one row block, and several blocks
        for n in (63, 64, 65, 130, 300):
            x = rng.normal(size=(n, 10))
            x[:, 3] = np.round(x[:, 3])
            x[:, 8] = x[:, 1]  # a duplicate
            status = (x[:, 0] + x[:, 1] + rng.normal(size=n) > 0.0).astype(float)
            yield x, 2.0 * status - 1.0  # -1/+1
            yield x, status  # 0/1
            yield x, x[:, 0] * x[:, 2] + rng.normal(size=n)
        x = rng.normal(size=(130, 6))
        yield x, np.r_[np.zeros(64), np.ones(66)]  # the class boundary on a block boundary
        lone = np.zeros(70)
        lone[37] = 1.0
        yield rng.normal(size=(70, 6)), lone  # a one-member class
        # two values a gap apart that is not a whole number: class blocks too
        x = rng.normal(size=(65, 6))
        x[:, 4] = x[:, 1]  # a duplicate
        yield x, np.where(x[:, 0] > 0.0, 0.7, 0.1)
        status = (x[:, 0] + rng.normal(size=65) > 0.0).astype(float)
        yield x, (status - status.mean()) / status.std()  # z-scored 0/1
        yield rng.normal(size=(2, 3)), np.array([0.7, 0.1])
        yield rng.normal(size=(70, 6)), np.where(lone == 1.0, 0.1, 0.7)  # a one-member class
        yield rng.normal(size=(20, 5)), np.full(20, 3.0)  # a constant response

    @pytest.mark.filterwarnings("ignore:response is constant")
    @pytest.mark.parametrize("m, epsilon", [(1, 0.0), (3, 0.0), (1, 1e-3), (3, 0.05)])
    def test_walk_equals_its_former_composition(self, m, epsilon):
        """Discrete outcomes are the composition's; r^2 and joint values agree to 1e-12."""
        for x, y in self.designs():
            config = ScreeningConfig(m_lookahead=m, epsilon=epsilon)
            result = screen(x, y, config)
            ranking, r2 = marginal_rank(x, y)
            b = centered_distances(y)
            selected, trajectory, features, accepted = composed_greedy_walk(
                composed_standardize(x), ranking, b, epsilon, m
            )
            assert result.ranking.tobytes() == ranking.tobytes()
            assert result.marginal_r2.tobytes() == r2.tobytes()
            assert np.abs(r2 - composed_marginal_dcor2(x, b)).max() < 1e-12
            assert result.selected == selected
            np.testing.assert_allclose(result.trajectory, trajectory, rtol=1e-12, atol=0.0)
            assert result.trajectory_features == features
            assert result.trajectory_accepted == accepted
            assert result.stop_reason == (STOP_EXHAUSTED if len(selected) == x.shape[1] else STOP_DECREASE)

    def test_standardize_columns_equals_its_former_composition(self):
        for x, _ in self.designs():
            before = x.copy()
            assert screening._standardize_in_place(x.astype(float)).tobytes() == composed_standardize(x).tobytes()
            assert np.array_equal(x, before)
