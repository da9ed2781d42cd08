import numpy as np
import pytest
from scipy.spatial.distance import cdist

from dcovselect.dcov import (
    as_block,
    centered_distances,
    dcor2,
    dcov2,
    dcov2_joint,
    double_center,
    dvar2,
    euclidean_distances,
    marginal_dcor2,
    pairwise_distances,
)
from dcovselect.errors import DataValidationError

from oracles import brute_dcor2, brute_dcov2, brute_dvar2


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


class TestPairwiseDistances:
    def test_two_points_univariate(self):
        d = pairwise_distances(np.array([0.0, 2.0]))
        assert np.array_equal(d, [[0.0, 2.0], [2.0, 0.0]])

    def test_3_4_5_triangle(self):
        d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d[0, 1] == 5.0
        assert d[1, 0] == 5.0

    def test_exact_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 3))
        d = pairwise_distances(x)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DataValidationError):
            pairwise_distances(np.array([0.0, np.nan, 1.0]))

    def test_rejects_single_row(self):
        with pytest.raises(DataValidationError):
            as_block(np.array([1.0]))


class TestEuclideanDistances:
    @pytest.mark.parametrize("k", range(1, 41))
    def test_bitwise_equal_to_cdist(self, k):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(31, k)) * 10.0 ** rng.uniform(-3, 3, size=k)
        a[:, 0] = np.round(a[:, 0])  # tied coordinates
        a[4] = a[9]  # tied rows
        b = rng.normal(size=(17, k))
        b[2] = a[5]
        assert np.array_equal(euclidean_distances(a, a), cdist(a, a))
        assert np.array_equal(euclidean_distances(a, b), cdist(a, b))
        assert np.array_equal(euclidean_distances(b, a), cdist(b, a))
        assert np.array_equal(pairwise_distances(a), cdist(a, a))

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError, match="column counts differ"):
            euclidean_distances(np.zeros((3, 2)), np.zeros((4, 3)))


class TestDoubleCenter:
    def test_two_point_hand_value(self):
        # d=[[0,2],[2,0]]: row/col means are 1, grand mean 1 -> [[-1,1],[1,-1]]
        a = double_center(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert np.array_equal(a.entries, [[-1.0, 1.0], [1.0, -1.0]])

    def test_zero_matrix_centers_to_zero(self):
        a = double_center(np.zeros((4, 4)))
        assert np.all(a.entries == 0.0)

    def test_row_and_column_sums_vanish(self):
        rng = np.random.default_rng(11)
        m = np.abs(rng.normal(size=(5, 5)))
        d = m + m.T
        np.fill_diagonal(d, 0.0)
        a = double_center(d)
        assert np.abs(a.entries.sum(axis=0)).max() < 1e-12
        assert np.abs(a.entries.sum(axis=1)).max() < 1e-12

    def test_rejects_asymmetric(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(DataValidationError):
            double_center(d)


class TestDcovAgainstBruteForce:
    def test_two_point_hand_value(self):
        x = np.array([0.0, 2.0])
        assert dcov2(x, x) == 1.0
        assert dvar2(x) == 1.0

    def test_three_point_frozen_value(self):
        # brute-force evaluation of x = y = (0, 1, 2) gives 40/81
        x = np.array([0.0, 1.0, 2.0])
        want = 40.0 / 81.0
        assert rel_err(dcov2(x, x), want) < 1e-12
        assert rel_err(brute_dcov2(x, x), want) < 1e-15

    def test_constant_block_gives_zero(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.full(4, 7.0)
        assert dcov2(x, y) == 0.0
        assert dvar2(y) == 0.0

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            kx = int(rng.integers(1, 4))
            ky = int(rng.integers(1, 4))
            x = rng.normal(size=(n, kx))
            y = rng.normal(size=(n, ky))
            assert rel_err(dcov2(x, y), brute_dcov2(x, y)) < 1e-12
            assert rel_err(dvar2(x), brute_dvar2(x)) < 1e-12
            assert rel_err(dcor2(x, y).r2, brute_dcor2(x, y)) < 1e-12

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(15, 2))
        y = rng.normal(size=(15, 1))
        assert abs(dcov2(x, y) - dcov2(y, x)) < 1e-12

    def test_mismatched_sample_counts(self):
        with pytest.raises(ValueError):
            dcov2(np.zeros((3, 1)), np.zeros((4, 1)))


class TestDcor:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=30)
        assert dcor2(x, x).r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_argument_gives_zero(self):
        x = np.arange(6.0)
        y = np.full(6, 3.0)
        stats = dcor2(x, y)
        assert stats.r2 == 0.0
        assert stats.vy2 == 0.0

    def test_affine_image_has_correlation_one(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=25)
        assert dcor2(x, 3.0 * x + 7.0).r2 == pytest.approx(1.0, abs=1e-12)

    def test_range_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            x = rng.normal(size=(n, int(rng.integers(1, 3))))
            y = rng.normal(size=(n, int(rng.integers(1, 3))))
            r2 = dcor2(x, y).r2
            assert 0.0 <= r2 <= 1.0

    def test_scale_and_shift_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=40)
        y = rng.normal(size=40) + 0.5 * x
        base = dcor2(x, y).r2
        for a, b in [(2.0, 3.0), (0.0, -1.0), (0.25, -10.0)]:
            assert abs(dcor2(a + b * x, y).r2 - base) < 1e-9


class TestJoint:
    def test_single_block_matches_dcov2(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        assert dcov2_joint([x], y) == dcov2(x, y)

    def test_constant_column_leaves_value_unchanged(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=30)
        y = x + rng.normal(size=30)
        const = np.full(30, 4.2)
        assert dcov2_joint([x, const], y) == dcov2(x, y)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            dcov2_joint([], np.arange(3.0))

    def test_independent_column_rarely_increases(self):
        # companion of the augmentation inequality: run at modest scale here,
        # the full 100-seed check lives in the acceptance suite
        hits = 0
        trials = 20
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            x = rng.normal(size=200)
            y = x + 0.5 * rng.normal(size=200)
            z = rng.normal(size=200)
            if dcov2_joint([x, z], y) <= dcov2(x, y):
                hits += 1
        assert hits >= int(0.9 * trials)

    def test_matches_concatenation(self):
        rng = np.random.default_rng(13)
        x1 = rng.normal(size=(10, 2))
        x2 = rng.normal(size=(10, 1))
        y = rng.normal(size=10)
        joint = dcov2_joint([x1, x2], y)
        assert joint == dcov2(np.hstack([x1, x2[:, None] if x2.ndim == 1 else x2]), y)


class TestMarginalDcor2:
    """The vectorised kernel against the brute-force and per-column paths."""

    @staticmethod
    def assert_matches_oracles(x, y):
        got = marginal_dcor2(x, y)
        assert got.shape == (x.shape[1],)
        for j in range(x.shape[1]):
            assert abs(got[j] - brute_dcor2(x[:, j], y)) < 1e-12
            assert abs(got[j] - dcor2(x[:, j], y).r2) < 1e-12

    @pytest.mark.parametrize("response", ["binary", "continuous", "two_columns"])
    def test_random_instances_match_oracles(self, response):
        rng = np.random.default_rng(31)
        for trial in range(60):
            n = int(rng.integers(2, 10))
            x = rng.normal(size=(n, int(rng.integers(1, 5))))
            if trial % 2:
                x = np.round(2.0 * x)  # ties and repeated values
            if response == "binary":
                y = np.arange(n) % 2 if trial % 3 else rng.permutation(np.arange(n) % 2)
            elif response == "continuous":
                y = rng.normal(size=n)
            else:
                y = rng.normal(size=(n, 2))
            self.assert_matches_oracles(x, np.asarray(y, dtype=float))

    def test_n_equals_two(self):
        x = np.array([[0.0, 5.0, 1.0], [2.0, 5.0, -3.0]])
        y = np.array([1.0, 0.0])
        self.assert_matches_oracles(x, y)
        assert np.array_equal(marginal_dcor2(x, y), [1.0, 0.0, 1.0])

    def test_wider_panel_with_ties(self):
        rng = np.random.default_rng(32)
        x = rng.integers(0, 3, size=(40, 25)).astype(float)  # genotype-like codes
        y = (rng.random(40) < 0.4).astype(float)
        self.assert_matches_oracles(x, y)

    def test_constant_columns_are_exactly_zero(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=(15, 4))
        x[:, 1] = 0.1
        x[:, 3] = -7.3e5
        r2 = marginal_dcor2(x, rng.normal(size=15))
        assert r2[1] == 0.0
        assert r2[3] == 0.0
        assert r2[0] > 0.0

    def test_constant_response_warns_and_zeroes(self):
        x = np.random.default_rng(34).normal(size=(12, 3))
        with pytest.warns(UserWarning, match="constant"):
            r2 = marginal_dcor2(x, np.zeros(12))
        assert np.array_equal(r2, np.zeros(3))

    def test_duplicate_columns_get_identical_values(self):
        rng = np.random.default_rng(35)
        base = rng.normal(size=(50, 1))
        # copies at many offsets, so any position-dependent summation shows
        x = np.hstack([rng.normal(size=(50, 37)), base, rng.normal(size=(50, 20)), base, base])
        r2 = marginal_dcor2(x, base[:, 0] + rng.normal(size=50))
        assert r2[37] == r2[58] == r2[59]

    def test_precomputed_response_matrix_gives_same_values(self):
        rng = np.random.default_rng(36)
        x = rng.normal(size=(20, 6))
        y = rng.normal(size=(20, 2))
        assert np.array_equal(marginal_dcor2(x, centered_distances(y)), marginal_dcor2(x, y))

    def test_rejects_nonfinite_features(self):
        x = np.ones((5, 2))
        x[3, 1] = np.inf
        with pytest.raises(DataValidationError):
            marginal_dcor2(x, np.arange(5.0))

    def test_rejects_mismatched_sample_counts(self):
        with pytest.raises(ValueError):
            marginal_dcor2(np.zeros((4, 2)), np.arange(5.0))


def test_centered_distances_cache_fields():
    x = np.array([0.0, 1.0, 3.0])
    c = centered_distances(x)
    d = pairwise_distances(x)
    assert np.allclose(c.row_means, d.mean(axis=1))
    assert np.allclose(c.col_means, d.mean(axis=0))
    assert c.grand_mean == pytest.approx(d.mean())
