import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from dcovselect.dcov import (
    SWEEP_BYTES,
    _column_blocks,
    as_block,
    centered_distances,
    class_blocks,
    dcor2,
    dcov2,
    dcov2_joint,
    dvar2,
    marginal_dcor2,
    pairwise_distances,
    sorted_response,
)
from dcovselect.errors import DataValidationError
from dcovselect.screening import marginal_rank

from oracles import (
    brute_dcor2,
    brute_dcov2,
    brute_dvar2,
    composed_center,
    composed_marginal_dcor2,
    unfused_cross_sums,
)


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

    @pytest.mark.parametrize("k", [1, 3])
    def test_peak_is_the_matrix_alone(self, k):
        n = 2000
        x = np.random.default_rng(k).normal(size=(n, k))
        tracemalloc.start()
        try:
            d = pairwise_distances(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * d.nbytes
        assert np.array_equal(d, cdist(x, x))


class TestEuclideanDistances:
    @pytest.mark.parametrize("k", range(1, 41))
    def test_bitwise_equal_to_cdist(self, k):
        rng = np.random.default_rng(k)
        # 28 to 145 rows: one row block, exactly one (k = 13), and several
        a = rng.normal(size=(25 + 3 * k, k)) * 10.0 ** rng.uniform(-3, 3, size=k)
        a[:, 0] = np.round(a[:, 0])  # tied coordinates
        a[4] = a[9]  # tied rows
        assert np.array_equal(pairwise_distances(a), cdist(a, a))


class TestDoubleCenter:
    """Double centering as ``centered_distances`` applies it to a block's distances."""

    def test_two_point_hand_value(self):
        # d=[[0,2],[2,0]]: row/col means are 1, grand mean 1 -> [[-1,1],[1,-1]]
        a = centered_distances(np.array([0.0, 2.0]))
        assert np.array_equal(a, [[-1.0, 1.0], [1.0, -1.0]])

    def test_zero_matrix_centers_to_zero(self):
        a = centered_distances(np.full((4, 2), 3.5))
        assert np.all(a == 0.0)

    def test_row_and_column_sums_vanish(self):
        rng = np.random.default_rng(11)
        a = centered_distances(rng.normal(size=(5, 3)))
        assert np.abs(a.sum(axis=0)).max() < 1e-12
        assert np.abs(a.sum(axis=1)).max() < 1e-12


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

    @pytest.mark.parametrize("response", ["binary", "continuous"])
    def test_random_instances_match_oracles(self, response):
        rng = np.random.default_rng(31)
        for trial in range(60):
            n = int(rng.integers(2, 10))
            x = rng.normal(size=(n, int(rng.integers(1, 5))))
            if trial % 2:
                x = np.round(2.0 * x)  # ties and repeated values
            if response == "binary":
                y = np.arange(n) % 2 if trial % 3 else rng.permutation(np.arange(n) % 2)
            else:
                y = rng.normal(size=n)
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

    def test_prebuilt_sorted_response_gives_the_same_bytes(self):
        rng = np.random.default_rng(36)
        x = rng.normal(size=(20, 6))
        y = np.round(rng.normal(size=20), 1)  # ties
        assert marginal_dcor2(x, sorted_response(y)).tobytes() == marginal_dcor2(x, y).tobytes()

    @pytest.mark.parametrize("y", [np.zeros((6, 2)), np.arange(12.0).reshape(6, 2), np.tile([0.0, 1.0], (3, 2))])
    def test_response_of_several_columns_is_rejected(self, y):
        with pytest.raises(ValueError, match="one column"):
            marginal_dcor2(np.arange(12.0).reshape(6, 2), y)

    def test_subject_order_does_not_move_values_for_a_response_without_ties(self):
        rng = np.random.default_rng(39)
        x = rng.normal(size=(60, 30)) * 10.0 ** rng.integers(-3, 4, size=30)
        y = x[:, 0] * x[:, 1] + rng.normal(size=60)
        want = marginal_dcor2(x, y)
        for _ in range(3):
            rows = rng.permutation(60)
            assert marginal_dcor2(x[rows], y[rows]).tobytes() == want.tobytes()

    def test_rejects_nonfinite_features(self):
        x = np.ones((5, 2))
        x[3, 1] = np.inf
        with pytest.raises(DataValidationError):
            marginal_dcor2(x, np.arange(5.0))

    def test_rejects_mismatched_sample_counts(self):
        with pytest.raises(ValueError):
            marginal_dcor2(np.zeros((4, 2)), np.arange(5.0))


def lean_kernel_blocks():
    """Blocks with ties, n = 2, constant and several columns, for the bitwise checks."""
    rng = np.random.default_rng(37)
    yield np.array([[0.0], [2.0]])
    yield np.array([[1.0, -4.0], [3.0, 0.5]])
    yield np.full((7, 1), 3.25)
    yield rng.integers(0, 3, size=(30, 1)).astype(float)
    yield rng.integers(0, 3, size=(25, 4)).astype(float)
    yield rng.normal(size=(40, 3)) * np.array([1e-3, 1.0, 1e4])
    for n in (3, 9, 60):
        yield rng.normal(size=(n, int(rng.integers(1, 5))))


class TestLeanKernels:
    """The in-place kernels against their former compositions, bit for bit."""

    @pytest.mark.parametrize("block", list(lean_kernel_blocks()), ids=lambda b: "x".join(map(str, b.shape)))
    def test_centered_distances_equal_double_center_of_distances(self, block):
        got = centered_distances(block)
        assert got.tobytes() == composed_center(pairwise_distances(block)).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("block", [[[0.0], [1e308]], [[1e308], [-1e308]], [[1e308, 1e308], [0.0, 0.0]]])
    def test_overflowing_distances_are_rejected(self, block):
        # every entry is finite, but a distance overflows to inf
        with pytest.raises(DataValidationError, match="non-finite"):
            centered_distances(np.array(block))

    @pytest.mark.parametrize("response", ["binary", "continuous"])
    def test_marginal_dcor2_equals_its_former_composition(self, response):
        """Both response forms agree with the sweep over the centered matrix to rounding."""
        rng = np.random.default_rng(38)
        for x in lean_kernel_blocks():
            n = x.shape[0]
            x = np.hstack([x, rng.normal(size=(n, 2)), np.full((n, 1), -2.0)])
            y = (np.arange(n) % 2).astype(float) if response == "binary" else rng.normal(size=n)
            swept = composed_marginal_dcor2(x, centered_distances(y))
            assert np.abs(marginal_dcor2(x, y) - swept).max() < 1e-12


class TestSortedResponse:
    """A response column as its sort order and two weight vectors."""

    @pytest.mark.parametrize("offset", [0.0, 1e6, -3e8])
    def test_weights_are_the_centered_matrix(self, offset):
        rng = np.random.default_rng(51)
        for n in (2, 3, 9, 65, 200):
            y = offset + rng.normal(size=n)
            y[n // 2] = y[0]  # a tie
            b = sorted_response(y)
            assert np.array_equal(y[b.order], np.sort(y))
            want = centered_distances(y)[np.ix_(b.order, b.order)]
            upper = np.triu_indices(n)
            built = (b.u[None, :] - b.v[:, None])[upper]
            scale = np.abs(want).max()
            assert np.abs(built - want[upper]).max() <= 1e-13 * scale
            assert abs(b.vy2 - np.mean(want * want)) <= 1e-13 * np.mean(want * want)

    @pytest.mark.parametrize("value", [0.7, 1.1, np.pi])
    def test_constant_response_has_exactly_zero_variance(self, value):
        y = np.full(11, value)
        assert np.var(y) > 0.0  # so a rounded variance would not tell
        assert sorted_response(y).vy2 == 0.0
        with pytest.warns(UserWarning, match="constant"):
            assert np.array_equal(marginal_dcor2(np.random.default_rng(52).normal(size=(11, 3)), y), np.zeros(3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("values", [(0.0, 1e308, 5.0), (-1e308, 0.5, 1e308), (-1e308, 1.0, 2.0)])
    def test_overflowing_statistics_are_rejected(self, values):
        x = np.random.default_rng(53).normal(size=(3, 2))
        for call in (sorted_response, lambda y: marginal_dcor2(x, y)):
            with pytest.raises(DataValidationError, match="non-finite"):
                call(np.array(values))


def sweep_width(n):
    """The widest column block a row sweep over ``n`` rows takes: ``n - 1`` rows of it fill ``SWEEP_BYTES``."""
    return SWEEP_BYTES // (8 * (n - 1))


class TestColumnBlockedSweep:
    """``SortedResponse.cross_sums`` against the unfused sweep over all columns, bit for bit."""

    @staticmethod
    def sweep(x, y):
        """The blocked and the unfused cross sums of ``x`` against ``y``, with the subjects in y order."""
        b = sorted_response(y)
        ordered = x[b.order]
        return b.cross_sums(ordered.copy(), None), unfused_cross_sums(b, ordered)

    @pytest.mark.parametrize("n", [40, 150])
    def test_widths_around_the_block_edges(self, n):
        w = sweep_width(n)
        rng = np.random.default_rng(71)
        y = np.round(rng.normal(size=n), 1)  # ties
        for p, blocks in ((w - 1, 1), (w, 1), (w + 1, 2), (2 * w + 3, 3)):
            assert len(_column_blocks(n, p)) == blocks
            x = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=p)
            got, want = self.sweep(x, y)
            assert got.tobytes() == want.tobytes(), p

    def test_duplicates_in_every_block_and_at_every_offset_tie_bitwise(self):
        n = 40
        w = sweep_width(n)
        rng = np.random.default_rng(72)
        x = rng.normal(size=(n, 2 * w + 3))
        base = rng.normal(size=n)
        copies = [lo + offset for lo, _ in _column_blocks(n, x.shape[1]) for offset in range(8)]
        copies += [hi - 1 for _, hi in _column_blocks(n, x.shape[1])]
        x[:, copies] = base[:, None]
        y = base + rng.normal(size=n)
        got, want = self.sweep(x, y)
        assert got.tobytes() == want.tobytes()
        assert len({got[j] for j in copies}) == 1
        r2 = marginal_dcor2(x, y)
        assert len({r2[j] for j in copies}) == 1 and r2[copies[0]] > 0.0

    def test_constant_columns_in_every_block_are_exactly_zero(self):
        n = 40
        w = sweep_width(n)
        rng = np.random.default_rng(73)
        x = rng.normal(size=(n, 2 * w + 3))
        constant = [lo + 3 for lo, _ in _column_blocks(n, x.shape[1])]
        x[:, constant] = rng.normal(size=len(constant)) * 1e5
        y = rng.normal(size=n)
        got, want = self.sweep(x, y)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[constant] == 0.0)
        assert np.all(marginal_dcor2(x, y)[constant] == 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_and_three_subjects(self, n):
        rng = np.random.default_rng(74)
        for y in (rng.normal(size=n), np.r_[np.zeros(n - 1), 1.0]):  # the second ties
            x = np.round(rng.normal(size=(n, 17)), 1)
            got, want = self.sweep(x, y)
            assert got.tobytes() == want.tobytes()

    def test_a_column_alone_gets_its_cross_sum_among_many(self):
        """A column's cross sum does not depend on its neighbours, block or width, one column included."""
        n = 40
        rng = np.random.default_rng(75)
        b = sorted_response(np.round(rng.normal(size=n), 1))
        x = rng.normal(size=(n, 2 * sweep_width(n) + 3))[b.order]
        got = b.cross_sums(x.copy(), None)
        for j in (0, 7, sweep_width(n), x.shape[1] - 1):
            assert b.cross_sums(x[:, [j]], None).tobytes() == got[j : j + 1].tobytes()
            assert b.cross_sums(x[:, [j, j]], None).tobytes() == np.repeat(got[j], 2).tobytes()


CODINGS = {"plus_minus_one": (-1.0, 1.0), "zero_one": (0.0, 1.0), "tenths": (0.1, 0.7), "z_scored": None}


def coded(classes, coding):
    """The classes as a response column in ``coding``; ``z_scored`` is the z-scored 0/1 column."""
    classes = np.asarray(classes)
    if coding == "z_scored":
        return (classes - classes.mean()) / classes.std()
    low, high = CODINGS[coding]
    return np.where(classes == 1, high, low)


def assert_class_order(blocks, classes):
    """``blocks`` puts the subjects of class 0, then of class 1, each in index order, and counts class 0."""
    assert np.array_equal(blocks.order, np.argsort(classes, kind="stable"))
    assert blocks.n0 == np.count_nonzero(classes == 0)


class TestClassBlockKernel:
    """The class path for two-valued responses against brute force and the sweep."""

    @staticmethod
    def assert_matches_oracles(x, y):
        got = marginal_dcor2(x, class_blocks(y))
        assert got.tobytes() == marginal_dcor2(x, y).tobytes()
        swept = composed_marginal_dcor2(x, centered_distances(y))
        assert np.abs(got - swept).max() < 1e-12
        for j in range(x.shape[1]):
            assert abs(got[j] - brute_dcor2(x[:, j], y)) < 1e-12
        return got

    @pytest.mark.parametrize("coding", CODINGS)
    def test_random_instances_with_ties_match_oracles(self, coding):
        rng = np.random.default_rng(41)
        for trial in range(60):
            n = int(rng.integers(2, 14))
            x = rng.normal(size=(n, int(rng.integers(1, 6))))
            if trial % 2:
                x = np.round(1.5 * x)  # ties and repeated values
            classes = rng.permutation(np.arange(n) % 2)
            self.assert_matches_oracles(x, coded(classes, coding))

    @pytest.mark.parametrize("coding", CODINGS)
    def test_n_equals_two(self, coding):
        x = np.array([[0.0, 5.0, 1.0], [2.0, 5.0, -3.0]])
        got = self.assert_matches_oracles(x, coded([1, 0], coding))
        assert np.array_equal(got, [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("coding", CODINGS)
    def test_constant_columns_are_exactly_zero(self, coding):
        rng = np.random.default_rng(42)
        x = rng.integers(0, 3, size=(30, 5)).astype(float)
        x[:, 1] = 0.1
        x[:, 3] = -7.3e5
        got = self.assert_matches_oracles(x, coded(rng.permutation(np.arange(30) % 2), coding))
        assert got[1] == 0.0
        assert got[3] == 0.0

    @pytest.mark.parametrize("coding", CODINGS)
    @pytest.mark.parametrize("lone", [0, 1])
    def test_one_member_class(self, coding, lone):
        rng = np.random.default_rng(43)
        for n in (2, 3, 9, 40):
            classes = np.full(n, 1 - lone)
            classes[int(rng.integers(n))] = lone
            x = rng.integers(0, 3, size=(n, 6)).astype(float)
            x[:, 0] = rng.normal(size=n)
            self.assert_matches_oracles(x, coded(classes, coding))

    @pytest.mark.parametrize("coding", ["plus_minus_one", "zero_one"])
    def test_closed_form_matrix_is_bitwise_the_generic_one(self, coding):
        rng = np.random.default_rng(44)
        ns = [2, 3, 5, *rng.integers(2, 300, size=40)]
        for n in ns:
            classes = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
            classes[0], classes[-1] = 0, 1
            y = coded(classes, coding)
            blocks = class_blocks(y)
            assert_class_order(blocks, classes)
            assert blocks.beta[:, classes][classes].tobytes() == composed_center(pairwise_distances(y)).tobytes()

    @pytest.mark.parametrize("coding", ["plus_minus_one", "zero_one"])
    def test_class_codes_stand_for_the_matrix(self, coding):
        rng = np.random.default_rng(48)
        for n in (2, 3, 40, 279):
            classes = (rng.random(n) < 0.4).astype(int)
            classes[0], classes[-1] = 0, 1
            y = coded(classes, coding)
            b = centered_distances(y)
            blocks = class_blocks(y)
            assert_class_order(blocks, classes)
            assert blocks.beta[:, classes][classes].tobytes() == b.tobytes()
            # dVar^2 from the class counts, against the mean over the matrix
            assert abs(blocks.vy2 - np.mean(b * b)) <= 1e-14 * np.mean(b * b)
            x = rng.normal(size=(n, 5))
            assert marginal_dcor2(x, y).tobytes() == marginal_dcor2(x, blocks).tobytes()
            assert np.abs(composed_marginal_dcor2(x, b) - marginal_dcor2(x, blocks)).max() < 1e-12

    @pytest.mark.parametrize("coding", ["tenths", "z_scored"])
    def test_other_codings_are_class_blocks_to_rounding(self, coding):
        rng = np.random.default_rng(49)
        for n in (2, 3, 11, 40, 279):
            classes = (rng.random(n) < 0.4).astype(int)
            classes[0], classes[-1] = 0, 1
            y = coded(classes, coding)
            b = centered_distances(y)
            blocks = class_blocks(y)
            assert_class_order(blocks, classes)
            scale = np.abs(b).max()
            assert np.abs(blocks.beta[:, classes][classes] - b).max() <= 1e-14 * scale
            assert abs(blocks.vy2 - np.mean(b * b)) <= 1e-13 * np.mean(b * b)

    @pytest.mark.parametrize("y", [np.arange(6.0), np.full(6, 2.0), np.zeros((6, 2)), np.tile([0.0, 1.0], (3, 2))])
    def test_responses_that_are_not_two_valued_columns_carry_no_classes(self, y):
        assert class_blocks(y) is None

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("values", [(0.0, 1e200), (-1e200, 0.5), (-1e308, 1e308), (0.0, 1e308)])
    def test_overflowing_gap_is_rejected(self, values):
        # every entry is finite, but a block constant or dVar^2 overflows
        classes = np.arange(9) % 2
        y = np.where(classes == 1, values[1], values[0])
        x = np.random.default_rng(50).normal(size=(9, 3))
        for call in (class_blocks, lambda y: marginal_dcor2(x, y), centered_distances):
            with pytest.raises(DataValidationError, match="non-finite"):
                call(y)

    @staticmethod
    def assert_ties_rank_by_index(r2, ranking, groups):
        """Each group's values are bitwise equal and rank in ascending index."""
        position = np.argsort(ranking)
        for group in groups:
            assert len({r2[j].tobytes() for j in group}) == 1
            assert np.all(np.diff(position[sorted(group)]) > 0)

    @pytest.mark.parametrize("coding", CODINGS)
    def test_within_class_permutations_tie_in_the_class_kernel_and_rank_in_index_order(self, coding):
        rng = np.random.default_rng(45)
        n = 60
        classes = (rng.random(n) < 0.4).astype(int)
        y = coded(classes, coding)
        base = rng.binomial(2, 0.3, size=n).astype(float)
        twins = []
        for _ in range(6):
            twin = base.copy()
            for c in (0, 1):
                rows = np.flatnonzero(classes == c)
                twin[rows] = base[rng.permutation(rows)]
            twins.append(twin)
        others = rng.binomial(2, 0.3, size=(n, 8)).astype(float)
        x = np.column_stack([others[:, :3], base, *twins[:3], others[:, 3:], *twins[3:]])
        # the class kernel sees each column as one multiset per class
        ranking, r2 = marginal_rank(x, y)
        self.assert_ties_rank_by_index(r2, ranking, [[3, 4, 5, 6, 12, 13, 14]])

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_ties_bitwise_and_matches_the_sweep(self, layout):
        """A duplicate and a within-class twin tie bitwise in every storage
        order and coding, and every column agrees with the sweep to rounding."""
        rng = np.random.default_rng(46)
        for trial in range(40):
            n = int(rng.choice([2, 3, 7, 40, 148, 279]))
            p = int(rng.integers(2, 40))
            x = rng.binomial(2, rng.uniform(0.02, 0.5, size=p), size=(n, p)).astype(float)
            classes = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
            classes[0], classes[-1] = 0, 1
            if p >= 4:
                x[:, p // 2] = x[:, 0]  # a duplicate
                for c in (0, 1):  # and a within-class twin
                    rows = np.flatnonzero(classes == c)
                    x[rows, p // 2 + 1] = x[rng.permutation(rows), 1]
            if trial % 2:
                x = 0.3 * x - 1.7  # codes that are not whole numbers
            x = {"C": x, "F": np.asfortranarray(x), "strided": np.repeat(x, 2, axis=1)[:, ::2]}[layout]
            y = coded(classes, list(CODINGS)[trial % len(CODINGS)])
            got = marginal_dcor2(x, y)
            swept = composed_marginal_dcor2(x, centered_distances(y))
            assert np.abs(got - swept).max() < 1e-12
            if p >= 4:
                ranking = np.argsort(-got, kind="stable")
                self.assert_ties_rank_by_index(got, ranking, [[0, p // 2], [1, p // 2 + 1]])
