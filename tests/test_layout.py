"""Screening outcomes depend on the data, not on its layout.

Each relation runs ``screen`` through the command line on two layouts of one
data set: the subjects shuffled, the feature columns reordered, or the
two-valued response recoded.
"""

import csv
import warnings
from pathlib import Path

import numpy as np
import pytest

from dcovselect.cli import main
from dcovselect.dcov import _column_blocks

N, P = 150, 60


def run(*argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(list(argv))


def design(seed=61):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(N, P)) * 10.0 ** rng.integers(-2, 3, size=P)
    signal = x[:, 0] / x[:, 0].std() + x[:, 1] / x[:, 1].std() * (x[:, 2] > 0)
    return x, signal + 0.5 * rng.normal(size=N)


def write_design(path: Path, names, x, labels) -> Path:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow([*names, "response"])
        for row, label in zip(x, labels):
            out.writerow([*map(repr, row.tolist()), label])
    return path


def screen(data: Path, out: Path, *flags) -> Path:
    assert run("screen", "--input", str(data), "--label-col", "response", *flags, "--out-dir", str(out)) == 0
    return out


def rows(path: Path, *columns):
    with open(path, newline="") as fh:
        return [tuple(row[c] for c in columns) for row in csv.DictReader(fh)]


NAMES = [f"g{j}" for j in range(P)]


@pytest.mark.parametrize("response", ["continuous", "binary"])
@pytest.mark.parametrize("method", ["dcov", "dcsis"])
def test_shuffled_subjects_give_the_same_files(tmp_path, response, method):
    x, y = design()
    assert np.unique(y).size == N  # a continuous response without ties
    labels = [repr(v) for v in y.tolist()] if response == "continuous" else ["1" if v > 0 else "-1" for v in y]
    base = screen(write_design(tmp_path / "data.csv", NAMES, x, labels), tmp_path / "base", "--method", method)
    rng = np.random.default_rng(62)
    for k in range(2):
        order = rng.permutation(N)
        data = write_design(tmp_path / f"shuffled{k}.csv", NAMES, x[order], [labels[i] for i in order])
        out = screen(data, tmp_path / f"shuffled{k}", "--method", method)
        assert (out / "ranking.csv").read_bytes() == (base / "ranking.csv").read_bytes()
        assert (out / "selected.csv").read_bytes() == (base / "selected.csv").read_bytes()
        if method == "dcov" and response == "continuous":  # the walk works in y order, z-scores too
            assert (out / "trajectory.csv").read_bytes() == (base / "trajectory.csv").read_bytes()
        elif method == "dcov":  # the same steps; within a class the subjects keep their file order
            steps = rows(out / "trajectory.csv", "step", "feature_index", "accepted")
            assert steps == rows(base / "trajectory.csv", "step", "feature_index", "accepted")
            values = [float(v) for (v,) in rows(out / "trajectory.csv", "joint_dcov2")]
            want = [float(v) for (v,) in rows(base / "trajectory.csv", "joint_dcov2")]
            np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)


def assert_ranking_maps_through(base: Path, out: Path, names, perm):
    """``out`` screened the columns ``perm`` of ``base``'s: the same ranked names with bitwise r², each at its new index."""
    ranked = rows(out / "ranking.csv", "rank", "feature", "marginal_r2")
    assert ranked == rows(base / "ranking.csv", "rank", "feature", "marginal_r2")
    assert len({r2 for _, _, r2 in ranked}) == len(names)  # no ties, which would rank by index
    assert rows(out / "selected.csv", "order", "feature") == rows(base / "selected.csv", "order", "feature")
    assert [names[perm[int(j)]] for (j,) in rows(out / "ranking.csv", "feature_index")] == [
        name for _, name, _ in ranked
    ]


@pytest.mark.parametrize("response", ["continuous", "binary"])
def test_reordered_columns_map_the_ranking_through_the_permutation(tmp_path, response):
    x, y = design()
    labels = [repr(v) for v in y.tolist()] if response == "continuous" else ["1" if v > 0 else "-1" for v in y]
    base = screen(write_design(tmp_path / "data.csv", NAMES, x, labels), tmp_path / "base")
    perm = np.random.default_rng(63).permutation(P)
    data = write_design(tmp_path / "permuted.csv", [NAMES[j] for j in perm], x[:, perm], labels)
    assert_ranking_maps_through(base, screen(data, tmp_path / "permuted"), NAMES, perm)


def test_reversed_columns_across_sweep_blocks_map_the_ranking(tmp_path):
    """A continuous response's sweep takes the columns in blocks; reversed, every column changes block."""
    n, p = 40, 7000
    assert len(_column_blocks(n, p)) >= 3
    rng = np.random.default_rng(64)
    x = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-2, 3, size=p)
    y = x[:, 0] / x[:, 0].std() + x[:, -1] / x[:, -1].std() + 0.5 * rng.normal(size=n)
    names = [f"g{j}" for j in range(p)]
    labels = [repr(v) for v in y.tolist()]
    base = screen(write_design(tmp_path / "data.csv", names, x, labels), tmp_path / "base", "--method", "dcsis")
    perm = np.arange(p)[::-1]
    data = write_design(tmp_path / "reversed.csv", [names[j] for j in perm], x[:, perm], labels)
    assert_ranking_maps_through(base, screen(data, tmp_path / "reversed", "--method", "dcsis"), names, perm)


@pytest.mark.parametrize("method", [("--method", "dcov"), ("--method", "dcsis", "--model-size", "5")])
def test_recoded_status_selects_the_same_features(tmp_path, method):
    x, y = design()
    status = y > 0
    codings = {
        "plus_minus_one": (["1" if s else "-1" for s in status], ()),
        "zero_one": (["1" if s else "0" for s in status], ()),
        "tenths": (["0.7" if s else "0.1" for s in status], ()),
        "text": (["case" if s else "control" for s in status], ("--positive-label", "case")),
    }
    selected = {}
    for name, (labels, flags) in codings.items():
        data = write_design(tmp_path / f"{name}.csv", NAMES, x, labels)
        selected[name] = (screen(data, tmp_path / name, *method, *flags) / "selected.csv").read_bytes()
    assert len(set(selected.values())) == 1, selected
