import math

import numpy as np

from dcovselect.cv import VotingRecord
from dcovselect.report import (
    fmt,
    write_mcv_summary,
    write_overlap_table,
    write_pairwise_distance,
    write_voting,
    write_voting_bins,
)


def test_fmt_blanks_nan_and_roundtrips_floats():
    assert fmt(float("nan")) == ""
    assert fmt(None) == ""
    assert float(fmt(0.1)) == 0.1
    assert fmt(3) == "3"


def test_summary_with_no_decisive_reps_blanks_accuracies(tmp_path):
    # an McvSummary payload: NaN in a run, null once read back from results.json
    summary = dict(
        d=0.2,
        n_reps=50,
        n_decisive=0,
        mean_train_accuracy=float("nan"),
        std_train_accuracy=float("nan"),
        mean_test_accuracy=float("nan"),
        std_test_accuracy=float("nan"),
        mean_n_train_decision=float("nan"),
        std_n_train_decision=float("nan"),
        mean_n_test_decision=None,
        std_n_test_decision=None,
    )
    path = tmp_path / "summary.csv"
    write_mcv_summary(path, [summary])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("d,n_reps,n_decisive,mean_train_accuracy,")
    assert lines[1] == "0.2,50,0,,,,,,,,"


def test_voting_bins_na_for_empty_bin(tmp_path):
    votes = [VotingRecord(0, 1, 10, 0, 0.1)]
    path = tmp_path / "bins.csv"
    write_voting_bins(path, votes, np.array([1.0]))
    lines = path.read_text().splitlines()
    assert "NA" in lines[1]  # first bin is empty
    assert lines[2].startswith("(0.0,0.1],1")


def test_voting_sentinels_render_as_9_99(tmp_path):
    votes = [
        VotingRecord(0, 5, 0, 0, float("inf")),
        VotingRecord(1, 0, 0, 5, float("-inf")),
    ]
    path = tmp_path / "voting.csv"
    write_voting(path, votes, ["s1", "s2"])
    body = path.read_text().splitlines()[1:]
    assert body[0].endswith("9.99")
    assert body[1].endswith("-9.99")


def test_overlap_table_layout(tmp_path):
    path = tmp_path / "overlap.csv"
    write_overlap_table(path, np.array([[3, 2], [2, 4]]), ["S1", "S2"])
    lines = path.read_text().splitlines()
    assert lines[0] == "set,S1,S2"
    assert lines[1] == "S1,3,2"


def test_pairwise_distance_scaled_to_unit_max(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 3)) * 100.0
    path = tmp_path / "pd.csv"
    write_pairwise_distance(path, x, [f"s{i}" for i in range(6)])
    rows = [line.split(",")[1:] for line in path.read_text().splitlines()[1:]]
    values = np.array([[float(v) for v in row] for row in rows])
    assert values.max() == 1.0
    assert np.allclose(values, values.T)
    assert np.all(np.diag(values) == 0.0)
