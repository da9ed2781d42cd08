"""Recorded outcomes of small CLI runs, compared as the benchmark gate compares them.

Each golden in ``tests/golden/`` holds the digests of a few runs on one
design: discrete outcomes (rankings, selections, post-model features, tuned
penalties, decisions, votes) compared exactly, and sampled floats at
``bench/check.py``'s relative tolerance.  The comparison is
``bench/check.py``'s own ``digest`` and ``reference_failures``.

``tied_genotypes.json`` pins a 0/1/2 genotype design with duplicated SNPs,
a constant column and within-class permutations of other SNPs, where
mathematically tied columns reach the ranking and the selected sets.  To
re-record it after an intended change of outcomes::

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib.util
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dcovselect.cli import main
from dcovselect.data import Dataset, emit

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "tied_genotypes.json"

_spec = importlib.util.spec_from_file_location("bench_check", ROOT / "bench" / "check.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

DESIGN = {"seed": 11, "n": 200, "p": 400}
D_VALUES = "1/3,1/4,1/5"
COMMANDS = {
    "screen": ["screen"],
    "cv5": ["cv5", "--method", "dcsis", "--d", D_VALUES],
    "mcv": ["mcv", "--method", "dcsis", "--d", D_VALUES, "--voting", "all", "--reps", "4"],
    "cv5-greedy": ["cv5", "--d", D_VALUES],
    "mcv-greedy": ["mcv", "--d", D_VALUES, "--reps", "4"],
}


def tied_genotypes(seed, n, p):
    """0/1/2 codes with tied columns; status driven by SNPs 0-2.

    Columns 10-19 copy 0-9, column 25 is constant, and columns 30-34 are
    within-class permutations of columns 40-44.  Only uniform draws are
    used, so the design is the same under every numpy version.
    """
    rng = np.random.default_rng(seed)
    maf = 0.05 + 0.45 * rng.random(p)
    x = (rng.random((n, p)) < maf).astype(float) + (rng.random((n, p)) < maf)
    x[:, 10:20] = x[:, :10]
    x[:, 25] = 1.0
    eta = 1.2 * (x[:, :3] - 2.0 * maf[:3]).sum(axis=1)
    y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-eta)), 1.0, -1.0)
    for j in range(30, 35):
        for c in (-1.0, 1.0):
            rows = np.flatnonzero(y == c)
            x[rows, j] = x[rows[np.argsort(rng.random(rows.size))], j + 10]
    return Dataset(
        X=x, feature_names=[f"snp{j}" for j in range(p)], y=y, subject_ids=[str(i) for i in range(n)], label_name="status"
    )


def run(name, work):
    """Write the design to ``work`` and digest the outputs of one command."""
    data = work / "data.csv"
    emit(tied_genotypes(**DESIGN), data)
    command, *flags = COMMANDS[name]
    argv = [command, "--input", str(data), "--label-col", "status", *flags, "--seed", str(DESIGN["seed"])]
    assert main([*argv, "--out-dir", str(work / name)]) == 0
    return check.digest(command, work / name)


@pytest.mark.parametrize("name", COMMANDS)
def test_tied_genotypes_keep_their_recorded_outcomes(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert golden["design"] == DESIGN and golden["commands"] == COMMANDS
    assert check.reference_failures(run(name, tmp_path), golden["runs"][name]) == []


def record(work):
    runs = {name: run(name, work) for name in COMMANDS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"design": DESIGN, "commands": COMMANDS, "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        record(Path(work))
