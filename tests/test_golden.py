"""Recorded outcomes of small CLI runs, compared as the benchmark gate compares them.

Each golden in ``tests/golden/`` holds the digests of a few runs on one
design: discrete outcomes (rankings, selections, post-model features, tuned
penalties, decisions, votes) compared exactly, and sampled floats at
``bench/check.py``'s relative tolerance.  The comparison is
``bench/check.py``'s own ``digest`` and ``reference_failures``.

``tied_genotypes.json`` pins a 0/1/2 genotype design with duplicated SNPs,
a constant column and within-class permutations of other SNPs, where
mathematically tied columns reach the ranking and the selected sets.
``permute-mcv`` digests as ``mcv``.  The one-versus-rest ``screen`` runs
label the same design with three classes, and the continuous ``screen`` runs
give it a real-valued response with ties, which is ranked by row sweeps.
Each ``svmr-fit`` run is followed by ``svmr-predict`` with its model; one
fits all features, the other the golden ``screen`` run's ``selected.csv``,
which lists duplicated SNPs, so the LP chooses between tied columns.
``svmr_digest`` digests the support and the decisions exactly, and the
objective, the intercept and the supported coefficients as floats.
``check.digest`` reads one ``ranking.csv`` and a trajectory, so
``ranking_digest`` digests each ranking and selection of a run, and the
union ``selected.csv``, in the same form.  To re-record the golden after an
intended change of outcomes::

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import importlib.util
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dcovselect.cli import main
from dcovselect.data import Dataset, emit
from dcovselect.svm_reject import COEF_ZERO_TOL

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "tied_genotypes.json"

_spec = importlib.util.spec_from_file_location("bench_check", ROOT / "bench" / "check.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

DESIGN = {"seed": 11, "n": 200, "p": 400}
D_VALUES = "1/3,1/4,1/5"
SVMR_FIT = ["svmr-fit", "--d", "1/4", "--r", "0.1"]
COMMANDS = {
    "screen": ["screen"],
    "cv5": ["cv5", "--method", "dcsis", "--d", D_VALUES],
    "mcv": ["mcv", "--method", "dcsis", "--d", D_VALUES, "--voting", "all", "--reps", "4"],
    "cv5-greedy": ["cv5", "--d", D_VALUES],
    "mcv-greedy": ["mcv", "--d", D_VALUES, "--reps", "4"],
    "permute-mcv": ["permute-mcv", "--method", "dcsis", "--d", D_VALUES, "--reps", "4"],
    "screen-3class": ["screen"],
    "screen-3class-dcsis": ["screen", "--method", "dcsis"],
    "screen-continuous": ["screen"],
    "screen-continuous-dcsis": ["screen", "--method", "dcsis"],
    "svmr-fit": SVMR_FIT,
    "svmr-fit-selected": [*SVMR_FIT, "--features", "screen/selected.csv"],
}
THREE_CLASS = ("screen-3class", "screen-3class-dcsis")
CONTINUOUS = ("screen-continuous", "screen-continuous-dcsis")
WITHOUT_TRAJECTORY = (*THREE_CLASS, "screen-continuous-dcsis")


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


def three_classes(ds):
    """The design with its cases split in two by the sum of SNPs 1 and 2.

    The controls form one class, so that class's indicator is the status
    itself and the within-class permutations still tie in its ranking.
    """
    cases = np.where(ds.X[:, 1] + ds.X[:, 2] >= 2.0, "caseA", "caseB")
    return dataclasses.replace(ds, y=np.where(ds.y < 0, "control", cases))


def continuous_response(ds):
    """The design with a real-valued response: the sum of SNPs 0-2 plus uniform noise rounded to 0.1.

    The response has ties, and uses uniform draws only.
    """
    noise = np.round(2.0 * np.random.default_rng(DESIGN["seed"] + 1).random(ds.X.shape[0]), 1)
    return dataclasses.replace(ds, y=ds.X[:, :3].sum(axis=1) + noise)


def ranking_digest(out_dir):
    """``check.digest``'s form for a ``screen`` without a trajectory: every ranking and selection, and the union.

    A one-versus-rest run writes ``ranking_<label>.csv`` and
    ``selected_<label>.csv`` for each class; a ``--method dcsis`` run on
    one response writes ``ranking.csv``.
    """
    discrete = {"selected": check._sha([r["feature_index"] for r in check._rows(out_dir / "selected.csv")])}
    floats = {}
    for path in sorted(out_dir.glob("ranking*.csv")):
        suffix = path.stem.removeprefix("ranking")  # "" or "_<label>"
        ranking = check._rows(path)
        discrete[f"ranking{suffix}"] = check._sha([r["feature_index"] for r in ranking])
        if suffix:
            selected = check._rows(out_dir / f"selected{suffix}.csv")
            discrete[f"selected{suffix}"] = check._sha([r["feature_index"] for r in selected])
        prefix = f"{suffix[1:]}." if suffix else ""
        for r in ranking[: check.ORACLE_SAMPLE]:
            floats[f"{prefix}r2.{r['feature_index']}"] = float(r["marginal_r2"])
    return {"discrete": discrete, "floats": floats}


def svmr_digest(out_dir, predict_dir):
    """An ``svmr-fit`` run's support and fitted values, and the decisions of ``svmr-predict`` with its model.

    The support lists the fitted ``features`` whose internal coefficient
    exceeds ``svm_reject.COEF_ZERO_TOL`` in magnitude, as the model's
    ``nonzero_features`` does.
    """
    model = json.loads((out_dir / "model.json").read_text())
    kept = [
        (j, coef)
        for j, internal, coef in zip(model["features"], model["coef_internal"], model["coef"])
        if abs(internal) > COEF_ZERO_TOL
    ]
    decisions = [r["decision"] for r in check._rows(predict_dir / "predictions.csv")]
    floats = {"objective": model["objective"], "intercept": model["intercept"]}
    floats.update((f"coef.{j}", coef) for j, coef in kept)
    return {"discrete": {"support": [j for j, _ in kept], "decisions": check._sha(decisions)}, "floats": floats}


def run(name, work):
    """Write the design to ``work`` and digest the outputs of one command.

    A ``--features`` path names a file of another run under ``work``, which
    is made first if it is not there yet.
    """
    command, *flags = COMMANDS[name]
    if "--features" in flags:
        at = flags.index("--features") + 1
        source = Path(flags[at]).parent.name
        if not (work / source).exists():
            run(source, work)
        flags[at] = str(work / flags[at])
    data = work / "data.csv"
    ds = tied_genotypes(**DESIGN)
    emit(three_classes(ds) if name in THREE_CLASS else continuous_response(ds) if name in CONTINUOUS else ds, data)
    argv = [command, "--input", str(data), "--label-col", "status", *flags, "--seed", str(DESIGN["seed"])]
    assert main([*argv, "--out-dir", str(work / name)]) == 0
    if command == "svmr-fit":
        predicted = work / f"{name}-predict"
        model = work / name / "model.json"
        assert main(["svmr-predict", *argv[1:5], "--model", str(model), "--out-dir", str(predicted)]) == 0
        return svmr_digest(work / name, predicted)
    if name in WITHOUT_TRAJECTORY:
        return ranking_digest(work / name)
    return check.digest("mcv" if command == "permute-mcv" else command, work / name)


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
