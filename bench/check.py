"""Correctness gate for one CLI invocation's output directory.

Three independent checks, each returning a list of failure messages:

* ``reference_failures``: the run's discrete outputs (ranking order,
  selected sets, tuned penalties, decisions, votes, stop reasons) must equal
  the reference recorded for this workload and seed in
  ``bench/reference/<workload>.json``, and its sampled floats must agree to
  ``FLOAT_RTOL`` / ``FLOAT_ATOL``.
* ``oracle_failures``: marginal r^2 values the run reports are recomputed for
  a fixed sample of about 20 features with the O(n^2)
  ``dcovselect.dcov.dcor2`` path and must agree to ``ORACLE_TOL``.
* ``file_hashes``: every output file's SHA-256, so runs of one commit can be
  compared byte for byte.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12
ORACLE_TOL = 1e-12
ORACLE_SAMPLE = 20

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def file_hashes(out_dir):
    out_dir = Path(out_dir)
    return {
        str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def file_sizes(out_dir):
    return {str(p.relative_to(out_dir)): p.stat().st_size for p in sorted(Path(out_dir).rglob("*")) if p.is_file()}


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sha(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Output digests: discrete parts hashed per section, floats kept as values
# ---------------------------------------------------------------------------


def _record_digest(rec):
    return {
        "rep_id": rec["rep_id"],
        "selected": rec["selected"],
        "post_model_features": rec["post_model_features"],
        "tuned_r": rec["tuned_r"],
        "flagged": rec["flagged"],
        "decisions": rec["decisions"],
        "n_decision_train": rec["n_decision_train"],
        "n_decision_test": rec["n_decision_test"],
    }


def _record_floats(prefix, rec):
    return {
        f"{prefix}.rep{rec['rep_id']}.{key}": rec[key]
        for key in ("training_accuracy", "testing_accuracy", "max_marginal_r2")
    }


def digest(command, out_dir):
    """Discrete section hashes and sampled float values of one run."""
    out_dir = Path(out_dir)
    results = json.loads((out_dir / "results.json").read_text())
    discrete = {}
    floats = {}
    if command in ("mcv", "cv5"):
        for tag, run in sorted(results["runs"].items()):
            discrete[f"records_d{tag}"] = _sha([_record_digest(r) for r in run["records"]])
            for rec in run["records"]:
                floats.update(_record_floats(f"d{tag}", rec))
            for key, value in sorted(run.get("summary", {}).items()):
                floats[f"d{tag}.summary.{key}"] = value
            voting = out_dir / f"voting_d{tag}.csv"
            if voting.exists():
                discrete[f"votes_d{tag}"] = _sha(_rows(voting))
    if command == "cv5":
        discrete["selections"] = _sha(results["selections"])
        discrete["overlap"] = _sha(_rows(out_dir / "overlap.csv"))
    if command == "screen":
        ranking = _rows(out_dir / "ranking.csv")
        discrete["ranking"] = _sha([r["feature_index"] for r in ranking])
        discrete["selected"] = _sha(results["selected"])
        discrete["stop_reason"] = results["stop_reason"]
        trajectory = _rows(out_dir / "trajectory.csv")
        discrete["trajectory"] = _sha([(r["feature_index"], r["accepted"]) for r in trajectory])
        for r in trajectory:
            floats[f"trajectory.{r['step']}"] = float(r["joint_dcov2"])
        for r in ranking[:ORACLE_SAMPLE]:
            floats[f"r2.{r['feature_index']}"] = float(r["marginal_r2"])
    return {"discrete": discrete, "floats": {k: (None if v is None else float(v)) for k, v in floats.items()}}


def _close(a, b):
    if a is None or b is None or math.isnan(a) or math.isnan(b):
        return (a is None or math.isnan(a)) and (b is None or math.isnan(b))
    return abs(a - b) <= FLOAT_ATOL + FLOAT_RTOL * abs(b)


def load_reference(workload, seed):
    """The recorded digest for ``seed``, or ``None`` if none was recorded."""
    path = REFERENCE_DIR / f"{workload.name}.json"
    if not path.exists():
        return None
    stored = json.loads(path.read_text())
    if stored["spec"] != json.loads(json.dumps(workload.spec())):
        raise ValueError(f"{path} was recorded for another workload definition")
    return stored["seeds"].get(str(seed))


def reference_failures(found, expected):
    failures = []
    for key in sorted(set(found["discrete"]) | set(expected["discrete"])):
        if found["discrete"].get(key) != expected["discrete"].get(key):
            failures.append(f"discrete output {key} differs from the recorded reference")
    for key in sorted(set(found["floats"]) | set(expected["floats"])):
        if key not in found["floats"] or key not in expected["floats"]:
            failures.append(f"float {key} missing on one side")
        elif not _close(found["floats"][key], expected["floats"][key]):
            failures.append(
                f"float {key}: {found['floats'][key]!r} vs reference {expected['floats'][key]!r}"
            )
    return failures


# ---------------------------------------------------------------------------
# Oracle and invariants
# ---------------------------------------------------------------------------


def _sample(p, count=ORACLE_SAMPLE):
    return sorted({int(j) for j in np.linspace(0, p - 1, min(count, p))})


def _r2(x, y):
    from dcovselect.dcov import dcor2

    return dcor2(x, y).r2


def oracle_failures(command, out_dir, ds):
    """Recompute reported marginal r^2 with the O(n^2) path."""
    out_dir = Path(out_dir)
    results = json.loads((out_dir / "results.json").read_text())
    y = np.asarray(ds.y, dtype=float)
    failures = []
    if command == "screen":
        ranking = _rows(out_dir / "ranking.csv")
        reported = {int(r["feature_index"]): float(r["marginal_r2"]) for r in ranking}
        order = [int(r["feature_index"]) for r in ranking]
        if sorted(order) != list(range(ds.p)):
            return ["ranking.csv is not a permutation of the features"]
        values = [reported[j] for j in order]
        for pos in range(1, len(order)):
            a, b = values[pos - 1], values[pos]
            if a < b or (a == b and order[pos - 1] > order[pos]):
                return [f"ranking.csv out of order at rank {pos + 1}"]
        sample = sorted(set(order[: ORACLE_SAMPLE // 2]) | set(_sample(ds.p, ORACLE_SAMPLE // 2)))
        for j in sample:
            truth = _r2(ds.X[:, j], y)
            if abs(truth - reported[j]) > ORACLE_TOL:
                failures.append(f"r2 of feature {j}: ranking.csv {reported[j]!r} vs oracle {truth!r}")
        if results["selected"][0] != order[0]:
            failures.append("greedy walk does not start from the top-ranked feature")
        return failures
    # mcv / cv5: the top marginal r^2 of each training split is reported and the
    # walk starts from that feature; sampled features may not exceed it.
    sample = _sample(ds.p)
    r_grid = results["r_grid"]
    for tag, run in sorted(results["runs"].items()):
        for rec in run["records"]:
            if rec["flagged"] is not None:
                continue
            if rec["tuned_r"] not in r_grid:
                failures.append(f"d{tag} rep {rec['rep_id']}: tuned r {rec['tuned_r']} not in the grid")
            if not set(rec["decisions"]) <= {-1, 0, 1}:
                failures.append(f"d{tag} rep {rec['rep_id']}: decisions outside -1/0/+1")
            train = np.asarray(rec["train_idx"], dtype=int)
            top = _r2(ds.X[train, rec["selected"][0]], y[train])
            if abs(top - rec["max_marginal_r2"]) > ORACLE_TOL:
                failures.append(
                    f"d{tag} rep {rec['rep_id']}: max_marginal_r2 {rec['max_marginal_r2']!r} vs oracle {top!r}"
                )
            for j in sample:
                if _r2(ds.X[train, j], y[train]) > rec["max_marginal_r2"] + ORACLE_TOL:
                    failures.append(f"d{tag} rep {rec['rep_id']}: feature {j} beats the reported maximum")
    return failures
