"""Plot-ready table emission and run manifests.

Everything is written as delimited text (or JSON for structured results)
with deterministic formatting: cells go through ``data.fmt`` (shortest
round-trip ``repr`` for floats, the formatter ``data.emit`` uses), rows use
``\\n`` terminators, JSON keys are sorted, and no timestamps are recorded,
so identical runs produce byte-identical files.  Missing values are blank
in summary tables and ``NA`` in voting-bin tables.  The replication and
summary writers take payload dicts, the form a run records in
``results.json``: a run passes them straight from ``dataclasses.asdict``
and ``report`` as read back, and ``fmt`` writes JSON's ``null`` as it
writes NaN.  The summary table's columns are ``McvSummary``'s fields.
"""

import json
import math
import platform
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .cv import McvSummary, voting_bins
from .data import fmt

__all__ = [
    "fmt",
    "write_csv",
    "write_json",
    "write_manifest",
    "write_ranking",
    "write_selected",
    "write_trajectory",
    "write_overlap_table",
    "write_mcv_records",
    "write_mcv_summary",
    "write_voting",
    "write_voting_bins",
    "write_pairwise_distance",
    "write_frequency_histogram",
    "write_predictions",
]


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(cell) for cell in row) + "\n")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir, command: str, options: dict) -> Path:
    """Record ``options`` as given, with library versions and no clock."""
    out_dir = Path(out_dir)
    payload = {
        "command": command,
        "options": options,
        "versions": {
            "dcovselect": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    path = out_dir / "manifest.json"
    write_json(path, payload)
    return path


# ---------------------------------------------------------------------------
# Screening tables
# ---------------------------------------------------------------------------


def write_ranking(path, feature_names, ranking, marginal_r2) -> None:
    rows = [
        (pos + 1, int(j), feature_names[int(j)], marginal_r2[int(j)])
        for pos, j in enumerate(ranking)
    ]
    write_csv(path, ["rank", "feature_index", "feature", "marginal_r2"], rows)


def write_selected(path, feature_names, selected) -> None:
    rows = [(k + 1, int(j), feature_names[int(j)]) for k, j in enumerate(selected)]
    write_csv(path, ["order", "feature_index", "feature"], rows)


def write_trajectory(path, result) -> None:
    rows = [
        (step, int(j), value, int(accepted))
        for step, (j, value, accepted) in enumerate(
            zip(result.trajectory_features, result.trajectory, result.trajectory_accepted)
        )
    ]
    write_csv(path, ["step", "feature_index", "joint_dcov2", "accepted"], rows)


# ---------------------------------------------------------------------------
# Cross-validation tables
# ---------------------------------------------------------------------------


def write_overlap_table(path, matrix: np.ndarray, set_names: list[str]) -> None:
    rows = [[set_names[i]] + list(matrix[i]) for i in range(len(set_names))]
    write_csv(path, ["set"] + list(set_names), rows)


def write_mcv_records(path, records: list[dict]) -> None:
    """One row per ``ReplicationRecord`` payload."""
    rows = [
        (
            rec["rep_id"],
            len(rec["selected"]),
            len(rec["post_model_features"]),
            rec["tuned_r"],
            rec["training_accuracy"],
            rec["testing_accuracy"],
            rec["n_decision_train"],
            rec["n_decision_test"],
            rec["max_marginal_r2"],
            rec["flagged"],
        )
        for rec in records
    ]
    write_csv(
        path,
        [
            "rep",
            "n_selected",
            "n_post_model",
            "tuned_r",
            "training_accuracy",
            "testing_accuracy",
            "n_decision_train",
            "n_decision_test",
            "max_marginal_r2",
            "flagged",
        ],
        rows,
    )


def write_mcv_summary(path, summaries: list[dict]) -> None:
    """One row per ``McvSummary`` payload; the columns are its fields, in order."""
    header = [f.name for f in fields(McvSummary)]
    write_csv(path, header, [[s[name] for name in header] for s in summaries])


def write_voting(path, votes, subject_ids) -> None:
    def cell(v):
        if math.isinf(v):
            return "9.99" if v > 0 else "-9.99"  # saturated no-withhold score
        return v

    rows = [(subject_ids[v.subject], v.s, v.w, v.r, cell(v.v)) for v in votes]
    write_csv(path, ["subject", "n_positive", "n_withhold", "n_negative", "voting_score"], rows)


def write_voting_bins(path, votes, truths) -> None:
    rows = []
    for row in voting_bins(votes, truths):
        label = (
            "outside"
            if math.isnan(row["lo"])
            else f"({fmt(row['lo'])},{fmt(row['hi'])}]"
        )
        prop = row["positive_proportion"]
        rows.append((label, row["frequency"], "NA" if math.isnan(prop) else prop))
    write_csv(path, ["bin", "frequency", "positive_proportion"], rows)


# ---------------------------------------------------------------------------
# Figure-data exports
# ---------------------------------------------------------------------------


def write_pairwise_distance(path, x_selected: np.ndarray, subject_ids) -> None:
    """Pairwise subject distances over a feature selection, scaled to max 1."""
    from .dcov import pairwise_distances

    d = pairwise_distances(np.asarray(x_selected, dtype=float))
    peak = d.max()
    if peak > 0:
        d = d / peak
    rows = [[subject_ids[i]] + list(d[i]) for i in range(d.shape[0])]
    write_csv(path, ["subject"] + list(subject_ids), rows)


def write_frequency_histogram(path, feature_names, pre_counts: dict, post_counts: dict) -> None:
    """Per-feature selection frequencies before and after the penalized fit."""
    keys = sorted(set(pre_counts) | set(post_counts))
    rows = [
        (int(j), feature_names[int(j)], pre_counts.get(j, 0), post_counts.get(j, 0))
        for j in keys
    ]
    write_csv(path, ["feature_index", "feature", "freq_selected", "freq_post_model"], rows)


def write_predictions(path, subject_ids, scores, labels) -> None:
    rows = [(subject_ids[i], scores[i], int(labels[i])) for i in range(len(subject_ids))]
    write_csv(path, ["subject", "score", "decision"], rows)
