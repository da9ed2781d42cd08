"""Command-line front end.

Commands: ``synth``, ``screen``, ``svmr-fit``, ``svmr-predict``, ``cv5``,
``mcv``, ``permute-mcv``, ``report``.  A JSON config file (``--config``)
supplies options as the flags it names, checked as flags are; explicit flags
override it, and ``null`` keeps the default.  Every run writes
``manifest.json`` with the resolved options and library versions; its
``options`` object replays the run byte-identically as a config.

Results are written once, as ``dataclasses.asdict`` payloads of the result
dataclasses (``results.json``; ``model.json`` for ``svmr-fit``).  Every
table of a resampling run is written from that payload by the helpers that
``report`` applies to the payload read back from ``results.json``, so each
``report`` table equals the run's own.  Files and runs of one rejection
cost are tagged ``f"{d:.6g}"`` and written in ``--d`` order: a repeated
``--d`` is run and written once, and distinct values that share a tag are
a usage error.

Exit codes: 0 success, 1 usage error (also a file that cannot be read or
written), 2 data validation error, 3 solver failure (also a scipy without
HiGHS's ``_Highs`` class).
"""

import argparse
import json
import shutil
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import report as rpt
from .cv import (
    five_fold_cv,
    mcv_run,
    permute_response,
    selection_overlap,
    voting_scores,
)
from .data import Dataset, emit, ingest, read_rows, response_kind, synth_generate
from .errors import DataValidationError, SolverError
from .rng import stream
from .screening import ScreeningConfig, marginal_rank, one_vs_rest_screen, screen
from .svm_reject import RejectLossParams, RejectModel, decide, decision_scores, fit

DEFAULT_D = (1 / 3, 1 / 4, 1 / 5)
DEFAULT_R_GRID = (0.01, 0.03, 0.1, 0.3, 1.0, 2.0, 4.0, 8.0)

USAGE_EXIT = 1
DATA_EXIT = 2
SOLVER_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def parse_fraction(text: str) -> float:
    """Accept plain floats or 'a/b' fractions (e.g. '1/3')."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        den = float(den)
        if den == 0.0:
            raise ValueError(f"zero denominator in {text!r}")
        return float(num) / den
    return float(text)


def _float_list(text: str) -> list[float]:
    return [parse_fraction(part) for part in text.split(",") if part.strip()]


def _int_pair(text: str) -> tuple[int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated integers")
    return parts[0], parts[1]


def _dataset_flags(parser):
    parser.add_argument("--input", required=True, help="delimited dataset file")
    parser.add_argument("--label-col", default="label", help="response column name")
    parser.add_argument("--positive-label", default=None, help="label mapped to +1")
    parser.add_argument(
        "--log-transform",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="natural log on all features",
    )


def _screen_flags(parser):
    parser.add_argument("--method", choices=("dcsis", "dcov"), default="dcov")
    parser.add_argument("--model-size", type=int, default=None)
    parser.add_argument("--epsilon", type=parse_fraction, default=0.0)
    parser.add_argument("--lookahead", type=int, default=1)
    parser.add_argument(
        "--standardize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="z-score feature columns for the greedy walk; ranking does not depend on it",
    )


def _common_flags(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--config", default=None, help="JSON file of option defaults")


def build_parser() -> _Parser:
    parser = _Parser(prog="dcovselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("--model", choices=("linear", "logistic", "multiclass"), default="linear")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--active", type=int, default=4)
    p.add_argument("--coef", type=parse_fraction, default=1.0)
    p.add_argument("--noise", type=parse_fraction, default=1.0)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--class-sep", type=parse_fraction, default=2.0)
    p.add_argument("--prior", type=parse_fraction, default=None)
    p.add_argument("--class-counts", type=_int_pair, default=None)
    _common_flags(p)

    p = sub.add_parser("screen", help="rank and select features")
    _dataset_flags(p)
    _screen_flags(p)
    _common_flags(p)

    p = sub.add_parser("svmr-fit", help="fit one reject-option classifier")
    _dataset_flags(p)
    p.add_argument("--d", type=parse_fraction, required=True, help="rejection cost")
    p.add_argument("--delta", type=parse_fraction, default=0.5)
    p.add_argument("--r", type=parse_fraction, required=True, help="l1 penalty weight")
    p.add_argument("--features", default=None, help="selected.csv restricting the design")
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--intercept", action=argparse.BooleanOptionalAction, default=True)
    _common_flags(p)

    p = sub.add_parser("svmr-predict", help="apply a fitted model")
    _dataset_flags(p)
    p.add_argument("--model", required=True, help="model.json from svmr-fit")
    _common_flags(p)

    p = sub.add_parser("cv5", help="five-fold selection / tuning analysis")
    _dataset_flags(p)
    _screen_flags(p)
    p.add_argument("--d", type=_float_list, default=list(DEFAULT_D))
    p.add_argument("--delta", type=parse_fraction, default=0.5)
    p.add_argument("--r-grid", type=_float_list, default=list(DEFAULT_R_GRID))
    _common_flags(p)

    for name in ("mcv", "permute-mcv"):
        p = sub.add_parser(name, help=f"{'permuted-label ' if 'permute' in name else ''}multiple cross validation")
        _dataset_flags(p)
        _screen_flags(p)
        p.add_argument("--d", type=_float_list, default=list(DEFAULT_D))
        p.add_argument("--delta", type=parse_fraction, default=0.5)
        p.add_argument("--r-grid", type=_float_list, default=list(DEFAULT_R_GRID))
        p.add_argument("--reps", type=int, default=50)
        p.add_argument("--voting", choices=("testing", "all"), default="testing")
        _common_flags(p)

    p = sub.add_parser("report", help="derive tables from a results.json")
    p.add_argument(
        "--kind",
        required=True,
        choices=(
            "overlap_table",
            "mcv_summary",
            "voting_bins",
            "pairwise_distance",
            "frequency_histogram",
        ),
    )
    p.add_argument("--input", required=True, help="results.json from a previous run")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None)
    return parser


def _read_json_object(path) -> dict:
    """The JSON object in ``path``; any other JSON value is a data validation error."""
    with open(path) as fh:
        value = json.load(fh)
    if not isinstance(value, dict):
        raise DataValidationError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def _apply_config(parser, args, argv):
    """Overlay: defaults < config file < explicit flags.

    Each config entry becomes the flag it names (``null`` gives none, so the
    default stays) and the line is parsed again with those flags ahead of
    its own: argparse checks config values as it checks flags, and an
    explicit flag wins.  ``command`` and ``config`` are not options.
    """
    if not getattr(args, "config", None):
        return args
    flags = []
    for key, value in _read_json_object(args.config).items():
        attr = key.replace("-", "_")
        if attr in ("command", "config") or not hasattr(args, attr):
            raise DataValidationError(f"config key {key!r} is not a recognized option")
        flag = attr.replace("_", "-")
        if isinstance(value, bool):
            flags.append(f"--{flag}" if value else f"--no-{flag}")
        elif isinstance(value, list):
            flags.append(f"--{flag}=" + ",".join(str(v) for v in value))
        elif value is not None:
            flags.append(f"--{flag}={value}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + flags + argv[at:])


def _screen_config(args) -> ScreeningConfig:
    return ScreeningConfig(
        method="dc_sis" if args.method == "dcsis" else "dcov_greedy",
        d_model_size=args.model_size,
        epsilon=args.epsilon,
        m_lookahead=args.lookahead,
        standardize=args.standardize,
    )


def _dataset_meta(args) -> dict:
    """``ingest``'s arguments for the run's input, as recorded in ``results.json``."""
    return {
        "path": str(args.input),
        "label_column": args.label_col,
        "positive_label": args.positive_label,
        "log_transform": args.log_transform,
    }


def _load_dataset(args) -> Dataset:
    return ingest(**_dataset_meta(args))


def _load_binary(args) -> Dataset:
    ds = _load_dataset(args)
    if response_kind(ds) != "binary":
        raise DataValidationError(f"{args.command} needs a binary -1/+1 response (use --positive-label)")
    return ds


def _options_dict(args) -> dict:
    """The options ``manifest.json`` records: neither the command and config
    nor the output directory, which no result depends on, so a replay into a
    fresh directory gives byte-identical files, manifest included."""
    skip = {"command", "config", "out_dir"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _d_tags(d_values) -> dict[float, str]:
    """The tag that names each ``d``'s files and ``results.json`` run.

    A repeated ``d`` reuses its tag; two distinct values with one tag would
    overwrite each other's files, so they are a usage error.
    """
    first = {}
    for d in d_values:
        tag = f"{d:.6g}"
        seen = first.setdefault(tag, d)
        if seen != d:
            raise ValueError(
                f"--d values {seen!r} and {d!r} share the file tag d{tag}; "
                "give values that differ within 6 significant digits"
            )
    return {d: tag for tag, d in first.items()}


def _record_payloads(records) -> list[dict]:
    """Each record as ``asdict``, without its tuning losses."""
    return [{k: v for k, v in asdict(rec).items() if k != "tuning_losses"} for rec in records]


def _resampling_payload(args, ds: Dataset) -> dict:
    """The ``results.json`` header shared by ``cv5``, ``mcv`` and ``permute-mcv``."""
    return {
        "command": args.command,
        "dataset": _dataset_meta(args),
        "feature_names": ds.feature_names,
        "subject_ids": ds.subject_ids,
        "truth_labels": ds.y.astype(float),
        "d_values": args.d,
        "r_grid": args.r_grid,
        "seed": args.seed,
        "runs": {},
    }


def _votes(records, n_subjects: int, mode: str):
    """Voting scores over one ``d``'s payload records; flagged replications do not vote."""
    usable = [rec for rec in records if rec["flagged"] is None]
    return voting_scores(
        [rec["test_idx"] for rec in usable], [rec["decisions"] for rec in usable], n_subjects, mode=mode
    )


def _selection_counts(records) -> tuple[Counter, Counter]:
    """How often payload records screened each feature in, and kept it after the fit."""
    pre, post = Counter(), Counter()
    for rec in records:
        pre.update(rec["selected"])
        post.update(rec["post_model_features"])
    return pre, post


def _require_runs(payload, path) -> list[tuple[str, dict]]:
    """A payload's ``(tag, run)`` pairs, one per distinct ``d``, in ``d_values`` order."""
    runs = payload.get("runs")
    if not runs:
        raise DataValidationError(f"{path}: results.json has no recorded runs for this report kind")
    return [(tag, runs[tag]) for tag in _d_tags(payload["d_values"]).values()]


def _require_mcv_runs(payload, path) -> list[tuple[str, dict]]:
    """The runs of an ``mcv`` or ``permute-mcv`` payload; a ``cv5`` payload has no summaries."""
    runs = _require_runs(payload, path)
    if any("summary" not in run for _, run in runs):
        raise DataValidationError(f"{path}: results carry no summaries (not an mcv run?)")
    return runs


def _write_voting(out: Path, payload: dict, runs, scores: bool) -> None:
    """Each run's voting-bin table, and with ``scores`` its per-subject voting table."""
    truths = np.asarray(payload["truth_labels"], dtype=float)
    for tag, run in runs:
        votes = _votes(run["records"], len(truths), payload.get("voting_mode", "testing"))
        if scores:
            rpt.write_voting(out / f"voting_d{tag}.csv", votes, payload["subject_ids"])
        rpt.write_voting_bins(out / f"voting_bins_d{tag}.csv", votes, truths)


def _write_histograms(out: Path, payload: dict, runs) -> None:
    """One selection histogram per run: every ``d`` shares each replication's screen."""
    for tag, run in runs:
        rpt.write_frequency_histogram(
            out / f"histogram_d{tag}.csv", payload["feature_names"], *_selection_counts(run["records"])
        )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args, out: Path) -> int:
    # every flag goes through: the model reads its own and ignores the rest
    ds, truth = synth_generate(
        args.n,
        args.p,
        model=args.model,
        active=args.active,
        coef=args.coef,
        noise=args.noise,
        classes=args.classes,
        class_sep=args.class_sep,
        prior=args.prior,
        class_counts=args.class_counts,
        seed=args.seed,
    )
    emit(ds, out / "data.csv")
    rpt.write_json(out / "truth.json", truth)
    print(f"wrote {Path(args.out_dir) / 'data.csv'} ({ds.n} x {ds.p}, label column {ds.label_name!r})")
    return 0


def cmd_screen(args, out: Path) -> int:
    ds = _load_dataset(args)
    config = _screen_config(args)
    kind = response_kind(ds)
    payload = {
        "command": "screen",
        "dataset": _dataset_meta(args),
        "feature_names": ds.feature_names,
        "response_kind": kind,
        "config": asdict(config),
    }
    if kind == "classes":
        per_class, union = one_vs_rest_screen(ds.X, ds.y, config)
        for label, result in per_class.items():
            rpt.write_ranking(out / f"ranking_{label}.csv", ds.feature_names, result.ranking, result.marginal_r2)
            rpt.write_selected(out / f"selected_{label}.csv", ds.feature_names, result.selected)
        rpt.write_selected(out / "selected.csv", ds.feature_names, union)
        payload["per_class_selected"] = {str(k): v.selected for k, v in per_class.items()}
        payload["selections"] = [v.selected for v in per_class.values()]
        payload["selection_names"] = [str(k) for k in per_class]
        payload["selected"] = union
        print(f"one-versus-rest over {len(per_class)} classes; union size {len(union)}")
    else:
        result = screen(ds.X, ds.y.astype(float), config)
        rpt.write_ranking(out / "ranking.csv", ds.feature_names, result.ranking, result.marginal_r2)
        rpt.write_selected(out / "selected.csv", ds.feature_names, result.selected)
        if result.trajectory:
            rpt.write_trajectory(out / "trajectory.csv", result)
        payload["selected"] = result.selected
        payload["selections"] = [result.selected]
        payload["selection_names"] = ["selected"]
        payload["stop_reason"] = result.stop_reason
        payload["max_marginal_r2"] = float(result.marginal_r2.max())
        print(f"selected {len(result.selected)} features ({result.stop_reason})")
    rpt.write_json(out / "results.json", payload)
    return 0


def _read_feature_column(path, p: int) -> list[int]:
    """The ``feature_index`` column of a ``selected.csv``; each must be a column of the ``p``-feature design."""
    header, *rows = read_rows(path) or [[]]
    rows = [row for row in rows if row]  # blank lines hold no row
    if not rows or "feature_index" not in header:
        raise DataValidationError(f"{path}: expected a selected.csv with a feature_index column")
    pos = header.index("feature_index")
    features = []
    for row_number, row in enumerate(rows, start=1):
        value = row[pos] if pos < len(row) else None
        try:
            j = int(value)
        except (TypeError, ValueError):  # not an integer, or a missing cell
            j = None
        if j is None or not 0 <= j < p:
            raise DataValidationError(
                f"{path}: row {row_number}: feature_index {value!r} is not an integer in [0, {p})"
            )
        features.append(j)
    return features


def cmd_svmr_fit(args, out: Path) -> int:
    ds = _load_binary(args)
    features = _read_feature_column(args.features, ds.p) if args.features else list(range(ds.p))
    model = fit(
        ds.X[:, features],
        ds.y.astype(float),
        args.r,
        RejectLossParams(d=args.d, delta=args.delta),
        fit_intercept=args.intercept,
        standardize=args.standardize,
    )
    # model.json is the model's fields with ``params`` flattened into d and delta
    payload = asdict(model)
    payload.update(payload.pop("params"), features=features, feature_names=[ds.feature_names[j] for j in features])
    rpt.write_json(out / "model.json", payload)
    kept = len(model.nonzero_features)
    print(f"fitted: objective {model.objective:.6f}, {kept}/{len(features)} features kept")
    return 0


def _model_field(value, kind, n: int):
    """A ``model.json`` value as a field of ``kind``: a list of ``n`` numbers for an
    ndarray, else a number or a boolean; a value of any other JSON type is a TypeError."""
    if kind is np.ndarray:
        array = np.asarray(value, dtype=float)
        if isinstance(value, list) and len(value) == n and all(type(v) in (int, float) for v in value):
            return array
        raise TypeError(f"expected a list of {n} numbers")
    if kind is bool and type(value) is bool or kind is float and type(value) in (int, float):
        return kind(value)
    raise TypeError(f"expected {'true or false' if kind is bool else 'a number'}")


def _load_model(path) -> tuple[RejectModel, list[str]]:
    """The ``RejectModel`` that ``svmr-fit`` wrote to ``model.json``, and its feature names.

    A missing field, or one whose value is not of its JSON type (numbers,
    booleans, and lists of numbers as long as ``feature_names``), is a data
    validation error naming the file and the field.
    """
    raw = _read_json_object(path)
    # each model field's annotation (ndarray, float or bool) gives its JSON type
    kinds = [(f.name, f.type) for f in fields(RejectModel) if f.name != "params"]
    values, loss = {}, {}
    key = "feature_names"
    try:
        names = raw[key]
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise TypeError("expected a list of names")
        for key, kind in kinds + [("d", float), ("delta", float)]:
            values[key] = _model_field(raw[key], kind, len(names))
            if key in ("d", "delta"):  # checks d alone, then delta beside it
                loss[key] = values.pop(key)
                params = RejectLossParams(**loss)
    except KeyError:
        raise DataValidationError(f"{path}: no {key!r} field; expected a model.json from svmr-fit") from None
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: field {key!r}: {exc}") from None
    return RejectModel(params=params, **values), names


def cmd_svmr_predict(args, out: Path) -> int:
    ds = _load_dataset(args)
    model, feature_names = _load_model(args.model)
    try:
        cols = [ds.feature_names.index(name) for name in feature_names]
    except ValueError as exc:
        raise DataValidationError(f"dataset lacks a model feature: {exc}") from None
    scores = decision_scores(model, ds.X[:, cols])
    labels = decide(scores, model.params.delta)
    rpt.write_predictions(out / "predictions.csv", ds.subject_ids, scores, labels)
    n_dec = int(np.sum(labels != 0))
    print(f"predicted {len(labels)} subjects; {n_dec} with a definite decision")
    return 0


def cmd_cv5(args, out: Path) -> int:
    tags = _d_tags(args.d)
    ds = _load_binary(args)
    config = _screen_config(args)
    payload = _resampling_payload(args, ds)
    results = five_fold_cv(ds, args.d, args.r_grid, args.seed, config=config, delta=args.delta)
    for d, tag in tags.items():
        payload["runs"][tag] = {"d": d, "records": _record_payloads(results[d].records)}
    selections = results[args.d[0]].selections  # one screen per fold serves every d
    full = results[args.d[0]].all_subjects
    # the overlap table pairs the fold selections with the all-subjects one
    payload["selections"] = selections + [full]
    payload["selection_names"] = [f"S{i + 1}" for i in range(len(selections))] + ["ALL"]
    for tag, run in _require_runs(payload, Path(args.out_dir) / "results.json"):
        rpt.write_mcv_records(out / f"folds_d{tag}.csv", run["records"])
    matrix, union = selection_overlap(payload["selections"])
    rpt.write_overlap_table(out / "overlap.csv", matrix, payload["selection_names"])
    rpt.write_json(out / "results.json", payload)
    print(
        f"five-fold selections sized {[len(s) for s in selections]}; "
        f"union {len(union)} (incl. {len(full)} from all subjects)"
    )
    return 0


def _mcv_payload(args, ds: Dataset) -> dict:
    """Run multiple cross validation on ``ds`` and return its ``results.json`` payload."""
    tags = _d_tags(args.d)
    payload = _resampling_payload(args, ds)
    payload.update(reps=args.reps, voting_mode=args.voting)
    results = mcv_run(
        ds, args.d, args.r_grid, n_reps=args.reps, seed=args.seed, config=_screen_config(args), delta=args.delta
    )
    for d, tag in tags.items():
        result = results[d]
        payload["runs"][tag] = {"d": d, "summary": asdict(result.summary), "records": _record_payloads(result.records)}
    return payload


def _write_mcv(args, payload: dict, out: Path) -> list[tuple[str, dict]]:
    """Write an mcv payload's tables into ``out``; return its ``(tag, run)`` pairs, in ``--d`` order.

    Every table is written from the payload, by the helpers that ``report``
    applies to ``results.json``.
    """
    runs = _require_mcv_runs(payload, Path(args.out_dir) / "results.json")
    for tag, run in runs:
        rpt.write_mcv_records(out / f"records_d{tag}.csv", run["records"])
        summary = run["summary"]
        print(
            f"d={summary['d']:.4g}: {summary['n_decisive']}/{args.reps} decisive replications, "
            f"mean test accuracy {summary['mean_test_accuracy']:.4f}"
            if summary["n_decisive"]
            else f"d={summary['d']:.4g}: 0/{args.reps} decisive replications"
        )
    _write_voting(out, payload, runs, scores=True)
    _write_histograms(out, payload, runs)
    rpt.write_mcv_summary(out / "summary.csv", [run["summary"] for _, run in runs])
    rpt.write_json(out / "results.json", payload)
    return runs


def cmd_mcv(args, out: Path) -> int:
    _write_mcv(args, _mcv_payload(args, _load_binary(args)), out)
    return 0


def cmd_permute_mcv(args, out: Path) -> int:
    ds = _load_binary(args)
    payload = _mcv_payload(args, permute_response(ds, stream(args.seed, "permutation")))
    # side-by-side check data: strongest marginal association per permuted
    # replication vs the original-label value on the full data
    original = float(marginal_rank(ds.X, ds.y.astype(float))[1].max())
    rows = [
        (tag, rec["rep_id"], rec["max_marginal_r2"], original)
        for tag, run in _write_mcv(args, payload, out)
        for rec in run["records"]
    ]
    rpt.write_csv(
        out / "max_dcor_compare.csv",
        ["d", "rep", "max_marginal_r2_permuted", "max_marginal_r2_original"],
        rows,
    )
    return 0


def cmd_report(args, out: Path) -> int:
    """Write ``--kind``'s tables from a ``results.json`` into ``out``; a
    malformed payload is a data validation error."""
    payload = _read_json_object(args.input)
    kind = args.kind
    try:
        if kind == "overlap_table":
            selections = payload.get("selections")
            if not selections:
                raise DataValidationError(f"{args.input}: no selections recorded for an overlap table")
            matrix, _ = selection_overlap(selections)
            names = payload.get("selection_names") or [f"S{i + 1}" for i in range(len(selections))]
            rpt.write_overlap_table(out / "overlap.csv", matrix, names)
        elif kind == "mcv_summary":
            runs = _require_mcv_runs(payload, args.input)
            rpt.write_mcv_summary(out / "summary.csv", [run["summary"] for _, run in runs])
        elif kind == "voting_bins":
            _write_voting(out, payload, _require_mcv_runs(payload, args.input), scores=False)
        elif kind == "pairwise_distance":
            selected = payload.get("selected")
            if selected is None:
                raise DataValidationError(f"{args.input}: no selected feature set recorded")
            ds = ingest(**payload["dataset"])
            rpt.write_pairwise_distance(out / "pairwise_distance.csv", ds.X[:, selected], ds.subject_ids)
        elif kind == "frequency_histogram":
            if "runs" in payload:
                _write_histograms(out, payload, _require_runs(payload, args.input))
            elif "selections" in payload:
                pre, post = Counter(chain.from_iterable(payload["selections"])), Counter()
                rpt.write_frequency_histogram(out / "histogram.csv", payload["feature_names"], pre, post)
            else:
                raise DataValidationError(f"{args.input}: nothing to histogram")
    except KeyError as exc:
        raise DataValidationError(f"{args.input}: no {exc.args[0]!r} entry; expected a results.json") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise DataValidationError(f"{args.input}: malformed results.json: {exc}") from None
    print(f"wrote {kind} table(s) to {Path(args.out_dir)}")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "screen": cmd_screen,
    "svmr-fit": cmd_svmr_fit,
    "svmr-predict": cmd_svmr_predict,
    "cv5": cmd_cv5,
    "mcv": cmd_mcv,
    "permute-mcv": cmd_permute_mcv,
    "report": cmd_report,
}


def main(argv=None) -> int:
    """Run one command and land its files in ``--out-dir``; return the exit code.

    The command writes into a staging directory, and ``main`` adds
    ``manifest.json`` with the run's options.  Only once the command has
    returned is ``--out-dir`` made and the staged files copied in, so a run
    that fails, at any point before that, leaves no ``--out-dir`` behind.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        args = _apply_config(parser, args, argv)
        with tempfile.TemporaryDirectory() as staged:
            out = Path(staged)
            code = COMMANDS[args.command](args, out)
            rpt.write_manifest(out, args.command, _options_dict(args))
            landed = Path(args.out_dir)
            landed.mkdir(parents=True, exist_ok=True)
            for path in sorted(out.iterdir()):
                shutil.copyfile(path, landed / path.name)
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    except DataValidationError as exc:
        print(f"data validation error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_EXIT
    except ImportError as exc:  # a scipy without HiGHS's _Highs class
        print(f"error: {exc}", file=sys.stderr)
        return SOLVER_EXIT
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
