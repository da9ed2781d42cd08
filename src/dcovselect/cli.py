"""Command-line front end.

Commands: ``synth``, ``screen``, ``svmr-fit``, ``svmr-predict``, ``cv5``,
``mcv``, ``permute-mcv``, ``report``.  Options can also be supplied as a
JSON config file (``--config``); explicit command-line flags override config
values, which override defaults.  Every run writes ``manifest.json`` with
the resolved options and library versions, sufficient to replay the run
byte-identically into a fresh output directory.

Results are written once, as ``dataclasses.asdict`` payloads of the result
dataclasses (``results.json``; ``model.json`` for ``svmr-fit``).  The
voting tables and selection histograms of an ``mcv`` run are derived from
its payload records by the same helpers that ``report`` applies to
``results.json``, so a ``report`` table equals the run's own.  Files and
runs of one rejection cost are tagged ``f"{d:.6g}"``: a repeated ``--d`` is
run once, and distinct values that share a tag are a usage error.

Exit codes: 0 success, 1 usage error, 2 data validation error, 3 solver
failure.
"""

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import report as rpt
from .cv import (
    McvSummary,
    five_fold_cv,
    mcv_run,
    permute_response,
    selection_overlap,
    voting_scores,
)
from .data import Dataset, emit, ingest, response_kind, synth_generate
from .errors import DataValidationError, SolverError
from .rng import stream
from .screening import ScreeningConfig, one_vs_rest_screen, screen
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
        help="z-score feature columns before screening / fitting",
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
    parser.command_parsers = sub.choices
    return parser


def _apply_config(parser, args, argv):
    """Overlay: defaults < config file < explicit flags.

    Config values become the command's defaults and the command line is
    parsed again, so explicit flags win and argparse converts the values as
    it converts flags.  Only the chosen command's options may be set:
    ``command`` and ``config`` are not options.
    """
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        overrides = json.load(fh)
    defaults = {}
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config") or not hasattr(args, attr):
            raise DataValidationError(f"config key {key!r} is not a recognized option")
        defaults[attr] = _flag_text(value)
    parser.command_parsers[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def _flag_text(value):
    """A config value as the text its flag would take.

    argparse runs string defaults through the option's type, so ``0.25`` and
    ``"1/3"`` both reach ``--d`` as lists.  Booleans and null stay as they
    are: switches and optional values have no type to run.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


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
    skip = {"command", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    """Each record as ``asdict``, without its per-subject scores and tuning losses."""
    return [{k: v for k, v in asdict(rec).items() if k not in ("scores", "tuning_losses")} for rec in records]


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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    out = _out_dir(args)
    kwargs = dict(model=args.model, seed=args.seed)
    if args.model == "linear":
        kwargs.update(active=args.active, coef=args.coef, noise=args.noise)
    elif args.model == "logistic":
        kwargs.update(
            active=args.active,
            coef=args.coef,
            prior=args.prior,
            class_counts=tuple(args.class_counts) if args.class_counts else None,
        )
    else:
        kwargs.update(classes=args.classes, class_sep=args.class_sep)
    ds, truth = synth_generate(args.n, args.p, **kwargs)
    emit(ds, out / "data.csv")
    rpt.write_json(out / "truth.json", truth)
    rpt.write_manifest(out, "synth", _options_dict(args))
    print(f"wrote {out / 'data.csv'} ({ds.n} x {ds.p}, label column {ds.label_name!r})")
    return 0


def cmd_screen(args) -> int:
    out = _out_dir(args)
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
    rpt.write_results_json(out, payload)
    rpt.write_manifest(out, "screen", _options_dict(args))
    return 0


def _read_feature_column(path) -> list[int]:
    import csv as _csv

    with open(path, newline="") as fh:
        rows = list(_csv.DictReader(fh))
    if not rows or "feature_index" not in rows[0]:
        raise DataValidationError(f"{path}: expected a selected.csv with a feature_index column")
    return [int(row["feature_index"]) for row in rows]


def cmd_svmr_fit(args) -> int:
    out = _out_dir(args)
    ds = _load_binary(args)
    features = _read_feature_column(args.features) if args.features else list(range(ds.p))
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
    rpt.write_manifest(out, "svmr-fit", _options_dict(args))
    kept = len(model.nonzero_features)
    print(f"fitted: objective {model.objective:.6f}, {kept}/{len(features)} features kept")
    return 0


def _load_model(path) -> tuple[RejectModel, list[str]]:
    """The ``RejectModel`` that ``svmr-fit`` wrote to ``model.json``, and its feature names."""
    with open(path) as fh:
        raw = json.load(fh)
    # each field's annotation (ndarray, float or bool) converts its JSON value
    values = {
        f.name: np.asarray(raw[f.name], dtype=float) if f.type is np.ndarray else f.type(raw[f.name])
        for f in fields(RejectModel)
        if f.name != "params"
    }
    params = RejectLossParams(d=raw["d"], delta=raw["delta"])
    return RejectModel(params=params, **values), raw["feature_names"]


def cmd_svmr_predict(args) -> int:
    out = _out_dir(args)
    ds = _load_dataset(args)
    model, feature_names = _load_model(args.model)
    try:
        cols = [ds.feature_names.index(name) for name in feature_names]
    except ValueError as exc:
        raise DataValidationError(f"dataset lacks a model feature: {exc}") from None
    scores = decision_scores(model, ds.X[:, cols])
    labels = decide(scores, model.params.delta)
    rpt.write_predictions(out / "predictions.csv", ds.subject_ids, scores, labels)
    rpt.write_manifest(out, "svmr-predict", _options_dict(args))
    n_dec = int(np.sum(labels != 0))
    print(f"predicted {len(labels)} subjects; {n_dec} with a definite decision")
    return 0


def cmd_cv5(args) -> int:
    tags = _d_tags(args.d)
    out = _out_dir(args)
    ds = _load_binary(args)
    config = _screen_config(args)
    payload = _resampling_payload(args, ds)
    results = five_fold_cv(ds, args.d, args.r_grid, args.seed, config=config, delta=args.delta)
    for d in args.d:
        result = results[d]
        rpt.write_mcv_records(out / f"folds_d{tags[d]}.csv", result.records)
        payload["runs"][tags[d]] = {"d": d, "records": _record_payloads(result.records)}
    selections = results[args.d[0]].selections  # one screen per fold serves every d
    # the overlap table pairs the fold selections with the all-subjects one
    full = screen(ds.X, ds.y.astype(float), config)
    payload["selections"] = selections + [full.selected]
    payload["selection_names"] = [f"S{i + 1}" for i in range(len(selections))] + ["ALL"]
    matrix, union, freq = selection_overlap(payload["selections"])
    rpt.write_overlap_table(out / "overlap.csv", matrix, payload["selection_names"])
    rpt.write_results_json(out, payload)
    rpt.write_manifest(out, "cv5", _options_dict(args))
    print(
        f"five-fold selections sized {[len(s) for s in selections]}; "
        f"union {len(union)} (incl. {len(full.selected)} from all subjects)"
    )
    return 0


def _run_mcv(args, ds: Dataset) -> dict:
    """Run multiple cross validation on ``ds``, write its files, and return its payload.

    Votes and selection counts are taken from the payload records, through
    the helpers that ``report`` uses on ``results.json``.
    """
    tags = _d_tags(args.d)
    out = _out_dir(args)
    payload = _resampling_payload(args, ds)
    payload.update(reps=args.reps, voting_mode=args.voting)
    results = mcv_run(
        ds, args.d, args.r_grid, n_reps=args.reps, seed=args.seed, config=_screen_config(args), delta=args.delta
    )
    for d in args.d:
        result = results[d]
        tag = tags[d]
        records = _record_payloads(result.records)
        payload["runs"][tag] = {"d": d, "summary": asdict(result.summary), "records": records}
        rpt.write_mcv_records(out / f"records_d{tag}.csv", result.records)
        votes = _votes(records, ds.n, args.voting)
        rpt.write_voting(out / f"voting_d{tag}.csv", votes, ds.subject_ids)
        rpt.write_voting_bins(out / f"voting_bins_d{tag}.csv", votes, ds.y.astype(float))
        rpt.write_frequency_histogram(out / f"histogram_d{tag}.csv", ds.feature_names, *_selection_counts(records))
        print(
            f"d={d:.4g}: {result.summary.n_decisive}/{args.reps} decisive replications, "
            f"mean test accuracy {result.summary.mean_test_accuracy:.4f}"
            if result.summary.n_decisive
            else f"d={d:.4g}: 0/{args.reps} decisive replications"
        )
    rpt.write_mcv_summary(out / "summary.csv", [results[d].summary for d in args.d])
    rpt.write_results_json(out, payload)
    rpt.write_manifest(out, args.command, _options_dict(args))
    return payload


def cmd_mcv(args) -> int:
    _run_mcv(args, _load_binary(args))
    return 0


def cmd_permute_mcv(args) -> int:
    ds = _load_binary(args)
    payload = _run_mcv(args, permute_response(ds, stream(args.seed, "permutation")))
    # side-by-side check data: strongest marginal association per permuted
    # replication vs the original-label value on the full data
    original = float(screen(ds.X, ds.y.astype(float), _screen_config(args)).marginal_r2.max())
    rows = [
        (tag, rec["rep_id"], rec["max_marginal_r2"], original)
        for tag, run in sorted(payload["runs"].items())
        for rec in run["records"]
    ]
    rpt.write_csv(
        Path(args.out_dir) / "max_dcor_compare.csv",
        ["d", "rep", "max_marginal_r2_permuted", "max_marginal_r2_original"],
        rows,
    )
    return 0


def cmd_report(args) -> int:
    out = _out_dir(args)
    with open(args.input) as fh:
        payload = json.load(fh)
    kind = args.kind
    if kind == "overlap_table":
        selections = payload.get("selections")
        if not selections:
            raise DataValidationError(f"{args.input}: no selections recorded for an overlap table")
        matrix, _, _ = selection_overlap(selections)
        names = payload.get("selection_names") or [f"S{i + 1}" for i in range(len(selections))]
        rpt.write_overlap_table(out / "overlap.csv", matrix, names)
    elif kind == "mcv_summary":
        runs = _require_mcv_runs(payload, args.input)
        rows = []
        for _, run in sorted(runs.items()):
            cleaned = {
                k: (float("nan") if v is None else v) for k, v in run["summary"].items()
            }
            rows.append(McvSummary(**cleaned))
        rpt.write_mcv_summary(out / "summary.csv", rows)
    elif kind == "voting_bins":
        runs = _require_mcv_runs(payload, args.input)
        truths = np.asarray(payload["truth_labels"], dtype=float)
        for tag, run in sorted(runs.items()):
            votes = _votes(run["records"], len(truths), payload.get("voting_mode", "testing"))
            rpt.write_voting_bins(out / f"voting_bins_d{tag}.csv", votes, truths)
    elif kind == "pairwise_distance":
        selected = payload.get("selected")
        if selected is None:
            raise DataValidationError(f"{args.input}: no selected feature set recorded")
        ds = ingest(**payload["dataset"])
        rpt.write_pairwise_distance(
            out / "pairwise_distance.csv", ds.X[:, selected], ds.subject_ids
        )
    elif kind == "frequency_histogram":
        # every d of a run shares each replication's screen, so each d gets its own table
        if "runs" in payload:
            for tag, run in sorted(_require_runs(payload, args.input).items()):
                rpt.write_frequency_histogram(
                    out / f"histogram_d{tag}.csv", payload["feature_names"], *_selection_counts(run["records"])
                )
        elif "selections" in payload:
            pre, post = Counter(chain.from_iterable(payload["selections"])), Counter()
            rpt.write_frequency_histogram(out / "histogram.csv", payload["feature_names"], pre, post)
        else:
            raise DataValidationError(f"{args.input}: nothing to histogram")
    rpt.write_manifest(out, "report", _options_dict(args))
    print(f"wrote {kind} table(s) to {out}")
    return 0


def _require_runs(payload, path):
    runs = payload.get("runs")
    if not runs:
        raise DataValidationError(f"{path}: results.json has no recorded runs for this report kind")
    return runs


def _require_mcv_runs(payload, path):
    """The runs of an ``mcv`` or ``permute-mcv`` payload; a ``cv5`` payload has no summaries."""
    runs = _require_runs(payload, path)
    if any("summary" not in run for run in runs.values()):
        raise DataValidationError(f"{path}: results carry no summaries (not an mcv run?)")
    return runs


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(parser, args, argv)
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    except DataValidationError as exc:
        print(f"data validation error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_EXIT
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
