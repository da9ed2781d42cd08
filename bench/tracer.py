"""In-process tracing of one ``dcovselect`` CLI invocation.

Run as ``python3 bench/tracer.py SPANS_JSON CLI_ARG...``: it imports the
package, replaces the public functions of each module with span-recording
wrappers *where their callers bind them* (``cli.ingest``, ``cv.fit``, the
``dcov`` names imported into ``screening``, ...), runs
``dcovselect.cli.main(argv)``, and writes the spans to ``SPANS_JSON`` at the
end.  A span is ``[name, start, end, parent_index, attrs]``; ``attrs`` holds
the counts measured at that boundary (features ranked, matrix bytes passed,
LP size, records produced).

A wrapped name that no longer exists is skipped, so a layer whose code was
restructured away reports zero calls rather than failing the benchmark.

``layer_metrics`` turns the spans into the per-layer metrics.
"""

import functools
import hashlib
import json
import statistics
import sys
import time

# Matrices are counted as 8 * n^2 bytes per n x n float64 matrix passed to or
# returned from a dcov call; 2^20 bytes per MB.
MB = float(1 << 20)

PER_LAYER_UNITS = {
    "screening.marginal_rank_s": "s",
    "screening.marginal_rank_calls": "count",
    "screening.marginal_rank_features_per_s": "1/s",
    "screening.screen_calls": "count",
    "screening.screen_s": "s",
    "screening.screens_per_split": "ratio",
    "screening.greedy_self_s": "s",
    "screening.greedy_steps": "count",
    "dcov.calls": "count",
    "dcov.self_s": "s",
    "dcov.matrix_mb_computed": "MB",
    "svm_reject.fit_calls": "count",
    "svm_reject.fit_s": "s",
    "svm_reject.fit_p50_s": "s",
    "svm_reject.fit_tail_s": "s",
    "svm_reject.lp_dense_mb_computed": "MB",
    "svm_reject.predict_s": "s",
    "data.ingest_s": "s",
    "data.ingest_cells_per_s": "1/s",
    "cv.replications": "count",
    "cv.flagged": "count",
    "cv.tune_s": "s",
    "cv.voting_s": "s",
    "cv.self_s": "s",
    "report.write_s": "s",
    "report.bytes_written": "bytes",
    "report.files": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """Keeps spans in memory; one thread, so a stack gives each span's parent."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, module, attr, name, before=None, after=None):
        """Replace ``module.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` return
        attribute dicts for the span; they run outside its timed interval.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            return
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after:
                attrs.update(after(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# Counts taken at the wrapped boundaries
# ---------------------------------------------------------------------------


def _square_bytes(value):
    entries = getattr(value, "entries", value)
    shape = getattr(entries, "shape", None)
    if shape is not None and len(shape) == 2 and shape[0] == shape[1] and shape[0] > 1:
        return 8 * shape[0] * shape[0]
    return 0


def _dcov_bytes(args, kwargs, result):
    values = list(args) + list(kwargs.values())
    values += list(result) if isinstance(result, tuple) else [result]
    return {"bytes": sum(_square_bytes(v) for v in values)}


def _split_key(args, kwargs):
    import numpy as np

    digest = hashlib.sha1()
    for value in args[:2]:
        arr = np.ascontiguousarray(value, dtype=float)
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return {"split": digest.hexdigest()}


def _features(args, kwargs):
    shape = getattr(args[0], "shape", ())
    return {"features": int(shape[1]) if len(shape) == 2 else 0}


def _greedy_steps(args, kwargs, result):
    return {"steps": len(getattr(result, "trajectory", ()))}


def _lp_bytes(args, kwargs):
    shape = getattr(args[0], "shape", ())
    if len(shape) != 2:
        return {"lp_bytes": 0}
    n, m = shape
    return {"lp_bytes": 8 * 2 * n * (2 * m + 1 + n)}


def _ingest_cells(args, kwargs, result):
    x = getattr(result, "X", None)
    return {"cells": int(x.size) + int(x.shape[0]) if x is not None else 0}


def _records(result):
    if hasattr(result, "records"):
        return list(result.records)
    if isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, (list, tuple)):
        return [rec for item in result for rec in _records(item)]
    return []


def _record_counts(args, kwargs, result):
    recs = _records(result)
    return {
        "records": len(recs),
        "flagged": sum(getattr(rec, "flagged", None) is not None for rec in recs),
    }


def install(recorder):
    """Wrap every traced name; return the wrapped ``cli.main``."""
    from dcovselect import cli, cv, report, screening

    wrap = recorder.wrap
    wrap(cli, "ingest", "data.ingest", after=_ingest_cells)
    for mod in (cli, cv):
        wrap(mod, "screen", "screening.screen", before=_split_key)
        wrap(mod, "fit", "svm_reject.fit", before=_lp_bytes)
        wrap(mod, "decision_scores", "svm_reject.decision_scores")
        wrap(mod, "decide", "svm_reject.decide")
    wrap(cli, "one_vs_rest_screen", "screening.one_vs_rest_screen")
    wrap(cli, "mcv_run", "cv.mcv_run", after=_record_counts)
    wrap(cli, "five_fold_cv", "cv.five_fold_cv", after=_record_counts)
    wrap(cli, "voting_scores", "cv.voting_scores")
    wrap(cv, "tune_penalty", "cv.tune_penalty")
    wrap(screening, "marginal_rank", "screening.marginal_rank", before=_features)
    wrap(screening, "dcov_greedy", "screening.dcov_greedy", after=_greedy_steps)
    for attr, value in sorted(vars(screening).items()):
        if callable(value) and getattr(value, "__module__", "") == "dcovselect.dcov":
            wrap(screening, attr, f"dcov.{attr}", after=_dcov_bytes)
    for attr in sorted(vars(report)):
        if attr.startswith("write_"):
            wrap(report, attr, f"report.{attr}")
    wrap(cli, "main", "cli.main")
    return cli.main


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------


def _tail(durations):
    """Highest order statistic with at least ten samples beyond it (else the max)."""
    ordered = sorted(durations)
    if len(ordered) > 10:
        return ordered[-11]
    return ordered[-1] if ordered else 0.0


def layer_metrics(spans, out_files, traced_s, untraced_s):
    """Per-layer metrics from one traced invocation.

    ``out_files`` maps each output file to its size in bytes; ``traced_s``
    and ``untraced_s`` are the process wall times with and without tracing.
    """
    n = len(spans)
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * n
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_time = [dur[i] - child[i] for i in range(n)]

    def idx(*names):
        return [i for i in range(n) if spans[i][0] in names]

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    def total(ids, values=dur):
        return float(sum(values[i] for i in ids))

    def attr_sum(ids, key):
        return sum(spans[i][4].get(key, 0) for i in ids)

    rank = idx("screening.marginal_rank")
    screens = idx("screening.screen")
    greedy = idx("screening.dcov_greedy")
    dcov = [i for i in range(n) if layer(i) == "dcov"]
    fits = idx("svm_reject.fit")
    predict = idx("svm_reject.decision_scores", "svm_reject.decide")
    ingest = idx("data.ingest")
    runs = idx("cv.mcv_run", "cv.five_fold_cv")
    cv_all = [i for i in range(n) if layer(i) == "cv"]
    report_top = [
        i for i in range(n) if layer(i) == "report" and (spans[i][3] < 0 or layer(spans[i][3]) != "report")
    ]
    main = idx("cli.main")

    rank_s = total(rank)
    ingest_s = total(ingest)
    fit_durations = [dur[i] for i in fits]
    splits = {spans[i][4]["split"] for i in screens}
    greedy_self = sum(
        dur[g] - sum(dur[i] for i in rank if spans[i][3] == g) for g in greedy
    )
    values = {
        "screening.marginal_rank_s": rank_s,
        "screening.marginal_rank_calls": len(rank),
        "screening.marginal_rank_features_per_s": attr_sum(rank, "features") / rank_s if rank_s else 0.0,
        "screening.screen_calls": len(screens),
        "screening.screen_s": total(screens),
        "screening.screens_per_split": len(screens) / len(splits) if splits else 0.0,
        "screening.greedy_self_s": float(greedy_self),
        "screening.greedy_steps": attr_sum(greedy, "steps"),
        "dcov.calls": len(dcov),
        "dcov.self_s": total(dcov, self_time),
        "dcov.matrix_mb_computed": attr_sum(dcov, "bytes") / MB,
        "svm_reject.fit_calls": len(fits),
        "svm_reject.fit_s": total(fits),
        "svm_reject.fit_p50_s": statistics.median(fit_durations) if fit_durations else 0.0,
        "svm_reject.fit_tail_s": _tail(fit_durations),
        "svm_reject.lp_dense_mb_computed": max((spans[i][4]["lp_bytes"] for i in fits), default=0) / MB,
        "svm_reject.predict_s": total(predict),
        "data.ingest_s": ingest_s,
        "data.ingest_cells_per_s": attr_sum(ingest, "cells") / ingest_s if ingest_s else 0.0,
        "cv.replications": attr_sum(runs, "records"),
        "cv.flagged": attr_sum(runs, "flagged"),
        "cv.tune_s": total(idx("cv.tune_penalty")),
        "cv.voting_s": total(idx("cv.voting_scores")),
        "cv.self_s": total(cv_all, self_time),
        "report.write_s": total(report_top),
        "report.bytes_written": sum(out_files.values()),
        "report.files": len(out_files),
        "cli.main_s": total(main),
        "cli.self_s": total(main, self_time),
        "trace.overhead_s": traced_s - untraced_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    traced_main = install(recorder)
    code = traced_main(cli_argv)
    with open(out_path, "w") as fh:
        json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
