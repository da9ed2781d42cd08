"""Dataset container, delimited-text ingestion, and synthetic benchmarks.

A dataset is an ``n x p`` feature matrix with unique column names plus one
response channel: binary labels coded -1/+1, free-form class labels, or a
real-valued vector.  Ingestion is strict: any missing, non-numeric or
non-finite cell, a ragged row, or a ``positive_label`` that matches no row is
a hard error that names the offending row and column (or label).  The
data rows are parsed by numpy's C reader (``np.loadtxt``) straight into one
float matrix, with no Python object per cell.  Only a file the reader
rejects or could read differently from ``csv`` (a blank line, a line break
inside a quoted cell, a cell past ``csv.field_size_limit()``), or one with a
non-finite value (or, under the log transform, a non-positive one), is read
again with ``csv`` and walked cell by cell, in file order, to report its
first bad row or cell.  The synthetic generators stand in for
non-redistributable expression datasets and emit a ground-truth manifest
alongside the data.
"""

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .rng import stream

__all__ = ["Dataset", "ingest", "read_rows", "emit", "fmt", "synth_generate", "response_kind"]

MISSING_TOKENS = {"", "NA", "N/A", "NaN", "nan", "NAN", "null", "NULL", "None"}


@dataclass
class Dataset:
    """Feature matrix, response channel, and row/column identifiers."""

    X: np.ndarray
    feature_names: list[str]
    y: np.ndarray
    subject_ids: list[str]
    label_name: str = "label"

    def __post_init__(self):
        n, p = self.X.shape
        if len(self.feature_names) != p:
            raise DataValidationError(f"{len(self.feature_names)} names for {p} columns")
        if len(self.subject_ids) != n or len(self.y) != n:
            raise DataValidationError("response / subject-id length does not match rows")
        if len(set(self.feature_names)) != p:
            raise DataValidationError("feature names are not unique")
        if not np.all(np.isfinite(self.X)):
            raise DataValidationError("feature matrix contains non-finite values")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def with_response(self, y: np.ndarray) -> "Dataset":
        return Dataset(
            X=self.X,
            feature_names=self.feature_names,
            y=np.asarray(y),
            subject_ids=self.subject_ids,
            label_name=self.label_name,
        )


def response_kind(ds: Dataset) -> str:
    """One of ``binary`` (-1/+1), ``real``, or ``classes``."""
    if ds.y.dtype.kind in "fiu":
        vals = np.unique(ds.y.astype(float))
        if np.all(np.isin(vals, (-1.0, 1.0))):
            return "binary"
        return "real"
    return "classes"


def _default_ids(n: int) -> list[str]:
    width = len(str(n))
    return [f"s{i + 1:0{width}d}" for i in range(n)]


def ingest(
    path,
    *,
    label_column: str = "label",
    positive_label: str | None = None,
    log_transform: bool = False,
) -> Dataset:
    """Read a delimited text file (header row, rows = subjects) strictly.

    ``positive_label`` maps the label column onto -1/+1; otherwise numeric
    labels become a real (or -1/+1) response and anything else is kept as
    class labels.  ``log_transform`` applies the natural log to every feature
    and requires strictly positive values.
    """
    block = None
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh), None)
        except csv.Error:  # left to _read_cells to report
            header = None
        if header and label_column in header and len(set(header)) == len(header):
            block = _read_block(fh, len(header), header.index(label_column), log_transform)
    if block is None:
        header, block = _read_cells(path, label_column, log_transform)
    x, labels_raw = block

    y = _parse_labels(labels_raw, positive_label, path)
    return Dataset(
        X=x,
        feature_names=[h for h in header if h != label_column],
        y=y,
        subject_ids=_default_ids(len(x)),
        label_name=label_column,
    )


def _read_block(lines, width, label_pos, log_transform):
    """The data rows through numpy's C reader: ``(features, labels)``, or None.

    None means the file is left to ``_parse_cells``: a cell the reader
    rejects, a non-finite (or, under ``log_transform``, non-positive) value,
    or a file the reader would read differently from ``csv``.  The reader
    skips blank lines, so each line must be one row, which also sends rows
    with a line break inside a quoted cell to ``_parse_cells``; it reads
    fields of any length, where ``csv`` raises past
    ``csv.field_size_limit()`` characters.  Where the reader accepts a cell,
    it parses it like ``float(cell.strip())``, so values are bitwise equal.
    """
    first = next(lines, "")
    if not first.strip("\r\n"):  # also keeps loadtxt's "no data" warning out
        return None
    limit = csv.field_size_limit()
    span = max(limit // 2, 1)
    n_lines = 0
    long_field = False

    def counted():
        nonlocal n_lines, long_field
        for line in itertools.chain((first,), lines):
            n_lines += 1
            # a field longer than limit covers a whole comma-free span starting at a multiple of span
            if any(line.find(",", i, i + span) < 0 for i in range(0, len(line) - span + 1, span)):
                long_field = True
            yield line

    labels = []

    def keep_label(text):
        labels.append(text)
        return 0.0

    try:
        # encoding=None hands the converter str, not latin-1 bytes, before numpy 2
        x = np.loadtxt(
            counted(), delimiter=",", quotechar='"', comments=None, ndmin=2,
            converters={label_pos: keep_label}, encoding=None,
        )
    except ValueError:
        return None
    if long_field or x.shape != (n_lines, width) or any(len(t) > limit for t in labels):
        return None
    x = np.delete(x, label_pos, axis=1)
    if not np.isfinite(x).all() or (log_transform and not (x > 0.0).all()):
        return None
    if log_transform:
        # math.log per value keeps the results bitwise equal to _parse_cells
        x = np.fromiter(map(math.log, x.flat), float, count=x.size).reshape(x.shape)
    return x, [t.strip() for t in labels]


def read_rows(path) -> list[list[str]]:
    """Every row of a delimited file, header first, as lists of cells.

    A row ``csv`` cannot read (a cell past ``csv.field_size_limit()``) is a
    ``DataValidationError`` naming the file and the row: ``header``, or the
    data row's 1-based number.
    """
    rows = []
    with open(path, newline="") as fh:
        try:
            for row in csv.reader(fh):
                rows.append(row)
        except csv.Error as exc:
            where = f"row {len(rows)}" if rows else "header"
            raise DataValidationError(f"{path}: {where}: {exc}") from None
    return rows


def _read_cells(path, label_column, log_transform):
    """The strict per-cell read: the header and ``_parse_cells``'s block, or the first error."""
    rows = read_rows(path)
    if not rows:
        raise DataValidationError(f"{path}: file is empty")
    header, rows = rows[0], rows[1:]
    if not rows:
        raise DataValidationError(f"{path}: no data rows")
    if label_column not in header:
        raise DataValidationError(f"{path}: label column {label_column!r} not in header")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataValidationError(f"{path}: duplicate column names {dupes}")
    return header, _parse_cells(path, header, rows, header.index(label_column), log_transform)


def _parse_cells(path, header, rows, label_pos, log_transform):
    """Cell-by-cell parse that raises on the first bad row or cell, in file order."""
    n, p = len(rows), len(header) - 1
    x = np.empty((n, p))
    labels_raw = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataValidationError(
                f"{path}: row {i + 1} has {len(row)} cells, expected {len(header)}"
            )
        col = 0
        for j, cell in enumerate(row):
            if j == label_pos:
                labels_raw.append(cell.strip())
                continue
            text = cell.strip()
            if text in MISSING_TOKENS:
                raise DataValidationError(
                    f"{path}: missing value at row {i + 1}, column {header[j]!r}"
                )
            try:
                value = float(text)
            except ValueError:
                raise DataValidationError(
                    f"{path}: non-numeric value {cell!r} at row {i + 1}, column {header[j]!r}"
                ) from None
            if not math.isfinite(value):
                raise DataValidationError(
                    f"{path}: non-finite value at row {i + 1}, column {header[j]!r}"
                )
            if log_transform:
                if value <= 0.0:
                    raise DataValidationError(
                        f"{path}: log transform requires positive values; got {value} "
                        f"at row {i + 1}, column {header[j]!r}"
                    )
                value = math.log(value)
            x[i, col] = value
            col += 1
    return x, labels_raw


def _parse_labels(labels_raw, positive_label, path):
    for i, lab in enumerate(labels_raw):
        if lab in MISSING_TOKENS:
            raise DataValidationError(f"{path}: missing label at row {i + 1}")
    if positive_label is not None:
        if positive_label not in labels_raw:
            seen = sorted(set(labels_raw))
            shown = ", ".join(map(repr, seen[:10]))
            if len(seen) > 10:
                shown += f", ... ({len(seen)} in all)"
            raise DataValidationError(
                f"{path}: positive label {positive_label!r} matches no row; labels seen: {shown}"
            )
        return np.where(np.asarray(labels_raw) == positive_label, 1.0, -1.0)
    try:
        values = np.array([float(lab) for lab in labels_raw])
    except ValueError:
        return np.asarray(labels_raw, dtype=object)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise DataValidationError(f"{path}: non-finite label at row {bad + 1}")
    return values


def fmt(value) -> str:
    """Deterministic text cell: shortest round-trip floats; NaN and None are blank."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return ""
        return repr(float(value))
    return str(value)


def emit(ds: Dataset, path) -> None:
    """Write a dataset back to delimited text.

    Floats use shortest round-trip formatting, so ``ingest(emit(ds))``
    reproduces the matrix and response bit for bit.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(ds.feature_names + [ds.label_name]) + "\n")
        # repr of a Python float is what fmt writes for each (finite) feature value
        for row, label in zip(ds.X.tolist(), ds.y):
            cells = list(map(repr, row))
            cells.append(fmt(label))
            fh.write(",".join(cells) + "\n")


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def _solve_intercept(scores: np.ndarray, prior: float) -> float:
    """Intercept making the average of sigmoid(score + b) equal ``prior``."""
    lo, hi = -50.0, 50.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if _sigmoid(scores + mid).mean() < prior:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def synth_generate(
    n: int,
    p: int,
    *,
    model: str = "linear",
    active: int | list[int] = 4,
    coef: float = 1.0,
    noise: float = 1.0,
    classes: int = 4,
    class_sep: float = 2.0,
    prior: float | None = None,
    class_counts: tuple[int, int] | None = None,
    seed: int = 0,
) -> tuple[Dataset, dict]:
    """Generate a benchmark dataset with a documented generative model.

    Features are iid standard normal.  ``linear`` adds Gaussian noise of the
    given scale onto ``coef * sum(active columns)``; ``logistic`` samples
    -1/+1 labels from ``sigmoid(b + coef * sum(active columns))`` where ``b``
    hits the requested positive-class ``prior`` (``class_counts=(n_pos,
    n_neg)`` instead forces exact counts by taking the subjects with the
    largest probability-minus-uniform draws); ``multiclass`` shifts a
    disjoint feature pair per class by ``class_sep``.  Returns the dataset
    and a ground-truth manifest (active set, coefficients, and for logistic
    models the per-subject class-(+1) probability).
    """
    if model not in ("linear", "logistic", "multiclass"):
        raise ValueError(f"unknown synthetic model {model!r}")
    if isinstance(active, int):
        active_set = list(range(active))
    else:
        active_set = sorted(int(a) for a in active)
    if model != "multiclass":
        if len(active_set) > p or (active_set and active_set[-1] >= p):
            raise ValueError("active set does not fit into p features")
    rng = stream(seed, "synthesis", model)
    x = rng.normal(size=(n, p))
    names = [f"f{j + 1}" for j in range(p)]
    truth: dict = {"model": model, "n": n, "p": p, "seed": seed}

    if model == "linear":
        signal = coef * x[:, active_set].sum(axis=1) if active_set else np.zeros(n)
        y = signal + noise * rng.normal(size=n)
        truth.update(active=active_set, coef=coef, noise=noise)
        label_name = "response"
    elif model == "logistic":
        if not active_set:
            raise ValueError("logistic model needs a nonempty active set")
        scores = coef * x[:, active_set].sum(axis=1)
        intercept = 0.0 if prior is None else _solve_intercept(scores, prior)
        eta = _sigmoid(scores + intercept)
        u = rng.uniform(size=n)
        if class_counts is not None:
            n_pos, n_neg = class_counts
            if n_pos + n_neg != n:
                raise ValueError(f"class counts {class_counts} do not sum to n={n}")
            order = np.argsort(-(eta - u), kind="stable")
            y = np.full(n, -1.0)
            y[order[:n_pos]] = 1.0
        else:
            y = np.where(u < eta, 1.0, -1.0)
        truth.update(
            active=active_set,
            coef=coef,
            intercept=intercept,
            prior=prior,
            class_counts=list(class_counts) if class_counts else None,
            eta=[float(e) for e in eta],
        )
        label_name = "status"
    else:
        if classes < 2:
            raise ValueError("multiclass model needs at least 2 classes")
        if 2 * classes > p:
            raise ValueError(f"need p >= {2 * classes} for {classes} driver pairs")
        sizes = [len(chunk) for chunk in np.array_split(np.arange(n), classes)]
        labels = []
        pairs = {}
        start = 0
        for c in range(classes):
            name = f"c{c + 1}"
            pair = [2 * c, 2 * c + 1]
            pairs[name] = pair
            x[start : start + sizes[c], pair] += class_sep
            labels.extend([name] * sizes[c])
            start += sizes[c]
        y = np.asarray(labels, dtype=object)
        truth.update(
            classes=classes,
            class_sizes=sizes,
            class_sep=class_sep,
            pairs=pairs,
            active=sorted(j for pair in pairs.values() for j in pair),
        )
        label_name = "tumor_type"

    ds = Dataset(
        X=x,
        feature_names=names,
        y=y,
        subject_ids=_default_ids(n),
        label_name=label_name,
    )
    return ds, truth
