import csv
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from dcovselect.data import Dataset, _parse_cells, emit, fmt, ingest, response_kind, synth_generate
from dcovselect.errors import DataValidationError
from dcovselect.screening import marginal_rank


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, newline="")
    return path


class TestIngest:
    def test_small_csv(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1.0,2.0,a\n3.5,4.0,b\n5.0,6.5,a\n")
        ds = ingest(path, label_column="label")
        assert (ds.n, ds.p) == (3, 2)
        assert ds.feature_names == ["g1", "g2"]
        assert response_kind(ds) == "classes"

    def test_positive_label_maps_to_signs(self, tmp_path):
        path = write(tmp_path, "g1,label\n1.0,yes\n2.0,no\n3.0,yes\n")
        ds = ingest(path, label_column="label", positive_label="yes")
        assert np.array_equal(ds.y, [1.0, -1.0, 1.0])
        assert response_kind(ds) == "binary"

    def test_numeric_labels_become_real_response(self, tmp_path):
        path = write(tmp_path, "g1,label\n1.0,0.5\n2.0,1.5\n")
        ds = ingest(path, label_column="label")
        assert response_kind(ds) == "real"

    def test_missing_cell_names_location(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1.0,NA,a\n2.0,3.0,b\n")
        with pytest.raises(DataValidationError, match=r"row 1, column 'g2'"):
            ingest(path, label_column="label")

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = write(tmp_path, "g1,label\nfoo,a\n1.0,b\n")
        with pytest.raises(DataValidationError, match=r"non-numeric.*row 1"):
            ingest(path, label_column="label")

    def test_log_transform_rejects_nonpositive(self, tmp_path):
        path = write(tmp_path, "g1,label\n0.0,a\n1.0,b\n")
        with pytest.raises(DataValidationError, match="log transform"):
            ingest(path, label_column="label", log_transform=True)

    def test_log_transform_applies(self, tmp_path):
        path = write(tmp_path, "g1,label\n1.0,a\n7.389056098930650,b\n")
        ds = ingest(path, label_column="label", log_transform=True)
        assert ds.X[0, 0] == 0.0
        assert ds.X[1, 0] == pytest.approx(2.0)

    def test_duplicate_columns_rejected(self, tmp_path):
        path = write(tmp_path, "g1,g1,label\n1.0,2.0,a\n3.0,4.0,b\n")
        with pytest.raises(DataValidationError, match="duplicate"):
            ingest(path, label_column="label")

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "g1,g2\n1.0,2.0\n")
        with pytest.raises(DataValidationError, match="label column"):
            ingest(path, label_column="label")

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1.0,a\n")
        with pytest.raises(DataValidationError, match="cells"):
            ingest(path, label_column="label")


    def test_positive_label_matching_no_row_rejected(self, tmp_path):
        path = write(tmp_path, "g1,label\n1.0,case\n2.0,control\n3.0,case\n")
        with pytest.raises(
            DataValidationError, match=r"positive label 'Case' matches no row; labels seen: 'case', 'control'"
        ):
            ingest(path, label_column="label", positive_label="Case")


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestBlockConversion:
    """The one-call conversion of the feature block against per-cell parsing."""

    CELLS = [" 1.5 ", "+.5", "1_0", "-0.0", "1e-320", "\xa02.5\xa0", '"3.25"']

    @pytest.mark.parametrize("label_pos", [0, 3, 7])
    def test_values_bitwise_equal_to_float(self, tmp_path, label_pos):
        names = [f"g{j + 1}" for j in range(len(self.CELLS))]
        header = names[:label_pos] + ["label"] + names[label_pos:]
        lines = []
        for i in range(3):
            row = self.CELLS[i:] + self.CELLS[:i]
            lines.append(",".join(row[:label_pos] + [f"c{i}"] + row[label_pos:]))
        path = write(tmp_path, ",".join(header) + "\n" + "\n".join(lines) + "\n")
        ds = ingest(path, label_column="label")
        want = [[float(c.strip('"')) for c in self.CELLS[i:] + self.CELLS[:i]] for i in range(3)]
        assert ds.feature_names == names
        assert np.array_equal(bits(ds.X), bits(want))
        assert list(ds.y) == ["c0", "c1", "c2"]

    @pytest.mark.parametrize("log_transform", [False, True])
    def test_matches_per_cell_parse(self, tmp_path, log_transform):
        rng = np.random.default_rng(3)
        x = np.exp(rng.normal(size=(9, 12)) * 5)
        header = [f"g{j}" for j in range(6)] + ["label"] + [f"g{j}" for j in range(6, 12)]
        lines = [",".join(header)]
        for i, row in enumerate(x.tolist()):
            cells = [repr(v) for v in row]
            lines.append(",".join(cells[:6] + [str(i % 2)] + cells[6:]))
        path = write(tmp_path, "\n".join(lines) + "\n")
        ds = ingest(path, label_column="label", log_transform=log_transform)
        rows = [line.split(",") for line in lines[1:]]
        want, labels = _parse_cells(path, header, rows, 6, log_transform)
        assert np.array_equal(bits(ds.X), bits(want))
        assert np.array_equal(ds.y, [float(lab) for lab in labels])

    @pytest.mark.parametrize(
        "cell, kind",
        [("nan", "missing value"), ("NA", "missing value"), (" NaN ", "missing value"),
         ("inf", "non-finite value"), ("-1e400", "non-finite value")],
    )
    def test_bad_cells_named_with_row_and_column(self, tmp_path, cell, kind):
        path = write(tmp_path, f"g1,g2,label\n1.0,2.0,a\n3.0,{cell},b\n")
        with pytest.raises(DataValidationError, match=rf"{kind} at row 2, column 'g2'"):
            ingest(path, label_column="label")

    def test_bad_cell_before_ragged_row_is_reported(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1.0,x,a\n2.0,b\n")
        with pytest.raises(DataValidationError, match=r"non-numeric value 'x' at row 1, column 'g2'"):
            ingest(path, label_column="label")

    def test_ragged_row_before_bad_cell_is_reported(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n2.0,b\n1.0,x,a\n")
        with pytest.raises(DataValidationError, match=r"row 1 has 2 cells, expected 3"):
            ingest(path, label_column="label")

    def test_nonpositive_before_non_numeric_under_log(self, tmp_path):
        path = write(tmp_path, "g1,label\n1.0,a\n-2.0,b\nx,a\n")
        with pytest.raises(DataValidationError, match=r"got -2.0 at row 2, column 'g1'"):
            ingest(path, label_column="label", log_transform=True)

    def test_every_row_with_an_extra_cell_rejected(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1.0,2.0,a,4.0\n3.0,4.0,b,5.0\n")
        with pytest.raises(DataValidationError, match=r"row 1 has 4 cells, expected 3"):
            ingest(path, label_column="label")


def ingest_or_error(path, **kwargs):
    """``ingest``'s dataset, or the message of the DataValidationError it raises."""
    try:
        return ingest(path, **kwargs)
    except DataValidationError as exc:
        return str(exc)


def assert_same_dataset(a, b):
    assert a.X.shape == b.X.shape
    assert np.array_equal(bits(a.X), bits(b.X))
    assert a.y.dtype == b.y.dtype
    if a.y.dtype.kind == "f":
        assert np.array_equal(bits(a.y), bits(b.y))
    else:
        assert list(a.y) == list(b.y)
    assert (a.feature_names, a.subject_ids, a.label_name) == (b.feature_names, b.subject_ids, b.label_name)


class TestStrictness:
    """Edge-case files, read as they always were, whichever path reads them."""

    PLAIN = "g1,g2,label\n1.5,-2.0,case\n3.0,4.25,control\n0.5,1e-3,case\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("g1,label\n1.0,a\n\n2.0,b\n", "row 2 has 0 cells, expected 2"),
            ("g1,label\n1.0,a\n2.0,b\n\n", "row 3 has 0 cells, expected 2"),
            ("g1,label\r\n1.0,a\r\n2.0,b\r\n\r\n\r\n", "row 3 has 0 cells, expected 2"),
            ("g1,label\n\n1.0,a\n", "row 1 has 0 cells, expected 2"),
            ("g1,label\n\n", "row 1 has 0 cells, expected 2"),
            ("g1,label\r\n\r\n\r\n", "row 1 has 0 cells, expected 2"),
            ("g1,label\n1.0,a\n \n", "row 2 has 1 cells, expected 2"),
            ("g1,label\n1.0,a\n#2.0,b\n", "non-numeric value '#2.0' at row 2, column 'g1'"),
            ("g1,label\n", "no data rows"),
            ("g1,label", "no data rows"),
            ("g1,g2\n", "no data rows"),
            ("", "file is empty"),
            ("g1,label\n1.0,a\n1.0,\n", "missing label at row 2"),
        ],
    )
    def test_rejected_with_todays_message(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ingest_or_error(path) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text",
        [
            PLAIN.replace("\n", "\r\n"),
            PLAIN.replace("\n", "\r"),
            PLAIN[:-1],
            PLAIN.replace("\n", "\r\n")[:-2],
            '"g1","g2","label"\n"1.5","-2.0","case"\n"3.0",4.25,"control"\n0.5,"1e-3",case\n',
            "g1,g2,label\n1.5,-2.0, case\n3.0,4.25,control \n0.5,1e-3,\t case\n",
            'g1,g2,label\n1.5,-2.0," case "\n3.0,4.25,"control"\n0.5,1e-3,"case"\n',
            'g1,g2,label\n"1.5\n",-2.0,case\n3.0,4.25,control\n0.5,1e-3,case\n',
        ],
        ids=["crlf", "cr", "no-final-lf", "no-final-crlf", "quoted", "spaced-labels", "quoted-labels",
             "newline-in-quoted-cell"],
    )
    @pytest.mark.parametrize("positive_label", [None, "case"])
    def test_same_dataset_as_the_plain_file(self, tmp_path, text, positive_label):
        want = ingest(write(tmp_path, self.PLAIN, "plain.csv"), positive_label=positive_label)
        assert np.array_equal(want.X, [[1.5, -2.0], [3.0, 4.25], [0.5, 1e-3]])
        assert list(want.y) == (["case", "control", "case"] if positive_label is None else [1.0, -1.0, 1.0])
        assert_same_dataset(ingest(write(tmp_path, text), positive_label=positive_label), want)

    def test_quoted_label_with_a_newline_and_a_comma(self, tmp_path):
        ds = ingest(write(tmp_path, 'g1,label\n1.0,"a,\nb"\n2.0,#c\n'))
        assert ds.X.tolist() == [[1.0], [2.0]]
        assert list(ds.y) == ["a,\nb", "#c"]

    def test_single_data_row(self, tmp_path):
        ds = ingest(write(tmp_path, "g1,label,g2\n1.5,c1,-2.0\n"))
        assert ds.X.shape == (1, 2) and ds.X.flags.c_contiguous
        assert ds.X.tolist() == [[1.5, -2.0]]
        assert list(ds.y) == ["c1"] and ds.subject_ids == ["s1"]

    @pytest.mark.parametrize(
        "row",
        ["1." + "0" * csv.field_size_limit() + ",a", '1.0,"' + "a," * csv.field_size_limit() + '"'],
        ids=["feature", "label"],
    )
    def test_cell_past_the_csv_field_limit_rejected(self, tmp_path, row):
        path = write(tmp_path, f"g1,label\n2.0,b\n{row}\n")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(path))}: row 2: field larger than field limit"):
            ingest(path)

    def test_header_past_the_csv_field_limit_rejected(self, tmp_path):
        path = write(tmp_path, "g" * (csv.field_size_limit() + 1) + ",label\n2.0,b\n")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(path))}: header: field larger than field limit"):
            ingest(path)

    def test_clean_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("_parse_cells read a clean file")

        monkeypatch.setattr("dcovselect.data._parse_cells", refuse)
        text = 'g1,label,g2\r\n"2.5",case,1e-3\r\n7.0, control ,"4"\r\n'
        for log_transform in (False, True):
            ds = ingest(write(tmp_path, text), positive_label="case", log_transform=log_transform)
            assert ds.X.shape == (2, 2) and list(ds.y) == [1.0, -1.0]

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = write(tmp_path, "g1,label\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataValidationError, match="no data rows"):
                ingest(path)


class TestSpellings:
    """Each cell spelling through ``ingest`` against ``_parse_cells`` on the same file."""

    SPELLINGS = list(dict.fromkeys(
        TestBlockConversion.CELLS
        + ["1_0", "\u0661\u0662", "\x1c1", "1\x1f", "\x0b1", "1\x0c", " 1"]
        + ["nan", "x", "", "1e400", "-1", "0", '"1"2', '1"2"', "1 2", "0x10", "1\x00"]
    ))

    @pytest.mark.parametrize("cell", SPELLINGS)
    @pytest.mark.parametrize("log_transform", [False, True])
    def test_same_values_or_error_as_parse_cells(self, tmp_path, cell, log_transform):
        path = write(tmp_path, f"g1,label,g2\n2.5,a,1.0\n{cell},b,{cell}\n")
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        try:
            want = _parse_cells(path, header, rows, 1, log_transform)[0]
        except DataValidationError as exc:
            want = str(exc)
        got = ingest_or_error(path, log_transform=log_transform)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(bits(got.X), bits(want))
            assert list(got.y) == ["a", "b"]


class TestIngestMemory:
    def test_traced_peak_is_a_small_multiple_of_the_matrix(self, tmp_path):
        rng = np.random.default_rng(5)
        n, p = 100, 4000
        ds = Dataset(
            X=np.exp(rng.normal(size=(n, p))),
            feature_names=[f"g{j}" for j in range(p)],
            y=np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0),
            subject_ids=[f"s{i}" for i in range(n)],
        )
        path = tmp_path / "wide.csv"
        emit(ds, path)
        for log_transform in (False, True):
            tracemalloc.start()
            try:
                nbytes = ingest(path, log_transform=log_transform).X.nbytes
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the matrix with its label column, the label-free copy, and a line of text
            assert peak < 3 * nbytes, (log_transform, peak / nbytes)


class TestEmit:
    VALUES = [-0.0, 5e-324, 1e16, 0.1, 1 / 3, -1e-7, 2.5e-310, 123456789.0]

    @pytest.mark.parametrize(
        "y", [np.array([1.0, -1.0, 1.0]), np.array(["c1", "c2", "c1"], dtype=object), np.array([0.5, -0.0, 1e16])]
    )
    def test_bytes_equal_per_cell_formatting(self, tmp_path, y):
        x = np.array([self.VALUES, self.VALUES[::-1], np.roll(self.VALUES, 3)])
        ds = Dataset(
            X=x, feature_names=[f"f{j}" for j in range(x.shape[1])], y=y, subject_ids=["s1", "s2", "s3"]
        )
        path = tmp_path / "out.csv"
        emit(ds, path)
        want = ",".join(ds.feature_names + ["label"]) + "\n"
        for i in range(ds.n):
            want += ",".join([fmt(v) for v in x[i]] + [fmt(y[i])]) + "\n"
        assert path.read_bytes() == want.encode()


class TestRoundTrip:
    def test_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(
            X=rng.normal(size=(7, 3)) * 1e3,
            feature_names=["a", "b", "c"],
            y=np.where(rng.uniform(size=7) < 0.5, 1.0, -1.0),
            subject_ids=[f"s{i+1}" for i in range(7)],
        )
        path = tmp_path / "roundtrip.csv"
        emit(ds, path)
        back = ingest(path, label_column="label")
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert back.feature_names == ds.feature_names

    def test_class_labels_roundtrip(self, tmp_path):
        ds, _ = synth_generate(12, 4, model="multiclass", classes=2, seed=1)
        path = tmp_path / "classes.csv"
        emit(ds, path)
        back = ingest(path, label_column=ds.label_name)
        assert np.array_equal(back.X, ds.X)
        assert list(back.y) == list(ds.y)


class TestSynth:
    def test_linear_noise_free_driver_ranks_first(self):
        ds, truth = synth_generate(60, 10, model="linear", active=[3], noise=0.0, seed=2)
        ranking, _ = marginal_rank(ds.X, ds.y)
        assert ranking[0] == 3
        assert truth["active"] == [3]

    def test_multiclass_tumor_panel_shape(self):
        ds, truth = synth_generate(63, 2308, model="multiclass", classes=4, seed=3)
        assert (ds.n, ds.p) == (63, 2308)
        values, counts = np.unique(ds.y, return_counts=True)
        assert len(values) == 4
        assert counts.sum() == 63
        assert len(truth["active"]) == 8

    def test_logistic_exact_counts(self):
        ds, truth = synth_generate(
            279, 50, model="logistic", active=4, prior=191 / 279, class_counts=(191, 88), seed=4
        )
        assert int((ds.y == 1.0).sum()) == 191
        assert int((ds.y == -1.0).sum()) == 88
        assert len(truth["eta"]) == 279

    def test_logistic_imbalanced_cohort_shape(self):
        ds, _ = synth_generate(
            279, 12042, model="logistic", active=4, prior=191 / 279,
            class_counts=(191, 88), seed=4,
        )
        assert (ds.n, ds.p) == (279, 12042)
        assert int((ds.y == 1.0).sum()) == 191

    def test_logistic_eta_in_unit_interval(self):
        _, truth = synth_generate(100, 10, model="logistic", active=3, prior=0.6, seed=5)
        eta = np.array(truth["eta"])
        assert np.all((eta > 0) & (eta < 1))
        assert abs(eta.mean() - 0.6) < 1e-6

    def test_reproducible(self):
        a, _ = synth_generate(30, 5, model="linear", active=2, seed=6)
        b, _ = synth_generate(30, 5, model="linear", active=2, seed=6)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            synth_generate(10, 3, model="multiclass", classes=4, seed=0)
        with pytest.raises(ValueError):
            synth_generate(10, 3, model="linear", active=[5], seed=0)
        with pytest.raises(ValueError):
            synth_generate(10, 3, model="nonsense")

    def test_class_counts_must_sum(self):
        with pytest.raises(ValueError):
            synth_generate(10, 3, model="logistic", active=1, class_counts=(5, 6), seed=0)


class TestDatasetValidation:
    def test_nonfinite_matrix_rejected(self):
        with pytest.raises(DataValidationError):
            Dataset(
                X=np.array([[1.0, np.inf]]),
                feature_names=["a", "b"],
                y=np.array([1.0]),
                subject_ids=["s1"],
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataValidationError):
            Dataset(
                X=np.zeros((2, 2)),
                feature_names=["a", "a"],
                y=np.ones(2),
                subject_ids=["s1", "s2"],
            )
