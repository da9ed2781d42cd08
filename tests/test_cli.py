import csv
import json
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import dcovselect
from dcovselect import cv, report, svm_reject
from dcovselect.cli import main, parse_fraction
from dcovselect.data import ingest
from dcovselect.errors import SolverError
from dcovselect.svm_reject import RejectLossParams, decision_scores, fit


def run(*argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run(
        "synth", "--model", "logistic", "--n", "80", "--p", "15", "--active", "3",
        "--coef", "1.2", "--prior", "0.65", "--seed", "5", "--out-dir", str(out),
    )
    assert code == 0
    return out


def read(path: Path) -> str:
    return path.read_text()


class TestParsing:
    def test_fractions(self):
        assert parse_fraction("1/3") == pytest.approx(1 / 3)
        assert parse_fraction("0.25") == 0.25

    def test_zero_denominator_is_usage_error(self, synth_dir, tmp_path):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_fraction("1/0")
        assert run(
            "cv5", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--delta", "1/0", "--out-dir", str(tmp_path / "o"),
        ) == 1

    @pytest.mark.parametrize(
        "argv, option, expected",
        [
            (("cv5", "--d", "1/4", "--delta", "1/2"), "delta", 0.5),
            (("mcv", "--d", "1/4", "--reps", "1", "--delta", "2/5"), "delta", 0.4),
            (("screen", "--epsilon", "1/10"), "epsilon", 0.1),
            (("svmr-fit", "--d", "1/4", "--r", "1/10", "--delta", "1/2"), "r", 0.1),
            (("synth", "--n", "30", "--p", "4", "--coef", "6/5"), "coef", 1.2),
            (("synth", "--n", "30", "--p", "4", "--noise", "1/2"), "noise", 0.5),
            (("synth", "--model", "multiclass", "--n", "30", "--p", "8", "--class-sep", "5/2"), "class_sep", 2.5),
        ],
    )
    def test_every_real_flag_takes_fractions(self, synth_dir, tmp_path, argv, option, expected):
        data = () if argv[0] == "synth" else ("--input", str(synth_dir / "data.csv"), "--label-col", "status")
        out = tmp_path / "o"
        assert run(*argv, *data, "--out-dir", str(out)) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["options"][option] == pytest.approx(expected)

    def test_threads_flag_is_gone(self, synth_dir, tmp_path):
        assert run(
            "mcv", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--reps", "1", "--threads", "2", "--out-dir", str(tmp_path / "o"),
        ) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("mcv", "--bogus") == 1

    def test_missing_command_is_usage_error(self):
        assert run() == 1


class TestSynthAndScreen:
    def test_synth_outputs(self, synth_dir):
        assert (synth_dir / "data.csv").exists()
        truth = json.loads(read(synth_dir / "truth.json"))
        assert truth["active"] == [0, 1, 2]
        manifest = json.loads(read(synth_dir / "manifest.json"))
        assert manifest["command"] == "synth"
        assert "out_dir" not in manifest["options"]

    @pytest.mark.parametrize(
        "model, own, others",
        [
            (
                "linear",
                ("--active", "2", "--noise", "1/2"),
                ("--classes", "3", "--class-sep", "5", "--prior", "0.3", "--class-counts", "10,30"),
            ),
            ("logistic", ("--active", "2", "--prior", "0.6"), ("--noise", "3", "--classes", "3", "--class-sep", "5")),
            (
                "multiclass",
                ("--classes", "3", "--class-sep", "5/2"),
                ("--active", "1", "--coef", "5", "--noise", "3", "--prior", "0.3", "--class-counts", "10,30"),
            ),
        ],
    )
    def test_synth_ignores_the_flags_of_other_models(self, tmp_path, model, own, others):
        argv = ("synth", "--model", model, "--n", "40", "--p", "8", "--seed", "3", *own)
        assert run(*argv, "--out-dir", str(tmp_path / "own")) == 0
        assert run(*argv, *others, "--out-dir", str(tmp_path / "all")) == 0
        for name in ("data.csv", "truth.json"):
            assert read(tmp_path / "all" / name) == read(tmp_path / "own" / name)

    def test_screen_binary(self, synth_dir, tmp_path):
        out = tmp_path / "scr"
        code = run(
            "screen", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--method", "dcov", "--seed", "1", "--out-dir", str(out),
        )
        assert code == 0
        assert (out / "ranking.csv").exists()
        assert (out / "selected.csv").exists()
        assert (out / "trajectory.csv").exists()
        results = json.loads(read(out / "results.json"))
        assert results["stop_reason"] in ("decrease_observed", "exhausted")

    def test_screen_multiclass_one_vs_rest(self, tmp_path):
        data_dir = tmp_path / "mc"
        assert run(
            "synth", "--model", "multiclass", "--n", "48", "--p", "30", "--classes", "3",
            "--class-sep", "3.0", "--seed", "2", "--out-dir", str(data_dir),
        ) == 0
        out = tmp_path / "mcscr"
        code = run(
            "screen", "--input", str(data_dir / "data.csv"), "--label-col", "tumor_type",
            "--out-dir", str(out),
        )
        assert code == 0
        results = json.loads(read(out / "results.json"))
        assert len(results["per_class_selected"]) == 3
        assert (out / "selected_c1.csv").exists()
        assert (out / "selected.csv").exists()

    def test_dcsis_model_size(self, synth_dir, tmp_path):
        out = tmp_path / "sis"
        code = run(
            "screen", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--method", "dcsis", "--model-size", "6", "--out-dir", str(out),
        )
        assert code == 0
        lines = read(out / "selected.csv").strip().splitlines()
        assert len(lines) == 7  # header + 6

    @pytest.fixture
    def narrow_data(self, tmp_path):
        data_dir = tmp_path / "narrow"
        assert run(
            "synth", "--model", "linear", "--n", "60", "--p", "10", "--seed", "4", "--out-dir", str(data_dir),
        ) == 0
        return data_dir / "data.csv"

    def test_dcsis_default_model_size_keeps_every_feature_when_p_is_smaller(self, narrow_data, tmp_path):
        # floor(60 / log 60) = 14 > p = 10: the top-d rule keeps all 10
        out = tmp_path / "sis"
        assert run(
            "screen", "--input", str(narrow_data), "--label-col", "response", "--method", "dcsis",
            "--out-dir", str(out),
        ) == 0
        lines = read(out / "selected.csv").strip().splitlines()
        assert sorted(int(line.split(",")[1]) for line in lines[1:]) == list(range(10))

    def test_dcsis_model_size_above_p_is_a_usage_error_before_ranking(self, narrow_data, tmp_path, monkeypatch):
        from dcovselect import screening

        ranked = []
        monkeypatch.setattr(screening, "marginal_rank", lambda *args: ranked.append(args))
        out = tmp_path / "sis"
        assert run(
            "screen", "--input", str(narrow_data), "--label-col", "response", "--method", "dcsis",
            "--model-size", "11", "--out-dir", str(out),
        ) == 1
        assert not ranked
        assert not out.exists()


class TestExitCodes:
    def test_data_validation_is_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("g1,g2,label\n1.0,NA,a\n2.0,3.0,b\n")
        out = tmp_path / "o"
        assert run("screen", "--input", str(bad), "--label-col", "label", "--out-dir", str(out)) == 2

    def test_missing_file_is_usage(self, tmp_path):
        assert run(
            "screen", "--input", str(tmp_path / "nope.csv"), "--label-col", "label",
            "--out-dir", str(tmp_path / "o"),
        ) == 1

    def test_nonbinary_response_for_mcv_is_validation_error(self, tmp_path):
        data_dir = tmp_path / "lin"
        assert run(
            "synth", "--model", "linear", "--n", "30", "--p", "5", "--active", "2",
            "--seed", "1", "--out-dir", str(data_dir),
        ) == 0
        assert run(
            "mcv", "--input", str(data_dir / "data.csv"), "--label-col", "response",
            "--reps", "2", "--out-dir", str(tmp_path / "o"),
        ) == 2

    def test_positive_label_matching_no_row_is_two(self, tmp_path, capsys):
        data = tmp_path / "cc.csv"
        data.write_text("g1,g2,label\n1.0,2.0,case\n2.0,3.5,control\n0.5,1.0,case\n4.0,0.5,control\n")
        assert run(
            "screen", "--input", str(data), "--label-col", "label", "--positive-label", "Case",
            "--out-dir", str(tmp_path / "o"),
        ) == 2
        assert "positive label 'Case' matches no row" in capsys.readouterr().err
        assert not (tmp_path / "o" / "selected.csv").exists()

    def test_voting_bins_of_a_cv5_run_is_two(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "cv5"
        assert run(
            "cv5", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--seed", "3", "--out-dir", str(out),
        ) == 0
        rep = tmp_path / "bins"
        assert run("report", "--kind", "voting_bins", "--input", str(out / "results.json"), "--out-dir", str(rep)) == 2
        assert "not an mcv run?" in capsys.readouterr().err
        assert not list(rep.glob("voting_bins*.csv"))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_solver_failure_in_the_lp_grid_is_three(self, synth_dir, tmp_path, monkeypatch, finishes, cpus):
        real_fit_path = cv.fit_path

        def failing_fit_path(x, y, r_grid, params):
            if 0.3 in r_grid:
                raise SolverError("linear program failed (status 4) [r=0.3]")
            return real_fit_path(x, y, r_grid, params)

        monkeypatch.setattr(cv, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cv, "fit_path", failing_fit_path)
        for command, extra in (("mcv", ("--reps", "2")), ("cv5", ())):
            argv = [
                command, "--input", str(synth_dir / "data.csv"), "--label-col", "status",
                *extra, "--out-dir", str(tmp_path / command),
            ]
            assert finishes(lambda: run(*argv)) == {"value": 3}

    def test_solver_failure_in_svmr_fit_is_three(self, synth_dir, tmp_path, monkeypatch, capsys):
        core = svm_reject._highs_core()

        class StalledHighs(core._Highs):
            """Reports an iteration limit on every solve."""

            def getModelStatus(self):
                return core.HighsModelStatus.kIterationLimit

        monkeypatch.setattr(core, "_Highs", StalledHighs)
        out = tmp_path / "fit"
        assert run(
            "svmr-fit", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--r", "0.1", "--out-dir", str(out),
        ) == 3
        err = capsys.readouterr().err
        assert re.search(r"solver failure: linear program failed \(status \d+\): .+ \[n=80, features=15, r=0\.1, d=0\.25\]", err)
        assert not (out / "model.json").exists()

    def test_scipy_without_the_highs_class_is_three(self, synth_dir, tmp_path, monkeypatch, capsys):
        # as under scipy before 1.15, whose HiGHS bindings have no _Highs class
        monkeypatch.delitem(sys.modules, svm_reject._HIGHS_MODULE, raising=False)
        monkeypatch.setattr(svm_reject, "_load_extension", lambda name: types.ModuleType(name))
        svm_reject._highs_core.cache_clear()
        out = tmp_path / "fit"
        assert run(
            "svmr-fit", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--r", "0.1", "--out-dir", str(out),
        ) == 3
        assert re.fullmatch(r"error: the LP solver needs scipy >= 1\.15 \(HiGHS's _Highs class\); found scipy \S+\n", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("svmr-fit", "--d", "1/4", "--r", "inf"),
        ("mcv", "--d", "1/4", "--reps", "1", "--r-grid", "0.1,inf"),
        ("cv5", "--d", "1/4", "--r-grid", "inf"),
    ], ids=["svmr-fit", "mcv", "cv5"])
    def test_infinite_penalty_is_a_usage_error(self, synth_dir, tmp_path, capsys, argv):
        out = tmp_path / "o"
        command, *flags = argv
        assert run(
            command, "--input", str(synth_dir / "data.csv"), "--label-col", "status", *flags, "--out-dir", str(out),
        ) == 1
        assert "error: penalty r must be positive and finite, got inf" in capsys.readouterr().err
        assert not list(out.glob("*.json"))

    @pytest.mark.parametrize("grid, shown", [("0.1,0", "0.0"), ("-1,0.3", "-1.0"), ("0.1,nan", "nan")])
    @pytest.mark.parametrize("command, extra", [("cv5", ()), ("mcv", ("--reps", "2"))])
    def test_bad_penalty_is_rejected_before_any_screen(
        self, synth_dir, tmp_path, capsys, monkeypatch, command, extra, grid, shown
    ):
        screened = []
        real_screen = cv.screen

        def counting_screen(*args, **kwargs):
            screened.append(1)
            return real_screen(*args, **kwargs)

        monkeypatch.setattr(cv, "screen", counting_screen)
        out = tmp_path / "o"
        assert run(
            command, "--input", str(synth_dir / "data.csv"), "--label-col", "status", "--d", "1/4",
            *extra, f"--r-grid={grid}", "--out-dir", str(out),
        ) == 1
        assert f"error: penalty r must be positive and finite, got {shown}" in capsys.readouterr().err
        assert screened == []
        assert not list(out.glob("*.json"))

    @pytest.mark.parametrize("command, extra, grid", [
        ("cv5", (), ""),
        ("mcv", ("--reps", "1"), ","),
        ("permute-mcv", ("--reps", "1"), " , "),
    ], ids=["cv5", "mcv", "permute-mcv"])
    def test_empty_penalty_grid_is_a_usage_error(self, synth_dir, tmp_path, capsys, command, extra, grid):
        out = tmp_path / "o"
        assert run(
            command, "--input", str(synth_dir / "data.csv"), "--label-col", "status", "--d", "1/4",
            *extra, "--r-grid", grid, "--out-dir", str(out),
        ) == 1
        assert "error: need at least one penalty r (--r-grid is empty)" in capsys.readouterr().err
        assert not list(out.glob("*.json"))

    @pytest.mark.parametrize("row, shown", [
        ("2,25,f26", "'25'"),
        ("2,15,f16", "'15'"),  # p = 15: one past the last column
        ("2,-1,f15", "'-1'"),
        ("2,1.5,f2", "'1.5'"),
        ("2,,f2", "''"),
        ("2", "None"),  # a short row has no feature_index cell
    ])
    def test_feature_index_outside_the_design_is_two(self, synth_dir, tmp_path, capsys, row, shown):
        selected = tmp_path / "selected.csv"
        selected.write_text(f"order,feature_index,feature\n1,0,f1\n{row}\n")
        out = tmp_path / "fit"
        assert run(
            "svmr-fit", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--r", "0.1", "--features", str(selected), "--out-dir", str(out),
        ) == 2
        err = capsys.readouterr().err
        assert f"data validation error: {selected}: row 2: feature_index {shown} is not an integer in [0, 15)" in err
        assert not (out / "model.json").exists()

    def test_cell_past_the_csv_field_limit_is_two(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text("g1,g2,label\n1.0,2.0,a\n" + "1." + "0" * csv.field_size_limit() + ",2.0,b\n")
        assert run("screen", "--input", str(data), "--label-col", "label", "--out-dir", str(tmp_path / "o")) == 2
        assert f"data validation error: {data}: row 2: field larger than field limit" in capsys.readouterr().err

        selected = tmp_path / "selected.csv"
        selected.write_text("order,feature_index,feature\n1,0,f1\n2," + "1" * (csv.field_size_limit() + 1) + ",f2\n")
        out = tmp_path / "fit"
        assert run(
            "svmr-fit", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--r", "0.1", "--features", str(selected), "--out-dir", str(out),
        ) == 2
        assert f"data validation error: {selected}: row 2: field larger than field limit" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_model_that_is_not_a_model_json_is_two(self, synth_dir, tmp_path, capsys):
        data = ("--input", str(synth_dir / "data.csv"), "--label-col", "status")
        assert run("screen", *data, "--out-dir", str(tmp_path / "scr")) == 0
        listed = tmp_path / "list.json"
        listed.write_text("[]")
        for model, shown in [
            (tmp_path / "scr" / "results.json", "no 'coef' field"),
            (listed, "expected a JSON object, got list"),
        ]:
            out = tmp_path / model.stem
            assert run("svmr-predict", *data, "--model", str(model), "--out-dir", str(out)) == 2
            assert f"data validation error: {model}: {shown}" in capsys.readouterr().err
            assert not (out / "predictions.csv").exists()

    def test_report_input_that_is_not_an_object_is_two(self, tmp_path, capsys):
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        out = tmp_path / "o"
        assert run("report", "--kind", "mcv_summary", "--input", str(listed), "--out-dir", str(out)) == 2
        assert f"data validation error: {listed}: expected a JSON object, got list" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()

    def test_results_json_without_a_needed_entry_is_two(self, tmp_path, capsys):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"runs": {"0.25": {"summary": {}, "records": []}}, "d_values": [0.25]}))
        out = tmp_path / "o"
        assert run("report", "--kind", "voting_bins", "--input", str(odd), "--out-dir", str(out)) == 2
        assert f"data validation error: {odd}: no 'truth_labels' entry" in capsys.readouterr().err
        assert not out.exists()

    def test_model_field_of_the_wrong_type_is_two(self, synth_dir, tmp_path, capsys):
        data = ("--input", str(synth_dir / "data.csv"), "--label-col", "status")
        assert run("svmr-fit", *data, "--d", "1/4", "--r", "0.1", "--out-dir", str(tmp_path / "fit")) == 0
        fitted = json.loads(read(tmp_path / "fit" / "model.json"))
        p = len(fitted["feature_names"])
        for field, value, shown in [
            ("coef", "x", "could not convert"),
            ("coef", None, f"expected a list of {p} numbers"),
            ("coef", fitted["coef"][:-1], f"expected a list of {p} numbers"),
            ("coef", [str(v) for v in fitted["coef"]], f"expected a list of {p} numbers"),
            ("coef_internal", None, f"expected a list of {p} numbers"),
            ("standardize", "false", "expected true or false"),
            ("fit_intercept", 1, "expected true or false"),
            ("r", "1e3", "expected a number"),
            ("intercept", True, "expected a number"),
            ("feature_names", "f1", "expected a list of names"),
        ]:
            model = tmp_path / "model.json"
            model.write_text(json.dumps({**fitted, field: value}))
            out = tmp_path / "o"
            assert run("svmr-predict", *data, "--model", str(model), "--out-dir", str(out)) == 2, (field, value)
            assert f"data validation error: {model}: field {field!r}: {shown}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, shown",
        [("d", 0.7, "rejection cost d must lie in (0, 1/2), got 0.7"), ("delta", 2, "delta must lie in (0, 1], got 2.0")],
    )
    def test_model_loss_outside_its_range_is_two(self, synth_dir, tmp_path, capsys, field, value, shown):
        data = ("--input", str(synth_dir / "data.csv"), "--label-col", "status")
        assert run("svmr-fit", *data, "--d", "1/4", "--r", "0.1", "--out-dir", str(tmp_path / "fit")) == 0
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**json.loads(read(tmp_path / "fit" / "model.json")), field: value}))
        out = tmp_path / "o"
        assert run("svmr-predict", *data, "--model", str(model), "--out-dir", str(out)) == 2
        assert f"data validation error: {model}: field {field!r}: {shown}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra, code",
        [
            ("synth", ("--n", "20", "--p", "5", "--active", "6"), 1),
            ("screen", ("--label-col", "nolabel"), 2),
            ("svmr-fit", ("--d", "1/4", "--r", "0.1", "--features", "nofile.csv"), 1),
            ("cv5", ("--d", "0.7"), 1),
            ("mcv", ("--delta", "2", "--reps", "2"), 1),
            ("permute-mcv", ("--delta", "2", "--reps", "2"), 1),
        ],
    )
    def test_rejected_run_leaves_no_out_dir(self, synth_dir, tmp_path, command, extra, code):
        data = () if command == "synth" else ("--input", str(synth_dir / "data.csv"), "--label-col", "status")
        out = tmp_path / "o"
        assert run(command, *data, *extra, "--out-dir", str(out)) == code
        assert not out.exists()

    def test_failure_while_writing_tables_leaves_no_out_dir(self, synth_dir, tmp_path, monkeypatch, capsys):
        def full_disk(path, summaries):
            raise OSError(28, "No space left on device", str(path))

        # the summary table is written after the records, voting and histogram tables
        monkeypatch.setattr(report, "write_mcv_summary", full_disk)
        data = ("--input", str(synth_dir / "data.csv"), "--label-col", "status")
        out = tmp_path / "o"
        assert run("mcv", *data, "--d", "1/4", "--reps", "2", "--out-dir", str(out)) == 1
        assert "error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert not out.exists()

    def test_rejected_json_input_leaves_no_out_dir(self, synth_dir, tmp_path):
        data = ("--input", str(synth_dir / "data.csv"), "--label-col", "status")
        assert run("screen", *data, "--out-dir", str(tmp_path / "scr")) == 0
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        out = tmp_path / "report"
        assert run("report", "--kind", "mcv_summary", "--input", str(listed), "--out-dir", str(out)) == 2
        assert not out.exists()
        out = tmp_path / "predict"
        assert run("svmr-predict", *data, "--model", str(tmp_path / "scr" / "results.json"), "--out-dir", str(out)) == 2
        assert not out.exists()

    def test_input_that_is_a_directory_is_one(self, tmp_path, capsys):
        assert run("screen", "--input", str(tmp_path), "--label-col", "label", "--out-dir", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory:")

    def test_out_dir_that_is_a_file_is_one(self, synth_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run(
            "screen", "--input", str(synth_dir / "data.csv"), "--label-col", "status", "--out-dir", str(taken),
        ) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 17] File exists:")
        assert taken.read_text() == ""

    @pytest.mark.parametrize("command, extra", [("mcv", ("--reps", "1")), ("cv5", ())])
    def test_distinct_d_values_sharing_a_file_tag_are_usage_errors(self, synth_dir, tmp_path, capsys, command, extra):
        data = ("--input", str(synth_dir / "data.csv"), "--label-col", "status", *extra)
        out = tmp_path / "clash"
        # 1/3 and 0.333333 both format as d0.333333, so one would overwrite the other
        assert run(command, *data, "--d", "1/3,0.333333", "--out-dir", str(out)) == 1
        assert f"--d values {1 / 3!r} and 0.333333 share the file tag d0.333333" in capsys.readouterr().err
        assert not out.exists()
        # an exactly repeated d is one run under one tag
        assert run(command, *data, "--d", "1/4,0.25", "--out-dir", str(tmp_path / "repeat")) == 0
        results = json.loads(read(tmp_path / "repeat" / "results.json"))
        assert list(results["runs"]) == ["0.25"]


STARTUP_SCRIPT = """
import json, sys
import numpy as np
from dcovselect.cli import main

out, mcv_results = sys.argv[1], sys.argv[2]
assert main(["synth", "--model", "linear", "--n", "30", "--p", "8", "--seed", "1", "--out-dir", out + "/synth"]) == 0
assert main(["screen", "--input", out + "/synth/data.csv", "--label-col", "response", "--out-dir", out + "/screen"]) == 0
assert main(["report", "--kind", "pairwise_distance", "--input", out + "/screen/results.json", "--out-dir", out + "/r1"]) == 0
assert main(["report", "--kind", "voting_bins", "--input", mcv_results, "--out-dir", out + "/r2"]) == 0


def solver_modules():
    return sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "sparse"], ["scipy", "spatial"]))


loaded = solver_modules()
# the LP commands load HiGHS's extension module, and nothing else of scipy.optimize
from dcovselect.svm_reject import RejectLossParams, fit
data = ["--input", out + "/binary/data.csv", "--label-col", "status"]
binary = [*data, "--d", "1/4"]
assert main(["synth", "--model", "logistic", "--n", "40", "--p", "6", "--active", "2", "--seed", "2", "--out-dir", out + "/binary"]) == 0
assert main(["mcv", *binary, "--reps", "2", "--out-dir", out + "/mcv"]) == 0
assert main(["cv5", *binary, "--out-dir", out + "/cv5"]) == 0
assert main(["svmr-fit", *binary, "--r", "0.1", "--out-dir", out + "/fit"]) == 0
assert main(["svmr-predict", *data, "--model", out + "/fit/model.json", "--out-dir", out + "/predict"]) == 0

x = np.array([[0.0], [1.0], [2.0], [3.0]])
model = fit(x, np.array([-1.0, -1.0, 1.0, 1.0]), 0.01, RejectLossParams(d=0.25))
lp_loaded = [m for m in solver_modules() if not m.startswith("scipy.optimize._highspy._core")]
print(json.dumps({"loaded": loaded, "lp_loaded": lp_loaded, "coef": model.coef.tolist()}))
"""


class TestStartup:
    def test_commands_without_an_lp_load_no_scipy_solver(self, synth_dir, tmp_path):
        mcv_out = tmp_path / "mcv"
        assert run(
            "mcv", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--reps", "2", "--seed", "4", "--out-dir", str(mcv_out),
        ) == 0
        src = str(Path(dcovselect.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="ignore")
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path / "runs"), str(mcv_out / "results.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["loaded"] == []
        assert result["lp_loaded"] == []
        assert result["coef"][0] > 0.0


class TestFitPredict:
    def test_fit_then_predict(self, synth_dir, tmp_path):
        fit_dir = tmp_path / "fit"
        code = run(
            "svmr-fit", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--r", "0.1", "--out-dir", str(fit_dir),
        )
        assert code == 0
        model = json.loads(read(fit_dir / "model.json"))
        assert model["d"] == pytest.approx(0.25)
        pred_dir = tmp_path / "pred"
        code = run(
            "svmr-predict", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--model", str(fit_dir / "model.json"), "--out-dir", str(pred_dir),
        )
        assert code == 0
        lines = read(pred_dir / "predictions.csv").strip().splitlines()
        assert len(lines) == 81
        decisions = {line.split(",")[2] for line in lines[1:]}
        assert decisions <= {"-1", "0", "1"}

    def test_model_json_round_trip_predicts_bitwise(self, synth_dir, tmp_path):
        data = ("--input", str(synth_dir / "data.csv"), "--label-col", "status")
        assert run("screen", *data, "--out-dir", str(tmp_path / "scr")) == 0
        fit_dir = tmp_path / "fit"
        assert run(
            "svmr-fit", *data, "--d", "1/4", "--r", "0.1",
            "--features", str(tmp_path / "scr" / "selected.csv"), "--out-dir", str(fit_dir),
        ) == 0
        model = json.loads(read(fit_dir / "model.json"))
        assert set(model) == {
            "coef", "intercept", "coef_internal", "intercept_internal", "center", "scale", "r", "d",
            "delta", "objective", "standardize", "fit_intercept", "features", "feature_names",
        }
        pred_dir = tmp_path / "pred"
        assert run("svmr-predict", *data, "--model", str(fit_dir / "model.json"), "--out-dir", str(pred_dir)) == 0
        ds = ingest(synth_dir / "data.csv", label_column="status")
        x = ds.X[:, model["features"]]
        want = decision_scores(fit(x, ds.y.astype(float), 0.1, RejectLossParams(d=0.25, delta=0.5)), x)
        lines = read(pred_dir / "predictions.csv").strip().splitlines()[1:]
        got = np.array([float(line.split(",")[1]) for line in lines])
        assert got.tobytes() == want.tobytes()


class TestPipelines:
    def test_cv5_overlap(self, synth_dir, tmp_path):
        out = tmp_path / "cv5"
        code = run(
            "cv5", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--seed", "3", "--out-dir", str(out),
        )
        assert code == 0
        lines = read(out / "overlap.csv").strip().splitlines()
        assert lines[0] == "set,S1,S2,S3,S4,S5,ALL"
        assert len(lines) == 7

    def test_mcv_outputs_and_reports(self, synth_dir, tmp_path):
        out = tmp_path / "mcv"
        code = run(
            "mcv", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--reps", "3", "--seed", "4", "--out-dir", str(out),
        )
        assert code == 0
        for name in ("summary.csv", "records_d0.25.csv", "voting_d0.25.csv", "voting_bins_d0.25.csv", "histogram_d0.25.csv"):
            assert (out / name).exists(), name

        rep = tmp_path / "rep"
        assert run("report", "--kind", "voting_bins", "--input", str(out / "results.json"), "--out-dir", str(rep)) == 0
        assert read(rep / "voting_bins_d0.25.csv") == read(out / "voting_bins_d0.25.csv")

        rep2 = tmp_path / "rep2"
        assert run("report", "--kind", "mcv_summary", "--input", str(out / "results.json"), "--out-dir", str(rep2)) == 0
        assert read(rep2 / "summary.csv") == read(out / "summary.csv")

        rep3 = tmp_path / "rep3"
        assert run("report", "--kind", "frequency_histogram", "--input", str(out / "results.json"), "--out-dir", str(rep3)) == 0
        assert (rep3 / "histogram_d0.25.csv").exists()

    def test_permute_mcv_compare_table(self, synth_dir, tmp_path):
        out = tmp_path / "pmcv"
        code = run(
            "permute-mcv", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--reps", "2", "--seed", "4", "--out-dir", str(out),
        )
        assert code == 0
        lines = read(out / "max_dcor_compare.csv").strip().splitlines()
        assert lines[0] == "d,rep,max_marginal_r2_permuted,max_marginal_r2_original"
        assert len(lines) == 3

    def test_permute_mcv_compare_rows_equal_the_results(self, synth_dir, tmp_path):
        data = ("--input", str(synth_dir / "data.csv"), "--label-col", "status")
        out = tmp_path / "pmcv"
        assert run("permute-mcv", *data, "--d", "1/3,1/4", "--reps", "2", "--seed", "4", "--out-dir", str(out)) == 0
        assert run("screen", *data, "--out-dir", str(tmp_path / "scr")) == 0
        original = json.loads(read(tmp_path / "scr" / "results.json"))["max_marginal_r2"]
        results = json.loads(read(out / "results.json"))
        tags = [f"{d:.6g}" for d in results["d_values"]]  # --d order, as every other table of the run
        want = [(tag, rec["rep_id"], rec["max_marginal_r2"]) for tag in tags for rec in results["runs"][tag]["records"]]
        assert [tag for tag, _, _ in want] == ["0.333333", "0.333333", "0.25", "0.25"]
        rows = [line.split(",") for line in read(out / "max_dcor_compare.csv").strip().splitlines()[1:]]
        assert [(tag, int(rep), float(permuted)) for tag, rep, permuted, _ in rows] == want
        assert [float(row[3]) for row in rows] == [original] * len(want)

    def test_reports_equal_the_run_with_a_flagged_replication(self, tmp_path):
        data_dir = tmp_path / "rare"
        assert run(
            "synth", "--model", "logistic", "--n", "30", "--p", "12", "--active", "2",
            "--class-counts", "4,26", "--seed", "3", "--out-dir", str(data_dir),
        ) == 0
        out = tmp_path / "mcv"
        assert run(
            "mcv", "--input", str(data_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--reps", "6", "--seed", "1", "--out-dir", str(out),
        ) == 0
        records = json.loads(read(out / "results.json"))["runs"]["0.25"]["records"]
        flags = [rec["flagged"] for rec in records]
        assert "single_class_split" in flags and None in flags
        for kind, name in (("voting_bins", "voting_bins_d0.25.csv"), ("frequency_histogram", "histogram_d0.25.csv")):
            rep = tmp_path / kind
            assert run("report", "--kind", kind, "--input", str(out / "results.json"), "--out-dir", str(rep)) == 0
            assert (rep / name).read_bytes() == (out / name).read_bytes(), kind

    def test_reports_reproduce_the_run_tables(self, synth_dir, tmp_path, capsys):
        data = ("--input", str(synth_dir / "data.csv"), "--label-col", "status", "--seed", "4")
        mcv_out, cv5_out = tmp_path / "mcv", tmp_path / "cv5"
        # a repeated d is run and written once, in --d order
        assert run("mcv", *data, "--d", "1/3,1/4,1/5,1/4", "--reps", "3", "--out-dir", str(mcv_out)) == 0
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert printed == ["d=0.3333", "d=0.25", "d=0.2"]
        summary = read(mcv_out / "summary.csv").splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == [repr(1 / 3), "0.25", "0.2"]
        assert run("cv5", *data, "--d", "1/3,1/4", "--out-dir", str(cv5_out)) == 0
        tables = {
            "mcv_summary": (mcv_out, ["summary.csv"]),
            "voting_bins": (mcv_out, [f"voting_bins_d{tag}.csv" for tag in ("0.333333", "0.25", "0.2")]),
            "frequency_histogram": (mcv_out, [f"histogram_d{tag}.csv" for tag in ("0.333333", "0.25", "0.2")]),
            "overlap_table": (cv5_out, ["overlap.csv"]),
        }
        for kind, (out, names) in tables.items():
            rep = tmp_path / kind
            assert run("report", "--kind", kind, "--input", str(out / "results.json"), "--out-dir", str(rep)) == 0
            assert sorted(p.name for p in rep.glob("*.csv")) == sorted(names), kind
            for name in names:
                assert (rep / name).read_bytes() == (out / name).read_bytes(), (kind, name)

    def test_histogram_report_has_one_table_per_d(self, synth_dir, tmp_path):
        # every d shares each replication's screen; one summed table would count it once per d
        out = tmp_path / "mcv"
        assert run(
            "mcv", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/3,1/4,1/5", "--reps", "4", "--seed", "4", "--out-dir", str(out),
        ) == 0
        rep = tmp_path / "hist"
        assert run("report", "--kind", "frequency_histogram", "--input", str(out / "results.json"), "--out-dir", str(rep)) == 0
        made = sorted(path.name for path in rep.glob("histogram*.csv"))
        assert made == ["histogram_d0.2.csv", "histogram_d0.25.csv", "histogram_d0.333333.csv"]
        for name in made:
            assert (rep / name).read_bytes() == (out / name).read_bytes(), name

    def test_pairwise_distance_report_scaled_to_one(self, synth_dir, tmp_path):
        scr = tmp_path / "scr"
        assert run(
            "screen", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--out-dir", str(scr),
        ) == 0
        rep = tmp_path / "pd"
        assert run("report", "--kind", "pairwise_distance", "--input", str(scr / "results.json"), "--out-dir", str(rep)) == 0
        lines = read(rep / "pairwise_distance.csv").strip().splitlines()
        values = [float(v) for line in lines[1:] for v in line.split(",")[1:]]
        assert max(values) == 1.0
        assert min(values) >= 0.0

    def test_overlap_report_from_cv5(self, synth_dir, tmp_path):
        out = tmp_path / "cv5b"
        assert run(
            "cv5", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--seed", "3", "--out-dir", str(out),
        ) == 0
        rep = tmp_path / "ovl"
        assert run("report", "--kind", "overlap_table", "--input", str(out / "results.json"), "--out-dir", str(rep)) == 0
        assert read(rep / "overlap.csv") == read(out / "overlap.csv")


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 77, "epsilon": 0.5}))
        out1 = tmp_path / "a"
        assert run(
            "screen", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--config", str(cfg), "--out-dir", str(out1),
        ) == 0
        manifest = json.loads(read(out1 / "manifest.json"))
        assert manifest["options"]["seed"] == 77
        assert manifest["options"]["epsilon"] == 0.5
        out2 = tmp_path / "b"
        assert run(
            "screen", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--config", str(cfg), "--epsilon", "0.1", "--out-dir", str(out2),
        ) == 0
        manifest = json.loads(read(out2 / "manifest.json"))
        assert manifest["options"]["epsilon"] == 0.1  # explicit flag wins

    def test_explicit_negated_flag_beats_config(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"standardize": True}))
        out = tmp_path / "o"
        assert run(
            "screen", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--config", str(cfg), "--no-standardize", "--out-dir", str(out),
        ) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["options"]["standardize"] is False

    @pytest.mark.parametrize("value", [0.25, "1/4"])
    def test_config_values_are_parsed_like_flags(self, synth_dir, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": value}))
        out = tmp_path / "o"
        assert run(
            "cv5", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--config", str(cfg), "--seed", "3", "--out-dir", str(out),
        ) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["options"]["d"] == [0.25]

    def test_unknown_config_key_rejected(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        assert run(
            "screen", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
        ) == 2

    @pytest.mark.parametrize("key, value", [("command", "report"), ("config", "other.json")])
    def test_non_option_config_key_rejected(self, synth_dir, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "o"
        assert run(
            "screen", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--config", str(cfg), "--out-dir", str(out),
        ) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, config, flag", [
        ("screen", (), {"method": "dcsys"}, "--method"),
        ("screen", (), {"log_transform": "false"}, "--log-transform"),
        ("screen", (), {"seed": True}, "--seed"),
        ("mcv", ("--d", "1/4", "--reps", "1"), {"voting": "al"}, "--voting"),
    ], ids=["method", "log_transform", "seed", "voting"])
    def test_bad_config_value_is_a_usage_error_naming_the_flag(
        self, synth_dir, tmp_path, capsys, command, extra, config, flag
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert run(
            command, "--input", str(synth_dir / "data.csv"), "--label-col", "status", *extra,
            "--config", str(cfg), "--out-dir", str(out),
        ) == 1
        assert f"error: argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_null_config_value_keeps_the_default(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"standardize": None, "seed": None}))
        out = tmp_path / "o"
        assert run(
            "screen", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--config", str(cfg), "--out-dir", str(out),
        ) == 0
        options = json.loads(read(out / "manifest.json"))["options"]
        assert options["standardize"] is True
        assert options["seed"] == 0

    def test_manifest_options_replay_as_a_config(self, synth_dir, tmp_path):
        data = ("--input", str(synth_dir / "data.csv"))
        out1 = tmp_path / "r1"
        assert run(
            "mcv", *data, "--label-col", "status", "--d", "1/3,1/4", "--reps", "2", "--seed", "11",
            "--no-standardize", "--voting", "all", "--out-dir", str(out1),
        ) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(json.loads(read(out1 / "manifest.json"))["options"]))
        out2 = tmp_path / "r2"
        assert run("mcv", *data, "--config", str(cfg), "--out-dir", str(out2)) == 0
        files = sorted(p.name for p in out1.iterdir())
        assert files == sorted(p.name for p in out2.iterdir())
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_config_that_is_not_an_object_is_two(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(["seed", 3]))
        out = tmp_path / "o"
        assert run(
            "screen", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--config", str(cfg), "--out-dir", str(out),
        ) == 2
        assert f"{cfg}: expected a JSON object, got list" in capsys.readouterr().err
        assert not out.exists()


class TestReplay:
    def test_rerun_from_manifest_is_byte_identical(self, synth_dir, tmp_path):
        out1 = tmp_path / "r1"
        args = [
            "mcv", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
            "--d", "1/4", "--reps", "2", "--seed", "11",
        ]
        assert run(*args, "--out-dir", str(out1)) == 0
        manifest = json.loads(read(out1 / "manifest.json"))
        rebuilt = _argv_from_manifest(manifest)
        out2 = tmp_path / "r2"
        assert run(*rebuilt, "--out-dir", str(out2)) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def _argv_from_manifest(manifest) -> list[str]:
    argv = [manifest["command"]]
    for key, value in manifest["options"].items():
        flag = "--" + key.replace("_", "-")
        if value is None:
            continue
        if isinstance(value, bool):
            argv.append(flag if value else "--no-" + key.replace("_", "-"))
        elif isinstance(value, list):
            argv.extend([flag, ",".join(str(v) for v in value)])
        else:
            argv.extend([flag, str(value)])
    return argv
