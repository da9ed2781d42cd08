import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dcovselect
from dcovselect import cv
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
from dcovselect.svm_reject import RejectLossParams, _highs_core, fit
binary = ["--input", out + "/binary/data.csv", "--label-col", "status", "--d", "1/4"]
assert main(["synth", "--model", "logistic", "--n", "40", "--p", "6", "--active", "2", "--seed", "2", "--out-dir", out + "/binary"]) == 0
assert main(["mcv", *binary, "--reps", "2", "--out-dir", out + "/mcv"]) == 0
assert main(["cv5", *binary, "--out-dir", out + "/cv5"]) == 0
lp_loaded = [m for m in solver_modules() if not m.startswith("scipy.optimize._highspy._core")]
direct = _highs_core() is not None

x = np.array([[0.0], [1.0], [2.0], [3.0]])
model = fit(x, np.array([-1.0, -1.0, 1.0, 1.0]), 0.01, RejectLossParams(d=0.25))
print(json.dumps({"loaded": loaded, "lp_loaded": lp_loaded, "direct": direct, "coef": model.coef.tolist()}))
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
        if result["direct"]:  # without a _Highs class every LP goes through linprog
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
        runs = json.loads(read(out / "results.json"))["runs"]
        want = [(tag, rec["rep_id"], rec["max_marginal_r2"]) for tag in sorted(runs) for rec in runs[tag]["records"]]
        assert [tag for tag, _, _ in want] == ["0.25", "0.25", "0.333333", "0.333333"]
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
