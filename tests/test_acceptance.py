"""Acceptance suite: one test per release criterion.

Every test prints a single ``[PASS] criterion N`` line on success (run with
``pytest tests/test_acceptance.py -v -s`` to see them); tolerances and
thresholds are pinned here, not configurable.  Real expression datasets are
not redistributable, so the resampling criteria run on seeded synthetic
benchmarks and check the qualitative behavior (signal vs permuted null), not
any published table values.
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from dcovselect.cli import main as cli_main
from dcovselect.cv import (
    mcv_run,
    permute_response,
    voting_bins,
    voting_scores,
)
from dcovselect.data import synth_generate
from dcovselect.dcov import dcor2, dcov2, dcov2_joint, dvar2
from dcovselect.screening import (
    STOP_DECREASE,
    STOP_EXHAUSTED,
    default_model_size,
    marginal_rank,
    screen,
)
from dcovselect.svm_reject import (
    RejectLossParams,
    bayes_risk,
    fit,
    generalized_hinge,
    l_loss,
    predict,
)

from oracles import brute_dcor2, brute_dcov2, brute_dvar2, kkt_residual, subgradient_fit

R_GRID = [0.01, 0.03, 0.1, 0.3, 1.0, 2.0, 4.0, 8.0]
PRIOR = 191 / 279


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_1_dcov_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x = rng.normal(size=(n, int(rng.integers(1, 4))))
        y = rng.normal(size=(n, int(rng.integers(1, 4))))
        for got, want in (
            (dcov2(x, y), brute_dcov2(x, y)),
            (dvar2(x), brute_dvar2(x)),
            (dcor2(x, y).r2, brute_dcor2(x, y)),
        ):
            rel = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, rel)
            assert rel < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, f"200 brute-force comparisons, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_joint_block_inequality():
    started = time.perf_counter()
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        x = rng.normal(size=200)
        y = x + 0.5 * rng.normal(size=200)
        z = rng.normal(size=200)
        wins += dcov2_joint([x, z], y) <= dcov2(x, y)
    elapsed = time.perf_counter() - started
    assert wins >= 95
    assert elapsed < 30.0
    report(2, f"independent block lowered joint dcov in {wins}/100 seeds, {elapsed:.1f}s")


def test_criterion_3_greedy_stopping_semantics():
    started = time.perf_counter()
    ties = 0
    stops = 0
    for seed in range(50):
        rng = np.random.default_rng(30_000 + seed)
        x1 = rng.normal(size=200)
        tie_case = screen(np.column_stack([x1, np.full(200, 3.0)]), x1)
        ties += tie_case.selected == [0, 1] and tie_case.stop_reason == STOP_EXHAUSTED
        noise_case = screen(np.column_stack([x1, rng.normal(size=200)]), x1)
        stops += noise_case.selected == [0] and noise_case.stop_reason == STOP_DECREASE
    elapsed = time.perf_counter() - started
    assert ties >= 45
    assert stops >= 45
    assert elapsed < 60.0
    report(3, f"constant-column tie admitted in {ties}/50, noise stopped in {stops}/50, {elapsed:.1f}s")


def test_criterion_4_screening_recovery():
    # 4 planted drivers, two of them through nonlinear forms; all must reach
    # the top floor(n / log n) marginal ranks in >= 85% of 20 seeds
    started = time.perf_counter()
    n, p = 200, 1000
    top = default_model_size(n)
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        x = rng.normal(size=(n, p))
        y = (
            x[:, 0]
            + x[:, 1]
            + np.exp(x[:, 2] / 2.0)
            + 1.5 * np.sin(2.0 * x[:, 3])
            + rng.normal(size=n)
        )
        ranking, _ = marginal_rank(x, y)
        hits += {0, 1, 2, 3} <= {int(i) for i in ranking[:top]}
    elapsed = time.perf_counter() - started
    assert hits >= 17
    assert elapsed < 300.0
    report(4, f"all 4 drivers in top {top} of {p} in {hits}/20 seeds, {elapsed:.0f}s")


def test_criterion_5_svmr_optimality():
    started = time.perf_counter()
    assert generalized_hinge(-1.0, RejectLossParams(d=0.25)) == 4.0
    assert generalized_hinge(0.0, RejectLossParams(d=0.25)) == 1.0
    assert generalized_hinge(2.0, RejectLossParams(d=0.25)) == 0.0
    rng = np.random.default_rng(5001)
    worst_gap = 0.0
    worst_kkt = 0.0
    instances = []
    while len(instances) < 50:
        n = int(rng.integers(4, 21))
        m = int(rng.integers(1, 6))
        x = rng.normal(size=(n, m))
        y = np.sign(x[:, 0] + 0.5 * rng.normal(size=n))
        y[y == 0] = 1.0
        if np.unique(y).size < 2:
            continue
        params = RejectLossParams(d=float(rng.choice([1 / 3, 1 / 4, 1 / 5])))
        r = float(rng.choice([0.01, 0.05, 0.2, 1.0]))
        instances.append((x, y, r, params))
    oracle = subgradient_fit([(x, y, r, params.a) for x, y, r, params in instances])
    for (x, y, r, params), best in zip(instances, oracle):
        model = fit(x, y, r, params, standardize=False)
        gap = abs(model.objective - best)
        residual = kkt_residual(model, x, y)
        worst_gap = max(worst_gap, gap)
        worst_kkt = max(worst_kkt, residual)
        assert gap < 1e-4
        assert residual <= 1e-6
    elapsed = time.perf_counter() - started
    report(
        5,
        f"50 instances: worst oracle gap {worst_gap:.2e}, worst KKT residual "
        f"{worst_kkt:.2e}, {elapsed:.0f}s",
    )


def test_criterion_6_bayes_consistency():
    started = time.perf_counter()
    beta = np.array([1.5, 1.0])
    gaps = {}
    for d in (1 / 4, 1 / 5):
        rng = np.random.default_rng(31)
        n = 2000
        x_train = rng.normal(size=(n, 2))
        eta_train = 1.0 / (1.0 + np.exp(-(x_train @ beta)))
        y_train = np.where(rng.uniform(size=n) < eta_train, 1.0, -1.0)
        x_test = rng.normal(size=(n, 2))
        eta_test = 1.0 / (1.0 + np.exp(-(x_test @ beta)))
        y_test = np.where(rng.uniform(size=n) < eta_test, 1.0, -1.0)
        model = fit(x_train, y_train, 0.003, RejectLossParams(d=d))
        loss = float(np.mean(l_loss(predict(model, x_test), y_test, d)))
        reference = bayes_risk(eta_test, d)
        gaps[d] = abs(loss - reference)
        assert gaps[d] < 0.05
    elapsed = time.perf_counter() - started
    report(
        6,
        f"reject-classifier loss within {max(gaps.values()):.4f} of the plug-in "
        f"risk for d=1/4 and 1/5, {elapsed:.0f}s",
    )


def test_criterion_7_null_calibration():
    started = time.perf_counter()
    ds, _ = synth_generate(
        279, 2000, model="logistic", active=4, coef=1.2,
        prior=PRIOR, class_counts=(191, 88), seed=7,
    )
    permuted = permute_response(ds, 11)
    decisive = {}
    results = mcv_run(permuted, [1 / 3, 1 / 5], R_GRID, n_reps=50, seed=3)
    for d, result in results.items():
        summary = result.summary
        decisive[d] = summary.n_decisive
        # the +-0.05 window needs enough decisive replications to average;
        # assert it wherever at least 20 exist (always the d=1/3 row here)
        if summary.n_decisive >= 20:
            assert abs(summary.mean_test_accuracy - PRIOR) <= 0.05, (
                f"d={d}: {summary.mean_test_accuracy} vs prior {PRIOR}"
            )
    assert decisive[1 / 3] >= 20
    assert decisive[1 / 5] < decisive[1 / 3]
    elapsed = time.perf_counter() - started
    report(
        7,
        f"permuted labels: {decisive[1/3]}/50 decisive at d=1/3 at prior-level "
        f"accuracy, only {decisive[1/5]}/50 at d=1/5, {elapsed:.0f}s",
    )


def test_criterion_8_voting_monotonicity():
    started = time.perf_counter()
    ds, _ = synth_generate(
        279, 500, model="logistic", active=4, coef=0.45,
        prior=PRIOR, class_counts=(191, 88), seed=7,
    )
    planted = mcv_run(ds, [1 / 5], R_GRID, n_reps=50, seed=3)[1 / 5]
    kept = [rec for rec in planted.records if rec.flagged is None]
    votes = voting_scores([rec.test_idx for rec in kept], [rec.decisions for rec in kept], ds.n, mode="testing")
    rows = voting_bins(votes, ds.y.astype(float))[:5]
    occupied = [row for row in rows if row["frequency"] > 0]
    proportions = [row["positive_proportion"] for row in occupied]
    for earlier, later in zip(proportions, proportions[1:]):
        assert later >= earlier, f"bin proportions not monotone: {proportions}"

    permuted = permute_response(ds, 11)
    null_run = mcv_run(permuted, [1 / 5], R_GRID, n_reps=50, seed=3)[1 / 5]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kept = [rec for rec in null_run.records if rec.flagged is None]
        null_votes = voting_scores(
            [rec.test_idx for rec in kept], [rec.decisions for rec in kept], ds.n, mode="testing"
        )
    null_rows = voting_bins(null_votes, permuted.y.astype(float))[:5]
    top = null_rows[-1]
    assert top["frequency"] == 0 or top["positive_proportion"] <= PRIOR + 0.05
    # safeguard direction: permuted labels leave more replications with no
    # testing decision than the planted signal under the same grid
    assert null_run.summary.n_decisive < planted.summary.n_decisive
    elapsed = time.perf_counter() - started
    report(
        8,
        f"planted bins monotone {['%.3f' % p for p in proportions]} "
        f"({planted.summary.n_decisive}/50 decisive), permuted top-bin "
        f"frequency {top['frequency']} ({null_run.summary.n_decisive}/50 "
        f"decisive), {elapsed:.0f}s",
    )


def test_criterion_9_determinism(tmp_path):
    started = time.perf_counter()

    def run(*argv):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli_main(list(argv)) == 0

    synth_dir = tmp_path / "synth"
    run(
        "synth", "--model", "logistic", "--n", "90", "--p", "25", "--active", "3",
        "--coef", "1.2", "--prior", "0.65", "--seed", "5", "--out-dir", str(synth_dir),
    )
    mcv_args = [
        "mcv", "--input", str(synth_dir / "data.csv"), "--label-col", "status",
        "--d", "1/4,1/5", "--reps", "4", "--seed", "11",
    ]
    first = tmp_path / "run1"
    run(*mcv_args, "--out-dir", str(first))

    # replay from the manifest alone into a fresh directory
    manifest = json.loads((first / "manifest.json").read_text())
    second = tmp_path / "run2"
    run(*_argv_from_manifest(manifest), "--out-dir", str(second))

    names1 = sorted(p.name for p in first.iterdir())
    names2 = sorted(p.name for p in second.iterdir())
    assert names1 == names2
    for name in names1:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    elapsed = time.perf_counter() - started
    report(9, f"manifest replay reproduced {len(names1)} files byte-identically, {elapsed:.0f}s")


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
