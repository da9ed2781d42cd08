import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad
from scipy.optimize import linprog

import dcovselect
from dcovselect import svm_reject
from dcovselect.errors import SolverError
from dcovselect.svm_reject import (
    RejectLossParams,
    bayes_risk,
    bayes_rule,
    decide,
    decision_scores,
    fit,
    fit_path,
    generalized_hinge,
    l_loss,
    predict,
)

from oracles import kkt_residual, subgradient_fit

R_GRID = [0.01, 0.03, 0.1, 0.3, 1.0, 2.0, 4.0, 8.0]
HAS_HIGHS = svm_reject._highs_core() is not None
needs_highs = pytest.mark.skipif(not HAS_HIGHS, reason="this scipy has no private _Highs class")


def reject_loss(z, d, delta=0.5):
    """Discontinuous decision loss on the margin scale (test-local)."""
    if z < -delta:
        return 1.0
    if abs(z) <= delta:
        return d
    return 0.0


def random_instance(rng):
    n = int(rng.integers(4, 21))
    m = int(rng.integers(1, 6))
    x = rng.normal(size=(n, m))
    y = np.sign(x[:, 0] + 0.5 * rng.normal(size=n))
    y[y == 0] = 1.0
    if np.unique(y).size < 2:
        y[0] = -y[0]
    return x, y


class TestParams:
    def test_slope(self):
        assert RejectLossParams(d=0.25).a == 3.0

    @pytest.mark.parametrize("bad_d", [0.0, -0.1, 0.5, 0.7])
    def test_rejects_bad_cost(self, bad_d):
        with pytest.raises(ValueError):
            RejectLossParams(d=bad_d)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            RejectLossParams(d=0.25, delta=0.0)


class TestGeneralizedHinge:
    def test_piecewise_values(self):
        p = RejectLossParams(d=0.25)
        assert generalized_hinge(2.0, p) == 0.0
        assert generalized_hinge(0.0, p) == 1.0
        assert generalized_hinge(-1.0, p) == 4.0  # a = 3
        assert generalized_hinge(0.5, p) == 0.5
        assert generalized_hinge(1.0, p) == 0.0

    def test_convexity_on_random_pairs(self):
        rng = np.random.default_rng(0)
        p = RejectLossParams(d=0.2)
        z1 = rng.uniform(-3, 3, size=500)
        z2 = rng.uniform(-3, 3, size=500)
        mid = generalized_hinge((z1 + z2) / 2, p)
        assert np.all(mid <= (generalized_hinge(z1, p) + generalized_hinge(z2, p)) / 2 + 1e-12)

    def test_dominates_decision_loss(self):
        for d in (1 / 3, 1 / 4, 1 / 5):
            p = RejectLossParams(d=d)
            z = np.linspace(-3, 3, 1201)
            surr = generalized_hinge(z, p)
            disc = np.array([reject_loss(v, d) for v in z])
            assert np.all(surr >= disc - 1e-12)

    def test_nonincreasing(self):
        p = RejectLossParams(d=0.3)
        z = np.linspace(-5, 5, 999)
        vals = generalized_hinge(z, p)
        assert np.all(np.diff(vals) <= 1e-12)


class TestLLoss:
    def test_misclassification_costs_one(self):
        assert l_loss(-1, 1, 0.25) == 1.0

    def test_withholding_costs_d(self):
        assert l_loss(0, 1, 0.2) == 0.2
        assert l_loss(0, -1, 0.2) == 0.2

    def test_correct_costs_nothing(self):
        assert l_loss(1, 1, 0.25) == 0.0

    def test_vectorized(self):
        out = l_loss(np.array([1, 0, -1, -1]), np.array([1, 1, 1, -1]), 0.2)
        assert np.allclose(out, [0.0, 0.2, 1.0, 0.0])


class TestFit:
    def test_huge_penalty_zeroes_coefficients(self):
        rng = np.random.default_rng(1)
        x, y = random_instance(rng)
        p = RejectLossParams(d=0.25)
        model = fit(x, y, 1e6, p, standardize=False)
        assert np.all(model.coef == 0.0)
        # intercept-only objective: piecewise linear in b with kinks at -1,0,1
        candidates = [
            np.mean(generalized_hinge(y * b, p)) for b in (-1.0, 0.0, 1.0)
        ]
        assert model.objective == pytest.approx(min(candidates), abs=1e-9)

    def test_separable_two_points(self):
        x = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        p = RejectLossParams(d=0.25)
        model = fit(x, y, 0.01, p, standardize=False)
        scores = decision_scores(model, x)
        assert np.all(np.abs(scores) > p.delta)
        assert np.array_equal(predict(model, x), [1, -1])

    def test_matches_subgradient_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            x, y = random_instance(rng)
            p = RejectLossParams(d=float(rng.choice([1 / 3, 1 / 4, 1 / 5])))
            r = float(rng.choice([0.02, 0.1, 0.5]))
            model = fit(x, y, r, p, standardize=False)
            oracle = subgradient_fit(x, y, r, p.a)
            assert abs(model.objective - oracle) < 1e-4

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, y = random_instance(rng)
            p = RejectLossParams(d=float(rng.choice([1 / 3, 1 / 4, 1 / 5])))
            r = float(rng.choice([0.02, 0.1, 0.5, 2.0]))
            model = fit(x, y, r, p)
            assert kkt_residual(model, x, y) <= 1e-6

    def test_kkt_residual_exact_on_tied_design(self):
        # every coefficient is zero and every margin sits on the kink at 0,
        # so all 322 subgradient terms are free; a box least squares that
        # stops early (lsq_linear's default trf) reports ~5e-3 here
        rng = np.random.default_rng(46)
        x = np.round(rng.normal(size=(300, 22)), 1)
        y = np.where(x @ rng.normal(size=22) + rng.normal(size=300) > 0, 1.0, -1.0)
        model = fit(x, y, 0.3, RejectLossParams(d=0.2), fit_intercept=False)
        assert np.all(model.coef_internal == 0.0)
        assert kkt_residual(model, x, y) <= 1e-6

    def test_sparsity_monotone_in_penalty(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 6))
        y = np.sign(x[:, 0] - x[:, 1] + 0.3 * rng.normal(size=30))
        y[y == 0] = 1.0
        p = RejectLossParams(d=0.25)
        norms = []
        for r in (0.01, 0.05, 0.2, 1.0, 5.0):
            model = fit(x, y, r, p)
            norms.append(np.abs(model.coef_internal).sum())
        for bigger_r_norm, smaller_r_norm in zip(norms[1:], norms):
            assert bigger_r_norm <= smaller_r_norm + 1e-8

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            fit(np.zeros((4, 2)), np.ones(4), 0.1, RejectLossParams(d=0.25))

    def test_nonpositive_penalty_rejected(self):
        x = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        with pytest.raises(ValueError):
            fit(x, y, 0.0, RejectLossParams(d=0.25))

    def test_standardized_fit_maps_back_exactly(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(25, 4)) * np.array([1.0, 10.0, 0.1, 100.0])
        y = np.sign(x[:, 1] + rng.normal(size=25) * 5.0)
        y[y == 0] = 1.0
        p = RejectLossParams(d=0.25)
        model = fit(x, y, 0.05, p)
        xs = (x - model.center) / model.scale
        internal = xs @ model.coef_internal + model.intercept_internal
        external = decision_scores(model, x)
        assert np.allclose(internal, external, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x, y = random_instance(rng)
        p = RejectLossParams(d=0.2)
        m1 = fit(x, y, 0.1, p)
        m2 = fit(x, y, 0.1, p)
        assert np.array_equal(m1.coef, m2.coef)
        assert m1.objective == m2.objective

    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_sparse_lp_equals_dense_lp(self, monkeypatch, fit_intercept):
        # the constraint matrix, written out densely with its two n x n -I
        # blocks, is the reference: same nonzeros, no stored zeros, and the
        # same solution bit for bit
        rng = np.random.default_rng(7)
        n, m = 40, 4
        x = rng.normal(size=(n, m))
        x[:, 1] = 2.0  # constant: an all-zero column after standardizing
        x[::4, 2] = 0.0
        y = np.where(x[:, 0] + 0.5 * rng.normal(size=n) > 0, 1.0, -1.0)
        p = RejectLossParams(d=0.2)
        seen = {}

        def recording_linprog(c, A_ub, **kwargs):
            seen.update(c=c, A_ub=A_ub, **kwargs)
            return linprog(c, A_ub=A_ub, **kwargs)

        monkeypatch.setattr(svm_reject, "linprog", recording_linprog)
        model = fit(x, y, 0.05, p, standardize=False, fit_intercept=fit_intercept)

        yx = y[:, None] * x
        intercept = -y[:, None] if fit_intercept else np.empty((n, 0))
        dense = np.vstack([
            np.hstack([-yx, yx, intercept, -np.eye(n)]),
            np.hstack([-p.a * yx, p.a * yx, p.a * intercept, -np.eye(n)]),
        ])
        a_ub = seen["A_ub"]
        assert sparse.issparse(a_ub)
        assert np.all(a_ub.data != 0.0)
        assert a_ub.nnz == np.count_nonzero(dense)
        assert np.array_equal(a_ub.toarray(), dense)
        reference = linprog(seen["c"], A_ub=dense, b_ub=seen["b_ub"], bounds=seen["bounds"], method="highs")
        assert np.array_equal(
            model.coef_internal, reference.x[:m] - reference.x[m : 2 * m]
        )
        assert model.objective == reference.fun


def path_instance(rng, kind):
    """A random design of one of the degenerate kinds the path must survive."""
    n = int(rng.integers(8, 121))
    m = int(rng.integers(2, 26))
    x = rng.normal(size=(n, m))
    if kind == "tied":
        x = np.round(x, int(rng.integers(0, 2)))
    elif kind == "zero_columns":
        x[:, rng.choice(m, size=max(1, m // 3), replace=False)] = 0.0
    elif kind == "duplicate_columns":
        x[:, 1:] = x[:, rng.integers(0, 2, size=m - 1)]
    y = np.where(x[:, 0] + x[:, 1] + rng.normal(size=n) > 0, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    return x, y


class TestFitPath:
    # the last penalty zeroes every coefficient, on standardized and raw designs
    GRID = R_GRID + [1000.0]

    @needs_highs
    def test_matches_cold_fits(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            kind = ("normal", "tied", "zero_columns", "duplicate_columns")[trial % 4]
            x, y = path_instance(rng, kind)
            p = RejectLossParams(d=float(rng.choice([1 / 3, 1 / 4, 1 / 5])))
            options = dict(fit_intercept=bool(rng.integers(0, 2)), standardize=bool(rng.integers(0, 2)))
            path = fit_path(x, y, self.GRID, p, **options)
            cold = [fit(x, y, r, p, **options) for r in self.GRID]
            assert [m.r for m in path] == self.GRID
            first, oracle = path[0], cold[0]
            assert first.coef.tobytes() == oracle.coef.tobytes()
            assert first.coef_internal.tobytes() == oracle.coef_internal.tobytes()
            assert first.intercept == oracle.intercept
            assert first.objective == oracle.objective
            for model, reference in zip(path, cold):
                assert abs(model.objective - reference.objective) <= 1e-9 * abs(reference.objective)
                assert kkt_residual(model, x, y) <= 1e-6
            assert np.all(path[-1].coef_internal == 0.0)
            assert np.all(cold[-1].coef_internal == 0.0)

    def test_without_highs_class_equals_cold_fits(self, monkeypatch):
        monkeypatch.setattr(svm_reject, "_highs_core", lambda: None)
        rng = np.random.default_rng(12)
        for kind in ("normal", "tied"):
            x, y = path_instance(rng, kind)
            p = RejectLossParams(d=0.25)
            path = fit_path(x, y, self.GRID, p, fit_intercept=False)
            cold = [fit(x, y, r, p, fit_intercept=False) for r in self.GRID]
            for model, reference in zip(path, cold):
                assert model.coef.tobytes() == reference.coef.tobytes()
                assert model.coef_internal.tobytes() == reference.coef_internal.tobytes()
                assert model.intercept == reference.intercept
                assert model.objective == reference.objective

    def test_rejects_bad_penalties_and_takes_an_empty_grid(self):
        x, y = random_instance(np.random.default_rng(13))
        p = RejectLossParams(d=0.25)
        with pytest.raises(ValueError, match="penalty r must be positive"):
            fit_path(x, y, [0.1, 0.0], p)
        assert fit_path(x, y, [], p) == []

    @needs_highs
    def test_non_optimal_status_raises(self, monkeypatch):
        core = svm_reject._highs_core()

        class StalledHighs(core._Highs):
            """Reports an iteration limit from the third solve on."""

            runs = 0

            def run(self):
                self.runs += 1
                return super().run()

            def getModelStatus(self):
                if self.runs >= 3:
                    return core.HighsModelStatus.kIterationLimit
                return super().getModelStatus()

        monkeypatch.setattr(core, "_Highs", StalledHighs)
        x, y = random_instance(np.random.default_rng(14))
        with pytest.raises(SolverError, match=r"linear program failed \(status \d+\): .*\[n=\d+, features=\d+, r=0\.1, d=0\.25\]"):
            fit_path(x, y, R_GRID, RejectLossParams(d=0.25))


class TestProgramArrays:
    """``_program`` lays out A_ub exactly as ``scipy.sparse`` would."""

    @staticmethod
    def scipy_matrix(x, y, p, fit_intercept, standardize):
        # the reference: scipy.sparse laying out the same dense block and -I slack blocks
        if standardize:
            scale = x.std(axis=0)
            xs = (x - x.mean(axis=0)) / np.where(scale > 0.0, scale, 1.0)
        else:
            xs = (x - np.zeros(x.shape[1])) / np.ones(x.shape[1])
        yx = y[:, None] * xs
        lin = np.hstack([-yx, yx, -y[:, None]] if fit_intercept else [-yx, yx])
        eye = sparse.identity(y.size, format="csc")
        return sparse.hstack(
            [sparse.csc_matrix(np.vstack([lin, p.a * lin])), -sparse.vstack([eye, eye])], format="csc"
        )

    def test_arrays_equal_scipy_sparse_bitwise(self):
        rng = np.random.default_rng(21)
        for trial in range(200):
            n = int(rng.integers(2, 41))
            m = int(rng.integers(1, 7))
            x = rng.normal(size=(n, m))
            kind = trial % 4
            if kind == 1:
                x[:, rng.integers(0, m)] = 0.0  # a zero column, also after standardizing
            elif kind == 2:
                x = np.round(x)  # exact zeros, and -0.0 from rounding small negatives
            elif kind == 3:
                x[rng.random(size=x.shape) < 0.4] = -0.0
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            y[:2] = (1.0, -1.0)
            p = RejectLossParams(d=float(rng.choice([1 / 3, 1 / 4, 1 / 5])))
            options = (bool(trial // 4 % 2), bool(trial // 8 % 2))  # intercept, standardize
            lp = svm_reject._program(x, y, p, *options)
            reference = self.scipy_matrix(x, y, p, *options)
            assert lp.shape == reference.shape
            for ours, theirs in ((lp.a_indptr, reference.indptr), (lp.a_indices, reference.indices), (lp.a_data, reference.data)):
                assert ours.dtype == theirs.dtype
                assert ours.tobytes() == theirs.tobytes()

    def test_negative_zero_is_dropped(self):
        x = np.array([[-0.0, 1.0], [0.0, -1.0], [-0.0, 2.0]])
        y = np.array([1.0, -1.0, 1.0])
        lp = svm_reject._program(x, y, RejectLossParams(d=0.25), False, False)
        # the first feature's p and m columns (0 and 2) hold only zeros, -0.0 among them
        assert list(np.diff(lp.a_indptr)[:4]) == [0, 6, 0, 6]
        assert np.all(lp.a_data != 0.0)


SRC = str(Path(dcovselect.__file__).resolve().parents[1])


def run_python(script):
    """Run ``script`` in a fresh interpreter and return the JSON on its last stdout line."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONWARNINGS="ignore")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# a small program that fit_path and fit both solve
LP_SETUP = """
import json, sys
import numpy as np
from dcovselect import svm_reject
from dcovselect.svm_reject import RejectLossParams, fit, fit_path

rng = np.random.default_rng(3)
x = rng.normal(size=(30, 4))
y = np.where(x[:, 0] + rng.normal(size=30) > 0, 1.0, -1.0)
y[:2] = (1.0, -1.0)
p = RejectLossParams(d=0.25)
NAME = "scipy.optimize._highspy._core"
"""


@needs_highs
class TestHighsLoader:
    """``_highs_core`` loads the same module object whichever way it is reached."""

    def test_direct_load_is_the_module_scipy_imports_later(self):
        result = run_python(LP_SETUP + """
first = fit_path(x, y, [0.05, 0.5], p)[0]
before = sorted(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.sparse")))
import scipy.optimize
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
import scipy.optimize._highspy._core as dotted
core = svm_reject._highs_core()
cold = fit(x, y, 0.05, p)
res = linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
print(json.dumps({
    "before": before,
    "same": [core is _core, core is dotted, core is sys.modules[NAME]],
    "linprog": [int(res.status), float(res.fun)],
    "bitwise": [first.coef.tobytes() == cold.coef.tobytes(), first.intercept == cold.intercept,
                first.objective == cold.objective],
}))
""")
        assert all(name.startswith("scipy.optimize._highspy._core") for name in result["before"])
        assert "scipy.optimize._highspy._core" in result["before"]
        assert result["same"] == [True, True, True]
        assert result["linprog"] == [0, 1.0]
        assert result["bitwise"] == [True, True, True]

    def test_a_registered_module_is_used(self):
        result = run_python(LP_SETUP + """
import scipy.optimize
registered = sys.modules[NAME]
svm_reject._load_extension = None  # must not be reached
models = fit_path(x, y, [0.05, 0.5], p)
print(json.dumps({"same": svm_reject._highs_core() is registered, "points": len(models)}))
""")
        assert result == {"same": True, "points": 2}

    def test_without_the_file_the_import_route_gives_the_same_module(self):
        result = run_python(LP_SETUP + """
svm_reject._load_extension = lambda name: None  # as where the file is not found
core = svm_reject._highs_core()
first = fit_path(x, y, [0.05, 0.5], p)[0]
cold = fit(x, y, 0.05, p)
from scipy.optimize._highspy import _core
print(json.dumps({
    "same": [core is _core, core is sys.modules[NAME]],
    "bitwise": first.coef.tobytes() == cold.coef.tobytes() and first.objective == cold.objective,
}))
""")
        assert result == {"same": [True, True], "bitwise": True}


class TestPredict:
    def _model(self):
        x = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        return fit(x, y, 0.01, RejectLossParams(d=0.25), standardize=False)

    def test_threshold_behaviour(self):
        assert decide(0.6, 0.5) == 1
        assert decide(-0.5, 0.5) == 0  # boundary withholds
        assert decide(-0.51, 0.5) == -1
        assert decide(0.5, 0.5) == 0

    def test_predict_uses_model_delta(self):
        model = self._model()
        labels = predict(model, np.array([[0.6], [0.0], [-2.0]]))
        scores = decision_scores(model, np.array([[0.6], [0.0], [-2.0]]))
        assert np.array_equal(labels, decide(scores, model.params.delta))

    def test_dimension_mismatch(self):
        model = self._model()
        with pytest.raises(ValueError, match="mismatch"):
            predict(model, np.zeros((3, 2)))


class TestBayesReference:
    def test_rule_branches(self):
        assert bayes_rule(0.1, 0.25) == -1
        assert bayes_rule(0.5, 0.25) == 0
        assert bayes_rule(0.9, 0.25) == 1
        assert bayes_rule(0.25, 0.25) == 0  # closed middle interval
        assert bayes_rule(0.75, 0.25) == 0

    def test_risk_trivial_cases(self):
        assert bayes_risk(np.zeros(10), 0.25) == 0.0
        assert bayes_risk(np.full(10, 0.5), 0.2) == 0.2

    def test_risk_matches_quadrature(self):
        d = 0.25
        eta = np.linspace(0.0, 1.0, 200001)
        integral, _ = quad(lambda e: min(e, 1 - e, d), 0.0, 1.0, points=[d, 1 - d])
        assert bayes_risk(eta, d) == pytest.approx(integral, abs=1e-5)

    def test_rule_risk_consistency(self):
        # the stated risk is what the rule actually incurs in expectation
        rng = np.random.default_rng(7)
        eta = rng.uniform(size=5000)
        d = 0.2
        labels = bayes_rule(eta, d)
        expected_loss = np.where(labels == 0, d, np.where(labels == 1, 1 - eta, eta))
        assert expected_loss.mean() == pytest.approx(bayes_risk(eta, d), abs=1e-12)
