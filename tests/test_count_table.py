"""The count-table dataset against a row-level reference.

The reference keeps one row per observation: unweighted Newton/IRLS with
step halving, Wald tests from the row-level information matrix, VIF from
auxiliary least-squares regressions, marginal effects averaged over rows,
and confusion and crosstab counts tallied row by row.  The package computes
the same quantities as count-weighted sums over the occupied cells.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from sourcescope import model
from sourcescope.diagnostics import confusion_matrix, vif, wald_tests
from sourcescope.features import FEATURE_NAMES
from sourcescope.model import (
    FitOptions,
    LabeledDataset,
    fit_logit,
    log_likelihood,
    marginal_effects,
    predict_probability,
)
from sourcescope.pipeline import analyze, load_dataset
from sourcescope.stats import (
    VARIABLES,
    ContingencyTable2x2,
    chi_square_test,
    crosstab,
    normal_cdf,
    tetrachoric,
)
from tests.synth import MODEL_II_FEATURES, draw_row

TOL = 1e-10


def _design(rows, features):
    X = np.array([[1.0, *(getattr(fv, name) for name in features)] for fv, _ in rows])
    y = np.array([label for _, label in rows], dtype=float)
    return X, y


def _lnl(X, y, beta):
    z = X @ beta
    return float(-(np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (1.0 - y)).sum())


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference_fit(X, y, opts=FitOptions()):
    beta = np.zeros(X.shape[1])
    lnl = _lnl(X, y, beta)
    for iteration in range(opts.max_iterations):
        p = _sigmoid(X @ beta)
        score = X.T @ (y - p)
        if np.max(np.abs(score)) < opts.tolerance:
            return beta, lnl, iteration
        hessian = (X * (p * (1.0 - p))[:, None]).T @ X
        step = np.linalg.solve(hessian, score)
        new_beta = beta + step
        new_lnl = _lnl(X, y, new_beta)
        halvings = 0
        while new_lnl < lnl and halvings < 20:
            step *= 0.5
            new_beta = beta + step
            new_lnl = _lnl(X, y, new_beta)
            halvings += 1
        beta, lnl = new_beta, new_lnl
    raise AssertionError("reference fit did not converge")


def reference_wald(X, beta):
    p = _sigmoid(X @ beta)
    covariance = np.linalg.inv((X * (p * (1.0 - p))[:, None]).T @ X)
    se = np.sqrt(np.diag(covariance))
    return [(b, s, 2.0 * normal_cdf(-abs(b / s))) for b, s in zip(beta, se)]


def reference_vif(X):
    out = []
    Z = X[:, 1:]
    for j in range(Z.shape[1]):
        target = Z[:, j]
        others = np.column_stack([X[:, 0], np.delete(Z, j, axis=1)])
        coef, _, _, _ = np.linalg.lstsq(others, target, rcond=None)
        residual = target - others @ coef
        r_squared = 1.0 - float(residual @ residual) / float(np.sum((target - target.mean()) ** 2))
        out.append(1.0 / (1.0 - r_squared))
    return out


def reference_slopes(X, beta):
    means = X.mean(axis=0)
    at_means, average = [], []
    for j in range(1, X.shape[1]):
        x1, x0 = means.copy(), means.copy()
        x1[j], x0[j] = 1.0, 0.0
        at_means.append(_sigmoid(x1 @ beta) - _sigmoid(x0 @ beta))
        r1, r0 = X.copy(), X.copy()
        r1[:, j], r0[:, j] = 1.0, 0.0
        average.append(np.mean(_sigmoid(r1 @ beta) - _sigmoid(r0 @ beta)))
    return at_means, average


def reference_confusion(rows, model, cutoff=0.5):
    cells = [0, 0, 0, 0]
    for fv, label in rows:
        fake = predict_probability(model, fv) > cutoff
        cells[(1 if fake else 0) if label == 0 else (3 if fake else 2)] += 1
    return tuple(cells)


def reference_crosstab(rows, a, b):
    counts = [0, 0, 0, 0]
    for fv, label in rows:
        va = label if a == "label" else getattr(fv, a)
        vb = label if b == "label" else getattr(fv, b)
        counts[0 if va and vb else 1 if va else 2 if vb else 3] += 1
    return counts


def synth_rows(seed, n):
    rng = np.random.default_rng(seed)
    return [draw_row(rng) for _ in range(n)]


def write_rows(path, rows):
    lines = ["label," + ",".join(FEATURE_NAMES)]
    lines += [",".join(map(str, (label, *fv.as_dict().values()))) for fv, label in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


CASES = [(11, 300), (12, 1_000), (13, 2_500), (14, 10_000)]


@pytest.mark.parametrize("features", [MODEL_II_FEATURES, FEATURE_NAMES], ids=["model2", "model1"])
@pytest.mark.parametrize("seed,n", CASES)
def test_fit_and_diagnostics_match_row_reference(seed, n, features):
    rows = synth_rows(seed, n)
    data = LabeledDataset(rows)
    X, y = _design(rows, features)

    beta, lnl, iterations = reference_fit(X, y)
    fit = fit_logit(data, features)
    assert fit.iterations == iterations
    got = np.array([fit.model.intercept, *fit.model.coefficients.values()])
    assert np.max(np.abs(got - beta)) < TOL
    assert abs(fit.log_likelihood - lnl) < TOL
    assert abs(log_likelihood(fit.model, data) - _lnl(X, y, got)) < TOL

    wald = wald_tests(fit.model, data)
    for test, (estimate, se, p_value) in zip(wald.values(), reference_wald(X, got)):
        assert abs(test.estimate - estimate) < TOL
        assert abs(test.std_error - se) < TOL
        assert abs(test.p_value - p_value) < TOL

    assert np.max(np.abs(np.array(list(vif(data, features).values())) - reference_vif(X))) < TOL

    at_means, average = reference_slopes(X, got)
    assert np.max(np.abs(np.array(list(marginal_effects(fit.model, data).values())) - at_means)) < TOL
    assert np.max(np.abs(np.array(list(
        marginal_effects(fit.model, data, "average").values())) - average)) < TOL

    for cutoff in (0.3, 0.5, 0.8):
        assert (confusion_matrix(fit.model, data, cutoff).counts()
                == reference_confusion(rows, fit.model, cutoff))


# model2 cells where a full Newton step lowers the likelihood three times
HALVING_CELLS = {4: 5, 5: 2, 11: 2, 19: 55, 30: 50, 37: 400, 43: 400, 45: 1, 48: 1, 51: 2, 58: 400}


def test_step_halving_fit_matches_row_reference(monkeypatch):
    data = LabeledDataset.from_counts([HALVING_CELLS.get(i, 0) for i in range(64)])
    X = np.array([[1.0, *bits] for bits in data.feature_matrix(MODEL_II_FEATURES)])
    y = np.array(data.labels(), dtype=float)
    beta, lnl, iterations = reference_fit(X, y)

    calls = []
    counted = model._log_likelihood
    monkeypatch.setattr(model, "_log_likelihood", lambda *args: calls.append(1) or counted(*args))
    fit = fit_logit(data, MODEL_II_FEATURES)
    assert fit.iterations == iterations
    assert len(calls) > 1 + iterations       # the start, one per step, and one per halving
    got = np.array([fit.model.intercept, *fit.model.coefficients.values()])
    assert np.max(np.abs(got - beta)) < TOL
    assert abs(fit.log_likelihood - lnl) < TOL


@pytest.mark.parametrize("seed,n", CASES)
def test_analysis_matches_row_reference(tmp_path, seed, n):
    rows = synth_rows(seed, n)
    path = tmp_path / "data.csv"
    write_rows(path, rows)
    report = analyze(path)
    data = LabeledDataset(rows)

    for (i, a), (j, b) in itertools.combinations(enumerate(VARIABLES), 2):
        table = ContingencyTable2x2(*reference_crosstab(rows, a, b))
        assert crosstab(data, a, b) == table
        expected = tetrachoric(table)
        got = report.correlations.estimates[i][j]
        assert abs(got.rho - expected.rho) < TOL
        assert abs(got.p_value - expected.p_value) < TOL
    for a, b, result in report.chi_square_rows:
        expected = chi_square_test(ContingencyTable2x2(*reference_crosstab(rows, a, b)))
        assert abs(result.statistic - expected.statistic) < TOL
        assert abs(result.p_value - expected.p_value) < TOL


def test_loaded_dataset_holds_only_its_count_table(tmp_path):
    rows = synth_rows(5, 500)
    path = tmp_path / "data.csv"
    write_rows(path, rows)
    data = load_dataset(path)
    assert {f.name for f in dataclasses.fields(data)} == {"counts"}
    assert vars(data).keys() == {"counts"}
    assert len(data.counts) == 64 and sum(data.counts) == len(rows)
    assert data == LabeledDataset(rows)
