"""Pseudo R-squared, AIC, LR test, VIF, confusion matrix and the full report."""

import math

import numpy as np
import pytest

from sourcescope.diagnostics import (
    ConfusionMatrix,
    aic,
    confusion_matrix,
    diagnose_fit,
    log_likelihood_from_aic,
    lr_test,
    mcfadden,
    mcfadden_adjusted,
    null_log_likelihood,
    vif,
    wald_tests,
)
from sourcescope.errors import SingleClassDataError, SingularDesignError
from sourcescope.model import (
    CELL_INDEX,
    MODEL_II,
    LabeledDataset,
    LogitModel,
    fit_logit,
    predict_probability,
)
from tests.synth import balanced_dataset
from tests.test_model import dataset_from_counts, fv, random_dataset

# Reference fit statistics implied by the shipped four-predictor model
# (k = 5 incl. intercept); the five-predictor variant has k = 6.
REF_AIC_II = 306.1254
REF_AIC_I = 306.9277
REF_LNL0_400 = 400 * math.log(0.5)          # -277.2589


class TestScalars:
    def test_null_log_likelihood_balanced(self):
        data = dataset_from_counts([({}, 1, 200), ({}, 0, 200)])
        assert null_log_likelihood(data) == pytest.approx(REF_LNL0_400, abs=1e-3)

    def test_null_log_likelihood_unbalanced(self):
        data = dataset_from_counts([({}, 1, 300), ({}, 0, 100)])
        expected = 300 * math.log(0.75) + 100 * math.log(0.25)
        assert null_log_likelihood(data) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(-224.93, abs=5e-3)

    def test_single_class_rejected(self):
        data = dataset_from_counts([({}, 1, 400)])
        with pytest.raises(SingleClassDataError):
            null_log_likelihood(data)

    def test_aic_identity(self):
        assert aic(-148.0627, 5) == pytest.approx(REF_AIC_II, abs=1e-10)
        assert aic(-147.4639, 6) == pytest.approx(306.9278, abs=1e-4)
        assert aic(0.0, 1) == 2.0

    def test_aic_needs_a_parameter(self):
        with pytest.raises(ValueError, match="parameter count must be at least 1"):
            aic(-148.0627, 0)

    def test_mcfadden_reference_values(self):
        lnl = log_likelihood_from_aic(REF_AIC_II, 5)
        assert lnl == pytest.approx(-148.0627, abs=1e-6)
        assert mcfadden(lnl, REF_LNL0_400) == pytest.approx(0.4660, abs=5e-4)
        assert mcfadden_adjusted(lnl, REF_LNL0_400, 5) == pytest.approx(0.4479, abs=5e-4)

    def test_mcfadden_reference_values_five_predictor(self):
        lnl = log_likelihood_from_aic(REF_AIC_I, 6)
        assert mcfadden(lnl, REF_LNL0_400) == pytest.approx(0.4681, abs=5e-4)
        assert mcfadden_adjusted(lnl, REF_LNL0_400, 6) == pytest.approx(0.4465, abs=5e-4)

    def test_mcfadden_null_is_zero(self):
        assert mcfadden(-277.2589, -277.2589) == 0.0

    def test_lr_reference_values(self):
        stat, p = lr_test(log_likelihood_from_aic(REF_AIC_II, 5), REF_LNL0_400, 4)
        assert stat == pytest.approx(258.392, abs=5e-3)
        assert p < 1e-12
        stat, _ = lr_test(log_likelihood_from_aic(REF_AIC_I, 6), REF_LNL0_400, 5)
        assert stat == pytest.approx(259.59, abs=5e-3)

    def test_lr_null(self):
        stat, p = lr_test(-100.0, -100.0, 3)
        assert stat == 0.0
        assert p == 1.0

    def test_lr_without_degrees_of_freedom(self):
        assert lr_test(-90.0, -100.0, 0) == (20.0, 1.0)

    def test_aic_mcfadden_consistency(self):
        # mcfadden == 1 - ((2k - aic)/2)/lnl0 exactly, for any fit
        for lnl, k in ((-148.0627, 5), (-200.25, 3), (-5.5, 2)):
            a = aic(lnl, k)
            assert mcfadden(lnl, REF_LNL0_400) == pytest.approx(
                1.0 - ((2 * k - a) / 2.0) / REF_LNL0_400, abs=1e-12)


class TestVif:
    def test_orthogonal_columns(self):
        cells = []
        for padlock in (0, 1):
            for contact in (0, 1):
                cells.append(({"padlock": padlock, "contact": contact}, padlock, 25))
        data = dataset_from_counts(cells)
        values = vif(data, ("padlock", "contact"))
        assert values["padlock"] == pytest.approx(1.0, abs=1e-12)
        assert values["contact"] == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_column_rejected(self):
        rng = np.random.default_rng(6)
        rows = []
        for _ in range(50):
            bit = int(rng.integers(0, 2))
            rows.append((fv(padlock=bit, about=bit), int(rng.integers(0, 2))))
        with pytest.raises(SingularDesignError):
            vif(LabeledDataset(tuple(rows)), ("padlock", "about"))

    def test_two_column_closed_form(self):
        # for two predictors VIF = 1/(1 - r^2) with r the sample correlation
        cells = [
            ({"padlock": 1, "terms": 1}, 1, 40),
            ({"padlock": 1, "terms": 0}, 1, 10),
            ({"padlock": 0, "terms": 1}, 0, 15),
            ({"padlock": 0, "terms": 0}, 0, 35),
        ]
        data = dataset_from_counts(cells)
        x = np.asarray(data.feature_matrix(("padlock", "terms")))
        r = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        expected = 1.0 / (1.0 - r * r)
        values = vif(data, ("padlock", "terms"))
        assert values["padlock"] == pytest.approx(expected, rel=1e-9)
        assert values["terms"] == pytest.approx(expected, rel=1e-9)

    def test_near_collinear_columns_are_full_rank(self):
        # about equals padlock on every row but one of 10^5, which gives
        # VIF = 50001/2 for both columns in closed form
        counts = [0] * 64
        for label, padlock, about, count in ((1, 1, 1, 25_000), (0, 1, 1, 25_000),
                                             (1, 0, 0, 25_000), (0, 0, 0, 24_999),
                                             (0, 1, 0, 1)):
            counts[CELL_INDEX[(str(label), str(padlock), "0", "0", str(about), "0")]] = count
        data = LabeledDataset.from_counts(counts)
        assert vif(data, ("padlock", "about")) == {"padlock": 25_000.5, "about": 25_000.5}

    def test_always_at_least_one(self):
        rng = np.random.default_rng(44)
        data = random_dataset(rng, 300)
        for value in vif(data, ("padlock", "contact", "telephone", "about", "terms")).values():
            assert value >= 1.0 - 1e-12

    def test_single_feature(self):
        rng = np.random.default_rng(45)
        data = random_dataset(rng, 50)
        assert vif(data, ("padlock",)) == {"padlock": 1.0}

    def test_no_feature(self):
        rng = np.random.default_rng(45)
        assert vif(random_dataset(rng, 50), ()) == {}


# Exact collinearity the rank test must catch: a column that complements
# another (collinear with the intercept), and the sum of two columns that
# are never 1 together.
_COMPLEMENT = [({"padlock": p, "terms": 1 - p, "contact": c}, y, 5 + 3 * p + c + y)
               for p in (0, 1) for c in (0, 1) for y in (0, 1)]
_DISJOINT_SUM = [({"padlock": p, "contact": c, "about": p + c}, y, 7 + 2 * p + c + 3 * y)
                 for p, c in ((0, 0), (1, 0), (0, 1)) for y in (0, 1)]


@pytest.mark.parametrize("estimator", [fit_logit, vif])
@pytest.mark.parametrize("cells, features", [
    (_COMPLEMENT, ("padlock", "contact", "terms")),
    (_DISJOINT_SUM, ("padlock", "contact", "about")),
], ids=["complement", "disjoint-sum"])
def test_exact_collinearity_is_singular(estimator, cells, features):
    with pytest.raises(SingularDesignError):
        estimator(dataset_from_counts(cells), features)


class TestConfusionMatrix:
    def test_reference_counts_identity(self):
        cm = ConfusionMatrix(166, 34, 29, 171, cutoff=0.5)
        assert cm.n == 400
        assert cm.accuracy == pytest.approx(0.8425, abs=1e-10)
        assert cm.cell_shares() == (41.5, 8.5, 7.3, 42.7)

    def test_cell_shares_sum_to_hundred(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            counts = rng.integers(0, 500, size=4)
            if counts.sum() == 0:
                continue
            cm = ConfusionMatrix(*map(int, counts), cutoff=0.5)
            assert sum(cm.cell_shares()) == pytest.approx(100.0, abs=1e-9)

    def test_perfect_model(self):
        model = LogitModel(intercept=-30.0, coefficients={"padlock": 60.0})
        data = dataset_from_counts([({"padlock": 1}, 1, 12), ({"padlock": 0}, 0, 8)])
        cm = confusion_matrix(model, data, 0.5)
        assert cm.counts() == (8, 0, 0, 12)
        assert cm.accuracy == 1.0

    def test_strict_cutoff_rule(self):
        # constant 0.5 scorer at cutoff 0.5: everything classified reliable
        model = LogitModel(intercept=0.0, coefficients={"padlock": 0.0})
        data = dataset_from_counts([({}, 1, 7), ({}, 0, 3)])
        cm = confusion_matrix(model, data, 0.5)
        assert cm.counts() == (3, 0, 7, 0)

    def test_probability_that_rounds_to_one_is_clamped_below_the_cutoff(self):
        # sigmoid(40) is 1.0 in floats; clamped, it equals the highest cutoff
        # and is not above it, so every row is classified reliable
        model = LogitModel(intercept=40.0, coefficients={"padlock": 0.0})
        cutoff = math.nextafter(1.0, 0.0)
        assert predict_probability(model, fv()) == cutoff
        data = dataset_from_counts([({}, 1, 3), ({}, 0, 2)])
        assert confusion_matrix(model, data, cutoff).counts() == (2, 0, 3, 0)

    @pytest.mark.parametrize("cutoff", [0.0, 1.0, math.nan])
    def test_cutoff_outside_the_open_interval_refused(self, cutoff):
        data = dataset_from_counts([({}, 1, 1), ({}, 0, 1)])
        with pytest.raises(ValueError, match="cutoff must lie in"):
            confusion_matrix(MODEL_II, data, cutoff)

    def test_counts_partition(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng, 123)
        cm = confusion_matrix(MODEL_II, data, 0.4)
        assert cm.n == 123


class TestWald:
    def test_strong_effect_is_significant(self):
        rng = np.random.default_rng(77)
        n = 2000
        rows = []
        for _ in range(n):
            bit = int(rng.integers(0, 2))
            prob = 0.8 if bit else 0.2
            rows.append((fv(padlock=bit), int(rng.random() < prob)))
        data = LabeledDataset(tuple(rows))
        fit = fit_logit(data, ("padlock",))
        tests = wald_tests(fit.model, data)
        assert set(tests) == {"intercept", "padlock"}
        assert tests["padlock"].p_value < 1e-6
        assert tests["padlock"].std_error > 0

    def test_null_effect_is_not_significant(self):
        rng = np.random.default_rng(78)
        data = random_dataset(rng, 400)
        fit = fit_logit(data, ("contact",))
        tests = wald_tests(fit.model, data)
        assert tests["contact"].p_value > 0.01


class TestFullDiagnostics:
    def test_reference_shape_on_synthetic_data(self):
        rng = np.random.default_rng(314)
        names = tuple(MODEL_II.coefficients)
        data = balanced_dataset(rng, per_class=200)
        diag = diagnose_fit(fit_logit(data, names), data)
        assert abs(diag.mcfadden - 0.466) < 0.1
        assert diag.k == 5
        assert diag.lr_df == 4
        assert diag.aic == pytest.approx(2 * 5 - 2 * diag.ln_likelihood, abs=1e-9)
        assert diag.lr_statistic == pytest.approx(
            2 * (diag.ln_likelihood - diag.null_ln_likelihood), abs=1e-9)
        assert set(diag.vif) == set(names)

    def test_duplicated_feature_column_fails(self):
        rng = np.random.default_rng(1)
        rows = []
        for _ in range(60):
            bit = int(rng.integers(0, 2))
            rows.append((fv(padlock=bit, terms=bit), int(rng.integers(0, 2))))
        data = LabeledDataset(tuple(rows))
        with pytest.raises(SingularDesignError):
            diagnose_fit(fit_logit(data, ("padlock", "terms")), data)

    def test_invariants_hold(self):
        rng = np.random.default_rng(272)
        data = random_dataset(rng, 300)
        diag = diagnose_fit(fit_logit(data, ("padlock", "about")), data)
        assert diag.ln_likelihood >= diag.null_ln_likelihood - 1e-9
        assert 0.0 <= diag.mcfadden < 1.0
        assert diag.lr_statistic >= 0.0
        assert diag.confusion.n == 300


class TestDiagnoseFit:
    def test_matches_manual_assembly(self):
        rng = np.random.default_rng(55)
        data = random_dataset(rng, 200)
        fit = fit_logit(data, ("padlock", "contact"))
        diag = diagnose_fit(fit, data)
        assert diag.ln_likelihood == pytest.approx(fit.log_likelihood, abs=1e-12)
        assert diag.mcfadden == pytest.approx(
            mcfadden(fit.log_likelihood, null_log_likelihood(data)), abs=1e-12)
