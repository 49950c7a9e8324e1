"""Logit scoring, maximum-likelihood fitting, slopes and serialization."""

import json
import math
import re

import numpy as np
import pytest

from sourcescope.errors import (
    ModelDocumentError,
    NonFiniteValueError,
    SeparationError,
    SingularDesignError,
    UnknownFeatureError,
)
from sourcescope.features import FEATURE_NAMES, FeatureVector
from sourcescope.model import (
    FEATURE_SUBSETS,
    MODEL_I,
    MODEL_II,
    FitOptions,
    LabeledDataset,
    LogitModel,
    fit_logit,
    load_model,
    load_model_file,
    log_likelihood,
    marginal_effects,
    predict_probability,
    save_model,
    save_model_file,
)


def fv(padlock=0, contact=0, telephone=0, about=0, terms=0):
    return FeatureVector(padlock=padlock, contact=contact, telephone=telephone,
                         about=about, terms=terms)


def dataset_from_counts(cells):
    """cells: iterable of (feature_bits_dict, label, count)."""
    rows = []
    for bits, label, count in cells:
        rows.extend([(fv(**bits), label)] * count)
    return LabeledDataset(tuple(rows))


def random_rows(rng, n):
    rows = []
    for _ in range(n):
        bits = {name: int(rng.integers(0, 2)) for name in FEATURE_NAMES}
        rows.append((fv(**bits), int(rng.integers(0, 2))))
    return rows


def random_dataset(rng, n, features=FEATURE_NAMES):
    return LabeledDataset(tuple(random_rows(rng, n)))


class TestPredict:
    def test_reference_model_all_zeros(self):
        p = predict_probability(MODEL_II, fv())
        assert abs(p - 0.9790) < 1e-3

    def test_reference_model_all_ones(self):
        p = predict_probability(MODEL_II, fv(1, 1, 1, 1, 1))
        assert abs(p - 0.0564) < 1e-3

    def test_zero_model_gives_half(self):
        model = LogitModel(intercept=0.0, coefficients={name: 0.0 for name in FEATURE_NAMES})
        assert predict_probability(model, fv(1, 0, 1, 0, 1)) == 0.5

    def test_stable_at_extreme_linear_predictor(self):
        model = LogitModel(intercept=700.0, coefficients={"padlock": -1400.0})
        high = predict_probability(model, fv(padlock=0))
        low = predict_probability(model, fv(padlock=1))
        assert 0.0 < low < high < 1.0

    def test_monotone_in_negative_coefficients(self):
        # every negative coefficient must strictly lower the probability
        base = {name: 0 for name in FEATURE_NAMES}
        for name, beta in MODEL_II.coefficients.items():
            flipped = dict(base, **{name: 1})
            p0 = predict_probability(MODEL_II, fv(**base))
            p1 = predict_probability(MODEL_II, fv(**flipped))
            assert (p1 < p0) == (beta < 0)


class TestModelFields:
    @pytest.mark.parametrize("intercept,coefficients,error,message", [
        ("x", {"padlock": 1.0}, ModelDocumentError, "intercept must be a number"),
        (True, {"padlock": 1.0}, ModelDocumentError, "intercept must be a number"),
        (0.0, {"padlock": None}, ModelDocumentError, "coefficient 'padlock' must be a number"),
        (math.inf, {"padlock": 1.0}, NonFiniteValueError, "intercept is not finite"),
        (0.0, {"terms": math.nan}, NonFiniteValueError, "coefficient 'terms' is not finite"),
        (10 ** 400, {"padlock": 1.0}, NonFiniteValueError, "intercept is not finite"),
        (0.0, {}, ModelDocumentError, "model needs at least one feature coefficient"),
        (0.0, {"wordcount": 1.0}, UnknownFeatureError, "unknown feature 'wordcount'"),
    ], ids=["string", "boolean", "null", "inf", "nan", "int past the floats", "empty", "unknown"])
    def test_model_checks_its_own_fields(self, intercept, coefficients, error, message):
        with pytest.raises(error, match=re.escape(message)) as refusal:
            LogitModel(intercept=intercept, coefficients=coefficients)
        assert type(refusal.value) is error

    def test_any_real_number_is_taken_as_a_float(self):
        model = LogitModel(intercept=np.float64(0.5), coefficients={"terms": np.int64(-1),
                                                                    "padlock": 2})
        assert model == LogitModel(intercept=0.5, coefficients={"padlock": 2.0, "terms": -1.0})
        assert [type(v) for v in (model.intercept, *model.coefficients.values())] == [float] * 3

    def test_builtins_are_read_only(self):
        with pytest.raises(TypeError):
            MODEL_II.coefficients["padlock"] = 0.0
        with pytest.raises(TypeError):
            FEATURE_SUBSETS["model2"] = ("about",)
        assert predict_probability(MODEL_II, fv(1, 1, 1, 1, 1)) == pytest.approx(0.0564, abs=1e-4)

    def test_feature_subsets_are_the_builtin_models_features(self):
        assert dict(FEATURE_SUBSETS) == {"model1": FEATURE_NAMES,
                                         "model2": ("padlock", "contact", "telephone", "terms")}
        assert FEATURE_SUBSETS["model2"] == MODEL_II.features


class TestLabeledDataset:
    @pytest.mark.parametrize("rows,error,message", [
        ([(fv(), 2)], ValueError, "row 0: label must be 0 or 1, got 2"),
        ([(fv(), 1), ({"padlock": 1}, 0)], TypeError, "row 1: expected FeatureVector"),
    ])
    def test_row_refusals(self, rows, error, message):
        with pytest.raises(error, match=re.escape(message)):
            LabeledDataset(rows)

    @pytest.mark.parametrize("counts,message", [
        ([1] * 63, "count table needs 64 cells, got 63"),
        ([True] + [0] * 63, "cell 0: count must be a non-negative int, got True"),
        ([0] * 5 + [-1] + [1] * 58, "cell 5: count must be a non-negative int, got -1"),
    ])
    def test_count_table_refusals(self, counts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LabeledDataset.from_counts(counts)


class TestLogLikelihood:
    def test_constant_half_model(self):
        model = LogitModel(intercept=0.0, coefficients={name: 0.0 for name in FEATURE_NAMES})
        data = dataset_from_counts([({}, 1, 200), ({}, 0, 200)])
        assert abs(log_likelihood(model, data) - 400 * math.log(0.5)) < 1e-3

    def test_single_row_closed_form(self):
        model = LogitModel(intercept=1.0, coefficients={"padlock": 0.0})
        data = dataset_from_counts([({}, 1, 1)])
        expected = math.log(math.e / (1 + math.e))
        assert log_likelihood(model, data) == pytest.approx(expected, abs=1e-12)

    def test_perfect_prediction_limit(self):
        model = LogitModel(intercept=-40.0, coefficients={"padlock": 80.0})
        data = dataset_from_counts([({"padlock": 1}, 1, 5), ({"padlock": 0}, 0, 5)])
        value = log_likelihood(model, data)
        assert -1e-10 < value < 0.0


class TestFit:
    def test_saturated_two_by_two(self):
        data = dataset_from_counts([
            ({"padlock": 1}, 1, 30), ({"padlock": 1}, 0, 10),
            ({"padlock": 0}, 1, 10), ({"padlock": 0}, 0, 30),
        ])
        result = fit_logit(data, ("padlock",))
        assert result.model.intercept == pytest.approx(math.log(10 / 30), abs=1e-4)
        assert result.model.coefficients["padlock"] == pytest.approx(math.log(9.0), abs=1e-4)

    def test_gradient_vanishes_at_optimum(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 300)
        result = fit_logit(data, ("padlock", "contact", "terms"))
        X = np.column_stack([np.ones(len(data)),
                             data.feature_matrix(("padlock", "contact", "terms"))])
        beta = np.array([result.model.intercept, *result.model.coefficients.values()])
        p = 1.0 / (1.0 + np.exp(-X @ beta))
        score = X.T @ (data.labels() - p)
        assert np.max(np.abs(score)) < 1e-8

    def test_gradient_matches_finite_differences(self):
        # analytic score vs central differences at random (non-optimal) points
        rng = np.random.default_rng(17)
        step = 1e-5
        for _ in range(20):
            k = int(rng.integers(1, 4))
            names = tuple(rng.choice(FEATURE_NAMES, size=k, replace=False))
            data = random_dataset(rng, int(rng.integers(40, 120)))
            beta = rng.normal(0, 1, size=k + 1)
            X = np.column_stack([np.ones(len(data)), data.feature_matrix(names)])
            y = data.labels()

            def lnl_at(b):
                model = LogitModel(intercept=b[0],
                                   coefficients=dict(zip(names, b[1:])))
                return log_likelihood(model, data)

            p = 1.0 / (1.0 + np.exp(-X @ beta))
            analytic = X.T @ (y - p)
            for j in range(k + 1):
                up, down = beta.copy(), beta.copy()
                up[j] += step
                down[j] -= step
                numeric = (lnl_at(up) - lnl_at(down)) / (2 * step)
                scale = max(1.0, np.max(np.abs(analytic)))
                assert abs(numeric - analytic[j]) < 1e-6 * scale

    def test_row_order_invariance(self):
        rng = np.random.default_rng(23)
        rows = random_rows(rng, 250)
        data = LabeledDataset(tuple(rows))
        rng.shuffle(rows)
        shuffled = LabeledDataset(tuple(rows))
        a = fit_logit(data, ("padlock", "about"))
        b = fit_logit(shuffled, ("padlock", "about"))
        assert a.model.intercept == pytest.approx(b.model.intercept, abs=1e-9)
        for name in a.model.coefficients:
            assert a.model.coefficients[name] == pytest.approx(
                b.model.coefficients[name], abs=1e-9)

    def test_constant_column_is_singular(self):
        data = dataset_from_counts([
            ({"padlock": 1, "contact": 1}, 1, 20),
            ({"padlock": 1, "contact": 0}, 0, 20),
        ])
        with pytest.raises(SingularDesignError):
            fit_logit(data, ("padlock", "contact"))  # padlock never varies

    @pytest.mark.parametrize("features,message", [
        ((), "need at least one feature"),
        (("padlock", "bogus"), "unknown feature 'bogus'"),
    ])
    def test_feature_list_refusals(self, features, message):
        data = dataset_from_counts([({}, 1, 5), ({}, 0, 5)])
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_logit(data, features)

    def test_duplicated_column_is_singular(self):
        rows = []
        rng = np.random.default_rng(2)
        for _ in range(80):
            bit = int(rng.integers(0, 2))
            rows.append((fv(padlock=bit, contact=bit), int(rng.integers(0, 2))))
        with pytest.raises(SingularDesignError):
            fit_logit(LabeledDataset(tuple(rows)), ("padlock", "contact"))

    def test_converged_fit_does_not_stall_on_rounding(self):
        # plain Newton converges here in 7 steps; near the optimum a step
        # changes lnL by less than its rounding error, and halving such a step
        # as if lnL had fallen left the score above tolerance for 100 steps
        counts = [70, 12, 3, 9, 60, 5, 4, 6, 103, 33, 10, 1, 24, 1, 3, 0,
                  141, 37, 80, 78, 25, 43, 81, 7, 58, 11, 35, 75, 202, 22, 2, 2,
                  168, 121, 38, 315, 524, 163, 222, 1168, 378, 568, 114, 6, 180, 10, 353, 60,
                  59, 60, 175, 670, 39, 406, 625, 281, 35, 27, 72, 995, 502, 179, 74, 170]
        result = fit_logit(LabeledDataset.from_counts(counts), FEATURE_SUBSETS["model1"])
        assert result.iterations == 7
        assert max(map(abs, result.model.coefficients.values())) == pytest.approx(1.6825, abs=1e-4)

    def test_separation_detected(self):
        data = dataset_from_counts([
            ({"padlock": 1}, 1, 40), ({"padlock": 0}, 0, 40),
        ])
        with pytest.raises(SeparationError):
            fit_logit(data, ("padlock",))

    def test_recovers_generating_coefficients(self):
        rng = np.random.default_rng(99)
        n = 10_000
        names = tuple(MODEL_II.coefficients)
        X = rng.integers(0, 2, size=(n, len(names))).astype(float)
        z = MODEL_II.intercept + X @ np.array(list(MODEL_II.coefficients.values()))
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(int)
        rows = tuple(
            (fv(**dict(zip(names, map(int, X[i])))), int(y[i])) for i in range(n))
        result = fit_logit(LabeledDataset(rows), names)
        for name in names:
            assert abs(result.model.coefficients[name]
                       - MODEL_II.coefficients[name]) < 0.15


class TestMarginalEffects:
    def test_zero_coefficient_zero_slope(self):
        model = LogitModel(intercept=0.7, coefficients={"padlock": 0.0, "terms": -1.0})
        rng = np.random.default_rng(31)
        data = random_dataset(rng, 100)
        for convention in ("at-means", "average"):
            slopes = marginal_effects(model, data, convention)
            assert slopes["padlock"] == pytest.approx(0.0, abs=1e-15)

    def test_single_dummy_closed_form(self):
        beta1 = 1.3
        model = LogitModel(intercept=0.0, coefficients={"about": beta1})
        data = dataset_from_counts([({"about": 1}, 1, 10), ({"about": 0}, 0, 10)])
        slopes = marginal_effects(model, data, "at-means")
        expected = 1.0 / (1.0 + math.exp(-beta1)) - 0.5
        assert slopes["about"] == pytest.approx(expected, abs=1e-12)

    def test_sign_agreement(self):
        rng = np.random.default_rng(41)
        data = random_dataset(rng, 200)
        for convention in ("at-means", "average"):
            slopes = marginal_effects(MODEL_I, data, convention)
            for name, beta in MODEL_I.coefficients.items():
                assert math.copysign(1, slopes[name]) == math.copysign(1, beta)

    def test_invalid_convention(self):
        data = dataset_from_counts([({}, 1, 1), ({}, 0, 1)])
        with pytest.raises(ValueError):
            marginal_effects(MODEL_II, data, "at-medians")


class TestSerialization:
    def test_round_trip_builtin(self):
        for model in (MODEL_I, MODEL_II):
            rebuilt = load_model(save_model(model))
            assert rebuilt.intercept == model.intercept
            assert dict(rebuilt.coefficients) == dict(model.coefficients)
            assert rebuilt.metadata == model.metadata

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        save_model_file(MODEL_II, path)
        rebuilt = load_model_file(path)
        assert dict(rebuilt.coefficients) == dict(MODEL_II.coefficients)

    def test_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("\ufeff" + json.dumps(save_model(MODEL_II)), encoding="utf-8")
        assert load_model_file(path) == MODEL_II

    def test_missing_intercept(self):
        document = save_model(MODEL_II)
        del document["intercept"]
        with pytest.raises(ModelDocumentError):
            load_model(document)

    def test_unknown_field_rejected(self):
        document = save_model(MODEL_II)
        document["calibration"] = []
        with pytest.raises(ModelDocumentError):
            load_model(document)

    def test_unknown_feature_rejected(self):
        document = save_model(MODEL_II)
        document["coefficients"]["wordcount"] = -0.2
        with pytest.raises(UnknownFeatureError):
            load_model(document)

    def test_nan_rejected(self):
        document = save_model(MODEL_II)
        document["coefficients"]["padlock"] = float("nan")
        with pytest.raises(NonFiniteValueError):
            load_model(document)

    def test_nan_token_in_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        document = save_model(MODEL_II)
        text = json.dumps(document).replace("-2.3141", "NaN")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(NonFiniteValueError):
            load_model_file(path)

    @pytest.mark.parametrize("change,message", [
        (lambda d: d.update(coefficients=[]), "'coefficients' must be an object"),
        (lambda d: d.update(version="2"), "unsupported document version '2'"),
        (lambda d: d.update(intercept="1.0"), "intercept must be a number"),
        (lambda d: d["coefficients"].update(padlock=True), "coefficient 'padlock' must be a number"),
        (lambda d: d.update(metadata=5), "'metadata' must be a string or null"),
    ])
    def test_off_schema_values_rejected(self, change, message):
        document = save_model(MODEL_II)
        change(document)
        with pytest.raises(ModelDocumentError, match=re.escape(message)):
            load_model(document)

    def test_non_object_document_rejected(self, tmp_path):
        with pytest.raises(ModelDocumentError, match="JSON object"):
            load_model([])
        path = tmp_path / "model.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ModelDocumentError, match="JSON object"):
            load_model_file(path)

    @pytest.mark.parametrize("document,error,message", [
        ({"intercept": 1, "coefficients": {"padlock": 1, "bogus": 2}}, UnknownFeatureError,
         "unknown feature 'bogus'"),
        ({"intercept": 1, "coefficients": {}}, ModelDocumentError,
         "model needs at least one feature coefficient"),
        ({"intercept": "x", "coefficients": {"padlock": 1}}, ModelDocumentError,
         "intercept must be a number"),
        ({"intercept": 10 ** 400, "coefficients": {"padlock": 1}}, NonFiniteValueError,
         "intercept is not finite"),
        ({"coefficients": {"padlock": 1}}, ModelDocumentError, "document lacks 'intercept'"),
    ])
    def test_file_refusals_name_the_file_first(self, tmp_path, document, error, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}") as refusal:
            load_model_file(path)
        assert type(refusal.value) is error

    def test_nan_token_refused_as_a_non_finite_coefficient(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(save_model(MODEL_II)).replace("-2.3141", "NaN"), encoding="utf-8")
        with pytest.raises(NonFiniteValueError,
                           match=f"^{re.escape(f'{path}: coefficient')} 'padlock' is not finite$"):
            load_model_file(path)

    def test_integer_past_the_parser_limit_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"intercept": 1' + "0" * 5000 + ', "coefficients": {"padlock": 1}}',
                        encoding="utf-8")
        # not valid JSON past the interpreter's digit limit, not finite without one
        with pytest.raises(ModelDocumentError, match=f"^{re.escape(str(path))}: "):
            load_model_file(path)

    def test_invalid_json_file_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"intercept": ', encoding="utf-8")
        with pytest.raises(ModelDocumentError, match=rf"^{re.escape(str(path))}: not valid JSON"):
            load_model_file(path)

    def test_unwritable_target_leaves_nothing(self, tmp_path):
        target_dir = tmp_path / "missing"
        with pytest.raises(OSError):
            save_model_file(MODEL_II, target_dir / "model.json")
        assert not target_dir.exists()

    def test_failed_replace_removes_the_temp_file(self, tmp_path):
        target = tmp_path / "model.json"
        target.mkdir()                      # the written file cannot replace a directory
        with pytest.raises(OSError):
            save_model_file(MODEL_II, target)
        assert list(tmp_path.iterdir()) == [target]

    def test_interrupted_write_removes_the_temp_file(self, tmp_path, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(json, "dump", interrupt)
        with pytest.raises(KeyboardInterrupt):
            save_model_file(MODEL_II, tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitOptions(max_iterations=0)
        with pytest.raises(ValueError):
            FitOptions(tolerance=-1.0)

    def test_iteration_budget_respected(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, 200)
        with pytest.raises(Exception):
            fit_logit(data, ("padlock",), FitOptions(max_iterations=1, tolerance=1e-14))
