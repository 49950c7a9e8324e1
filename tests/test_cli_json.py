"""``train`` and ``analyze`` JSON, compared with field lists written out by hand.

The CLI builds these documents from the result dataclasses.  The three
functions below spell every key out instead, as the CLI once did; the
JSON text of both must match byte for byte, on stdout and in a
``--report-json`` file.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sourcescope.cli import main
from sourcescope.diagnostics import FitDiagnostics
from sourcescope.pipeline import AnalysisReport, TrainResult, analyze, train
from tests.synth import balanced_dataset, unbalanced_dataset, write_csv


# --------------------------------------------------------------------------
# the reference payloads, every field named by hand
# --------------------------------------------------------------------------

def _diagnostics_payload(diagnostics: FitDiagnostics) -> dict:
    confusion = diagnostics.confusion
    return {
        "ln_likelihood": diagnostics.ln_likelihood,
        "null_ln_likelihood": diagnostics.null_ln_likelihood,
        "k": diagnostics.k,
        "mcfadden": diagnostics.mcfadden,
        "mcfadden_adjusted": diagnostics.mcfadden_adjusted,
        "aic": diagnostics.aic,
        "lr_statistic": diagnostics.lr_statistic,
        "lr_df": diagnostics.lr_df,
        "lr_p_value": diagnostics.lr_p_value,
        "vif": dict(diagnostics.vif),
        "confusion": {
            "true_reliable": confusion.true_reliable,
            "false_fake": confusion.false_fake,
            "false_reliable": confusion.false_reliable,
            "true_fake": confusion.true_fake,
            "cutoff": confusion.cutoff,
            "accuracy": confusion.accuracy,
            "cell_shares_percent": list(confusion.cell_shares()),
        },
    }


def _train_payload(result: TrainResult, model_out: Path) -> dict:
    model = result.fit.model
    return {
        "model": {
            "intercept": model.intercept,
            "coefficients": dict(model.coefficients),
        },
        "iterations": result.fit.iterations,
        "wald": {name: {"estimate": t.estimate, "std_error": t.std_error,
                        "z_value": t.z_value, "p_value": t.p_value}
                 for name, t in result.wald.items()},
        "slopes": result.slopes,
        "diagnostics": _diagnostics_payload(result.diagnostics),
        "model_path": str(model_out),
    }


def _analysis_payload(report: AnalysisReport) -> dict:
    size = len(report.variables)
    matrix = []
    for i in range(size):
        row = []
        for j in range(size):
            if i == j:
                row.append({"rho": 1.0})
            else:
                est = report.correlations.estimates[i][j]
                row.append({"rho": est.rho, "p_value": est.p_value,
                            "boundary": est.boundary})
        matrix.append(row)
    return {
        "variables": list(report.variables),
        "alpha": report.alpha,
        "tetrachoric": matrix,
        "chi_square": [
            {"pair": f"{a}-{b}", "statistic": res.statistic, "df": res.df,
             "p_value": res.p_value,
             "expected_frequency_assumption_met": res.expected_frequency_assumption_met}
            for a, b, res in report.chi_square_rows
        ],
    }


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


# --------------------------------------------------------------------------
# datasets and runs
# --------------------------------------------------------------------------

DATASETS = {
    "balanced": lambda: balanced_dataset(np.random.default_rng(7), per_class=150),
    "unbalanced": lambda: unbalanced_dataset(np.random.default_rng(11), 500),
}


@pytest.fixture(scope="module")
def csv_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("json-datasets")
    paths = {}
    for name, make in DATASETS.items():
        paths[name] = root / f"{name}.csv"
        write_csv(paths[name], make())
    return paths


def run_cli(capsys, *argv) -> str:
    assert main([str(arg) for arg in argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.mark.parametrize("dataset,features,convention,cutoff", list(itertools.product(
    DATASETS, ("model1", "model2"), ("at-means", "average"), ("0.5", "0.4"))))
def test_train_json_matches_reference(capsys, tmp_path, csv_paths, dataset, features,
                                      convention, cutoff):
    model_out = tmp_path / "model.json"
    options = ["--features", features, "--model-out", model_out,
               "--slope-convention", convention, "--cutoff", cutoff]
    out = run_cli(capsys, "train", csv_paths[dataset], "--output-mode", "json", *options)
    expected = _train_payload(train(csv_paths[dataset], features=features, model_out=model_out,
                                    slope_convention=convention, cutoff=float(cutoff)), model_out)
    assert out == _json_text(expected)


@pytest.mark.parametrize("dataset,yates,alpha", list(itertools.product(
    DATASETS, (False, True), ("0.0001", "0.05"))))
def test_analyze_json_matches_reference(capsys, csv_paths, dataset, yates, alpha):
    flags = ["--yates"] if yates else []
    out = run_cli(capsys, "analyze", csv_paths[dataset], "--output-mode", "json",
                  "--alpha", alpha, *flags)
    report = analyze(csv_paths[dataset], yates=yates)
    expected = _analysis_payload(SimpleNamespace(**vars(report), alpha=float(alpha)))
    assert out == _json_text(expected)


def test_report_json_files_match_reference(capsys, tmp_path, csv_paths):
    path = csv_paths["unbalanced"]
    train_report, analyze_report = tmp_path / "train.json", tmp_path / "analyze.json"
    run_cli(capsys, "train", path, "--model-out", tmp_path / "m.json", "--cutoff", "0.4",
            "--report-json", train_report)
    run_cli(capsys, "analyze", path, "--yates", "--report-json", analyze_report)
    expected_train = _train_payload(train(path, model_out=tmp_path / "m.json", cutoff=0.4),
                                    tmp_path / "m.json")
    report = analyze(path, yates=True)
    expected_analysis = _analysis_payload(SimpleNamespace(**vars(report), alpha=0.0001))
    assert train_report.read_text(encoding="utf-8") == _json_text(expected_train)
    assert analyze_report.read_text(encoding="utf-8") == _json_text(expected_analysis)
