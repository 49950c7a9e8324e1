"""Command-line interface.

Commands: score, extract, train, analyze, screen.  The share/withhold
verdict doubles as the exit code (0 = share/clean, 3 = withhold/mimic) so
shell pipelines can gate on the result; operational errors exit 4, fitting
and statistics errors exit 5.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import __version__
from .diagnostics import require_open_unit
from .errors import EmptyDataError, EstimationError, SourceScopeError
from .features import FetchPolicy, features_from_snapshot, fetch_site, load_lexicon
from .files import DATA, read_lines
from .model import MODEL_II, load_model_file
from .pipeline import (
    AnalysisReport,
    ScoreRequest,
    TrainResult,
    analyze,
    score_many,
    score_url,
    train,
)
from .screener import load_known_domains, mimicry_check, normalize_domain

EXIT_SHARE = 0
EXIT_WITHHOLD = 3
EXIT_OPERATIONAL = 4
EXIT_ESTIMATION = 5


# --------------------------------------------------------------------------
# loaders: each builds one input from the flags that name it
# --------------------------------------------------------------------------

def _policy(args: argparse.Namespace) -> FetchPolicy:
    """``--timeout`` and ``--offline-root``; ``SOURCESCOPE_OFFLINE=1`` stands
    for the demo fixtures shipped in the package."""
    offline_root = args.offline_root
    if offline_root is None and os.environ.get("SOURCESCOPE_OFFLINE") == "1":
        offline_root = DATA / "fixtures"
    if offline_root is not None and not Path(offline_root).is_dir():
        raise FileNotFoundError(f"offline root not found: {offline_root}")
    return FetchPolicy(timeout=args.timeout, offline_root=offline_root)


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------

def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _emit(args: argparse.Namespace, payload, lines) -> None:
    """Write ``payload`` as one JSON document in json mode, else ``lines``;
    then write ``payload`` to ``--report-json`` if it is given."""
    if args.output_mode == "json":
        sys.stdout.write(_json_text(payload))
    else:
        for line in lines:
            print(line)
    if args.report_json:
        Path(args.report_json).write_text(_json_text(payload), encoding="utf-8")


def _format_p(p: float) -> str:
    return "<0.0001" if p < 0.0001 else f"{p:.4f}"


def _features_line(features) -> str:
    return " ".join(f"{name}={bit}" for name, bit in features.as_dict().items())


def _report_payload(report) -> dict:
    payload = {
        "probability_fake": round(report.probability_fake, 6),
        "path": report.path,
        "verdict": report.verdict,
    }
    if report.mimic_target:
        payload["mimic_target"] = report.mimic_target
        payload["mimic_reason"] = report.mimic_reason
    if report.features is not None:
        payload["features"] = report.features.as_dict()
    if report.note:
        payload["note"] = report.note
    if report.skipped_pages:
        payload["skipped_pages"] = _skipped_payload(report.skipped_pages)
    return payload


def _skipped_payload(skipped_pages) -> list[dict]:
    return [{"url": url, "reason": reason} for url, reason in skipped_pages]


def _skipped_note(skipped_pages) -> str:
    """The table-mode note on the candidate pages a fetch left out, or ''."""
    if not skipped_pages:
        return ""
    return "  (skipped " + ", ".join(f"{url}: {reason}" for url, reason in skipped_pages) + ")"


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _report_line(report, url: str, with_url: bool) -> str:
    detail = ""
    if report.path == "mimicry-screen":
        detail = f"  mimics {report.mimic_target} ({report.mimic_reason})"
    elif report.features is not None:
        detail = "  " + _features_line(report.features)
        if report.note:
            detail += f"  ({report.note})"
    detail += _skipped_note(report.skipped_pages)
    prefix = f"{url}  " if with_url else ""
    return (f"{prefix}{report.probability_fake:.4f}  {report.verdict}"
            f"  [{report.path}]{detail}")


def _cmd_score(args: argparse.Namespace) -> int:
    model = load_model_file(args.model) if args.model else MODEL_II
    known_domains, lexicon = load_known_domains(args.known_domains), load_lexicon(args.lexicon)
    policy = _policy(args)
    if not args.batch:
        report = score_url(ScoreRequest(url=args.url, threshold=args.threshold, policy=policy),
                           model, known_domains, lexicon)
        _emit(args, dict(url=args.url, **_report_payload(report)),
              [_report_line(report, args.url, with_url=False)])
        return EXIT_WITHHOLD if report.verdict == "withhold" else EXIT_SHARE

    requests = [ScoreRequest(url=u, threshold=args.threshold, policy=policy)
                for u in read_lines(args.batch, EmptyDataError, "URLs")]
    outcomes = score_many(requests, model, known_domains, lexicon)

    worst = EXIT_SHARE
    payloads, lines = [], []
    for request, report, error in outcomes:
        if error is not None:
            worst = max(worst, EXIT_OPERATIONAL)
            payloads.append({"url": request.url, "error": str(error)})
            if args.output_mode != "json":
                print(f"error: {request.url}: {error}", file=sys.stderr)
            continue
        if report.verdict == "withhold":
            worst = max(worst, EXIT_WITHHOLD)
        payloads.append(dict(url=request.url, **_report_payload(report)))
        lines.append(_report_line(report, request.url, with_url=True))
    _emit(args, payloads, lines)
    return worst


def _cmd_extract(args: argparse.Namespace) -> int:
    lexicon = load_lexicon(args.lexicon)
    snapshot = fetch_site(args.url, _policy(args), lexicon)
    features = features_from_snapshot(snapshot, lexicon)
    payload = features.as_dict()
    if snapshot.skipped_pages:
        payload["skipped_pages"] = _skipped_payload(snapshot.skipped_pages)
    _emit(args, payload, [_features_line(features) + _skipped_note(snapshot.skipped_pages)])
    return EXIT_SHARE


def _cmd_screen(args: argparse.Namespace) -> int:
    known_domains = load_known_domains(args.known_domains)
    domain = normalize_domain(args.url)
    verdict = mimicry_check(domain, known_domains)
    if verdict.outcome == "Mimic":
        line = f"MIMIC of {verdict.matched_target} ({verdict.reason})"
    elif verdict.outcome == "Exact":
        line = f"EXACT (established source {verdict.matched_target})"
    else:
        line = "CLEAN"
    _emit(args, dict(domain=domain, **asdict(verdict)), [line])
    return EXIT_WITHHOLD if verdict.outcome == "Mimic" else EXIT_SHARE


def _train_payload(result: TrainResult) -> dict:
    model, confusion = result.fit.model, result.diagnostics.confusion
    diagnostics = asdict(result.diagnostics)
    diagnostics["confusion"].update(accuracy=confusion.accuracy,
                                    cell_shares_percent=list(confusion.cell_shares()))
    return {
        "model": {
            "intercept": model.intercept,
            "coefficients": dict(model.coefficients),
        },
        "iterations": result.fit.iterations,
        "wald": {name: asdict(test) for name, test in result.wald.items()},
        "slopes": result.slopes,
        "diagnostics": diagnostics,
        "model_path": str(result.model_path) if result.model_path else None,
    }


def _train_lines(result: TrainResult) -> list[str]:
    diagnostics = result.diagnostics
    lines = [f"{'':12s}  {'coefficient':>11s}  {'p-value':>8s}  {'slope':>8s}  {'VIF':>6s}"]
    for name, test in result.wald.items():
        slope = result.slopes.get(name)
        vif_value = diagnostics.vif.get(name)
        slope_s = f"{slope:8.4f}" if slope is not None else " " * 8
        vif_s = f"{vif_value:6.3f}" if vif_value is not None else " " * 6
        lines.append(f"{name:12s}  {test.estimate:11.4f}  {_format_p(test.p_value):>8s}  {slope_s}  {vif_s}")
    confusion = diagnostics.confusion
    shares = confusion.cell_shares()
    lines += [
        "",
        f"McFadden R-squared      {diagnostics.mcfadden:10.4f}",
        f"Adjusted R-squared      {diagnostics.mcfadden_adjusted:10.4f}",
        f"Akaike criterion        {diagnostics.aic:10.4f}",
        f"LR chi-square           {diagnostics.lr_statistic:10.3f} [{diagnostics.lr_p_value:.4f}]"
        f"  df={diagnostics.lr_df}",
        f"Observations            {confusion.n:10d}",
        f"Confusion (cutoff {confusion.cutoff:.2f}): "
        f"true-reliable {confusion.true_reliable} ({shares[0]}%), "
        f"false-fake {confusion.false_fake} ({shares[1]}%), "
        f"false-reliable {confusion.false_reliable} ({shares[2]}%), "
        f"true-fake {confusion.true_fake} ({shares[3]}%), "
        f"accuracy {confusion.accuracy:.4f}",
    ]
    if result.model_path:
        lines.append(f"model written to {result.model_path}")
    return lines


def _cmd_train(args: argparse.Namespace) -> int:
    result = train(
        args.dataset,
        features=args.features,
        model_out=args.model_out,
        slope_convention=args.slope_convention,
        cutoff=args.cutoff,
    )
    _emit(args, _train_payload(result), _train_lines(result))
    return EXIT_SHARE


def _analysis_payload(report: AnalysisReport, alpha: float) -> dict:
    return {
        "variables": list(report.variables),
        "alpha": alpha,
        "tetrachoric": [[{"rho": 1.0} if est is None else asdict(est) for est in row]
                        for row in report.correlations.estimates],
        "chi_square": [dict(pair=f"{a}-{b}", **asdict(res))
                       for a, b, res in report.chi_square_rows],
    }


def _analysis_lines(report: AnalysisReport, alpha: float) -> list[str]:
    variables = report.variables
    width = max(len(v) for v in variables) + 2
    lines = [f"Latent correlation matrix (* marks p < {alpha:g}; "
             f"^ marks a boundary estimate)",
             " " * width + "".join(f"{v:>{width}s}" for v in variables)]
    for i, row_name in enumerate(variables):
        cells = []
        for j in range(len(variables)):
            if j > i:
                cells.append(" " * width)
            elif i == j:
                cells.append(f"{'1':>{width}s}")
            else:
                est = report.correlations.estimates[i][j]
                mark = ("*" if est.p_value < alpha else "") + ("^" if est.boundary else "")
                cells.append(f"{est.rho:+.4f}{mark:s}".rjust(width))
        lines.append(f"{row_name:<{width}s}" + "".join(cells))
    lines += ["", "Chi-square independence tests (df=1)",
              f"{'pair':<24s}{'statistic':>12s}{'p-value':>10s}  expected>=5"]
    for a, b, res in report.chi_square_rows:
        flag = "yes" if res.expected_frequency_assumption_met else "no"
        lines.append(f"{a + '-' + b:<24s}{res.statistic:12.4f}{_format_p(res.p_value):>10s}  {flag}")
    return lines


def _cmd_analyze(args: argparse.Namespace) -> int:
    require_open_unit("alpha", args.alpha)
    report = analyze(args.dataset, yates=args.yates)
    _emit(args, _analysis_payload(report, args.alpha), _analysis_lines(report, args.alpha))
    return EXIT_SHARE


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sourcescope",
        description="Score how likely a news website is a fake-news source.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output-mode", choices=("table", "json"), default="table",
                        dest="output_mode", help="stdout format (default table)")
    output.add_argument("--report-json", dest="report_json",
                        help="also write the report as JSON to this path")
    fetching = argparse.ArgumentParser(add_help=False)
    fetching.add_argument("--lexicon", default=DATA / "lexicon.json",
                          help="path to a lexicon JSON file (default: the builtin one)")
    fetching.add_argument("--offline-root", dest="offline_root",
                          help="fixture directory; no sockets are opened when set")
    fetching.add_argument("--timeout", type=float, default=10.0,
                          help="per-request timeout in seconds (default 10)")
    screening = argparse.ArgumentParser(add_help=False)
    screening.add_argument("--known-domains", dest="known_domains",
                           default=DATA / "known_domains.txt",
                           help="path to a known-domains list (default: the builtin one)")

    p_score = sub.add_parser("score", parents=[output, fetching, screening],
                             help="screen, extract and score one URL (or a batch)")
    p_score.add_argument("url", nargs="?", help="website URL")
    p_score.add_argument("--batch", help="file with one URL per line")
    p_score.add_argument("--model", help="path to a model JSON document (default: builtin)")
    p_score.add_argument("--threshold", type=float, default=0.5,
                         help="tolerance threshold T; share iff probability <= T (default 0.5)")
    p_score.set_defaults(func=_cmd_score)

    p_extract = sub.add_parser("extract", parents=[output, fetching],
                               help="print the five binary features of a URL")
    p_extract.add_argument("url")
    p_extract.set_defaults(func=_cmd_extract)

    p_screen = sub.add_parser("screen", parents=[output, screening],
                              help="run only the domain-mimicry screening")
    p_screen.add_argument("url")
    p_screen.set_defaults(func=_cmd_screen)

    # no abbreviations: a script's old ``--model PATH`` must not become ``--model-out PATH``
    p_train = sub.add_parser("train", parents=[output], allow_abbrev=False,
                             help="fit a model on a labeled CSV and report diagnostics")
    p_train.add_argument("dataset", help="CSV with header label,padlock,contact,telephone,about,terms[,url]")
    p_train.add_argument("--features", default="model2",
                         help="'model1', 'model2' or a comma-separated feature list (default model2)")
    p_train.add_argument("--model-out", dest="model_out", default="model.json",
                         help="where to write the fitted model document (default model.json)")
    p_train.add_argument("--slope-convention", choices=("at-means", "average"),
                         default="at-means", dest="slope_convention")
    p_train.add_argument("--cutoff", type=float, default=0.5,
                         help="classification cutoff for the confusion matrix (default 0.5)")
    p_train.set_defaults(func=_cmd_train)

    p_analyze = sub.add_parser("analyze", parents=[output],
                               help="association analysis of a labeled CSV")
    p_analyze.add_argument("dataset")
    p_analyze.add_argument("--alpha", type=float, default=0.0001,
                           help="significance level for stars (default 0.0001)")
    p_analyze.add_argument("--yates", action="store_true",
                           help="apply the continuity correction to chi-square tests")
    p_analyze.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "score" and not args.url and not args.batch:
        parser.error("score needs a URL or --batch FILE")
    if args.command == "score" and args.url and args.batch:
        parser.error("score takes a URL or --batch FILE, not both")
    try:
        return args.func(args)
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (SourceScopeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL


if __name__ == "__main__":
    sys.exit(main())
