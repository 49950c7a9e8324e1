"""End-to-end orchestration: screen, extract, score; ingest, train, analyze.

The scoring flow short-circuits domains that imitate known outlets to
probability 1 without any fetching; everything else goes through feature
extraction and the logit model, and the share/withhold verdict compares
the scored probability against the caller's tolerance threshold.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .diagnostics import FitDiagnostics, diagnose_fit, wald_tests, WaldTest
from .errors import (
    DatasetError,
    DuplicateHeaderError,
    EmptyDataError,
    EmptyFileError,
    MissingColumnError,
    NonBinaryCellError,
    NotUtf8Error,
)
from .features import (
    FeatureVector,
    FetchPolicy,
    KeywordLexicon,
    default_lexicon,
    extract_features,
)
from .model import (
    CELL_INDEX,
    FEATURE_SUBSETS,
    FitOptions,
    FitResult,
    LabeledDataset,
    LogitModel,
    fit_logit,
    marginal_effects,
    predict_probability,
    save_model_file,
)
from .screener import KnownDomainDB, mimicry_check, normalize_domain
from .stats import VARIABLES, ChiSquareResult, TetrachoricMatrix, chi_square_test, crosstab, tetrachoric_matrix

__all__ = [
    "ScoreRequest",
    "ScoreReport",
    "TrainResult",
    "AnalysisReport",
    "score_url",
    "score_many",
    "load_dataset",
    "train",
    "analyze",
    "DATASET_COLUMNS",
]

DATASET_COLUMNS = VARIABLES
_SPELLING_WIDTH = len(DATASET_COLUMNS)   # the cells before the optional url column
_BATCH_WORKERS = 8


@dataclass(frozen=True)
class ScoreRequest:
    """One URL to score against a tolerance threshold."""

    url: str
    threshold: float = 0.5
    policy: FetchPolicy = FetchPolicy()

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold!r}")


@dataclass(frozen=True)
class ScoreReport:
    """Scored probability plus the decision path that produced it."""

    probability_fake: float
    path: str                          # "mimicry-screen" | "logit-model"
    verdict: str                       # "share" | "withhold"
    mimic_target: Optional[str] = None
    mimic_reason: Optional[str] = None
    features: Optional[FeatureVector] = None
    note: Optional[str] = None

    def __post_init__(self):
        if self.path not in ("mimicry-screen", "logit-model"):
            raise ValueError(f"invalid path {self.path!r}")
        if self.verdict not in ("share", "withhold"):
            raise ValueError(f"invalid verdict {self.verdict!r}")
        if self.path == "mimicry-screen":
            if self.probability_fake != 1.0 or self.mimic_target is None or self.features is not None:
                raise ValueError("mimicry-screen reports carry probability 1, a target, no features")
        else:
            if self.features is None:
                raise ValueError("logit-model reports carry the extracted features")


def score_url(request: ScoreRequest, model: LogitModel, db: KnownDomainDB,
              lexicon: Optional[KeywordLexicon] = None) -> ScoreReport:
    """Run the full recognition flow for one URL.

    Imitation hits withhold unconditionally (the screen is a hard verdict);
    on the model path the verdict is share iff probability <= threshold.
    An exact database hit is annotated but still scored by the model.
    """
    lexicon = lexicon or default_lexicon()
    domain = normalize_domain(request.url)
    verdict = mimicry_check(domain, db)
    if verdict.outcome == "Mimic":
        return ScoreReport(
            probability_fake=1.0,
            path="mimicry-screen",
            verdict="withhold",
            mimic_target=verdict.matched_target,
            mimic_reason=verdict.reason,
        )

    features = extract_features(request.url, request.policy, lexicon)
    probability = predict_probability(model, features)
    note = None
    if verdict.outcome == "Exact":
        note = f"recognized established domain {verdict.matched_target}"
    return ScoreReport(
        probability_fake=probability,
        path="logit-model",
        verdict="share" if probability <= request.threshold else "withhold",
        features=features,
        note=note,
    )


def score_many(requests: Sequence[ScoreRequest], model: LogitModel, db: KnownDomainDB,
               lexicon: Optional[KeywordLexicon] = None) -> list[tuple[ScoreRequest, Optional[ScoreReport], Optional[Exception]]]:
    """Score a batch concurrently; results keep the input order."""
    lexicon = lexicon or default_lexicon()

    def run(request: ScoreRequest):
        try:
            return request, score_url(request, model, db, lexicon), None
        except Exception as exc:
            return request, None, exc

    if len(requests) <= 1:
        return [run(r) for r in requests]
    with ThreadPoolExecutor(max_workers=_BATCH_WORKERS) as pool:
        return list(pool.map(run, requests))


# --------------------------------------------------------------------------
# dataset ingestion
# --------------------------------------------------------------------------

def load_dataset(path: str | Path) -> LabeledDataset:
    """Read the labeled CSV (header: label,padlock,contact,telephone,about,terms[,url]).

    The file is UTF-8, with or without a byte-order mark.  Rows are counted
    straight into the 64-cell table; the ``url`` column is validated as a
    column but its values are neither checked nor kept.
    """
    path = Path(path)
    with path.open(encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyFileError(f"{path}: file is empty")
            header = [cell.strip() for cell in header]
            _validate_header(header, path)
            counts = _count_rows(reader, len(header), path)
        except UnicodeDecodeError as exc:
            raise NotUtf8Error(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None
        except csv.Error as exc:
            raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None
    try:
        return LabeledDataset.from_counts(counts, provenance=str(path))
    except EmptyDataError:
        raise EmptyFileError(f"{path}: no data rows") from None


def _count_rows(reader, width: int, path: Path) -> list[int]:
    """The CSV body's 64-cell count table.

    A row spelled exactly as one of the cells is counted by one lookup;
    any other row goes through :func:`_checked_cell`.
    """
    counts = [0] * len(CELL_INDEX)
    lookup = CELL_INDEX.get
    for row in reader:
        cell = lookup(tuple(row[:_SPELLING_WIDTH])) if len(row) == width else None
        if cell is None:
            cell = _checked_cell(row, width, path, reader.line_num)
            if cell is None:
                continue
        counts[cell] += 1
    return counts


def _checked_cell(row: list[str], width: int, path: Path, line_no: int) -> Optional[int]:
    """Cell index of a row after stripping its cells; None for a blank row."""
    if not row or all(not cell.strip() for cell in row):
        return None
    if len(row) != width:
        raise NonBinaryCellError(
            f"{path}:{line_no}: expected {width} cells, found {len(row)}")
    cells = tuple(cell.strip() for cell in row[:_SPELLING_WIDTH])
    for name, cell in zip(DATASET_COLUMNS, cells):
        if cell not in ("0", "1"):
            raise NonBinaryCellError(
                f"{path}:{line_no}: column {name!r} has non-binary value {cell!r}")
    return CELL_INDEX[cells]


def _validate_header(header: list[str], path: Path) -> None:
    normalized = [cell.casefold() for cell in header]
    duplicates = {name for name in normalized if normalized.count(name) > 1}
    if duplicates:
        raise DuplicateHeaderError(f"{path}: duplicated column(s) {sorted(duplicates)}")
    expected = list(DATASET_COLUMNS)
    if normalized not in (expected, expected + ["url"]):
        missing = [name for name in expected if name not in normalized]
        if missing:
            raise MissingColumnError(f"{path}: header lacks column(s) {missing}")
        raise MissingColumnError(
            f"{path}: header must be exactly {','.join(expected)}[,url]; got {','.join(header)}")


# --------------------------------------------------------------------------
# training and analysis runs
# --------------------------------------------------------------------------

def resolve_features(spec: str | Sequence[str]) -> tuple[str, ...]:
    """Map 'model1'/'model2' or an explicit name list to a feature tuple."""
    if isinstance(spec, str):
        key = spec.strip().casefold()
        if key in FEATURE_SUBSETS:
            return tuple(FEATURE_SUBSETS[key])
        spec = [part.strip() for part in spec.split(",") if part.strip()]
    return tuple(spec)


@dataclass(frozen=True)
class TrainResult:
    fit: FitResult
    diagnostics: FitDiagnostics
    slopes: dict[str, float]
    wald: dict[str, WaldTest]
    model_path: Optional[Path] = None


def train(dataset_path: str | Path, features: str | Sequence[str] = "model2",
          opts: Optional[FitOptions] = None,
          model_out: Optional[str | Path] = None,
          slope_convention: str = "at-means",
          cutoff: float = 0.5) -> TrainResult:
    """Fit a model on a CSV dataset and assemble the full report.

    The model document is written atomically; on any failure no partial
    file is left behind.
    """
    data = load_dataset(dataset_path)
    names = resolve_features(features)
    fit = fit_logit(data, names, opts)
    diagnostics = diagnose_fit(fit, data, cutoff)
    slopes = marginal_effects(fit.model, data, slope_convention)
    wald = wald_tests(fit.model, data)
    model_path = None
    if model_out is not None:
        model_path = Path(model_out)
        save_model_file(fit.model, model_path)
    return TrainResult(fit=fit, diagnostics=diagnostics, slopes=slopes,
                       wald=wald, model_path=model_path)


@dataclass(frozen=True)
class AnalysisReport:
    """Pre-model association analysis of a labeled dataset."""

    variables: tuple[str, ...]
    correlations: TetrachoricMatrix
    chi_square_rows: tuple[tuple[str, str, ChiSquareResult], ...]
    alpha: float


def analyze(dataset_path: str | Path, alpha: float = 0.0001,
            yates: bool = False) -> AnalysisReport:
    """Tetrachoric matrix over all six variables plus label-vs-feature
    chi-square tests, mirroring the pre-model analysis layout."""
    data = load_dataset(dataset_path)
    correlations = tetrachoric_matrix(data)
    rows = []
    for feature in DATASET_COLUMNS[1:]:
        rows.append(("label", feature,
                     chi_square_test(crosstab(data, "label", feature), yates=yates)))
    return AnalysisReport(
        variables=tuple(DATASET_COLUMNS),
        correlations=correlations,
        chi_square_rows=tuple(rows),
        alpha=alpha,
    )
