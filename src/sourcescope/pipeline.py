"""End-to-end orchestration: screen, extract, score; ingest, train, analyze.

The scoring flow short-circuits domains that imitate known outlets to
probability 1 without any fetching; everything else goes through feature
extraction and the logit model, and the share/withhold verdict compares
the scored probability against the caller's tolerance threshold.
"""

from __future__ import annotations

import csv
import sys
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Optional, Sequence

from .diagnostics import FitDiagnostics, diagnose_fit, require_open_unit, wald_tests, WaldTest
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
    features_from_snapshot,
    fetch_site,
)
from .features.snapshot import call_each
from .files import not_utf8
from .model import (
    CELL_INDEX,
    FEATURE_SUBSETS,
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
# a plain row's spelling "d,d,d,d,d,d" and its cell; a url row's key adds the comma after it
_SPELLINGS = MappingProxyType({",".join(key): cell for key, cell in CELL_INDEX.items()})
_SPELLING_CHARS = 2 * _SPELLING_WIDTH - 1
_PREFIX_OF = itemgetter(slice(0, _SPELLING_CHARS + 1))
_BLOCK_CHARS = 16_384     # plain-file read size; larger blocks cost memory and gain no speed
# the csv module's default field limit: a longer url goes to csv.reader even where the limit
# is raised, so carrying a partial line from block to block stays linear in the line's length
_LONGEST_CELL = 131_072
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
    # (url, reason) of each candidate page the fetch had to leave out
    skipped_pages: tuple[tuple[str, str], ...] = ()


def score_url(request: ScoreRequest, model: LogitModel, db: KnownDomainDB,
              lexicon: Optional[KeywordLexicon] = None) -> ScoreReport:
    """Run the full recognition flow for one URL.

    Imitation hits withhold unconditionally (the screen is a hard verdict);
    on the model path the verdict is share iff probability <= threshold.
    An exact database hit is annotated but still scored by the model.
    """
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

    snapshot = fetch_site(request.url, request.policy, lexicon)
    features = features_from_snapshot(snapshot, lexicon)
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
        skipped_pages=snapshot.skipped_pages,
    )


def score_many(requests: Sequence[ScoreRequest], model: LogitModel, db: KnownDomainDB,
               lexicon: Optional[KeywordLexicon] = None) -> list[tuple[ScoreRequest, Optional[ScoreReport], Optional[Exception]]]:
    """Score a batch in input order: on threads only when a request is live."""
    live = any(request.policy.offline_root is None for request in requests)
    results = call_each(lambda request: score_url(request, model, db, lexicon), requests,
                        _BATCH_WORKERS if live else None)
    return [(request, None, result) if isinstance(result, Exception) else (request, result, None)
            for request, result in zip(requests, results)]


# --------------------------------------------------------------------------
# dataset ingestion
# --------------------------------------------------------------------------

def load_dataset(path: str | Path) -> LabeledDataset:
    """Read the labeled CSV (header: label,padlock,contact,telephone,about,terms[,url]).

    The file is UTF-8, with or without a byte-order mark.  Rows are counted
    straight into the 64-cell table; the ``url`` column is validated as a
    column but its values are neither checked nor kept.  A plain file is
    counted from its text (:func:`_count_plain`); every other file, and every
    error, goes through the csv module.
    """
    path = Path(path)
    counts = _count_plain(path)
    if counts is None:
        counts = _count_csv(path)
    try:
        return LabeledDataset.from_counts(counts)
    except EmptyDataError:
        raise EmptyFileError(f"{path}: no data rows") from None


def _count_plain(path: Path) -> Optional[list[int]]:
    """The count table of a plain file, read in blocks of text; None for any
    other file.

    A file is plain when its header is the dataset header (cells padded or in
    any case) and it holds no quote, carriage return or NUL: each line is then
    one CSV row, so a row is counted by its leading ``d,d,d,d,d,d`` spelling,
    and one comma count over the body checks every row's width.  Any other
    line, a line longer than a row whose ``url`` cell is at the csv module's
    field limit (or at ``_LONGEST_CELL``), text that is not UTF-8 or a body
    without rows returns None, and the csv path then counts the file or
    raises its error.
    """
    longest = min(csv.field_size_limit(), _LONGEST_CELL) + _SPELLING_CHARS + 1   # spelling, comma, url
    counts = [0] * len(CELL_INDEX)
    rows = commas = 0
    try:
        with path.open(encoding="utf-8-sig", newline="") as handle:
            header = handle.readline(longest)      # within this, no header cell is past the limit
            names = [cell.strip().casefold() for cell in header.split(",")]
            if (not header.endswith("\n") or not _plain(header)
                    or names not in (list(DATASET_COLUMNS), [*DATASET_COLUMNS, "url"])):
                return None
            after = "," * (len(names) - _SPELLING_WIDTH)     # what follows a row's spelling in its key
            carry = ""
            while True:
                block = handle.read(_BLOCK_CHARS)
                text = carry + block
                cut = text.rfind("\n") + 1 if block else len(text)
                text, carry = text[:cut], text[cut:]
                if not _plain(text) or len(carry) > longest:
                    return None
                lines = text.split("\n")
                if len(text) > longest and max(map(len, lines)) > longest:
                    return None
                for key, n in Counter(map(_PREFIX_OF, lines) if after else lines).items():
                    if not key:         # an empty line, skipped by the csv path too
                        continue
                    cell = _SPELLINGS.get(key[:_SPELLING_CHARS])
                    if cell is None or key[_SPELLING_CHARS:] != after:
                        return None
                    counts[cell] += n
                    rows += n
                commas += text.count(",")
                if not block:
                    break
    except UnicodeDecodeError:
        return None
    if not rows or commas != rows * (len(names) - 1):
        return None
    return counts


def _plain(text: str) -> bool:
    """Whether ``text`` has none of the characters that make a line more or
    less than one CSV row, or that the csv module may reject."""
    return not ('"' in text or "\r" in text or "\0" in text)


def _count_csv(path: Path) -> list[int]:
    """The count table read through ``csv.reader``, whose errors name the line."""
    with path.open(encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(_bounded_lines(handle, path))
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyFileError(f"{path}: file is empty")
            header = [cell.strip() for cell in header]
            _validate_header(header, path)
            return _count_rows(reader, len(header), path)
        except UnicodeDecodeError as exc:
            raise NotUtf8Error(not_utf8(path, exc)) from None
        except csv.Error as exc:
            raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None


def _bounded_lines(handle, path: Path) -> Iterator[str]:
    """The physical lines of ``handle``, none read past the longest a row can
    be: each of at most seven cells at the csv module's field limit, quoted
    with every character doubled, then a comma or a line break.  A longer
    line is an error before it is held in memory whole."""
    # readline takes a C ssize_t; a limit raised to sys.maxsize must still read
    longest = min((_SPELLING_WIDTH + 1) * (2 * csv.field_size_limit() + 4), sys.maxsize - 1)
    line_no = 0
    while line := handle.readline(longest + 1):
        line_no += 1
        if len(line) > longest:
            raise DatasetError(f"{path}:{line_no}: line longer than {longest} characters, "
                               "more than any row within the csv field limit")
        yield line


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
    """Map 'model1'/'model2' or an explicit name list to a feature tuple; a
    list that names no feature, or one feature twice, is refused."""
    names = spec
    if isinstance(spec, str):
        key = spec.strip().casefold()
        if key in FEATURE_SUBSETS:
            return tuple(FEATURE_SUBSETS[key])
        names = [part.strip() for part in spec.split(",") if part.strip()]
    if not names or len(set(names)) < len(names):
        raise ValueError(f"feature list {spec!r} must name at least one feature, each once")
    return tuple(names)


@dataclass(frozen=True)
class TrainResult:
    fit: FitResult
    diagnostics: FitDiagnostics
    slopes: dict[str, float]
    wald: dict[str, WaldTest]


def train(dataset_path: str | Path, features: str | Sequence[str] = "model2",
          model_out: Optional[str | Path] = None,
          slope_convention: str = "at-means",
          cutoff: float = 0.5) -> TrainResult:
    """Fit a model on a CSV dataset and assemble the full report.

    With ``model_out`` given, the model document is written there atomically;
    on any failure no partial file is left behind.
    """
    names = resolve_features(features)
    require_open_unit("cutoff", cutoff)
    data = load_dataset(dataset_path)
    fit = fit_logit(data, names)
    diagnostics = diagnose_fit(fit, data, cutoff)
    slopes = marginal_effects(fit.model, data, slope_convention)
    wald = wald_tests(fit.model, data)
    if model_out is not None:
        save_model_file(fit.model, model_out)
    return TrainResult(fit=fit, diagnostics=diagnostics, slopes=slopes, wald=wald)


@dataclass(frozen=True)
class AnalysisReport:
    """Pre-model association analysis of a labeled dataset."""

    variables: tuple[str, ...]
    correlations: TetrachoricMatrix
    chi_square_rows: tuple[tuple[str, str, ChiSquareResult], ...]


def analyze(dataset_path: str | Path, yates: bool = False) -> AnalysisReport:
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
    )
