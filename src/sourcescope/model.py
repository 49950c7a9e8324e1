"""Logit reliability model: scoring, maximum-likelihood fitting, slopes.

The model maps the five binary site features to the probability that the
site is a fake-news source.  Fitting is plain Newton/IRLS on the binomial
log-likelihood with explicit rank, separation and convergence checks; no
regularization is applied, so the estimate is the exact MLE.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    ConvergenceError,
    EmptyDataError,
    ModelDocumentError,
    NonFiniteValueError,
    SeparationError,
    SingularDesignError,
    UnknownFeatureError,
)
from .files import naming, read_json_object

__all__ = [
    "FEATURE_NAMES",
    "FeatureVector",
    "LogitModel",
    "LabeledDataset",
    "CELL_INDEX",
    "FitOptions",
    "FitResult",
    "MODEL_I",
    "MODEL_II",
    "FEATURE_SUBSETS",
    "predict_probability",
    "log_likelihood",
    "fit_logit",
    "marginal_effects",
    "save_model",
    "load_model",
    "save_model_file",
    "load_model_file",
]

FEATURE_NAMES = ("padlock", "contact", "telephone", "about", "terms")

_DOCUMENT_KEYS = {"version", "intercept", "coefficients", "metadata"}
_DOCUMENT_VERSION = "1"


@dataclass(frozen=True)
class FeatureVector:
    """The five 0/1 predictors for one website."""

    padlock: int
    contact: int
    telephone: int
    about: int
    terms: int
    source_url: Optional[str] = None

    def __post_init__(self):
        for name in FEATURE_NAMES:
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"feature {name!r} must be 0 or 1")

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in FEATURE_NAMES}


def sigmoid(z: float) -> float:
    """Numerically stable logistic; never exponentiates a large positive."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


@dataclass(frozen=True)
class LogitModel:
    """Intercept plus named coefficients over a subset of the five features."""

    intercept: float
    coefficients: Mapping[str, float]
    metadata: Optional[str] = None

    def __post_init__(self):
        def number(value, what: str) -> float:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ModelDocumentError(f"{what} must be a number")
            try:
                if math.isfinite(value):
                    return float(value)
            except OverflowError:       # an int past the float range
                pass
            raise NonFiniteValueError(f"{what} is not finite")

        object.__setattr__(self, "intercept", number(self.intercept, "intercept"))
        coeffs = {name: number(value, f"coefficient {name!r}")
                  for name, value in dict(self.coefficients).items()}
        if not coeffs:
            raise ModelDocumentError("model needs at least one feature coefficient")
        for name in coeffs:
            if name not in FEATURE_NAMES:
                raise UnknownFeatureError(
                    f"unknown feature {name!r}; expected a subset of {FEATURE_NAMES}")
        # canonical feature order, regardless of input order
        object.__setattr__(self, "coefficients", MappingProxyType(
            {name: coeffs[name] for name in FEATURE_NAMES if name in coeffs}))

    @property
    def features(self) -> tuple[str, ...]:
        return tuple(self.coefficients)


# Reference coefficient sets shipped with the package.  model2 (four
# predictors) is the default scorer; model1 keeps all five for comparison.
MODEL_II = LogitModel(
    intercept=3.8405,
    coefficients={"padlock": -2.3141, "contact": -1.1682,
                  "telephone": -1.7179, "terms": -1.4569},
    metadata="builtin model2 (default): four-predictor reference fit",
)
MODEL_I = LogitModel(
    intercept=3.7723,
    coefficients={"padlock": -2.3133, "contact": -1.3385, "telephone": -1.7285,
                  "about": 0.3744, "terms": -1.5144},
    metadata="builtin model1: five-predictor reference fit",
)
FEATURE_SUBSETS = MappingProxyType({"model1": MODEL_I.features, "model2": MODEL_II.features})


# Count-table cell index: the label is the high bit, then the five features
# in FEATURE_NAMES order, padlock first.
_FEATURE_CELLS = 1 << len(FEATURE_NAMES)
_CELLS = 2 * _FEATURE_CELLS
# Each cell's exact CSV spelling, ("0"|"1", ...) label first, to its index.
CELL_INDEX: Mapping[tuple[str, ...], int] = MappingProxyType(
    {tuple(format(index, f"0{len(FEATURE_NAMES) + 1}b")): index for index in range(_CELLS)})


@dataclass(frozen=True, init=False)
class LabeledDataset:
    """(features, label) rows, label 1 meaning fake, folded into their 64-cell
    count table as they are read, so memory does not grow with the row count.
    """

    counts: tuple[int, ...]

    def __init__(self, rows: Iterable[tuple[FeatureVector, int]]):
        counts = [0] * _CELLS
        for i, (features, label) in enumerate(rows):
            if label not in (0, 1):
                raise ValueError(f"row {i}: label must be 0 or 1, got {label!r}")
            if not isinstance(features, FeatureVector):
                raise TypeError(f"row {i}: expected FeatureVector")
            index = label
            for name in FEATURE_NAMES:
                index = 2 * index + getattr(features, name)
            counts[int(index)] += 1
        self._init_counts(counts)

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> LabeledDataset:
        """The dataset of a finished count table, cells indexed as in :data:`CELL_INDEX`."""
        data = cls.__new__(cls)
        data._init_counts(counts)
        return data

    def _init_counts(self, counts: Sequence[int]) -> None:
        counts = tuple(counts)
        if len(counts) != _CELLS:
            raise ValueError(f"count table needs {_CELLS} cells, got {len(counts)}")
        for index, count in enumerate(counts):
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise ValueError(f"cell {index}: count must be a non-negative int, got {count!r}")
        if not any(counts):
            raise EmptyDataError("dataset is empty")
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return sum(self.counts)

    def cells(self, features: Sequence[str]) -> list[tuple[tuple[int, ...], int, int]]:
        """``(bits of features, label, count)`` for every occupied cell, in table order."""
        for name in features:
            if name not in FEATURE_NAMES:
                raise ValueError(f"unknown feature {name!r}")
        shifts = [len(FEATURE_NAMES) - 1 - FEATURE_NAMES.index(name) for name in features]
        return [(tuple(index >> shift & 1 for shift in shifts), index // _FEATURE_CELLS, count)
                for index, count in enumerate(self.counts) if count]

    def labels(self) -> list[int]:
        """Per-row labels, rows expanded from the table in table order."""
        return [label for _, label, count in self.cells(()) for _ in range(count)]

    def feature_matrix(self, features: Sequence[str]) -> list[tuple[int, ...]]:
        """Per-row feature bits, in the row order of :meth:`labels`."""
        return [bits for bits, _, count in self.cells(features) for _ in range(count)]

    def class_counts(self) -> tuple[int, int]:
        """(n fake, n reliable)."""
        ones = sum(self.counts[_FEATURE_CELLS:])
        return ones, len(self) - ones


def cell_design(data: LabeledDataset, features: Sequence[str]) -> list:
    """The occupied cells as a weighted design: ``((1, *bits), label, count)`` each."""
    return [((1, *bits), label, count) for bits, label, count in data.cells(features)]


def dot(x: Sequence[float], beta: Sequence[float]) -> float:
    return sum(map(operator.mul, x, beta))


def gram(cells: list, weights: Sequence[float]) -> list[list]:
    """``sum(w * x x')`` over the 0/1 cells, one weight each; integer weights
    give an integer matrix."""
    k = range(len(cells[0][0]))
    return [[sum(w for (x, _, _), w in zip(cells, weights) if x[i] and x[j]) for j in k] for i in k]


def scatter(cells: list) -> list[list[Fraction]]:
    """Count-weighted scatter of the features about their means, times the row
    count: the Schur complement of the intercept in the count Gram matrix, an
    integer matrix, held as Fractions so :func:`invert` is exact on it.  It is
    singular iff the design with intercept is rank deficient."""
    g = gram(cells, [n for _, _, n in cells])
    k = range(1, len(g))
    return [[Fraction(g[0][0] * g[i][j] - g[0][i] * g[0][j]) for j in k] for i in k]


def invert(matrix: Sequence[Sequence]) -> Optional[list[list]]:
    """Gauss-Jordan inverse with partial pivoting; None on an exactly zero pivot,
    which on Fraction entries means the matrix is singular."""
    k = len(matrix)
    rows = [[*row, *(int(i == j) for j in range(k))] for i, row in enumerate(matrix)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(rows[r][col]))
        if rows[pivot][col] == 0:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col] = [v / rows[col][col] for v in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                rows[r] = [v - row[col] * u for v, u in zip(row, lead)]
    return [row[k:] for row in rows]


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 100
    tolerance: float = 1e-8           # on the max absolute score component

    def __post_init__(self):
        for name in ("max_iterations", "tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"FitOptions.{name} must be strictly positive")


@dataclass(frozen=True)
class FitResult:
    model: LogitModel
    log_likelihood: float
    iterations: int


_SEPARATION_BOUND = 30.0    # |beta| beyond this flags separation
_P_FLOOR = math.nextafter(0.0, 1.0)
_P_CEIL = math.nextafter(1.0, 0.0)


def predict_probability(model: LogitModel, x: FeatureVector) -> float:
    """Probability the site is a fake-news source under the logit model."""
    beta = [model.intercept, *model.coefficients.values()]
    return clamped_sigmoid(dot((1, *(getattr(x, name) for name in model.features)), beta))


def clamped_sigmoid(z: float) -> float:
    """:func:`sigmoid` clamped to the open interval: extreme linear predictors
    round to the nearest representable value inside (0, 1), not 0 or 1 exactly."""
    return min(max(sigmoid(z), _P_FLOOR), _P_CEIL)


def _log_likelihood(cells: list, beta: Sequence[float]) -> float:
    # count-weighted y*ln p + (1-y)*ln(1-p) = -n*softplus((1-2y)*z), never forming p
    terms = ((n, (1 - 2 * y) * dot(x, beta)) for x, y, n in cells)
    return -sum(n * (max(z, 0.0) + math.log1p(math.exp(-abs(z)))) for n, z in terms)


def log_likelihood(model: LogitModel, data: LabeledDataset) -> float:
    """Binomial log-likelihood of the dataset under the model."""
    beta = [model.intercept, *model.coefficients.values()]
    return _log_likelihood(cell_design(data, model.features), beta)


def fit_logit(data: LabeledDataset, features: Sequence[str],
              opts: Optional[FitOptions] = None) -> FitResult:
    """Maximum-likelihood logit fit via Newton steps on the score.

    Converged when every score component is below ``opts.tolerance``.
    Raises ``SingularDesignError`` for rank-deficient designs,
    ``SeparationError`` when a coefficient diverges, ``ConvergenceError``
    when the iteration budget runs out.
    """
    features = tuple(features)
    if not features:
        raise ValueError("need at least one feature; see null_log_likelihood for the null fit")
    opts = opts or FitOptions()
    cells = cell_design(data, features)
    if invert(scatter(cells)) is None:
        raise SingularDesignError(
            f"design matrix is rank deficient over features {features}")

    beta = [0.0] * (1 + len(features))
    lnl = _log_likelihood(cells, beta)
    for iteration in range(opts.max_iterations):
        p = [sigmoid(dot(x, beta)) for x, _, _ in cells]
        residuals = [n * (y - pi) for (_, y, n), pi in zip(cells, p)]
        score = [dot(column, residuals) for column in zip(*(x for x, _, _ in cells))]
        if max(map(abs, score)) < opts.tolerance:
            model = LogitModel(intercept=beta[0], coefficients=dict(zip(features, beta[1:])))
            return FitResult(model, lnl, iteration)

        inverse = invert(gram(cells, [n * pi * (1.0 - pi) for (_, _, n), pi in zip(cells, p)]))
        if inverse is None:
            raise SingularDesignError("weighted normal equations are singular (degenerate fit)")
        step = [dot(row, score) for row in inverse]

        # halve the step, at most 20 times, while lnL falls; a fall within rounding
        # of lnL is no fall, or a converged fit would stall, and NaN stops at once
        for _ in range(21):
            new_beta = [b + s for b, s in zip(beta, step)]
            new_lnl = _log_likelihood(cells, new_beta)
            if not new_lnl < lnl - 1e-12 * abs(lnl):
                break
            step = [0.5 * s for s in step]
        beta, lnl = new_beta, new_lnl

        if max(map(abs, beta)) > _SEPARATION_BOUND:
            raise SeparationError(
                f"separation detected: |coefficient| exceeded {_SEPARATION_BOUND}")

    raise ConvergenceError(f"no convergence after {opts.max_iterations} iterations")


def marginal_effects(model: LogitModel, data: LabeledDataset,
                     convention: str = "at-means") -> dict[str, float]:
    """Discrete probability change from flipping each dummy 0 -> 1.

    ``at-means`` holds the other features at their sample means;
    ``average`` averages the per-row discrete difference.
    """
    if convention not in ("at-means", "average"):
        raise ValueError(f"convention must be 'at-means' or 'average', got {convention!r}")
    cells = cell_design(data, model.features)
    beta = [model.intercept, *model.coefficients.values()]
    total = len(data)
    if convention == "at-means":
        # the first row of the count Gram matrix holds the column totals
        rows = [([v / total for v in gram(cells, [n for _, _, n in cells])[0]], 1.0)]
    else:
        rows = [(x, n / total) for x, _, n in cells]
    slopes: dict[str, float] = {}
    for j, name in enumerate(model.features, start=1):
        slopes[name] = sum(
            weight * (sigmoid(dot((*x[:j], 1.0, *x[j + 1:]), beta))
                      - sigmoid(dot((*x[:j], 0.0, *x[j + 1:]), beta)))
            for x, weight in rows)
    return slopes


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def save_model(model: LogitModel) -> dict:
    """Model as a plain JSON-able document."""
    return {
        "version": _DOCUMENT_VERSION,
        "intercept": model.intercept,
        "coefficients": dict(model.coefficients),
        "metadata": model.metadata,
    }


def load_model(document: Mapping) -> LogitModel:
    """Rebuild a model from a document, rejecting anything off-schema."""
    if not isinstance(document, Mapping):
        raise ModelDocumentError("model document must be a JSON object")
    unknown = set(document) - _DOCUMENT_KEYS
    if unknown:
        raise ModelDocumentError(f"unknown document fields: {sorted(unknown)}")
    for required in ("intercept", "coefficients"):
        if required not in document:
            raise ModelDocumentError(f"document lacks {required!r}")
    coefficients = document["coefficients"]
    if not isinstance(coefficients, Mapping):
        raise ModelDocumentError("'coefficients' must be an object")
    version = document.get("version", _DOCUMENT_VERSION)
    if str(version) != _DOCUMENT_VERSION:
        raise ModelDocumentError(f"unsupported document version {version!r}")
    metadata = document.get("metadata")
    if metadata is not None and not isinstance(metadata, str):
        raise ModelDocumentError("'metadata' must be a string or null")
    return LogitModel(intercept=document["intercept"], coefficients=coefficients, metadata=metadata)


def load_model_file(path: str | Path) -> LogitModel:
    return naming(path, ModelDocumentError, load_model, read_json_object(path, ModelDocumentError))


def save_model_file(model: LogitModel, path: str | Path) -> None:
    """Write atomically: the target appears complete or not at all."""
    path = Path(path)
    document = save_model(model)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
