"""Fit-quality statistics: pseudo R-squared, AIC, LR test, VIF, confusion.

Conventions used throughout (and verified by the acceptance suite):

  * the parameter count k includes the intercept;
  * adjusted pseudo R-squared is 1 - (lnL - k)/lnL0;
  * classification is fake iff predicted probability strictly exceeds the
    cutoff, so a constant 0.5 scorer at cutoff 0.5 classifies everything
    reliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import SeparationError, SingleClassDataError, SingularDesignError
from .model import (
    FitResult,
    LabeledDataset,
    LogitModel,
    cell_design,
    dot,
    fit_intercept_only,
    gram,
    invert,
    predict_probability,
    scatter,
    sigmoid,
)
from .stats import chi_square_sf, normal_cdf

__all__ = [
    "ConfusionMatrix",
    "FitDiagnostics",
    "WaldTest",
    "null_log_likelihood",
    "mcfadden",
    "mcfadden_adjusted",
    "aic",
    "log_likelihood_from_aic",
    "lr_test",
    "vif",
    "confusion_matrix",
    "wald_tests",
    "diagnose_fit",
]


# --------------------------------------------------------------------------
# scalar identities
# --------------------------------------------------------------------------

def null_log_likelihood(data: LabeledDataset) -> float:
    """Log-likelihood of the intercept-only model (see :func:`fit_intercept_only`)."""
    try:
        return fit_intercept_only(data)[1]
    except SeparationError:
        raise SingleClassDataError("dataset has a single label value") from None


def mcfadden(lnl: float, lnl0: float) -> float:
    """Pseudo R-squared 1 - lnL/lnL0."""
    return 1.0 - lnl / lnl0


def mcfadden_adjusted(lnl: float, lnl0: float, k: int) -> float:
    """Parameter-penalized pseudo R-squared 1 - (lnL - k)/lnL0."""
    return 1.0 - (lnl - k) / lnl0


def aic(lnl: float, k: int) -> float:
    """Akaike criterion 2k - 2 lnL with k counting the intercept."""
    if k < 1:
        raise ValueError("parameter count must be at least 1")
    return 2.0 * k - 2.0 * lnl


def log_likelihood_from_aic(aic_value: float, k: int) -> float:
    """Invert the AIC identity: lnL = k - AIC/2."""
    return k - aic_value / 2.0


def lr_test(lnl: float, lnl0: float, df: int) -> tuple[float, float]:
    """Likelihood-ratio statistic 2(lnL - lnL0) and its chi-square p-value."""
    statistic = 2.0 * (lnl - lnl0)
    if df == 0:
        return statistic, 1.0
    return statistic, chi_square_sf(max(statistic, 0.0), df)


# --------------------------------------------------------------------------
# multicollinearity
# --------------------------------------------------------------------------

def vif(data: LabeledDataset, features: Sequence[str]) -> dict[str, float]:
    """Variance inflation factors 1/(1 - Rj^2), in closed form as Sjj (S^-1)jj
    with S the count-weighted scatter of the features, inverted exactly.

    A single-feature request returns exactly 1.0 (nothing to be collinear with).
    """
    features = tuple(features)
    if not features:
        return {}
    s = scatter(cell_design(data, features))
    inverse = invert(s)
    if inverse is None:
        raise SingularDesignError(f"feature columns {features} are collinear or constant")
    inflation = [float(s[j][j] * inverse[j][j]) for j in range(len(features))]
    for name, value in zip(features, inflation):
        if value > 1e12:  # Rj^2 > 1 - 1e-12
            raise SingularDesignError(f"feature {name!r} is an exact combination of the others")
    return dict(zip(features, inflation))


# --------------------------------------------------------------------------
# confusion matrix
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionMatrix:
    """Actual-by-predicted counts at a probability cutoff."""

    true_reliable: int
    false_fake: int
    false_reliable: int
    true_fake: int
    cutoff: float

    @property
    def n(self) -> int:
        return self.true_reliable + self.false_fake + self.false_reliable + self.true_fake

    @property
    def accuracy(self) -> float:
        return (self.true_reliable + self.true_fake) / self.n

    def counts(self) -> tuple[int, int, int, int]:
        return (self.true_reliable, self.false_fake, self.false_reliable, self.true_fake)

    def cell_shares(self, decimals: int = 1) -> tuple[float, float, float, float]:
        """Cell percentages rounded so they sum exactly to 100.

        Largest-remainder rounding; ties go to the earlier cell in
        (true-reliable, false-fake, false-reliable, true-fake) order.
        """
        scale = 10 ** decimals
        raw = [c * 100.0 / self.n for c in self.counts()]
        floored = [math.floor(v * scale) for v in raw]
        remainder = round(100 * scale) - sum(floored)
        order = sorted(range(4), key=lambda i: (-(raw[i] * scale - floored[i]), i))
        for i in order[:remainder]:
            floored[i] += 1
        return tuple(v / scale for v in floored)


def confusion_matrix(model: LogitModel, data: LabeledDataset,
                     cutoff: float = 0.5) -> ConfusionMatrix:
    """Classify every row (fake iff probability > cutoff) and tabulate."""
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"cutoff must lie in (0, 1), got {cutoff!r}")
    cells = [0, 0, 0, 0]  # TR, FF, FR, TF
    for bits, label, count in data.cells(model.features):
        predicted_fake = predict_probability(model, dict(zip(model.features, bits))) > cutoff
        cells[2 * label + predicted_fake] += count
    return ConfusionMatrix(*cells, cutoff=cutoff)


# --------------------------------------------------------------------------
# per-coefficient Wald tests
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WaldTest:
    estimate: float
    std_error: float
    z_value: float
    p_value: float


def wald_tests(model: LogitModel, data: LabeledDataset) -> dict[str, WaldTest]:
    """Normal-approximation tests from the observed information at the fit.

    Keys are 'intercept' plus the model's feature names.
    """
    names = ("intercept",) + model.features
    cells = cell_design(data, model.features)
    beta = [model.intercept, *model.coefficients.values()]
    p = [sigmoid(dot(x, beta)) for x, _, _ in cells]
    covariance = invert(gram(cells, [n * pi * (1.0 - pi) for (_, _, n), pi in zip(cells, p)]))
    if covariance is None:
        raise SingularDesignError("information matrix is singular at the estimate")
    out: dict[str, WaldTest] = {}
    for i, name in enumerate(names):
        se = math.sqrt(covariance[i][i])
        z = beta[i] / se if se > 0 else math.inf
        p_value = 2.0 * normal_cdf(-abs(z))
        out[name] = WaldTest(beta[i], se, z, p_value)
    return out


# --------------------------------------------------------------------------
# the full report
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FitDiagnostics:
    ln_likelihood: float
    null_ln_likelihood: float
    k: int
    mcfadden: float
    mcfadden_adjusted: float
    aic: float
    lr_statistic: float
    lr_df: int
    lr_p_value: float
    vif: Mapping[str, float]
    confusion: ConfusionMatrix

    def __post_init__(self):
        if self.ln_likelihood < self.null_ln_likelihood - 1e-9:
            raise ValueError("fitted log-likelihood below the null baseline")


def diagnose_fit(fit: FitResult, data: LabeledDataset,
                 cutoff: float = 0.5) -> FitDiagnostics:
    """Assemble every fit statistic for an already-fitted model."""
    model = fit.model
    lnl = fit.log_likelihood
    lnl0 = null_log_likelihood(data)
    k = 1 + len(model.features)
    df = len(model.features)
    statistic, p_value = lr_test(lnl, lnl0, df)
    return FitDiagnostics(
        ln_likelihood=lnl,
        null_ln_likelihood=lnl0,
        k=k,
        mcfadden=mcfadden(lnl, lnl0),
        mcfadden_adjusted=mcfadden_adjusted(lnl, lnl0, k),
        aic=aic(lnl, k),
        lr_statistic=statistic,
        lr_df=df,
        lr_p_value=p_value,
        vif=vif(data, model.features),
        confusion=confusion_matrix(model, data, cutoff),
    )
