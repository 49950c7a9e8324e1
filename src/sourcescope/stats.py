"""Binary-association statistics over 2x2 tables.

Provides the latent-correlation (tetrachoric) estimator, the Pearson
chi-square test of independence, and the univariate/bivariate normal
numerics both need.  Everything here is pure and deterministic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

from .errors import DomainError, UnknownVariableError, ZeroMarginError
from .model import FEATURE_NAMES

__all__ = [
    "ContingencyTable2x2",
    "TetrachoricEstimate",
    "ChiSquareResult",
    "TetrachoricMatrix",
    "normal_cdf",
    "normal_quantile",
    "chi_square_sf",
    "bivariate_normal_cdf",
    "crosstab",
    "tetrachoric",
    "tetrachoric_matrix",
    "chi_square_test",
    "VARIABLES",
    "RHO_MAX",
]

VARIABLES = ("label", *FEATURE_NAMES)

# Latent-correlation estimates are clamped here instead of failing when a
# table carries (near-)empty off-diagonal cells.
RHO_MAX = 0.9999

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi
_GAMMA_3_2 = math.sqrt(math.pi) / 2.0
_STANDARD_NORMAL = NormalDist()


# --------------------------------------------------------------------------
# univariate normal
# --------------------------------------------------------------------------

def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


# --------------------------------------------------------------------------
# chi-square upper tail
# --------------------------------------------------------------------------

def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution, integer df.

    The finite sums of Abramowitz & Stegun 26.4.4 (odd df) and 26.4.5
    (even df), each kept as one running term.  Convention: x == 0 maps to
    probability 1 (also for df == 0, where the statistic is degenerate).
    The leading factor e^(-x/2) underflows past x of about 1490, so the
    tail reads 0 there whatever df is.
    """
    if isinstance(df, bool) or not isinstance(df, numbers.Integral):
        raise DomainError(f"degrees of freedom must be an integer, got {df!r}")
    if df < 0:
        raise DomainError(f"degrees of freedom must be >= 0, got {df!r}")
    if x < 0:
        raise DomainError(f"chi-square statistic must be >= 0, got {x!r}")
    if df == 0:
        return 1.0 if x <= 0 else 0.0
    half = x / 2.0
    if df % 2 == 0:
        # e^(-x/2) * sum_{k < df/2} (x/2)^k / k!
        term = total = math.exp(-half)
        for k in range(1, df // 2):
            term *= half / k
            total += term
        return total
    # erfc(sqrt(x/2)) + e^(-x/2) * sum_{k=1}^{(df-1)/2} (x/2)^(k-1/2) / Gamma(k+1/2)
    root = math.sqrt(half)
    total = math.erfc(root)
    term = math.exp(-half) * root / _GAMMA_3_2
    for k in range(1, (df + 1) // 2):
        total += term
        term *= half / (k + 0.5)
    return total


# --------------------------------------------------------------------------
# bivariate normal CDF
# --------------------------------------------------------------------------

# Gauss-Legendre half-rules (6/12/20 point), per Drezner-Wesolowsky as
# rearranged by Genz; rule selection depends on |rho|.
_GL_X = (
    (0.9324695142031522, 0.6612093864662647, 0.2386191860831970),
    (0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
     0.5873179542866171, 0.3678314989981802, 0.1252334085114692),
    (0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
     0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
     0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
     0.07652652113349733),
)
_GL_W = (
    (0.1713244923791705, 0.3607615730481384, 0.4679139345726904),
    (0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
     0.2031674267230659, 0.2334925365383547, 0.2491470458134029),
    (0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
     0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
     0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
     0.1527533871307259),
)


def _bvn_upper(dh: float, dk: float, r: float) -> float:
    """P(X > dh, Y > dk) for standard bivariate normal with correlation r.

    For |r| < 0.925 the arcsine substitution removes the integrand's
    singularity and fixed-order quadrature is exact to machine precision;
    larger |r| uses the complementary expansion in sqrt(1 - r^2).
    """
    if abs(r) < 0.3:
        rule = 0
    elif abs(r) < 0.75:
        rule = 1
    else:
        rule = 2
    xs_, ws_ = _GL_X[rule], _GL_W[rule]

    h, k = dh, dk
    hk = h * k
    bvn = 0.0
    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(r)
        for x, w in zip(xs_, ws_):
            for s in (-1.0, 1.0):
                sn = math.sin(asr * (1.0 + s * x) / 2.0)
                bvn += w * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = bvn * asr / (4.0 * math.pi) + normal_cdf(-h) * normal_cdf(-k)
    else:
        if r < 0.0:
            k = -k
            hk = -hk
        if abs(r) < 1.0:
            as_ = (1.0 - r) * (1.0 + r)
            a = math.sqrt(as_)
            bs = (h - k) ** 2
            c = (4.0 - hk) / 8.0
            d = (12.0 - hk) / 16.0
            asr = -(bs / as_ + hk) / 2.0
            if asr > -100.0:
                bvn = a * math.exp(asr) * (
                    1.0 - c * (bs - as_) * (1.0 - d * bs / 5.0) / 3.0
                    + c * d * as_ * as_ / 5.0)
            if -hk < 100.0:
                b = math.sqrt(bs)
                sp = math.sqrt(_TWO_PI) * normal_cdf(-b / a)
                bvn -= math.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
            a /= 2.0
            for x, w in zip(xs_, ws_):
                for s in (-1.0, 1.0):
                    xsq = (a * (1.0 + s * x)) ** 2
                    rs = math.sqrt(1.0 - xsq)
                    asr = -(bs / xsq + hk) / 2.0
                    if asr > -100.0:
                        sp = 1.0 + c * xsq * (1.0 + d * xsq)
                        ep = math.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                        bvn += a * w * math.exp(asr) * (ep - sp)
            bvn = -bvn / _TWO_PI
        if r > 0.0:
            bvn += normal_cdf(-max(h, k))
        else:
            bvn = -bvn
            if k > h:
                bvn += normal_cdf(k) - normal_cdf(h)
    return min(1.0, max(0.0, bvn))


def bivariate_normal_cdf(h: float, k: float, rho: float) -> float:
    """P(Z1 <= h, Z2 <= k) under correlation rho, |rho| < 1."""
    if not -1.0 < rho < 1.0:
        raise DomainError(f"correlation must lie in (-1, 1), got {rho!r}")
    return _bvn_upper(-h, -k, rho)


# --------------------------------------------------------------------------
# 2x2 tables
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContingencyTable2x2:
    """Counts for a variable pair; first index is A's value, second is B's."""

    n11: int
    n10: int
    n01: int
    n00: int

    def __post_init__(self):
        for name in ("n11", "n10", "n01", "n00"):
            value = getattr(self, name)
            if int(value) != value or value < 0:
                raise ValueError(f"{name} must be a non-negative count, got {value!r}")

    @property
    def n(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    @property
    def margins(self) -> tuple[int, int, int, int]:
        """(A=1, A=0, B=1, B=0) marginal totals."""
        return (self.n11 + self.n10, self.n01 + self.n00,
                self.n11 + self.n01, self.n10 + self.n00)

    def require_margins(self) -> None:
        a1, a0, b1, b0 = self.margins
        for total, label in ((a1, "A=1"), (a0, "A=0"), (b1, "B=1"), (b0, "B=0")):
            if total == 0:
                raise ZeroMarginError(f"margin {label} is empty")


def crosstab(data, a: str, b: str) -> ContingencyTable2x2:
    """Cross-tabulate two of the six dataset variables.

    ``data`` is a :class:`sourcescope.model.LabeledDataset`; variables are
    named as in :data:`VARIABLES`.
    """
    for name in (a, b):
        if name not in VARIABLES:
            raise UnknownVariableError(f"unknown variable {name!r}; expected one of {VARIABLES}")
    counts = [0, 0, 0, 0]  # n11, n10, n01, n00
    for bits, label, count in data.cells(VARIABLES[1:]):
        values = dict(zip(VARIABLES, (label, *bits)))
        counts[2 * (1 - values[a]) + 1 - values[b]] += count
    return ContingencyTable2x2(*counts)


# --------------------------------------------------------------------------
# tetrachoric correlation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TetrachoricEstimate:
    """Latent-normal correlation for one 2x2 table."""

    rho: float
    p_value: float
    boundary: bool = False


def _cell_log_likelihood(table: ContingencyTable2x2, h: float, k: float, rho: float) -> float:
    n = table.n
    a1, _, b1, _ = table.margins
    pa, pb = a1 / n, b1 / n
    p11 = bivariate_normal_cdf(h, k, rho)
    cells = (
        (table.n11, p11),
        (table.n10, pa - p11),
        (table.n01, pb - p11),
        (table.n00, 1.0 - pa - pb + p11),
    )
    total = 0.0
    for count, prob in cells:
        if count:
            total += count * math.log(max(prob, 1e-300))
    return total


def tetrachoric(table: ContingencyTable2x2) -> TetrachoricEstimate:
    """Estimate the latent bivariate-normal correlation behind a 2x2 table.

    Thresholds are fixed at the observed margins; the correlation solves
    P(Z1 <= h, Z2 <= k; rho) = n11/n by bisection, clamped to +-RHO_MAX
    with ``boundary`` set when the target lies outside the attainable
    range.  The p-value is a likelihood-ratio test of zero correlation.
    """
    table.require_margins()
    n = table.n
    a1, _, b1, _ = table.margins
    h = normal_quantile(a1 / n)
    k = normal_quantile(b1 / n)
    target = table.n11 / n

    lo, hi = -RHO_MAX, RHO_MAX
    f_lo = bivariate_normal_cdf(h, k, lo) - target
    f_hi = bivariate_normal_cdf(h, k, hi) - target
    # The CDF is strictly increasing in rho, so an unreachable target means
    # the MLE sits at the clamp.
    if f_lo >= 0.0:
        rho, boundary = -RHO_MAX, f_lo > 0.0
    elif f_hi <= 0.0:
        rho, boundary = RHO_MAX, f_hi < 0.0
    else:
        boundary = False
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f_mid = bivariate_normal_cdf(h, k, mid) - target
            if f_mid == 0.0:
                lo = hi = mid
                break
            if f_mid < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
        rho = 0.5 * (lo + hi)

    lr = 2.0 * (_cell_log_likelihood(table, h, k, rho)
                - _cell_log_likelihood(table, h, k, 0.0))
    p_value = chi_square_sf(max(lr, 0.0), 1)
    return TetrachoricEstimate(rho=rho, p_value=p_value, boundary=boundary)


@dataclass(frozen=True)
class TetrachoricMatrix:
    """Symmetric latent-correlation matrix over the six dataset variables."""

    variables: tuple[str, ...]
    estimates: tuple[tuple[Optional[TetrachoricEstimate], ...], ...]

    def rho(self, i: int, j: int) -> float:
        if i == j:
            return 1.0
        est = self.estimates[i][j]
        assert est is not None
        return est.rho


def tetrachoric_matrix(data) -> TetrachoricMatrix:
    """Pairwise tetrachoric estimates over :data:`VARIABLES`; unit diagonal,
    exactly symmetric."""
    names = VARIABLES
    size = len(names)
    grid: list[list[Optional[TetrachoricEstimate]]] = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            table = crosstab(data, names[i], names[j])
            try:
                est = tetrachoric(table)
            except ZeroMarginError as exc:
                raise ZeroMarginError(f"pair ({names[i]}, {names[j]}): {exc}") from None
            grid[i][j] = est
            grid[j][i] = est  # crosstab transposition preserves the estimate
    return TetrachoricMatrix(names, tuple(tuple(row) for row in grid))


# --------------------------------------------------------------------------
# chi-square test of independence
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float
    expected_frequency_assumption_met: bool


def chi_square_test(table: ContingencyTable2x2, yates: bool = False) -> ChiSquareResult:
    """Pearson chi-square test of independence for a 2x2 table.

    No continuity correction unless ``yates`` is set.  The assumption flag
    reports whether all four expected counts reach 5.
    """
    table.require_margins()
    n = table.n
    a1, a0, b1, b0 = table.margins
    cross = table.n11 * table.n00 - table.n10 * table.n01
    if yates:
        adjusted = max(abs(cross) - n / 2.0, 0.0)
        statistic = n * adjusted * adjusted / (a1 * a0 * b1 * b0)
    else:
        statistic = n * cross * cross / (a1 * a0 * b1 * b0)
    expected_min = min(a1 * b1, a1 * b0, a0 * b1, a0 * b0) / n
    return ChiSquareResult(
        statistic=statistic,
        df=1,
        p_value=chi_square_sf(statistic, 1),
        expected_frequency_assumption_met=expected_min >= 5.0,
    )
