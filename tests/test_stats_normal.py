"""Univariate normal CDF/quantile and the chi-square upper tail."""

import math

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import chi2

from sourcescope.errors import DomainError
from sourcescope.stats import chi_square_sf, normal_cdf, normal_quantile


def _normal_density(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_against_numeric_integration(self):
        # independent oracle: quadrature of the density
        for x in np.linspace(-6.0, 6.0, 25):
            oracle, _ = integrate.quad(_normal_density, -12.0, x)
            assert abs(normal_cdf(x) - oracle) < 1e-10

    def test_two_sided_97_5(self):
        assert abs(normal_cdf(1.959964) - 0.975) < 1e-6

    def test_complement(self):
        for x in (-3.7, -0.2, 1.1, 4.5):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_roundtrip_identity(self):
        for p in np.linspace(1e-6, 1 - 1e-6, 41):
            assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-8

    def test_roundtrip_other_direction(self):
        for x in np.linspace(-5, 5, 21):
            assert abs(normal_quantile(normal_cdf(x)) - x) < 1e-8

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)

    @pytest.mark.parametrize(
        "p", [1.0 - 2.0 ** -k for k in range(24, 53, 4)] + [1e-300, 1e-20, 1e-8])
    def test_tails_against_ndtri(self, p):
        reference = special.ndtri(p)
        assert abs(normal_quantile(p) - reference) <= 1e-13 * abs(reference)


class TestChiSquareSf:
    def test_matches_numeric_integration(self):
        # brute-force oracle: integrate the chi-square density upper tail
        # (400 is far past any mass for df <= 10)
        for df in range(1, 11):
            norm = 2.0 ** (df / 2.0) * math.gamma(df / 2.0)

            def density(t, df=df, norm=norm):
                return t ** (df / 2.0 - 1.0) * math.exp(-t / 2.0) / norm

            for x in (0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 35.0, 50.0):
                oracle, err = integrate.quad(density, x, 400.0, limit=300)
                assert err < 1e-7
                assert abs(chi_square_sf(x, df) - oracle) < 1e-8

    def test_zero_statistic(self):
        assert chi_square_sf(0.0, 1) == 1.0
        assert chi_square_sf(0.0, 7) == 1.0

    def test_monotone_decreasing(self):
        values = [chi_square_sf(x, 3) for x in (0.1, 1.0, 5.0, 15.0, 40.0)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("df", range(1, 11))
    def test_against_scipy(self, df):
        for x in (1e-6, 0.01, 0.5, 2.5, 8.0, 20.0, 50.0, 100.0, 300.0, 700.0, 1400.0):
            reference = chi2.sf(x, df)
            if reference > 1e-300:
                assert abs(chi_square_sf(x, df) - reference) <= 1e-12 * reference, x

    @pytest.mark.parametrize("x, df", [(-1.0, 1), (1.0, 1.5), (1.0, -1)])
    def test_domain(self, x, df):
        with pytest.raises(DomainError):
            chi_square_sf(x, df)
