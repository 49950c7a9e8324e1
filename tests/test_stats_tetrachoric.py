"""Latent-correlation estimation on 2x2 tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcescope.errors import UnknownVariableError, ZeroMarginError
from sourcescope.features import FeatureVector
from sourcescope.model import LabeledDataset
from sourcescope.stats import (
    RHO_MAX,
    ContingencyTable2x2,
    bivariate_normal_cdf,
    crosstab,
    normal_quantile,
    tetrachoric,
    tetrachoric_matrix,
)


def _row(bits, label):
    padlock, contact, telephone, about, terms = bits
    return (FeatureVector(padlock=padlock, contact=contact, telephone=telephone,
                          about=about, terms=terms), label)


class TestCrosstab:
    def test_direct_count(self):
        rows = [_row((1, 1, 0, 0, 0), 1), _row((1, 0, 0, 0, 0), 1), _row((0, 0, 0, 0, 0), 0)]
        data = LabeledDataset(tuple(rows))
        # a = padlock, b = contact over rows (1,1), (1,0), (0,0)
        table = crosstab(data, "padlock", "contact")
        assert (table.n11, table.n10, table.n01, table.n00) == (1, 1, 0, 1)

    def test_transposition(self):
        rng = np.random.default_rng(3)
        rows = [_row(tuple(rng.integers(0, 2, 5)), int(rng.integers(0, 2))) for _ in range(60)]
        data = LabeledDataset(tuple(rows))
        ab = crosstab(data, "label", "terms")
        ba = crosstab(data, "terms", "label")
        assert ba == ContingencyTable2x2(ab.n11, ab.n01, ab.n10, ab.n00)

    def test_counts_partition(self):
        rng = np.random.default_rng(4)
        rows = [_row(tuple(rng.integers(0, 2, 5)), int(rng.integers(0, 2))) for _ in range(97)]
        data = LabeledDataset(tuple(rows))
        assert crosstab(data, "about", "telephone").n == 97

    def test_unknown_variable(self):
        data = LabeledDataset((_row((0, 0, 0, 0, 0), 1),))
        with pytest.raises(UnknownVariableError):
            crosstab(data, "label", "wordcount")


class TestTetrachoric:
    def test_exact_independence(self):
        est = tetrachoric(ContingencyTable2x2(50, 50, 50, 50))
        assert abs(est.rho) < 1e-6
        assert est.p_value == pytest.approx(1.0)
        assert not est.boundary

    def test_symmetric_margins_closed_form(self):
        # at 50/50 margins the solution is sin(2 pi (p11 - 1/4))
        est = tetrachoric(ContingencyTable2x2(40, 10, 10, 40))
        assert abs(est.rho - 0.80902) < 1e-4

    def test_symmetric_margin_sweep(self):
        n = 10_000
        for share in np.arange(0.26, 0.495, 0.01):
            n11 = round(share * n)
            n10 = n // 2 - n11
            table = ContingencyTable2x2(n11, n10, n10, n11)
            expected = math.sin(2.0 * math.pi * (n11 / n - 0.25))
            assert abs(tetrachoric(table).rho - expected) < 1e-4

    def test_perfect_association_clamps(self):
        est = tetrachoric(ContingencyTable2x2(100, 0, 0, 100))
        assert est.rho == RHO_MAX
        assert est.boundary

    def test_perfect_negative_association_clamps(self):
        est = tetrachoric(ContingencyTable2x2(0, 100, 100, 0))
        assert est.rho == -RHO_MAX
        assert est.boundary

    def test_column_flip_antisymmetry(self):
        for counts in ((40, 10, 10, 40), (70, 20, 35, 75), (12, 30, 44, 14)):
            n11, n10, n01, n00 = counts
            direct = tetrachoric(ContingencyTable2x2(n11, n10, n01, n00))
            flipped = tetrachoric(ContingencyTable2x2(n10, n11, n00, n01))
            assert abs(direct.rho + flipped.rho) < 1e-6

    def test_root_residual(self):
        for counts in ((40, 10, 10, 40), (55, 25, 30, 90), (9, 21, 33, 57)):
            table = ContingencyTable2x2(*counts)
            est = tetrachoric(table)
            a1 = table.n11 + table.n10
            b1 = table.n11 + table.n01
            h = normal_quantile(a1 / table.n)
            k = normal_quantile(b1 / table.n)
            assert abs(bivariate_normal_cdf(h, k, est.rho) - table.n11 / table.n) < 1e-8

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n11 must be a non-negative count, got -1"):
            ContingencyTable2x2(-1, 0, 0, 0)

    def test_zero_margin_rejected(self):
        with pytest.raises(ZeroMarginError):
            tetrachoric(ContingencyTable2x2(10, 10, 0, 0))

    def test_strong_association_is_significant(self):
        est = tetrachoric(ContingencyTable2x2(80, 20, 20, 80))
        assert est.p_value < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.integers(1, 80), st.integers(1, 80),
                     st.integers(1, 80), st.integers(1, 80)))
    def test_sign_agreement(self, counts):
        table = ContingencyTable2x2(*counts)
        cross = table.n11 * table.n00 - table.n10 * table.n01
        rho = tetrachoric(table).rho
        if cross > 0:
            assert rho > -1e-9
        elif cross < 0:
            assert rho < 1e-9
        else:
            assert abs(rho) < 1e-6


class TestTetrachoricMatrix:
    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(11)
        rows = [_row(tuple(rng.integers(0, 2, 5)), int(rng.integers(0, 2))) for _ in range(200)]
        data = LabeledDataset(tuple(rows))
        matrix = tetrachoric_matrix(data)
        size = len(matrix.variables)
        for i in range(size):
            assert matrix.rho(i, i) == 1.0
            for j in range(size):
                assert matrix.rho(i, j) == matrix.rho(j, i)

    def test_identical_columns_hit_boundary(self):
        # label equals padlock exactly
        rows = [_row((1, 0, 0, 0, 0), 1) for _ in range(30)]
        rows += [_row((0, 1, 1, 0, 0), 0) for _ in range(30)]
        rows += [_row((1, 1, 0, 1, 1), 1) for _ in range(30)]
        rows += [_row((0, 0, 1, 1, 1), 0) for _ in range(30)]
        data = LabeledDataset(tuple(rows))
        matrix = tetrachoric_matrix(data)
        est = matrix.estimates[0][1]  # label vs padlock
        assert est.boundary
        assert est.rho == RHO_MAX

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(2024)
        n = 10_000
        rows = [_row(tuple(rng.integers(0, 2, 5)), int(rng.integers(0, 2)))
                for _ in range(n)]
        matrix = tetrachoric_matrix(LabeledDataset(tuple(rows)))
        size = len(matrix.variables)
        for i in range(size):
            for j in range(i + 1, size):
                assert abs(matrix.rho(i, j)) < 0.05

    def test_zero_margin_names_pair(self):
        rows = [_row((1, 1, 0, 1, 0), 1) for _ in range(20)]
        rows += [_row((1, 0, 1, 0, 1), 0) for _ in range(20)]  # padlock constant
        with pytest.raises(ZeroMarginError, match="padlock"):
            tetrachoric_matrix(LabeledDataset(tuple(rows)))
