import math
from fractions import Fraction

import numpy as np
import pytest

from bibeta.construction import AlphaBivariate, RandomStream, sample_bivariate
from bibeta.errors import DomainError
from bibeta.moments import (
    TABLE_A00_COLUMNS,
    TABLE_ROW_PARAMS,
    MomentVector,
    central_moment,
    correlation,
    correlation_table,
    mixed_moment,
    moment_vector,
)
from oracles import central_moment_mpmath

REFERENCE_ALPHA = AlphaBivariate(4.7, 3.5, 2.1, 3.7)
ONES = AlphaBivariate(1, 1, 1, 1)


def exact_mixed_moment(alpha_ints, r, s):
    """E[X^r Y^s] by binomial expansion over exact Dirichlet moments.

    Requires integer weights so everything stays in Fraction arithmetic:
    E[prod U_k^{n_k}] = prod rising(a_k, n_k) / rising(M, sum n_k).
    """
    a11, a10, a01, a00 = (Fraction(a) for a in alpha_ints)
    total = a11 + a10 + a01 + a00

    def rising(a, n):
        out = Fraction(1)
        for k in range(n):
            out *= a + k
        return out

    acc = Fraction(0)
    for i in range(r + 1):
        for j in range(s + 1):
            acc += (
                math.comb(r, i)
                * math.comb(s, j)
                * rising(a11, i + j)
                * rising(a10, r - i)
                * rising(a01, s - j)
                / rising(total, r + s)
            )
    return acc


class TestMomentVector:
    def test_reference_example_to_four_decimals(self):
        m = moment_vector(REFERENCE_ALPHA)
        assert round(m.m10, 4) == 0.5857
        assert round(m.m01, 4) == 0.4857
        assert round(m.m20, 4) == 0.0162
        assert round(m.m02, 4) == 0.0167
        assert round(m.m11, 4) == 0.0034

    def test_all_ones(self):
        m = moment_vector(ONES)
        assert m.as_tuple() == (0.5, 0.5, 0.05, 0.05, 0.0)

    def test_strong_positive_dependence(self):
        a = AlphaBivariate(10, 0.1, 0.1, 10)
        m = moment_vector(a)
        expected = (100.0 - 0.01) / (20.2 ** 2 * 21.2)
        assert m.m11 == pytest.approx(expected, rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            MomentVector(1.2, 0.5, 0.01, 0.01, 0.0)
        with pytest.raises(DomainError):
            MomentVector(0.5, 0.5, 0.0, 0.01, 0.0)
        # variance above the Bernoulli cap m*(1-m)
        with pytest.raises(DomainError):
            MomentVector(0.5, 0.5, 0.26, 0.01, 0.0)
        # Cauchy-Schwarz violated
        with pytest.raises(DomainError):
            MomentVector(0.5, 0.5, 0.01, 0.01, 0.02)
        with pytest.raises(DomainError):
            MomentVector(0.5, math.nan, 0.01, 0.01, 0.0)


class TestCorrelation:
    def test_known_values(self):
        assert correlation(AlphaBivariate(5, 1, 1, 2)) == pytest.approx(0.5, abs=1e-15)
        assert correlation(ONES) == 0.0
        assert correlation(AlphaBivariate(10, 0.1, 0.1, 10)) == pytest.approx(
            99.99 / 102.01, rel=1e-13
        )

    def test_consistent_with_moment_vector(self):
        rng = np.random.Generator(np.random.PCG64(501))
        for _ in range(1000):
            a = AlphaBivariate(*rng.uniform(0.1, 20.0, size=4))
            m = moment_vector(a)
            assert correlation(a) == pytest.approx(
                m.m11 / math.sqrt(m.m20 * m.m02), rel=1e-12
            )

    def test_exchange_symmetry(self):
        rng = np.random.Generator(np.random.PCG64(502))
        for _ in range(50):
            a11, a10, a01, a00 = rng.uniform(0.05, 30.0, size=4)
            lhs = correlation(AlphaBivariate(a11, a10, a01, a00))
            rhs = correlation(AlphaBivariate(a11, a01, a10, a00))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_sign_tracks_shared_vs_crossed_mass(self):
        assert correlation(AlphaBivariate(10, 0.1, 0.1, 10)) > 0.9
        assert correlation(AlphaBivariate(0.1, 10, 10, 0.1)) < -0.9


class TestMixedMoment:
    def test_order_zero_is_one(self):
        assert mixed_moment(REFERENCE_ALPHA, 0, 0) == 1.0

    def test_first_orders_are_means(self):
        m = moment_vector(REFERENCE_ALPHA)
        assert mixed_moment(REFERENCE_ALPHA, 1, 0) == pytest.approx(m.m10, rel=1e-14)
        assert mixed_moment(REFERENCE_ALPHA, 0, 1) == pytest.approx(m.m01, rel=1e-14)

    def test_uniform_cross_moment(self):
        assert mixed_moment(ONES, 1, 1) == pytest.approx(0.25, rel=1e-14)

    def test_second_moment_matches_variance_decomposition(self):
        m = moment_vector(REFERENCE_ALPHA)
        assert mixed_moment(REFERENCE_ALPHA, 2, 0) == pytest.approx(
            m.m20 + m.m10 ** 2, rel=1e-12
        )
        assert mixed_moment(REFERENCE_ALPHA, 1, 1) == pytest.approx(
            m.m11 + m.m10 * m.m01, rel=1e-12
        )

    @pytest.mark.parametrize("r,s", [(2, 1), (3, 3), (4, 4), (5, 4), (6, 5), (8, 8)])
    def test_against_exact_rational_oracle(self, r, s):
        # (5,4) and up exercise the log-space path for high total order
        alpha_ints = (1, 2, 3, 4)
        expected = float(exact_mixed_moment(alpha_ints, r, s))
        got = mixed_moment(AlphaBivariate(*alpha_ints), r, s)
        assert got == pytest.approx(expected, rel=1e-11)

    def test_rejects_bad_orders(self):
        with pytest.raises(DomainError):
            mixed_moment(ONES, -1, 0)
        with pytest.raises(DomainError):
            mixed_moment(ONES, 0.5, 1)
        with pytest.raises(DomainError):
            mixed_moment(ONES, True, 1)

    def test_monte_carlo_agreement(self):
        a = AlphaBivariate(2.5, 1.2, 0.8, 3.0)
        draws = sample_bivariate(a, 10 ** 6, RandomStream(77))
        x, y = draws[:, 0], draws[:, 1]
        for r, s in [(1, 1), (2, 1), (3, 3)]:
            g = x ** r * y ** s
            se = g.std() / 1000.0
            assert abs(g.mean() - mixed_moment(a, r, s)) < 4.0 * se


class TestCentralMoment:
    def test_first_central_moments_vanish(self):
        assert central_moment(REFERENCE_ALPHA, 1, 0) == pytest.approx(0.0, abs=1e-15)
        assert central_moment(REFERENCE_ALPHA, 0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_matches_moment_vector(self):
        m = moment_vector(REFERENCE_ALPHA)
        assert central_moment(REFERENCE_ALPHA, 2, 0) == pytest.approx(m.m20, rel=1e-12)
        assert central_moment(REFERENCE_ALPHA, 0, 2) == pytest.approx(m.m02, rel=1e-12)
        assert central_moment(REFERENCE_ALPHA, 1, 1) == pytest.approx(m.m11, rel=1e-12)

    def test_reference_covariance_to_four_decimals(self):
        assert round(central_moment(REFERENCE_ALPHA, 1, 1), 4) == 0.0034

    def test_symmetric_case_has_zero_skew(self):
        assert central_moment(ONES, 3, 0) == pytest.approx(0.0, abs=1e-12)

    # the raw-moment expansion cancels here: in doubles it put the (4, 4)
    # moment at (1000, 300, 400, 500) 7% low
    @pytest.mark.parametrize("weights", [
        (1000.0, 300.0, 400.0, 500.0),
        (100.0, 101.0, 102.0, 103.0),
        (20.0, 30.0, 40.0, 50.0),
        (5000.0, 0.5, 2000.0, 30.0),
        (1e-3, 2.0, 0.3, 1e4),
    ])
    def test_matches_mpmath_at_large_weights(self, weights):
        alpha = AlphaBivariate(*weights)
        for order in range(1, 9):
            for r in range(order + 1):
                ref = central_moment_mpmath(weights, r, order - r)
                assert central_moment(alpha, r, order - r) == pytest.approx(ref, rel=1e-14,
                                                                            abs=0.0)

    def test_monte_carlo_agreement(self):
        a = AlphaBivariate(2.5, 1.2, 0.8, 3.0)
        draws = sample_bivariate(a, 10 ** 6, RandomStream(78))
        x, y = draws[:, 0], draws[:, 1]
        cx, cy = x - x.mean(), y - y.mean()
        for r, s in [(2, 0), (0, 2), (1, 1), (2, 2)]:
            g = cx ** r * cy ** s
            se = g.std() / 1000.0
            assert abs(g.mean() - central_moment(a, r, s)) < 4.0 * se


class TestCorrelationTable:
    def test_shape(self):
        rows = correlation_table()
        assert len(rows) == len(TABLE_ROW_PARAMS) == 28
        assert all(len(row) == 3 + len(TABLE_A00_COLUMNS) for row in rows)

    def _lookup(self, a11, a10, a01, a00):
        rows = correlation_table()
        for row in rows:
            if row[:3] == (a11, a10, a01):
                return row[3 + TABLE_A00_COLUMNS.index(a00)]
        raise AssertionError("row not found")

    def test_spot_values(self):
        assert abs(self._lookup(10.0, 10.0, 5.0, 5.0)) < 5e-4
        assert self._lookup(0.1, 10.0, 5.0, 0.1) == pytest.approx(-0.970, abs=5e-4)
        assert abs(self._lookup(2.0, 10.0, 2.0, 10.0)) < 5e-4
        assert self._lookup(5.0, 1.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert self._lookup(2.0, 1.0, 1.0, 10.0) == pytest.approx(19.0 / 33.0, rel=1e-12)

    def test_rows_match_direct_evaluation(self):
        rows = correlation_table()
        for row in rows:
            a11, a10, a01 = row[:3]
            for col, a00 in enumerate(TABLE_A00_COLUMNS):
                direct = correlation(AlphaBivariate(a11, a10, a01, a00))
                assert row[3 + col] == pytest.approx(direct, rel=1e-14, abs=1e-14)
