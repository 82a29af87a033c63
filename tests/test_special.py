import math

import numpy as np
import pytest

from bibeta.errors import ConvergenceError, DomainError
from bibeta.special import (QuadratureResult, appell_f1, hyp2f1, integrate_jacobi_batch,
                            integrate_unit, integrate_unit_batch, ln_beta_multi)
from oracles import appell_f1_series, gauss_legendre_unit, hyp2f1_series


class TestLnBetaMulti:
    def test_known_values(self):
        assert ln_beta_multi((1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)
        assert ln_beta_multi((1, 1, 1, 1)) == pytest.approx(math.log(1.0 / 6.0), rel=1e-14)
        # pinned by an arbitrary-precision gamma evaluation
        assert ln_beta_multi((4.7, 3.5, 2.1, 3.7)) == pytest.approx(
            -17.1412750392509089, rel=1e-13)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            ln_beta_multi((2.0,))
        with pytest.raises(DomainError):
            ln_beta_multi((1.0, 0.0))
        with pytest.raises(DomainError):
            ln_beta_multi((1.0, -2.0, 3.0))


class TestIntegrateUnit:
    def test_constant(self):
        res = integrate_unit(0.0, 0.0, lambda t: np.ones_like(t))
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.evaluations >= 1
        assert res.abs_error_estimate >= 0.0

    def test_arcsine_weight(self):
        # both endpoint exponents singular; the smooth part is constant
        res = integrate_unit(-0.5, -0.5, lambda t: np.ones_like(t))
        assert res.value == pytest.approx(math.pi, rel=1e-10)

    def test_arcsine_node_count_is_pinned(self):
        # the node set per level is fixed: caching the tables must not move it
        res = integrate_unit(-0.5, -0.5, lambda t: np.ones_like(t))
        assert res.evaluations == 111

    def test_exp_smooth_against_oracles(self):
        res = integrate_unit(0.5, 1.2, np.exp, tol=1e-12)
        # pinned by the dyadic Gauss-Legendre oracle at build time
        assert res.value == pytest.approx(0.3604571363997051, rel=1e-11)
        oracle = gauss_legendre_unit(
            lambda t: t ** 0.5 * (1.0 - t) ** 1.2 * np.exp(t))
        assert res.value == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("b", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_matches_beta_function(self, a, b):
        res = integrate_unit(a - 1.0, b - 1.0, lambda t: np.ones_like(t))
        assert res.value == pytest.approx(math.exp(ln_beta_multi((a, b))), rel=1e-10)

    def test_budget_exhaustion_carries_best_estimate(self):
        # cos(1e4 t) oscillates faster than 10 levels resolve
        with pytest.raises(ConvergenceError) as err:
            integrate_unit(0.0, 0.0, lambda t: np.cos(1e4 * t), tol=1e-10)
        best = err.value.result
        assert isinstance(best, QuadratureResult)
        assert math.isfinite(best.value)
        assert best.evaluations == 6357
        assert "within 10 levels (6357 evaluations)" in str(err.value)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            integrate_unit(-1.0, 0.0, lambda t: t)
        with pytest.raises(DomainError):
            integrate_unit(0.0, -1.5, lambda t: t)
        with pytest.raises(DomainError):
            integrate_unit(0.0, math.nan, lambda t: t)
        # a smooth factor that cannot be called fails where it is first used
        with pytest.raises(TypeError):
            integrate_unit(0.0, 0.0, None)

    def test_result_validation(self):
        with pytest.raises(DomainError):
            QuadratureResult(1.0, -1e-3, 10)
        with pytest.raises(DomainError):
            QuadratureResult(1.0, 0.0, 0)


class TestIntegrateUnitBatch:
    def test_rows_match_the_scalar_rule(self):
        # rows that need different depths stop on their own levels
        rates = np.array([0.0, 1.0, 8.0, 40.0])

        def smooth(t, one_minus_t, rows):
            return np.exp(-rates[rows][:, None] * t)

        batch = integrate_unit_batch(0.5, -0.3, smooth, rates.size, tol=1e-12)
        assert batch.converged.all()
        for i, c in enumerate(rates):
            one = integrate_unit(0.5, -0.3, lambda t: np.exp(-c * t), tol=1e-12)
            assert batch.value[i] == pytest.approx(one.value, rel=1e-15)
            assert batch.evaluations[i] == one.evaluations
        assert len(set(batch.evaluations)) > 1

    def test_one_minus_t_stays_positive_where_t_rounds_to_1(self):
        from bibeta.special import _weighted_nodes
        t, one_minus_t, *_ = _weighted_nodes((0, 1, 2), 1.0, 1.0)
        last = t == np.nextafter(1.0, 0.0)
        assert last.any()
        assert np.all(one_minus_t > 0.0)
        assert np.all(one_minus_t[last] < 1.0 - t[last])
        # so a factor that nearly vanishes at t = 1 is resolved from it:
        # integral of (1e-20 + (1-t))**-0.9 over (0, 1)
        batch = integrate_unit_batch(0.0, 0.0, lambda t, one_minus_t, rows:
                                     (1e-20 + one_minus_t) ** -0.9, 1, tol=1e-12)
        exact = 10.0 * ((1.0 + 1e-20) ** 0.1 - 1e-2)
        assert batch.converged[0]
        assert batch.value[0] == pytest.approx(exact, rel=1e-10)

    def test_unconverged_rows_are_flagged(self):
        # cos(1e4 k t) oscillates faster than 10 levels resolve
        rates = np.array([1e4, 2e4, 3e4])
        batch = integrate_unit_batch(0.0, 0.0, lambda t, one_minus_t, rows:
                                     np.cos(rates[rows][:, None] * t), 3, tol=1e-10)
        assert not batch.converged.any()
        assert np.all(np.isfinite(batch.value))
        assert batch.evaluations.tolist() == [6357] * 3

    def test_non_finite_interior_raises(self):
        with pytest.raises(DomainError):
            integrate_unit_batch(0.0, 0.0,
                                 lambda t, one_minus_t, rows: np.where(t > 0.5, np.inf, 1.0), 2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nodes_whose_weight_underflows_add_nothing(self, bad):
        from bibeta.special import _weighted_nodes
        # with p = 1 every node below t = 1e-165 has a weight that underflows
        # to 0, and the levels 0-2 reach one; a factor that is inf or nan
        # there adds nothing (values pinned as float.hex)
        t, _, w, zeros, _ = _weighted_nodes((0, 1, 2), 2.0, 1.0)
        assert zeros.size and np.all(t[zeros] < 1e-165) and np.all(w[t < 1e-165] == 0.0)
        batch = integrate_unit_batch(1.0, 0.0, lambda t, one_minus_t, rows:
                                     np.where(t < 1e-165, bad, 1.0 / (1.0 + t)), 1)
        assert batch.value[0] == float.fromhex("0x1.3a37a020b8c22p-2")     # 1 - ln 2
        assert (batch.evaluations[0], batch.converged[0]) == (94, True)
        rates = np.array([0.0, 1.0, 3.0])
        batch = integrate_unit_batch(1.0, 0.0, lambda t, one_minus_t, rows: np.where(
            t < 1e-165, bad, np.exp(-rates[rows][:, None] * t)), rates.size)
        assert batch.value.tolist() == [float.fromhex(v) for v in (
            "0x1.0000000000001p-1", "0x1.0e95393a62190p-2", "0x1.6c79fd27cbc4cp-4")]
        assert batch.evaluations.tolist() == [94, 94, 188]
        # the same factor where the weight is still positive is an error
        with pytest.raises(DomainError):
            integrate_unit_batch(1.0, 0.0, lambda t, one_minus_t, rows:
                                 np.where(t < 1e-100, bad, 1.0), 1)

    def test_rejects_bad_exponents(self):
        with pytest.raises(DomainError):
            integrate_unit_batch(-1.0, 0.0, lambda t, one_minus_t, rows: 1.0, 1)

    def test_weights_are_cached_read_only_and_only_where_reached(self):
        from bibeta.special import _weighted_nodes
        _weighted_nodes.cache_clear()
        # a constant integrand settles at level 3: the fused table for levels
        # 0-2 and one table for level 3, nothing deeper
        batch = integrate_unit_batch(0.0, 0.0, lambda t, one_minus_t, rows: 1.0, 1)
        assert batch.converged[0]
        assert _weighted_nodes.cache_info().currsize == 2
        fused = _weighted_nodes((0, 1, 2), 1.0, 1.0)
        assert fused is _weighted_nodes((0, 1, 2), 1.0, 1.0)
        assert _weighted_nodes.cache_info().currsize == 2
        t, _, w, zeros, ends = fused
        assert not any(a.flags.writeable for a in fused[:3])
        assert not zeros.flags.writeable
        assert ends[-1] == t.size == w.size == batch.evaluations[0] - _weighted_nodes(
            (3,), 1.0, 1.0)[0].size
        assert _weighted_nodes.cache_info().maxsize is not None


# (p, q) of the Gauss-Jacobi tests: a strong singularity against a high
# power, the Chebyshev weight (p + q = -1, where the first off-diagonal entry
# of the Jacobi matrix needs its cancelled form) and Gauss-Legendre
JACOBI_WEIGHTS = [(-0.9, 4.0), (-0.5, -0.5), (0.0, 0.0)]
LADDER = [8, 16, 32, 64]


class TestJacobiRule:
    @pytest.mark.parametrize("n", LADDER)
    @pytest.mark.parametrize("p,q", JACOBI_WEIGHTS)
    def test_nodes_and_weights_match_scipy(self, p, q, n):
        from scipy.special import roots_jacobi
        from bibeta.special import _jacobi_rule
        t, one_minus_t, w = _jacobi_rule(n, p, q)
        # scipy's rule is on (-1, 1) for the weight (1-x)**q * (1+x)**p
        x, wx = roots_jacobi(n, q, p)
        np.testing.assert_allclose(t, (1.0 + x) / 2.0, rtol=0.0, atol=2e-15)
        np.testing.assert_allclose(one_minus_t, (1.0 - x) / 2.0, rtol=0.0, atol=2e-15)
        # scipy's own weights are off by up to 1.6e-10 at (-0.9, 4), n = 64
        # (their moments miss the beta function by that much; ours below
        # do not), so they referee the weights only to 1e-9
        np.testing.assert_allclose(w, wx / 2.0 ** (p + q + 1.0), rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("n", LADDER)
    @pytest.mark.parametrize("p,q", JACOBI_WEIGHTS)
    def test_weights_sum_to_the_beta_function(self, p, q, n):
        from bibeta.special import _jacobi_rule
        _, _, w = _jacobi_rule(n, p, q)
        assert math.fsum(w) == pytest.approx(math.exp(ln_beta_multi((p + 1.0, q + 1.0))),
                                             rel=1e-14, abs=0.0)

    # a high power at one end makes the weights there tiny; t**k with k
    # near 2n - 1 lives on them, so each must be accurate relative to itself
    @pytest.mark.parametrize("n", LADDER)
    @pytest.mark.parametrize("p,q", JACOBI_WEIGHTS + [(3.0, 60.0), (60.0, 3.0)])
    def test_exact_on_polynomials_of_degree_2n_minus_1(self, p, q, n):
        import mpmath
        from bibeta.special import _jacobi_rule
        t, _, w = _jacobi_rule(n, p, q)
        for k in range(2 * n):
            exact = float(mpmath.beta(mpmath.mpf(p) + 1 + k, mpmath.mpf(q) + 1))
            assert math.fsum(w * t ** k) == pytest.approx(exact, rel=1e-11, abs=0.0)

    def test_tables_are_cached_read_only_and_bounded(self):
        from bibeta.special import _jacobi_rule, _ladder_step
        for cache in (_jacobi_rule, _ladder_step):
            assert cache.cache_info().maxsize is not None
        rule = _jacobi_rule(16, -0.5, 0.25)
        assert rule is _jacobi_rule(16, -0.5, 0.25)
        step = _ladder_step(0, -0.5, 0.25, True, True)
        assert step is _ladder_step(0, -0.5, 0.25, True, True)
        fixed, mapped, _, _ = step
        for a in (*rule, *fixed, *(a for side in mapped for a in side)):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestIntegrateJacobiBatch:
    def test_rows_settle_on_their_own_rules_and_the_rest_fall_back(self):
        rates = np.array([0.0, 1.0, 8.0, 40.0, 300.0])

        def smooth(t, one_minus_t, rows):
            return np.exp(-rates[rows][:, None] * t)

        batch = integrate_jacobi_batch(0.5, -0.3, smooth, rates.size, 1e-12)
        assert batch.converged.all()
        # 8 + 16 points, then 32, then 64; the steepest row is handed on
        assert batch.evaluations[:4].tolist() == [24, 24, 56, 120]
        assert batch.fallback.tolist() == [False] * 4 + [True]
        assert batch.evaluations[4] > 120
        for i, c in enumerate(rates):
            one = integrate_unit(0.5, -0.3, lambda t: np.exp(-c * t), tol=1e-13)
            assert batch.value[i] == pytest.approx(one.value, rel=1e-14)
            assert batch.abs_error_estimate[i] <= 1e-12 * batch.value[i]

    def test_rows_match_a_batch_of_one_bit_for_bit(self):
        # near and far ends in one batch: two rows on each layout of pieces,
        # which settle on different rules
        delta = np.array([1e-12, 1e-3, 0.3, 0.9, 1e-5, 1e-10, 2.0, 0.07])
        right = np.array([0.7, 0.2, 1e-9, 1e-2, 1e-3, 1e-7, 3.0, 0.06])

        def smooth(t, one_minus_t, rows):
            d, r = delta[rows][:, None], right[rows][:, None]
            return (d + t) ** -0.4 * (r + one_minus_t) ** 0.3

        batch = integrate_jacobi_batch(-0.2, 0.6, smooth, delta.size, 1e-10, delta, right)
        for i in range(delta.size):
            one = integrate_jacobi_batch(
                -0.2, 0.6, lambda t, one_minus_t, rows, i=i:
                (delta[i] + t) ** -0.4 * (right[i] + one_minus_t) ** 0.3,
                1, 1e-10, float(delta[i]), float(right[i]))
            assert (one.value[0], one.abs_error_estimate[0]) == (
                batch.value[i], batch.abs_error_estimate[i])
            assert one.evaluations[0] == batch.evaluations[i]
        assert len(set(batch.evaluations.tolist())) > 3

    @pytest.mark.parametrize("delta", [1e-14, 1e-9, 1e-4, 0.04])
    def test_a_near_branch_point_is_mapped_away(self, delta):
        # integral of (delta + t)**-0.5 and of (delta + 1 - t)**-0.5 over
        # (0, 1), and of their product, with the branch points given
        half = 2.0 * (math.sqrt(1.0 + delta) - math.sqrt(delta))
        both = math.pi - 4.0 * math.asin(math.sqrt(delta / (1.0 + 2.0 * delta)))
        cases = [(lambda t, one_minus_t, rows: (delta + t) ** -0.5, (delta, None), half),
                 (lambda t, one_minus_t, rows: (delta + one_minus_t) ** -0.5, (None, delta),
                  half),
                 (lambda t, one_minus_t, rows: ((delta + t) * (delta + one_minus_t)) ** -0.5,
                  (delta, delta), both)]
        for smooth, branches, exact in cases:
            batch = integrate_jacobi_batch(0.0, 0.0, smooth, 1, 1e-10, *branches)
            assert batch.converged[0] and not batch.fallback[0]
            assert batch.value[0] == pytest.approx(exact, rel=1e-13)
            # every piece at 8, 16, 32 and 64 points at most
            assert batch.evaluations[0] <= 3 * 120

    def test_unsettled_rows_carry_the_fallback_result(self):
        # cos(1e4 t) oscillates faster than 64 points or 10 levels resolve
        batch = integrate_jacobi_batch(0.0, 0.0, lambda t, one_minus_t, rows:
                                       np.cos(1e4 * t), 1, 1e-10)
        assert batch.fallback[0] and not batch.converged[0]
        assert batch.evaluations[0] == 120 + 6357

    def test_a_factor_that_is_not_finite_is_rejected(self):
        with pytest.raises(DomainError):
            integrate_jacobi_batch(0.0, 0.0, lambda t, one_minus_t, rows:
                                   np.where(t > 0.5, np.inf, 1.0), 2, 1e-10)


class TestHyp2F1:
    def test_unit_at_zero_argument(self):
        assert hyp2f1(0.7, 1.3, 2.0, 0.0) == 1.0
        assert hyp2f1(0.0, 1.3, 2.0, 0.5) == 1.0

    def test_log_identity(self):
        # 2F1(1,1;2;z) = -ln(1-z)/z
        assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-10)

    def test_negative_argument_pinned(self):
        # pinned by the Pfaff-mapped series oracle
        assert hyp2f1(0.3, 1.2, 2.5, -3.0) == pytest.approx(0.7835121623167526, rel=1e-9)

    @pytest.mark.parametrize("abcz", [
        (0.8, 0.6, 1.9, 0.4),
        (2.3, 1.1, 3.0, -0.7),
        (1.5, 2.2, 4.1, 0.85),
        (-0.4, 0.9, 2.6, 0.3),
    ])
    def test_against_series_oracle(self, abcz):
        a, b, c, z = abcz
        assert hyp2f1(a, b, c, z) == pytest.approx(hyp2f1_series(a, b, c, z), rel=1e-9)

    def test_parameter_symmetry(self):
        # both orderings satisfy c > b > 0 here
        assert hyp2f1(1.3, 0.7, 2.2, 0.4) == pytest.approx(
            hyp2f1(0.7, 1.3, 2.2, 0.4), rel=1e-9)

    # float.hex pins of the Euler-integral values: far out on the negative
    # axis, near the branch point z = 1, and the two early returns
    @pytest.mark.parametrize("abcz,pin", [
        ((0.3, 1.2, 2.5, -3.0), "0x1.91288192565fap-1"),
        ((2.5, 0.4, 1.1, -40.0), "0x1.0eee3eb5282b2p-3"),
        ((0.5, 0.7, 2.2, 1.0 - 1e-9), "0x1.5e4610fb1fccdp+0"),
        ((-0.6, 1.3, 2.1, 0.999999), "0x1.085968b6ce882p-1"),
        ((1.5, 0.7, 2.2, 0.999), "0x1.a9a7d51caec8bp+2"),
        ((0.7, 1.3, 2.0, 0.0), "0x1.0000000000000p+0"),
        ((0.0, 1.3, 2.0, 0.5), "0x1.0000000000000p+0"),
    ])
    def test_values_are_pinned(self, abcz, pin):
        assert hyp2f1(*abcz).hex() == pin

    def test_rejects_outside_domain(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 2.0, 1.5, 0.3)     # c <= b
        with pytest.raises(DomainError):
            hyp2f1(1.0, 0.0, 1.5, 0.3)     # b <= 0
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 1.0)     # z at the branch point
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 1.7)
        with pytest.raises(DomainError):
            hyp2f1(math.nan, 1.0, 2.0, 0.5)


class TestAppellF1:
    def test_unit_at_zero_arguments(self):
        assert appell_f1(0.7, 0.4, 0.9, 1.8, 0.0, 0.0) == 1.0

    def test_collapses_to_gauss_when_b2_zero(self):
        got = appell_f1(0.7, 0.4, 0.0, 1.8, 0.3, -0.6)
        assert got == pytest.approx(hyp2f1(0.4, 0.7, 1.8, 0.3), rel=1e-9)
        # pinned value for the same tuple
        assert got == pytest.approx(1.0538860708928226, rel=1e-9)

    def test_double_series_pinned(self):
        assert appell_f1(0.7, 0.4, 0.9, 1.8, 0.3, -0.6) == pytest.approx(
            0.8828418932277526, rel=1e-9)

    @pytest.mark.parametrize("tup", [
        (0.7, 0.4, 0.9, 1.8, 0.3, -0.6),
        (1.4, 0.8, 0.3, 2.9, -0.5, 0.55),
        (2.1, 1.3, 0.6, 3.4, 0.25, 0.7),
    ])
    def test_against_double_series_oracle(self, tup):
        assert appell_f1(*tup) == pytest.approx(appell_f1_series(*tup), rel=1e-9)

    @pytest.mark.parametrize("z", [-0.8, -0.2, 0.35, 0.7])
    def test_equal_arguments_collapse(self, z):
        a, b1, b2, c = 0.9, 0.5, 1.1, 2.4
        # F1 with z1 = z2 = z degenerates to a Gauss function of b1 + b2
        assert appell_f1(a, b1, b2, c, z, z) == pytest.approx(
            hyp2f1(b1 + b2, a, c, z), rel=1e-9)

    def test_rejects_outside_domain(self):
        with pytest.raises(DomainError):
            appell_f1(2.0, 0.4, 0.9, 1.8, 0.3, -0.6)   # c <= a
        with pytest.raises(DomainError):
            appell_f1(0.0, 0.4, 0.9, 1.8, 0.3, -0.6)   # a <= 0
        with pytest.raises(DomainError):
            appell_f1(0.7, 0.4, 0.9, 1.8, 1.0, -0.6)   # z1 at branch point
        with pytest.raises(DomainError):
            appell_f1(0.7, 0.4, 0.9, 1.8, 0.3, 1.2)    # z2 beyond
