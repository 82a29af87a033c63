import math

import numpy as np
import pytest

from bibeta.errors import ConvergenceError, DomainError
from bibeta.special import (QuadratureResult, appell_f1, hyp2f1, integrate_jacobi_batch,
                            integrate_unit, ln_beta_multi)
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
        # the Chebyshev weight is the rule's own: 8 and 16 points agree
        res = integrate_unit(-0.5, -0.5, lambda t: np.ones_like(t))
        assert res.evaluations == 24

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
        # cos(1e4 t) oscillates faster than 128 points resolve
        with pytest.raises(ConvergenceError) as err:
            integrate_unit(0.0, 0.0, lambda t: np.cos(1e4 * t), tol=1e-10)
        best = err.value.result
        assert isinstance(best, QuadratureResult)
        assert math.isfinite(best.value)
        assert best.evaluations == 248
        assert "within 128 points (248 evaluations)" in str(err.value)

    def test_a_factor_that_is_not_finite_is_rejected(self):
        with pytest.raises(DomainError):
            integrate_unit(0.0, 0.0, lambda t: np.where(t > 0.5, np.inf, 1.0))
        with pytest.raises(DomainError):
            integrate_unit(0.0, 0.0, lambda t: np.where(t > 0.5, np.nan, 1.0))

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


# (p, q) of the Gauss-Jacobi tests: a strong singularity against a high
# power, the Chebyshev weight (p + q = -1, where the first off-diagonal entry
# of the Jacobi matrix needs its cancelled form) and Gauss-Legendre
JACOBI_WEIGHTS = [(-0.9, 4.0), (-0.5, -0.5), (0.0, 0.0)]
LADDER = [8, 16, 32, 64, 128]


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


def _column(values):
    return np.asarray(values, dtype=float)[:, None]


def _log_integral(h, pieces=64):
    # log of the integral of exp(h) over (0, 1) in 40-digit arithmetic, on
    # equal pieces, each scaled to order one (mpmath's rule stops on an
    # absolute error)
    import mpmath
    with mpmath.workdps(40):
        cuts = [mpmath.mpf(k) / pieces for k in range(pieces + 1)]
        top = max(h(c) for c in cuts[1:-1])
        total = mpmath.quad(lambda t: mpmath.exp(h(t) - top), cuts)
        return float(mpmath.log(total) + top)


class TestIntegrateJacobiBatch:
    def test_rows_settle_on_their_own_rules_and_the_rest_go_to_the_peak(self):
        # t**0.5 (1-t)**-0.3 ((1 + c t) (1 + c (1-t)))**300: flat at c = 0,
        # a peak of width 0.02 at c = 9, which 128 points do not settle
        c = np.array([0.0, 1e-3, 1.0, 9.0])
        ones = _column(np.ones(c.size))
        factors = [(ones, _column(c), 300.0, False, None), (ones, _column(c), 300.0, True, None)]
        batch = integrate_jacobi_batch(0.5, -0.3, factors, c.size, 1e-12)
        assert batch.converged.all()
        # 8 + 16 points, then 32, 64 and 128; the last row goes on
        assert batch.evaluations[:3].tolist() == [24, 24, 248]
        assert batch.evaluations[3] > 248
        assert batch.log_scale[:3].tolist() == [0.0, 0.0, 0.0] and batch.log_scale[3] > 700.0
        for i, ci in enumerate(c):
            import mpmath
            exact = _log_integral(lambda t: 0.5 * mpmath.log(t) - 0.3 * mpmath.log(1 - t)
                                  + 300 * mpmath.log((1 + ci * t) * (1 + ci * (1 - t))))
            got = math.log(batch.value[i]) + batch.log_scale[i]
            assert got == pytest.approx(exact, rel=0.0, abs=1e-12)
            assert batch.abs_error_estimate[i] <= 1e-12 * batch.value[i]

    def test_rows_match_the_plain_ladder(self):
        # rows that need different rules stop on their own, with the bits of
        # integrate_unit, the ladder on a batch of one
        c = np.array([0.0, 1.0, 8.0, 40.0])
        factors = [(_column(np.ones(c.size)), _column(c), -3.0, False, None)]
        batch = integrate_jacobi_batch(0.5, -0.3, factors, c.size, 1e-12)
        assert batch.converged.all()
        for i, ci in enumerate(c):
            one = integrate_unit(0.5, -0.3, lambda t: np.power(1.0 + ci * t, -3.0), tol=1e-12)
            assert (batch.value[i], batch.abs_error_estimate[i]) == (
                one.value, one.abs_error_estimate)
            assert batch.evaluations[i] == one.evaluations
        assert len(set(batch.evaluations.tolist())) == 4

    def test_rows_match_a_batch_of_one_bit_for_bit(self):
        # near and far ends in one batch: two rows on each layout of pieces,
        # which settle on different rules
        delta = np.array([1e-12, 1e-3, 0.3, 0.9, 1e-5, 1e-10, 2.0, 0.07])
        right = np.array([0.7, 0.2, 1e-9, 1e-2, 1e-3, 1e-7, 3.0, 0.06])
        ones = _column(np.ones(delta.size))
        batch = integrate_jacobi_batch(
            -0.2, 0.6, [(_column(delta), ones, -0.4, False, delta),
                        (_column(right), ones, 0.3, True, right)], delta.size, 1e-10)
        for i in range(delta.size):
            d, r = float(delta[i]), float(right[i])
            one = integrate_jacobi_batch(-0.2, 0.6, [(d, 1.0, -0.4, False, d),
                                                     (r, 1.0, 0.3, True, r)], 1, 1e-10)
            assert (one.value[0], one.abs_error_estimate[0]) == (
                batch.value[i], batch.abs_error_estimate[i])
            assert one.evaluations[0] == batch.evaluations[i]
        assert len(set(batch.evaluations.tolist())) > 3

    # (p, q, e_left, e_right) and rows of (base, slope, branch) per factor:
    # (delta + t)**e_left and (r + 1 - t)**e_right with neither end near,
    # the left, the right or both near, and (1 + c t)**300 (1 + c (1-t))**300,
    # whose row at c = 9 goes on to the peak layout
    POWERS = [(0.5, -0.3, -0.4, 0.3), (-0.2, 0.6, -0.4, 0.3), (0.0, 0.0, 300.0, 300.0)]
    NEAR = [(d, 1.0, d, r, 1.0, r) for d, r in [(0.3, 0.7), (1e-5, 0.7), (0.3, 1e-7),
                                                (1e-9, 1e-3)]]
    PEAK = [(1.0, c, math.inf, 1.0, c, math.inf) for c in (0.0, 1.0, 9.0)]

    @staticmethod
    def _batch(powers, rows):
        """One kernel call: per-row powers, or floats where every row shares
        them."""
        p, q, e_left, e_right = (np.array(c) if isinstance(c, tuple) else c
                                 for c in powers)
        bl, sl, dl, br, sr, dr = (np.array(c) for c in zip(*rows))
        factors = [(bl[:, None], sl[:, None], e_left, False, dl),
                   (br[:, None], sr[:, None], e_right, True, dr)]
        return integrate_jacobi_batch(p, q, factors, len(rows), 1e-10)

    @pytest.mark.parametrize("order", ["by_powers", "interleaved"])
    def test_per_row_powers_match_a_call_per_pair(self, order):
        # every row climbs its own ladder on the rules of its own powers, in
        # the one call, as in a call of its powers alone: the same bits
        groups = [(powers, self.PEAK if powers[2] == 300.0 else self.NEAR)
                  for powers in self.POWERS]
        rows = [(powers, row) for powers, group in groups for row in group]
        if order == "interleaved":
            rows = rows[::2] + rows[1::2]
        batch = self._batch(tuple(zip(*(powers for powers, _ in rows))),
                            [row for _, row in rows])
        assert batch.log_scale is not None
        for powers, _ in groups:
            at = [i for i, (pw, _) in enumerate(rows) if pw == powers]
            alone = self._batch(powers, [rows[i][1] for i in at])
            for name in ("value", "abs_error_estimate", "evaluations", "converged"):
                assert np.array_equal(getattr(batch, name)[at], getattr(alone, name))
            scale = np.zeros(len(at)) if alone.log_scale is None else alone.log_scale
            assert np.array_equal(batch.log_scale[at], scale)
        # mapped ends and the peak layout both ran
        assert batch.converged.all() and batch.log_scale.max() > 700.0
        assert len(set(batch.evaluations.tolist())) > 5

    @pytest.mark.parametrize("delta", [1e-14, 1e-9, 1e-4, 0.04])
    def test_a_near_branch_point_is_mapped_away(self, delta):
        # integral of (delta + t)**-0.5 and of (delta + 1 - t)**-0.5 over
        # (0, 1), and of their product, with the branch points given
        half = 2.0 * (math.sqrt(1.0 + delta) - math.sqrt(delta))
        both = math.pi - 4.0 * math.asin(math.sqrt(delta / (1.0 + 2.0 * delta)))
        left, right = (delta, 1.0, -0.5, False, delta), (delta, 1.0, -0.5, True, delta)
        for factors, exact in [([left], half), ([right], half), ([left, right], both)]:
            batch = integrate_jacobi_batch(0.0, 0.0, factors, 1, 1e-10)
            assert batch.converged[0] and batch.log_scale is None
            assert batch.value[0] == pytest.approx(exact, rel=1e-13)
            # every piece at 8, 16, 32 and 64 points at most
            assert batch.evaluations[0] <= 3 * 120

    def test_one_minus_t_stays_positive_where_t_rounds_to_1(self):
        # the mapped right end: nodes 1e-20 from t = 1 round t to 1, and
        # 1 - t is the distance itself
        from bibeta.special import _step_nodes
        t, one_minus_t, _, _ = _step_nodes(0, 0.0, 0.0, (False, True), None,
                                           (1e-20, math.log1p(0.125 / 1e-20)))
        assert np.any(t == 1.0) and np.all(one_minus_t > 0.0)
        # so a factor that nearly vanishes at t = 1 is resolved from it:
        # integral of (1e-20 + (1-t))**-0.9 over (0, 1)
        batch = integrate_jacobi_batch(0.0, 0.0, [(1e-20, 1.0, -0.9, True, 1e-20)], 1, 1e-12)
        assert batch.converged[0]
        assert batch.value[0] == pytest.approx(10.0 * ((1.0 + 1e-20) ** 0.1 - 1e-2), rel=1e-10)

    @pytest.mark.parametrize("e", [1500.0, -1500.0])
    def test_a_sum_past_the_float_range_is_summed_in_logs(self, e):
        # (1 + t)**e (2 - t)**e overflows or underflows at every node: the
        # row goes straight from the 8 + 16 points to the peak layout
        factors = [(1.0, 1.0, e, False, None), (1.0, 1.0, e, True, None)]
        batch = integrate_jacobi_batch(0.0, 0.0, factors, 1, 1e-10)
        assert batch.converged[0]
        assert abs(batch.log_scale[0]) > 700.0
        import mpmath
        exact = _log_integral(lambda t: e * mpmath.log((1 + t) * (2 - t)))
        got = math.log(batch.value[0]) + batch.log_scale[0]
        # to 1e-10 relative in the integral; the terms' logs, about 1000,
        # carry rounding of some 1e-13 each
        assert got == pytest.approx(exact, rel=0.0, abs=1e-10)
        assert batch.abs_error_estimate[0] <= 1e-10 * batch.value[0]

    def test_unsettled_rows_are_flagged(self):
        # cos(1e4 k t) oscillates faster than 128 points resolve; the plain
        # ladder hands back every row with its last estimate
        from bibeta.special import _run_ladder
        rates = np.array([1e4, 2e4, 3e4])
        out = (np.empty(3), np.empty(3), np.empty(3, dtype=np.int64), np.zeros(3, dtype=bool))
        rest = _run_ladder(0.0, 0.0, (False, False), lambda t, one_minus_t, rows:
                           np.cos(rates[rows][:, None] * t), np.arange(3), None, None, 1e-10,
                           out)
        assert rest.tolist() == [0, 1, 2]
        assert not out[3].any()
        assert np.all(np.isfinite(out[0]))
        assert out[2].tolist() == [248] * 3


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
    # axis, near the branch point z = 1, and the two early returns; each
    # within 1.0e-15 of 30-digit mpmath.hyp2f1 at the same arguments
    @pytest.mark.parametrize("abcz,pin", [
        ((0.3, 1.2, 2.5, -3.0), "0x1.91288192565f1p-1"),
        ((2.5, 0.4, 1.1, -40.0), "0x1.0eee3eb5282b0p-3"),
        ((0.5, 0.7, 2.2, 1.0 - 1e-9), "0x1.5e4610fb1fccap+0"),
        ((-0.6, 1.3, 2.1, 0.999999), "0x1.085968b6ce885p-1"),
        ((1.5, 0.7, 2.2, 0.999), "0x1.a9a7d51caec99p+2"),
        ((0.7, 1.3, 2.0, 0.0), "0x1.0000000000000p+0"),
        ((0.0, 1.3, 2.0, 0.5), "0x1.0000000000000p+0"),
    ])
    def test_values_are_pinned(self, abcz, pin):
        assert hyp2f1(*abcz).hex() == pin

    # the factor 1 - z t nearly vanishes at t = 1 as z -> 1, and is large
    # at t = 1 for z << 0: the kernel maps the branch point 1/z away
    @pytest.mark.parametrize("z", [1.0 - 10.0 ** -k for k in (3, 6, 9, 12)]
                             + [-10.0 ** k for k in (3, 5, 8)])
    @pytest.mark.parametrize("abc", [(0.5, 0.7, 2.2), (-1.3, 1.6, 2.1), (2.4, 0.3, 0.9)])
    def test_near_the_branch_point_against_mpmath(self, abc, z):
        import mpmath
        with mpmath.workdps(30):
            exact = float(mpmath.hyp2f1(*abc, z))
        assert hyp2f1(*abc, z) == pytest.approx(exact, rel=1e-9)

    def test_a_peak_in_log_distance_from_the_mapped_end(self):
        # the integrand leaves the float range and peaks about 3.5e-9 from
        # t = 1, inside the piece of (0, 1) that the kernel maps there: the
        # peak layout cuts it at the nodes of its 128-point rule
        import mpmath
        abcz = (96.38047180571812, 0.01953945081459193, 84.62191154184517, 0.9999999994670301)
        with mpmath.workdps(30):
            exact = float(mpmath.hyp2f1(*abcz))
        assert exact == pytest.approx(8.103110853492315e+91, rel=1e-15)
        assert hyp2f1(*abcz) == pytest.approx(exact, rel=1e-9)

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

    @pytest.mark.parametrize("k", [2, 5, 8, 11])
    @pytest.mark.parametrize("tup", [(0.8, 0.6, -1.2, 2.3), (2.1, -0.7, 1.4, 2.9),
                                     (0.4, 1.3, 0.5, 3.6)])
    def test_near_the_branch_points_against_mpmath(self, tup, k):
        # z1 -> 1 and z2 << 0 together, against the Euler integral in
        # 30-digit arithmetic at the same arguments: each half in the
        # distance s from its end, cut at geometric distances from the
        # branch point beyond that end
        import mpmath
        a, b1, b2, c = tup
        z1, z2 = 1.0 - 10.0 ** -k, -(10.0 ** (k - 2))
        with mpmath.workdps(30):
            a_, b1_, b2_, c_, z1_, z2_ = map(mpmath.mpf, (a, b1, b2, c, z1, z2))

            def half(f, near):
                cuts = {mpmath.mpf(0), mpmath.mpf(0.5)}
                cuts |= {near * 10 ** j for j in range(k + 1) if near * 10 ** j < 0.5}
                return mpmath.quad(f, sorted(cuts))

            integral = (half(lambda s: s ** (a_ - 1) * (1 - s) ** (c_ - a_ - 1)
                             * (1 - z1_ * s) ** -b1_ * (1 - z2_ * s) ** -b2_, -1 / z2_)
                        + half(lambda s: (1 - s) ** (a_ - 1) * s ** (c_ - a_ - 1)
                               * (1 - z1_ + z1_ * s) ** -b1_ * (1 - z2_ + z2_ * s) ** -b2_,
                               (1 - z1_) / z1_))
            exact = float(integral / mpmath.beta(a_, c_ - a_))
        assert appell_f1(a, b1, b2, c, z1, z2) == pytest.approx(exact, rel=1e-9)

    # large a and c with z1 within 1e-9 of 1: the integrand leaves the float
    # range and takes the peak layout.  Each value is the Euler integral in
    # 40-digit mpmath, cut at 1/400 steps, at 10**-k from either end and at
    # 2**-k round the best of some 4700 grid points (two such cut sets, at 40
    # and 45 digits, agree to 1e-35)
    @pytest.mark.parametrize("tup,exact", [
        ((725.1845228405638, 134.02146036677584, -181.30697167910756, 826.0287146082453,
          0.9999999999985899, 0.9975219214629064), 3.351625788578006e+21),
        ((118.56142493811338, 115.0208897894907, -23.2347443588082, 225.9217486595083,
          0.9999999997536543, 0.9957505336158498), 4.1293273148990704e+74),
        ((508.91687596386015, 153.0588948722081, -238.733070230554, 517.828424626533,
          0.9999999999985906, 0.9999999890215979), 1.8685185232623352e-95),
    ])
    def test_large_parameters_near_the_branch_point(self, tup, exact):
        assert appell_f1(*tup) == pytest.approx(exact, rel=1e-9)

    def test_rejects_outside_domain(self):
        with pytest.raises(DomainError):
            appell_f1(2.0, 0.4, 0.9, 1.8, 0.3, -0.6)   # c <= a
        with pytest.raises(DomainError):
            appell_f1(0.0, 0.4, 0.9, 1.8, 0.3, -0.6)   # a <= 0
        with pytest.raises(DomainError):
            appell_f1(0.7, 0.4, 0.9, 1.8, 1.0, -0.6)   # z1 at branch point
        with pytest.raises(DomainError):
            appell_f1(0.7, 0.4, 0.9, 1.8, 0.3, 1.2)    # z2 beyond
