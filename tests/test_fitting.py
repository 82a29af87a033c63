import numpy as np
import pytest

from bibeta import fitting
from bibeta.construction import AlphaBivariate, RandomStream, sample_bivariate
from bibeta.errors import DegenerateDataError, DomainError, InfeasibleMomentsError
from bibeta.fitting import (
    FitOptions,
    FitResult,
    alpha_sum_bound,
    fit_data,
    fit_moments,
    initial_guess,
    minimize as nelder_mead,
    objective,
    sample_central_moments,
)
from bibeta.moments import MomentVector, correlation, moment_vector

REFERENCE_ALPHA = AlphaBivariate(4.7, 3.5, 2.1, 3.7)
# target vectors quoted to four decimals, hence not exactly attainable
M_EXACT = MomentVector(0.5857, 0.4856, 0.0162, 0.0167, 0.0034)
M_PERTURBED = MomentVector(0.5738, 0.4647, 0.0151, 0.0170, 0.0035)


class TestSampleCentralMoments:
    def test_hand_example(self):
        data = np.array([[0.2, 0.4], [0.4, 0.2], [0.6, 0.6]])
        m = sample_central_moments(data)
        assert m.m10 == pytest.approx(0.4, rel=1e-14)
        assert m.m01 == pytest.approx(0.4, rel=1e-14)
        assert m.m20 == pytest.approx(0.08 / 3.0, rel=1e-13)
        assert m.m02 == pytest.approx(0.08 / 3.0, rel=1e-13)
        assert m.m11 == pytest.approx(0.04 / 3.0, rel=1e-13)

    def test_matches_population_values_in_the_large(self):
        draws = sample_bivariate(REFERENCE_ALPHA, 10 ** 6, RandomStream(41))
        m = sample_central_moments(draws)
        truth = moment_vector(REFERENCE_ALPHA)
        assert m.m10 == pytest.approx(truth.m10, abs=2e-3)
        assert m.m20 == pytest.approx(truth.m20, rel=2e-2)
        assert m.m11 == pytest.approx(truth.m11, rel=5e-2)

    def test_rejects_too_few_points(self):
        with pytest.raises(DegenerateDataError):
            sample_central_moments(np.array([[0.2, 0.4], [0.4, 0.2]]))

    def test_rejects_constant_data(self):
        with pytest.raises(DegenerateDataError):
            sample_central_moments(np.full((50, 2), 0.3))

    def test_rejects_out_of_range_data(self):
        with pytest.raises(DomainError):
            sample_central_moments(np.array([[0.2, 0.4], [1.4, 0.2], [0.6, 0.6]]))
        with pytest.raises(DomainError):
            sample_central_moments(np.array([[0.2, 0.4], [0.0, 0.2], [0.6, 0.6]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            sample_central_moments(np.array([0.2, 0.4, 0.6]))


class TestAlphaSumBound:
    def test_reference_target(self):
        assert alpha_sum_bound(M_EXACT) == pytest.approx(13.9787, abs=1e-4)

    def test_exact_moments_imply_the_true_total(self):
        m = moment_vector(REFERENCE_ALPHA)
        assert alpha_sum_bound(m) == pytest.approx(14.0, rel=1e-12)

    def test_symmetric_beta_margins(self):
        m = MomentVector(0.5, 0.5, 0.05, 0.05, 0.0)
        assert alpha_sum_bound(m) == pytest.approx(4.0, rel=1e-13)

    def test_infeasible_when_both_margins_saturate(self):
        with pytest.raises(InfeasibleMomentsError):
            alpha_sum_bound(MomentVector(0.5, 0.5, 0.25, 0.25, 0.0))


class TestObjective:
    def test_zero_at_own_moments(self):
        m = moment_vector(REFERENCE_ALPHA)
        assert objective(REFERENCE_ALPHA, m) == 0.0

    def test_rounded_target_sits_near_but_not_at_zero(self):
        v = objective(REFERENCE_ALPHA, M_EXACT)
        assert 1e-9 < v < 1e-7


class TestInitialGuess:
    def test_inverts_exact_moments(self):
        rng = np.random.Generator(np.random.PCG64(611))
        for _ in range(25):
            truth = AlphaBivariate(*rng.uniform(0.2, 20.0, size=4))
            g = initial_guess(moment_vector(truth))
            assert np.allclose(g.as_array(), truth.as_array(), rtol=1e-9, atol=1e-9)

    def test_uniform_fixed_point(self):
        g = initial_guess(moment_vector(AlphaBivariate(1, 1, 1, 1)))
        assert np.allclose(g.as_array(), 1.0, rtol=1e-12)

    def test_perfect_correlation_is_clipped_not_fatal(self):
        g = initial_guess(MomentVector(0.5, 0.5, 0.05, 0.05, 0.05))
        arr = g.as_array()
        assert np.all(arr >= 1e-6)
        assert arr[0] == pytest.approx(2.0, rel=1e-12)
        assert arr[3] == pytest.approx(2.0, rel=1e-12)


class TestFitMoments:
    def test_reference_exact_target(self):
        res = fit_moments(M_EXACT)
        assert isinstance(res, FitResult)
        assert res.converged
        assert res.objective_value <= 1e-9
        expected = np.array([4.699, 3.502, 2.101, 3.700])
        assert np.max(np.abs(res.alpha_star.as_array() - expected)) < 0.05

    def test_reference_perturbed_target(self):
        res = fit_moments(M_PERTURBED)
        assert res.converged
        assert 1e-7 <= res.objective_value <= 1e-5
        expected = np.array([4.602, 3.639, 2.072, 4.049])
        assert np.max(np.abs(res.alpha_star.as_array() - expected)) < 0.15

    def test_uniform_recovery(self):
        res = fit_moments(moment_vector(AlphaBivariate(1, 1, 1, 1)))
        assert res.converged
        assert res.objective_value <= 1e-12
        assert np.max(np.abs(res.alpha_star.as_array() - 1.0)) < 1e-4

    def test_exact_recovery_random_parameters(self):
        rng = np.random.Generator(np.random.PCG64(601))
        for _ in range(5):
            truth = AlphaBivariate(*rng.uniform(0.2, 20.0, size=4))
            m = moment_vector(truth)
            res = fit_moments(m)
            assert res.converged
            assert res.objective_value <= 1e-10
            assert np.max(np.abs(res.alpha_star.as_array() - truth.as_array())) < 1e-3

    def test_result_respects_the_feasibility_bound(self):
        for m in (M_EXACT, M_PERTURBED, moment_vector(REFERENCE_ALPHA)):
            res = fit_moments(m)
            assert res.alpha_star.total < alpha_sum_bound(m)
            assert np.all(res.alpha_star.as_array() > 0.0)

    def test_never_worse_than_a_feasible_starting_guess(self):
        # both rounded targets give a strictly feasible closed-form guess
        for m in (M_EXACT, M_PERTURBED):
            guess = initial_guess(m)
            assert guess.total < alpha_sum_bound(m)
            res = fit_moments(m)
            assert res.objective_value <= objective(guess, m)

    def test_restart_budget_is_reported(self):
        res = fit_moments(M_EXACT, FitOptions(restarts=3))
        assert 1 <= res.restarts_used <= 3

    def test_every_start_runs_when_none_converges(self):
        res = fit_moments(M_EXACT, FitOptions(max_iterations=1, restarts=3))
        assert res.restarts_used == 3
        assert not res.converged

    def test_a_start_ending_on_the_hinge_gets_a_restart(self, monkeypatch):
        real = fitting.minimize
        hinge_at = alpha_sum_bound(M_PERTURBED) * (1.0 - fitting._BOUND_MARGIN)
        starts = []

        def first_on_hinge(fun, x0, **kwargs):
            res = real(fun, x0, **kwargs)
            starts.append(res)
            if len(starts) == 1:
                # push the converged start just past the hinge
                res.x = res.x + np.log(1.001 * hinge_at / np.sum(np.exp(res.x)))
                res.fun = fun(res.x)
            return res

        monkeypatch.setattr(fitting, "minimize", first_on_hinge)
        res = fit_moments(M_PERTURBED)
        assert starts[0].success
        assert res.restarts_used == len(starts) == 2
        assert res.converged


class TestFitData:
    def test_recovers_reference_parameters_from_samples(self):
        draws = sample_bivariate(REFERENCE_ALPHA, 10 ** 6, RandomStream(301))
        res = fit_data(draws)
        assert res.converged
        assert np.max(np.abs(res.alpha_star.as_array() - REFERENCE_ALPHA.as_array())) < 0.05

    def test_reference_sample_fit_needs_one_start(self):
        draws = sample_bivariate(REFERENCE_ALPHA, 10 ** 6, RandomStream(301))
        res = fit_data(draws)
        assert res.restarts_used == 1

    def test_third_order_targets_match_the_power_formula(self):
        draws = sample_bivariate(REFERENCE_ALPHA, 10 ** 5, RandomStream(304))
        dx = draws[:, 0] - draws[:, 0].mean()
        dy = draws[:, 1] - draws[:, 1].mean()
        expected = (np.mean(dx ** 3), np.mean(dy ** 3),
                    np.mean(dx * dx * dy), np.mean(dx * dy * dy))
        got = fitting._third_order_targets(draws)
        assert np.allclose(got, expected, rtol=1e-14, atol=0.0)

    def test_uniform_data_gives_near_zero_correlation(self):
        draws = sample_bivariate(AlphaBivariate(1, 1, 1, 1), 10 ** 5, RandomStream(302))
        res = fit_data(draws)
        assert res.converged
        assert abs(correlation(res.alpha_star)) < 0.02

    def test_third_order_matching_smoke(self):
        draws = sample_bivariate(REFERENCE_ALPHA, 10 ** 5, RandomStream(303))
        res = fit_data(draws, match_third_order=True)
        assert res.converged
        assert np.max(np.abs(res.alpha_star.as_array() - REFERENCE_ALPHA.as_array())) < 0.5

    def test_degenerate_data_raises(self):
        with pytest.raises(DegenerateDataError):
            fit_data(np.full((100, 2), 0.4))


class TestFitOptions:
    def test_defaults(self):
        opts = FitOptions()
        assert opts.restarts == 8
        assert opts.max_iterations == 4000
        assert opts.objective_tolerance == 1e-13
        assert opts.seed == 0

    @pytest.mark.parametrize("kwargs", [
        {"restarts": 0},
        {"restarts": -2},
        {"max_iterations": 0},
        {"objective_tolerance": 0.0},
        {"objective_tolerance": -1e-9},
        {"seed": -1},
        {"seed": 2 ** 64},
        {"seed": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            FitOptions(**kwargs)


def _scipy_nelder_mead(fun, x0, *, maxiter, maxfev, xatol, fatol):
    from scipy.optimize import minimize
    return minimize(fun, x0, method="Nelder-Mead",
                    options={"maxiter": maxiter, "maxfev": maxfev, "xatol": xatol,
                             "fatol": fatol, "adaptive": False})


def _assert_bitwise_equal(port, ref):
    assert port.x.tobytes() == np.asarray(ref.x, dtype=float).tobytes()
    assert float(port.fun).hex() == float(ref.fun).hex()
    assert (port.nit, port.nfev, port.success) == (ref.nit, ref.nfev, bool(ref.success))


class TestNelderMeadPort:
    """``fitting.minimize`` against scipy's Nelder-Mead on ``_fit``'s own
    penalized objective, start by start."""

    @pytest.fixture
    def starts(self, monkeypatch):
        real = fitting.minimize
        seen = []

        def both(fun, x0, **kwargs):
            res = real(fun, x0, **kwargs)
            seen.append((fun, x0, kwargs, res, _scipy_nelder_mead(fun, x0, **kwargs)))
            return res

        monkeypatch.setattr(fitting, "minimize", both)
        return seen

    def test_reference_sample_fit(self, starts):
        fit_data(sample_bivariate(REFERENCE_ALPHA, 10 ** 6, RandomStream(301)))
        assert len(starts) == 1
        for *_, port, ref in starts:
            assert port.success
            _assert_bitwise_equal(port, ref)

    def test_third_order_fit(self, starts):
        fit_data(sample_bivariate(REFERENCE_ALPHA, 10 ** 5, RandomStream(303)),
                 match_third_order=True)
        assert starts
        for *_, port, ref in starts:
            _assert_bitwise_equal(port, ref)

    def test_unconverged_starts(self, starts):
        fit_moments(M_EXACT, FitOptions(max_iterations=1, restarts=3))
        assert len(starts) == 3
        for *_, port, ref in starts:
            assert not port.success and port.nit == 1
            _assert_bitwise_equal(port, ref)

    @pytest.mark.parametrize("maxfev", [3, 37])
    def test_evaluation_cap(self, starts, maxfev):
        # 3 stops inside the initial simplex, 37 in the middle of a search
        fit_moments(M_PERTURBED)
        fun, x0, kwargs = starts[0][:3]
        kwargs = dict(kwargs, maxfev=maxfev)
        port = nelder_mead(fun, x0, **kwargs)
        assert port.nfev == maxfev and not port.success
        _assert_bitwise_equal(port, _scipy_nelder_mead(fun, x0, **kwargs))
