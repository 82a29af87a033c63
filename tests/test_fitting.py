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
    objective,
    sample_central_moments,
)
from bibeta.moments import MomentVector, central_moment, correlation, moment_vector
from oracles import central_moment_mpmath

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


_VALID = np.array([[0.2, 0.4], [0.4, 0.2], [0.6, 0.6], [0.7, 0.3]])
_OUTSIDE = "data points must lie strictly inside the unit square"
_LAYOUTS = ["c", "list", "fortran", "strided"]


# more rows than three leaves of the moment pass
_MANY = sample_bivariate(REFERENCE_ALPHA, 3 * fitting._SUM_LEAF + 5, RandomStream(8))


def _with(col, value):
    data = _VALID.copy()
    data[1, col] = value
    return data


def _in_layout(data, layout):
    """The same values as a list, a Fortran-ordered array or a strided view."""
    if layout == "list":
        return data.tolist()
    if layout == "fortran":
        return np.asfortranarray(data)
    if layout == "strided":
        wide = np.zeros(tuple(2 * k + 1 for k in data.shape), dtype=data.dtype)
        view = wide[(slice(1, None, 2),) * data.ndim]
        view[...] = data
        return view
    return data


class TestDataValidation:
    """The errors of ``sample_central_moments`` and ``fit_data``: type and
    message for each kind of bad data, in every input layout."""

    @pytest.mark.parametrize("data, error, message", [
        *[(_with(col, v), DomainError, _OUTSIDE)
          for col in (0, 1) for v in (np.nan, np.inf, -np.inf, 0.0, 1.0)],
        (np.column_stack((np.full(4, 0.3), _VALID[:, 1])), DegenerateDataError,
         "constant coordinate: sample variance is zero"),
        (np.column_stack((_VALID[:, 0], np.full(4, 0.3))), DegenerateDataError,
         "constant coordinate: sample variance is zero"),
        # NaN outranks a constant column
        (np.column_stack(([0.3, np.nan, 0.3], [0.3, 0.3, 0.3])), DomainError, _OUTSIDE),
        # distinct subnormal values whose centred squares underflow to 0
        (np.column_stack(([5e-324, 5e-324, 1e-323], [0.2, 0.4, 0.6])), DegenerateDataError,
         "zero sample variance in at least one coordinate"),
        (np.column_stack(([0.2, 0.4, 0.6], [1e-323, 5e-324, 5e-324])), DegenerateDataError,
         "zero sample variance in at least one coordinate"),
        (_VALID[:2], DegenerateDataError, "need at least 3 points, got 2"),
        (_VALID[:, 0], DomainError, "data must be an (n, 2) array of pairs, got shape (4,)"),
        (_VALID.T, DomainError, "data must be an (n, 2) array of pairs, got shape (2, 4)"),
    ])
    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("entry", [sample_central_moments, fit_data])
    def test_bad_data_raises(self, entry, layout, data, error, message):
        with pytest.raises(error) as info:
            entry(_in_layout(data, layout))
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("data", [
        [[0.2, 0.4], [0.4], [0.6, 0.6]],
        [[0.2, 0.4], [0.4, "a"], [0.6, 0.6]],
        np.array([["0.2", "0.4"], ["0.4", "b"], ["0.6", "0.6"]]),
        _VALID + 0j,
        _VALID + 1e-3j,
        (_VALID + 0j).tolist(),
        np.array((_VALID + 0j).tolist(), dtype=object),
    ])
    @pytest.mark.parametrize("entry", [sample_central_moments, fit_data])
    def test_data_that_is_not_real_numbers_raises(self, entry, data):
        with pytest.raises(DomainError) as info:
            entry(data)
        assert type(info.value) is DomainError
        assert str(info.value) == "data must be an (n, 2) array of real numbers"

    # a None entry is not a point off the square, and numeric strings are
    # not parsed
    @pytest.mark.parametrize("data", [
        np.array([[0.2, 0.4], [0.4, None], [0.6, 0.6]], dtype=object),
        _VALID.astype(str),
    ])
    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("entry", [sample_central_moments, fit_data])
    def test_none_and_numeric_strings_are_not_real_numbers(self, entry, layout, data):
        with pytest.raises(DomainError) as info:
            entry(_in_layout(data, layout))
        assert type(info.value) is DomainError
        assert str(info.value) == "data must be an (n, 2) array of real numbers"

    # the bad value sits only in the last of several leaves of the moment pass
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, 1.0])
    @pytest.mark.parametrize("col", [0, 1])
    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("entry", [sample_central_moments, fit_data])
    def test_bad_value_in_the_last_leaf_raises(self, entry, layout, col, value):
        data = _MANY.copy()
        data[-1, col] = value
        with pytest.raises(DomainError) as info:
            entry(_in_layout(data, layout))
        assert type(info.value) is DomainError
        assert str(info.value) == _OUTSIDE

    @pytest.mark.parametrize("col", [0, 1])
    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_constant_column_over_several_leaves_raises(self, layout, col):
        data = _MANY.copy()
        data[:, col] = 0.3
        for entry in (sample_central_moments, fit_data):
            with pytest.raises(DegenerateDataError) as info:
                entry(_in_layout(data, layout))
            assert type(info.value) is DegenerateDataError
            assert str(info.value) == "constant coordinate: sample variance is zero"

    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_layouts_give_the_same_results(self, layout):
        data = sample_bivariate(REFERENCE_ALPHA, 1000, RandomStream(5))
        given = _in_layout(data, layout)
        before = np.array(given, copy=True)
        assert sample_central_moments(given) == sample_central_moments(data)
        assert (fitting._data_moments(given, third=True)[1]
                == fitting._data_moments(data, third=True)[1])
        assert fit_data(given) == fit_data(data)
        assert np.array_equal(np.asarray(given), before)


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
        got = fitting._data_moments(draws, third=True)[1]
        assert np.allclose(got, expected, rtol=1e-14, atol=0.0)

    # 2 * _SUM_LEAF + 9 splits at a half rounded down to a multiple of 8
    @pytest.mark.parametrize("n", [3, 8, 129, fitting._SUM_LEAF, fitting._SUM_LEAF + 1,
                                   2 * fitting._SUM_LEAF + 9, 3 * fitting._SUM_LEAF + 5,
                                   10 ** 5 + 3])
    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_moments_are_whole_column_pairwise_means(self, layout, n):
        draws = sample_bivariate(REFERENCE_ALPHA, n, RandomStream(305))
        given = _in_layout(draws, layout)
        x, y = draws[:, 0].copy(), draws[:, 1].copy()
        dx, dy = x - x.mean(), y - y.mean()
        m = sample_central_moments(given)
        assert m.as_tuple() == (x.mean(), y.mean(), np.mean(dx * dx), np.mean(dy * dy),
                                np.mean(dx * dy))
        assert fitting._data_moments(given, third=True)[1] == (
            np.mean(dx * dx * dx), np.mean(dy * dy * dy),
            np.mean(dx * dx * dy), np.mean(dx * dy * dy))

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


def _record_evaluations(monkeypatch) -> list:
    """The points at which the fits that follow evaluate their residuals."""
    evaluated = []
    fitting_minimize = fitting.minimize

    def recorded(residuals, x0, **kwargs):
        def counted(x):
            evaluated.append(x.copy())
            return residuals(x)
        return fitting_minimize(counted, x0, **kwargs)

    monkeypatch.setattr(fitting, "minimize", recorded)
    return evaluated


class TestFitReport:
    def test_solver_counts_are_summed_over_starts(self, monkeypatch):
        runs = []

        def recorded(*args, **kwargs):
            runs.append(fitting_minimize(*args, **kwargs))
            return runs[-1]

        fitting_minimize = fitting.minimize
        monkeypatch.setattr(fitting, "minimize", recorded)
        res = fit_moments(M_EXACT, FitOptions(max_iterations=1, restarts=3))
        assert len(runs) == res.restarts_used == 3
        assert res.nit == sum(r.nit for r in runs) == 3
        assert res.nfev == sum(r.nfev for r in runs)
        runs.clear()
        res = fit_data(sample_bivariate(REFERENCE_ALPHA, 1000, RandomStream(6)),
                       match_third_order=True)
        assert len(runs) == 1
        assert (res.nit, res.nfev) == (runs[0].nit, runs[0].nfev)
        assert 1 <= res.nit < res.nfev

    # alpha_star and objective as float.hex, both unchanged from the solver
    # that raised lam up to its cap before stopping; nfev was 28, 26, 26 and
    # 30 there, and 15 on the last sample while a trial equal to the last
    # rejected one was evaluated again
    @pytest.mark.parametrize("weights,n,seed,third,alpha,fun,nit,nfev", [
        ((2.0, 3.0, 4.0, 5.0), 50, 1, True,
         ("0x1.051ed40a552ddp+1", "0x1.de77081a5d6f0p+1", "0x1.2f5f1a5876682p+2",
          "0x1.88ea83bbdb5ccp+2"), "0x1.4277d9e1bca95p-20", 5, 17),
        ((0.5, 0.7, 0.8, 0.6), 200, 3, True,
         ("0x1.b7ced62839051p-2", "0x1.8a3069a2d7ac0p-1", "0x1.b8d467f83360cp-1",
          "0x1.329ae8676c9f0p-1"), "0x1.bfe7f5fdb68c1p-17", 4, 18),
        ((0.4, 0.3, 0.4, 0.5), 5000, 7, False,
         ("0x1.9b00fcf98da1bp-2", "0x1.29e311e786829p-2", "0x1.9c2f47eae2f1fp-2",
          "0x1.fc6d415d14ccep-2"), "0x1.26b41b91934e8p-24", 4, 14),
        ((2.0, 3.0, 4.0, 5.0), 10 ** 6, 101, True,
         ("0x1.004135f96b0e2p+1", "0x1.8060aeb43551dp+1", "0x1.0025b677f00b6p+2",
          "0x1.407b60196944fp+2"), "0x1.a7a110d2c2c9fp-33", 6, 11),
    ])
    def test_solve_stops_once_the_damped_step_rounds_to_x(self, monkeypatch, weights, n, seed,
                                                           third, alpha, fun, nit, nfev):
        evaluated = _record_evaluations(monkeypatch)
        data = sample_bivariate(AlphaBivariate(*weights), n, RandomStream(seed))
        res = fit_data(data, match_third_order=third)
        a = res.alpha_star
        assert [v.hex() for v in (a.a11, a.a10, a.a01, a.a00)] == list(alpha)
        assert res.objective_value.hex() == fun
        assert res.converged
        assert (res.nit, res.nfev) == (nit, nfev)
        assert 1 <= res.nit < res.nfev == len(evaluated)

    @pytest.mark.parametrize("weights,n,seed,third", [
        ((2.0, 3.0, 4.0, 5.0), 10 ** 6, 101, True),
        ((1.0, 2.0, 1.0, 2.0), 2000, 202, False),
    ])
    def test_no_point_is_evaluated_twice(self, monkeypatch, weights, n, seed, third):
        evaluated = _record_evaluations(monkeypatch)
        res = fit_data(sample_bivariate(AlphaBivariate(*weights), n, RandomStream(seed)),
                       match_third_order=third)
        assert res.nfev == len(evaluated)
        assert len({x.tobytes() for x in evaluated}) == len(evaluated)

    def test_bound_rescale_is_reported(self):
        exact = moment_vector(REFERENCE_ALPHA)
        res = fit_moments(exact)
        assert res.bound_rescaled
        assert res.alpha_star.total == pytest.approx(alpha_sum_bound(exact) * (1.0 - 1e-8),
                                                     rel=1e-14)
        assert not fit_moments(M_EXACT).bound_rescaled

    def test_new_fields_default(self):
        res = FitResult(REFERENCE_ALPHA, 0.0, True, 1)
        assert (res.nit, res.nfev, res.bound_rescaled) == (0, 0, False)


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
        {"max_iterations": True},
        {"restarts": True},
        {"seed": False},
        {"objective_tolerance": "1e-13"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            FitOptions(**kwargs)


def _nine_residual_objective(alpha, data):
    targets = fitting._data_moments(data, third=True)[1]
    return objective(alpha, sample_central_moments(data)) + sum(
        (central_moment(alpha, r, s) - t) ** 2
        for (r, s), t in zip(((3, 0), (0, 3), (2, 1), (1, 2)), targets))


_THETAS = [
    (0.0, 0.0, 0.0, 0.0),
    (1.5, 1.2, 0.7, 1.3),
    (-2.0, 0.5, 2.5, -1.0),
    (3.0, -30.0, 1.0, 2.0),
]


def _assert_jacobian_matches_central_differences(residuals, jacobian, theta, targets):
    theta = np.array(theta)
    h = 1e-6
    numeric = np.column_stack([
        (residuals(np.exp(theta + e), targets) - residuals(np.exp(theta - e), targets))
        / (2.0 * h)
        for e in np.eye(4) * h])
    analytic = jacobian(np.exp(theta))
    assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9 * np.max(np.abs(analytic)))


class TestLevenbergMarquardt:
    @pytest.mark.parametrize("theta", _THETAS)
    def test_analytic_jacobian_matches_central_differences(self, theta):
        _assert_jacobian_matches_central_differences(
            fitting._five_residuals, fitting._five_jacobian, theta, np.array(M_EXACT.as_tuple()))

    @pytest.mark.parametrize("theta", _THETAS)
    def test_third_order_jacobian_matches_central_differences(self, theta):
        _assert_jacobian_matches_central_differences(
            fitting._third_residuals, fitting._third_jacobian, theta,
            np.array([2e-4, -1e-4, 5e-5, 3e-5]))

    def test_closed_form_third_moments_match_mpmath(self):
        rng = np.random.Generator(np.random.PCG64(607))
        for _ in range(200):
            alpha = np.exp(rng.uniform(-3.0, 5.0, size=4))
            got = fitting._third_residuals(alpha, np.zeros(4))
            ref = np.array([central_moment_mpmath(alpha, r, s)
                            for r, s in ((3, 0), (0, 3), (2, 1), (1, 2))])
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    # objective values the Nelder-Mead search this solver replaced reached
    # on the same targets; (3, 0.3, 2, 5) at n = 20 sends a10 to the
    # boundary (stream 2) or starts it on the guess floor (stream 24)
    @pytest.mark.parametrize("weights, n, stream, simplex_objective", [
        ((2.0, 3.0, 4.0, 5.0), 10 ** 6, 101, "0x1.a79d48ad150d2p-33"),
        ((0.5, 0.7, 0.8, 0.6), 10 ** 6, 102, "0x1.269c23a514ac6p-30"),
        ((10.0, 0.1, 0.1, 10.0), 10 ** 6, 103, "0x1.4a8e94520a4dep-49"),
        ((2.0, 3.0, 4.0, 5.0), 10 ** 5, 7, "0x1.39b9c087474ebp-31"),
        ((3.0, 0.3, 2.0, 5.0), 20, 2, "0x1.e446ba2829d6fp-18"),
        ((3.0, 0.3, 2.0, 5.0), 20, 24, "0x1.ac638427ae9b3p-16"),
    ])
    def test_sample_fits_match_the_simplex_objective(self, weights, n, stream,
                                                     simplex_objective):
        res = fit_data(sample_bivariate(AlphaBivariate(*weights), n, RandomStream(stream)))
        assert res.converged
        assert res.objective_value <= (1.0 + 1e-9) * float.fromhex(simplex_objective)

    @pytest.mark.parametrize("m, simplex_objective", [
        (M_EXACT, "0x1.272e6e50faf9fp-32"),
        (M_PERTURBED, "0x1.631afba32f777p-20"),
    ])
    def test_reference_fits_match_the_simplex_objective(self, m, simplex_objective):
        res = fit_moments(m)
        assert res.converged
        assert res.objective_value <= (1.0 + 1e-9) * float.fromhex(simplex_objective)

    # nine-residual objectives the central-difference Jacobian reached on the
    # same samples
    @pytest.mark.parametrize("weights, n, stream, difference_objective", [
        ((2.0, 3.0, 4.0, 5.0), 10 ** 6, 101, "0x1.b7a6c649ce1ffp-33"),
        ((2.0, 3.0, 4.0, 5.0), 10 ** 5, 303, "0x1.d85ad6c1e54cep-27"),
        ((2.0, 3.0, 4.0, 5.0), 50, 1, "0x1.013603f815ed6p-19"),
        ((0.5, 0.7, 0.8, 0.6), 200, 3, "0x1.480cdd37c2266p-16"),
        ((1.0, 1.0, 1.0, 1.0), 1000, 5, "0x1.049c8213b7894p-20"),
    ])
    def test_third_order_fits_match_the_difference_objective(self, weights, n, stream,
                                                              difference_objective):
        draws = sample_bivariate(AlphaBivariate(*weights), n, RandomStream(stream))
        res = fit_data(draws, match_third_order=True)
        assert res.converged
        assert (_nine_residual_objective(res.alpha_star, draws)
                <= (1.0 + 1e-9) * float.fromhex(difference_objective))

    def test_third_order_fit_improves_on_the_guess(self):
        # a sample whose five-moment guess the simplex search could not beat
        draws = sample_bivariate(AlphaBivariate(2.0, 3.0, 4.0, 5.0), 50, RandomStream(1))
        guess = initial_guess(sample_central_moments(draws))
        res = fit_data(draws, match_third_order=True)
        assert res.converged
        assert (_nine_residual_objective(res.alpha_star, draws)
                < _nine_residual_objective(guess, draws))
