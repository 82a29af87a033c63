import dataclasses
import math

import numpy as np
import pytest

from bibeta import construction
from bibeta.baselines import ArnoldParams, LibbyNovickParams, pdf_libby_novick, pdf_three_param
from bibeta.construction import (AlphaBivariate, AlphaTrivariate, RandomStream,
                                 sample_bivariate, sample_dirichlet, sample_trivariate)
from bibeta.density import pdf, pdf_closed_form, pdf_grid, pdf_points
from bibeta.errors import DomainError
from bibeta.fitting import FitOptions
from bibeta.moments import correlation, moment_vector
from bibeta.special import integrate_unit, ln_beta_multi


class TestAlphaBivariate:
    def test_derived_sums(self):
        a = AlphaBivariate(4.7, 3.5, 2.1, 3.7)
        assert a.total == pytest.approx(14.0)
        assert a.a1p == pytest.approx(8.2)
        assert a.ap1 == pytest.approx(6.8)
        assert a.a0p == pytest.approx(5.8)
        assert a.ap0 == pytest.approx(7.2)
        assert np.allclose(a.as_array(), [4.7, 3.5, 2.1, 3.7])

    def test_symmetry_maps_are_involutions(self):
        a = AlphaBivariate(4.7, 3.5, 2.1, 3.7)
        assert a.swapped().swapped() == a
        assert a.reflected().reflected() == a
        assert a.swapped() == AlphaBivariate(4.7, 2.1, 3.5, 3.7)
        assert a.reflected() == AlphaBivariate(3.7, 2.1, 3.5, 4.7)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_components(self, bad):
        with pytest.raises(DomainError):
            AlphaBivariate(1.0, bad, 1.0, 1.0)


class TestAlphaTrivariate:
    def test_margins_aggregate_components(self):
        a = AlphaTrivariate(1, 1, 1, 1, 1, 1, 1, 1)
        assert a.margin_xy() == AlphaBivariate(2, 2, 2, 2)
        b = AlphaTrivariate(1.2, 0.8, 2.0, 1.5, 0.7, 1.1, 0.9, 1.3)
        assert b.margin_xy() == AlphaBivariate(1.2 + 0.8, 2.0 + 0.7, 1.5 + 1.1, 0.9 + 1.3)
        assert b.margin_xz() == AlphaBivariate(1.2 + 2.0, 0.8 + 0.7, 1.5 + 0.9, 1.1 + 1.3)
        assert b.margin_yz() == AlphaBivariate(1.2 + 1.5, 0.8 + 1.1, 2.0 + 0.9, 0.7 + 1.3)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            AlphaTrivariate(1, 1, 1, 0.0, 1, 1, 1, 1)


class TestRandomStream:
    def test_determinism(self):
        a = sample_dirichlet((2.0, 3.0), RandomStream(123), size=50)
        b = sample_dirichlet((2.0, 3.0), RandomStream(123), size=50)
        assert np.array_equal(a, b)

    def test_distinct_seeds_diverge(self):
        a = sample_dirichlet((2.0, 3.0), RandomStream(1), size=50)
        b = sample_dirichlet((2.0, 3.0), RandomStream(2), size=50)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7"])
    def test_rejects_bad_seed(self, bad):
        with pytest.raises(DomainError):
            RandomStream(bad)


class TestSampleGamma:
    """The gamma draws every sampler divides into shares."""

    @pytest.mark.parametrize("shape,tol", [(1.0, 0.004), (5.0, 0.01), (0.3, 0.002)])
    def test_sample_means(self, shape, tol):
        draws, totals = construction._gamma_rows(np.array([shape, 2.0]), 1_000_000,
                                                 RandomStream(2024))
        assert np.array_equal(totals, draws[:, 0] + draws[:, 1])
        assert abs(draws[:, 0].mean() - shape) < tol


class TestSampleDirichlet:
    def test_rows_sum_to_one(self):
        shares = sample_dirichlet((0.5, 1.0, 2.0, 4.0), RandomStream(3), size=2000)
        assert np.all(np.abs(shares.sum(axis=1) - 1.0) < 1e-12)

    def test_single_draw_shape(self):
        one = sample_dirichlet((1, 2, 3), RandomStream(4))
        assert one.shape == (3,)
        assert abs(one.sum() - 1.0) < 1e-12

    def test_symmetric_means(self):
        shares = sample_dirichlet((1, 1, 1, 1), RandomStream(5), size=1_000_000)
        assert np.all(np.abs(shares.mean(axis=0) - 0.25) < 0.001)

    def test_asymmetric_mean(self):
        shares = sample_dirichlet((4.7, 3.5, 2.1, 3.7), RandomStream(6), size=1_000_000)
        se = math.sqrt(4.7 * (14.0 - 4.7) / (14.0**2 * 15.0) / 1e6)
        assert abs(shares[:, 0].mean() - 4.7 / 14.0) < 3.0 * se

    def test_rejects_short_or_bad(self):
        with pytest.raises(DomainError):
            sample_dirichlet((2.0,), RandomStream(0))
        with pytest.raises(DomainError):
            sample_dirichlet((1.0, 0.0), RandomStream(0))


class TestSampleBivariate:
    def test_empty_and_shape(self):
        a = AlphaBivariate(1, 1, 1, 1)
        assert sample_bivariate(a, 0, RandomStream(0)).shape == (0, 2)
        assert sample_bivariate(a, 7, RandomStream(0)).shape == (7, 2)
        with pytest.raises(DomainError):
            sample_bivariate(a, -1, RandomStream(0))

    def test_strictly_inside_the_open_square(self):
        # extreme shapes push draws onto the boundary before clipping
        a = AlphaBivariate(0.01, 0.01, 0.01, 0.01)
        s = sample_bivariate(a, 20000, RandomStream(8))
        assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_marginal_mean_and_variance(self):
        a = AlphaBivariate(4.7, 3.5, 2.1, 3.7)
        s = sample_bivariate(a, 1_000_000, RandomStream(9))
        m = moment_vector(a)
        x = s[:, 0]
        assert abs(x.mean() - 0.5857) < 0.0005
        var_se = np.std((x - x.mean()) ** 2) / 1000.0
        assert abs(x.var() - m.m20) < 3.0 * var_se

    @pytest.mark.parametrize("alpha,rho,slack", [
        ((1, 1, 1, 1), 0.0, 0.005),
        ((10, 0.1, 0.1, 10), 0.980, 0.005),
    ])
    def test_sample_correlation(self, alpha, rho, slack):
        a = AlphaBivariate(*alpha)
        s = sample_bivariate(a, 1_000_000, RandomStream(10))
        assert abs(np.corrcoef(s[:, 0], s[:, 1])[0, 1] - rho) < slack


class TestSampleTrivariate:
    def test_shape_and_interval(self):
        a = AlphaTrivariate(1, 1, 1, 1, 1, 1, 1, 1)
        s = sample_trivariate(a, 50000, RandomStream(11))
        assert s.shape == (50000, 3)
        assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_symmetric_mean(self):
        a = AlphaTrivariate(1, 1, 1, 1, 1, 1, 1, 1)
        s = sample_trivariate(a, 1_000_000, RandomStream(12))
        assert abs(s[:, 0].mean() - 0.5) < 0.002

    def test_pair_correlations_match_aggregated_margins(self):
        a = AlphaTrivariate(1.2, 0.8, 2.0, 1.5, 0.7, 1.1, 0.9, 1.3)
        s = sample_trivariate(a, 1_000_000, RandomStream(13))
        pairs = (((0, 1), a.margin_xy()), ((0, 2), a.margin_xz()), ((1, 2), a.margin_yz()))
        for (i, j), margin in pairs:
            emp = np.corrcoef(s[:, i], s[:, j])[0, 1]
            assert abs(emp - correlation(margin)) < 0.005


def _reference_shares(weights, n, seed):
    """Dirichlet shares by the plain formula: gamma rows divided by their
    ``sum(axis=1)``, all-underflow rows drawn again."""
    a = np.asarray(weights, dtype=float)
    gen = np.random.Generator(np.random.PCG64(seed))
    draws = gen.standard_gamma(a, size=(n, a.size))
    totals = draws.sum(axis=1)
    for _ in range(8):
        dead = totals == 0.0
        if not dead.any():
            break
        draws[dead] = gen.standard_gamma(a, size=(int(dead.sum()), a.size))
        totals = draws.sum(axis=1)
    return draws / totals[:, None]


def _reference_margins(weights, n, seed, cells):
    """Each margin the left-to-right sum of its cells' shares, then clipped."""
    s = _reference_shares(weights, n, seed)
    cols = []
    for first, *rest in cells:
        col = s[:, first]
        for j in rest:
            col = col + s[:, j]
        cols.append(col)
    lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    return np.clip(np.column_stack(cols), lo, hi)


_BIT_WEIGHTS = [(2.0, 3.0, 4.0, 5.0), (0.5, 0.7, 0.8, 0.6), (10.0, 0.1, 0.1, 10.0),
                (1e-3, 1e-3, 1e-3, 1e-3)]


class TestSamplersMatchTheReferenceFormula:
    """Every sampler reproduces the plain formula bit for bit on the same
    PCG64 stream, so seeded streams do not move with the implementation."""

    def test_tiny_weights_exercise_the_redraw(self):
        draws = np.random.Generator(np.random.PCG64(5)).standard_gamma(
            np.full(4, 1e-3), size=(10 ** 5, 4))
        assert np.any(draws.sum(axis=1) == 0.0)

    @pytest.mark.parametrize("weights", _BIT_WEIGHTS)
    @pytest.mark.parametrize("n", [0, 1, 10 ** 5])
    @pytest.mark.parametrize("seed", [5, 103])
    def test_bivariate(self, weights, n, seed):
        got = sample_bivariate(AlphaBivariate(*weights), n, RandomStream(seed))
        want = _reference_margins(weights, n, seed, ((0, 1), (0, 2)))
        assert got.shape == (n, 2) and got.flags.c_contiguous
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("weights", _BIT_WEIGHTS)
    @pytest.mark.parametrize("n", [0, 1, 10 ** 5])
    def test_trivariate(self, weights, n):
        eight = weights + weights[::-1]
        got = sample_trivariate(AlphaTrivariate(*eight), n, RandomStream(6))
        want = _reference_margins(eight, n, 6, ((0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 6)))
        assert got.shape == (n, 3)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("weights", _BIT_WEIGHTS)
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("n", [0, 1, 10 ** 5])
    def test_dirichlet(self, weights, k, n):
        w = (weights * 2)[:k]
        got = sample_dirichlet(w, RandomStream(7), size=n)
        assert np.array_equal(got, _reference_shares(w, n, 7))

    def test_dirichlet_single_draw(self):
        got = sample_dirichlet((1e-3, 1e-3, 1e-3, 1e-3), RandomStream(8))
        assert np.array_equal(got, _reference_shares((1e-3,) * 4, 1, 8)[0])


class TestSampleCounts:
    @pytest.mark.parametrize("bad", [2.7, 1.9, 3.0, np.float64(2.0), True, False,
                                     np.bool_(True), "3", None, -1, np.int64(-2)])
    def test_non_integer_or_negative_counts_raise(self, bad):
        a2, a3 = AlphaBivariate(1, 1, 1, 1), AlphaTrivariate(*[1.0] * 8)
        with pytest.raises(DomainError):
            sample_bivariate(a2, bad, RandomStream(0))
        with pytest.raises(DomainError):
            sample_trivariate(a3, bad, RandomStream(0))
        if bad is not None:
            with pytest.raises(DomainError):
                sample_dirichlet((1.0, 2.0), RandomStream(0), size=bad)

    @pytest.mark.parametrize("count", [0, 3, np.int64(3), np.int32(0), np.uint8(2)])
    def test_integer_counts_are_accepted(self, count):
        assert sample_bivariate(AlphaBivariate(1, 1, 1, 1), count, RandomStream(0)).shape == (count, 2)
        assert sample_trivariate(AlphaTrivariate(*[1.0] * 8), count, RandomStream(0)).shape == (count, 3)
        assert sample_dirichlet((1.0, 2.0), RandomStream(0), size=count).shape == (count, 2)


# every weight and shape parameter goes through one check: one argument of
# each constructor (and of pdf_three_param) set to the value under test
_POSITIVE_PARAMETERS = {
    "AlphaBivariate": lambda v: AlphaBivariate(v, 3, 4, 5),
    "AlphaTrivariate": lambda v: AlphaTrivariate(*[1.0] * 7, v),
    "LibbyNovickParams.a0": lambda v: LibbyNovickParams(v, 3, 4),
    "LibbyNovickParams.b2": lambda v: LibbyNovickParams(2, 3, 4, b2=v),
    "ArnoldParams": lambda v: ArnoldParams(1, 1, v, 1, 1),
    "pdf_three_param": lambda v: pdf_three_param(v, 3, 4, 0.3, 0.4),
}


class TestPositiveParameters:
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "2", None, 2 + 0j, 0, -1,
                                       np.int64(0), np.float64(-2.0), math.inf, math.nan,
                                       10 ** 400])
    @pytest.mark.parametrize("make", _POSITIVE_PARAMETERS.values(), ids=_POSITIVE_PARAMETERS)
    def test_rejected(self, make, value):
        with pytest.raises(DomainError, match="must be finite and > 0"):
            make(value)

    @pytest.mark.parametrize("value", [2, np.int64(2), np.int32(2), np.uint8(2),
                                       np.float64(2.0), np.float32(2.0)])
    @pytest.mark.parametrize("make", _POSITIVE_PARAMETERS.values(), ids=_POSITIVE_PARAMETERS)
    def test_accepted_and_stored_as_float(self, make, value):
        got = make(value)
        assert got == make(2.0)
        if dataclasses.is_dataclass(got):
            assert all(type(v) is float for v in dataclasses.astuple(got))


# every public entry point takes the same numbers: numpy ones wherever Python
# ones go, and never a bool or a string, tolerances included
_A = AlphaBivariate(2, 3, 4, 5)
_ACCEPTED = {
    "pdf_three_param": lambda: pdf_three_param(2, 3, 4, np.float32(0.3), 0.4),
    "pdf_libby_novick": lambda: pdf_libby_novick(LibbyNovickParams(2, 3, 4), np.float32(0.3),
                                                 np.float64(0.4)),
    "FitOptions.restarts": lambda: FitOptions(restarts=np.int64(2)),
    "FitOptions.max_iterations": lambda: FitOptions(max_iterations=np.int64(5)),
    "FitOptions.seed": lambda: FitOptions(seed=np.int64(2)),
    "FitOptions.objective_tolerance": lambda: FitOptions(objective_tolerance=np.float32(1e-9)),
}
_TOL_TAKERS = {
    "pdf": lambda tol: pdf(_A, 0.3, 0.6, tol=tol),
    "pdf_points": lambda tol: pdf_points(_A, [0.3], [0.6], tol=tol),
    "pdf_grid": lambda tol: pdf_grid(_A, 2, tol=tol),
    "pdf_closed_form": lambda tol: pdf_closed_form(_A, 0.3, 0.6, tol=tol),
    "integrate_unit": lambda tol: integrate_unit(0.0, 0.0, np.ones_like, tol=tol),
    "FitOptions": lambda tol: FitOptions(objective_tolerance=tol),
}
_REJECTED = {f"{name}(tol={tol!r})": (lambda f=f, tol=tol: f(tol))
             for name, f in _TOL_TAKERS.items() for tol in (True, "1e-8")}
_REJECTED["ln_beta_multi"] = lambda: ln_beta_multi(["2", True])


@pytest.mark.parametrize("call, accepted",
                         [(f, True) for f in _ACCEPTED.values()]
                         + [(f, False) for f in _REJECTED.values()],
                         ids=list(_ACCEPTED) + list(_REJECTED))
def test_one_rule_per_kind_of_input(call, accepted):
    if accepted:
        call()
    else:
        with pytest.raises(DomainError):
            call()


def test_fit_options_store_normalised_values():
    opts = FitOptions(restarts=np.int64(2), max_iterations=np.int32(5),
                      objective_tolerance=1, seed=np.uint64(3))
    assert [type(v) for v in dataclasses.astuple(opts)] == [int, int, float, int]
    assert dataclasses.astuple(opts) == (2, 5, 1.0, 3)


_SAMPLERS = {
    "sample_dirichlet": lambda w, n: sample_dirichlet([w] * 4, RandomStream(0), size=n),
    "sample_bivariate": lambda w, n: sample_bivariate(AlphaBivariate(w, w, w, w), n,
                                                      RandomStream(0)),
    "sample_trivariate": lambda w, n: sample_trivariate(AlphaTrivariate(*[w] * 8), n,
                                                        RandomStream(0)),
}


class TestDegenerateGammaDraws:
    """A row whose gamma draws all underflow is drawn again, up to 8 times;
    past that the sampler raises rather than return a NaN row."""

    @pytest.mark.parametrize("sample", _SAMPLERS.values(), ids=_SAMPLERS)
    def test_weights_too_small_to_draw_raise(self, sample):
        with pytest.raises(DomainError, match="degenerate gamma draws"):
            sample(1e-4, 10 ** 5)

    @pytest.mark.parametrize("sample", _SAMPLERS.values(), ids=_SAMPLERS)
    def test_small_weights_give_rows_inside_the_unit_interval(self, sample):
        rows = sample(1e-3, 10 ** 5)
        assert np.isfinite(rows).all()
        if sample is _SAMPLERS["sample_dirichlet"]:
            # a share may underflow to exactly 0 within a finite row
            assert np.all((rows >= 0.0) & (rows <= 1.0))
        else:
            assert np.all((rows > 0.0) & (rows < 1.0))
