import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibeta.construction import AlphaBivariate
from bibeta.density import (DensityValue, Region, classify_region, pdf,
                            pdf_closed_form, pdf_grid, pdf_quadrature)
from bibeta.errors import ConvergenceError, DomainError
from oracles import density_mpmath, density_riemann

ONES = AlphaBivariate(1, 1, 1, 1)
GENERIC = AlphaBivariate(2.0, 3.0, 1.5, 2.5)
# weights below 1 with both lines finite, both lines divergent, and a ridge
NEAR_LINE_SETS = [(0.5, 0.7, 0.8, 0.6), (0.4, 0.3, 0.4, 0.5), (10.0, 0.1, 0.1, 10.0)]
# a point on each half-line and the direction that leaves it
HALF_LINES = {"diag_low": (0.3, 0.3, 1.0, 0.0), "diag_high": (0.7, 0.7, -1.0, 0.0),
              "anti_left": (0.3, 0.7, 0.0, -1.0), "anti_right": (0.7, 0.3, 0.0, 1.0)}


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _stall_kernel(monkeypatch):
    # the batch kernel as usual, but every row reported unconverged
    import bibeta.density as density
    kernel = density.integrate_unit_batch

    def stalled(*args, **kwargs):
        out = kernel(*args, **kwargs)
        return dataclasses.replace(out, converged=np.zeros_like(out.converged))

    monkeypatch.setattr(density, "integrate_unit_batch", stalled)


def _ulps_off_a_line(t, anti, ulps):
    y = 1.0 - t if anti else t
    return t, y + ulps * float(np.spacing(y))


INSIDE = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
POINTS = st.one_of(st.tuples(INSIDE, INSIDE),
                   st.builds(_ulps_off_a_line, st.floats(0.01, 0.99), st.booleans(),
                             st.integers(-6, 6)))


class TestClassifyRegion:
    @pytest.mark.parametrize("x,y,region", [
        (0.2, 0.3, Region.ABP),
        (0.3, 0.2, Region.APD),
        (0.6, 0.7, Region.BCP),
        (0.7, 0.6, Region.CDP),
        (0.3, 0.3, Region.LINE_AP),
        (0.7, 0.7, Region.LINE_PC),
        (0.25, 0.75, Region.LINE_BP),
        (0.75, 0.25, Region.LINE_PD),
        (0.5, 0.5, Region.CENTER_P),
        (1.0, 0.5, Region.OUT_OF_DOMAIN),
        (0.5, 0.0, Region.OUT_OF_DOMAIN),
        (-0.1, 0.5, Region.OUT_OF_DOMAIN),
    ])
    def test_examples(self, x, y, region):
        assert classify_region(x, y) is region

    def test_sum_test_is_exact_not_epsilon(self):
        # 0.3 + 0.7 rounds to 1.0 but the exact sum falls short of it
        assert classify_region(0.3, 0.7) is Region.ABP
        # dyadic complements sum to 1 exactly and land on the line
        assert classify_region(0.25, 0.75) is Region.LINE_BP
        assert classify_region(0.875, 0.125) is Region.LINE_PD

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_exhaustive_and_exclusive(self, x, y):
        region = classify_region(x, y)
        assert region is not Region.OUT_OF_DOMAIN
        if region in (Region.ABP, Region.APD):
            assert x != y
        if region in (Region.LINE_AP, Region.LINE_PC, Region.CENTER_P):
            assert x == y


class TestPdfQuadrature:
    def test_all_ones_is_tent(self):
        # for unit weights the density is 6 * (min(x,y) - max(0, x+y-1))
        assert pdf_quadrature(ONES, 0.5, 0.5).value == pytest.approx(3.0, rel=1e-9)
        assert pdf_quadrature(ONES, 0.25, 0.5).value == pytest.approx(1.5, rel=1e-9)
        assert pdf_quadrature(ONES, 0.2, 0.3).value == pytest.approx(1.2, rel=1e-9)

    def test_symmetric_midpoint_against_riemann_oracle(self):
        a = AlphaBivariate(2, 2, 2, 2)
        got = pdf_quadrature(a, 0.5, 0.5)
        assert got.value == pytest.approx(5.25, rel=1e-10)
        assert got.value == pytest.approx(density_riemann((2, 2, 2, 2), 0.5, 0.5), rel=1e-8)
        assert got.method == "quadrature"
        assert got.error_estimate < 1e-8

    def test_divergent_line_returns_marker(self):
        half = AlphaBivariate(0.5, 0.5, 0.5, 0.5)
        v = pdf_quadrature(half, 0.3, 0.3)
        assert v.diverged and math.isinf(v.value)

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            pdf_quadrature(ONES, 1.2, 0.5)


class TestPdfClosedForm:
    def test_all_ones_lower_triangle(self):
        assert pdf_closed_form(ONES, 0.2, 0.3).value == pytest.approx(1.2, rel=1e-10)

    @pytest.mark.parametrize("x,y", [
        (0.2, 0.3), (0.3, 0.2), (0.7, 0.6), (0.6, 0.7),
        (0.55, 0.25), (0.25, 0.55), (0.3, 0.3), (0.7, 0.7),
        (0.25, 0.75), (0.75, 0.25), (0.5, 0.5),
    ])
    def test_agrees_with_quadrature_everywhere(self, x, y):
        got = pdf_closed_form(GENERIC, x, y)
        ref = pdf_quadrature(GENERIC, x, y, tol=1e-12)
        assert rel_diff(got.value, ref.value) < 1e-8

    @pytest.mark.parametrize("x0,sgn", [(0.3, +1), (0.3, -1), (0.7, +1), (0.7, -1)])
    def test_diagonal_line_is_two_sided_limit(self, x0, sgn):
        eps = 1e-8
        line = pdf_closed_form(GENERIC, x0, x0).value
        near = pdf_closed_form(GENERIC, x0 - sgn * eps, x0 + sgn * eps).value
        assert rel_diff(line, near) < 1e-6

    @pytest.mark.parametrize("x0,sgn", [(0.25, +1), (0.25, -1), (0.75, +1), (0.75, -1)])
    def test_antidiagonal_line_is_two_sided_limit(self, x0, sgn):
        eps = 1e-8
        y0 = 1.0 - x0
        line = pdf_closed_form(GENERIC, x0, y0).value
        near = pdf_closed_form(GENERIC, x0, y0 + sgn * eps).value
        assert rel_diff(line, near) < 1e-6

    def test_center_is_limit_along_the_diagonal(self):
        eps = 1e-8
        center = pdf_closed_form(GENERIC, 0.5, 0.5).value
        below = pdf_closed_form(GENERIC, 0.5 - eps, 0.5 - eps).value
        above = pdf_closed_form(GENERIC, 0.5 + eps, 0.5 + eps).value
        assert rel_diff(center, below) < 1e-6
        assert rel_diff(center, above) < 1e-6

    def test_divergence_markers_on_lines(self):
        half = AlphaBivariate(0.5, 0.5, 0.5, 0.5)
        assert pdf_closed_form(half, 0.3, 0.3).diverged          # solo weights sum to 1
        assert pdf_closed_form(half, 0.25, 0.75).diverged        # shared+comp sum to 1
        assert pdf_closed_form(half, 0.5, 0.5).diverged
        ok_diag = AlphaBivariate(0.5, 1.5, 1.5, 0.5)
        assert pdf_closed_form(ok_diag, 0.3, 0.3).value < math.inf
        assert pdf_closed_form(ok_diag, 0.25, 0.75).diverged

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            pdf_closed_form(GENERIC, 0.0, 0.5)


class TestPdf:
    def test_swap_symmetry(self):
        for x, y in [(0.2, 0.3), (0.7, 0.4), (0.55, 0.85)]:
            lhs = pdf(GENERIC, x, y).value
            rhs = pdf(AlphaBivariate(2.0, 1.5, 3.0, 2.5), y, x).value
            assert rel_diff(lhs, rhs) < 1e-10

    def test_equal_weights_mode_at_center(self):
        a = AlphaBivariate(2, 2, 2, 2)
        center = pdf(a, 0.5, 0.5).value
        for x, y in [(0.4, 0.4), (0.6, 0.6), (0.4, 0.6)]:
            assert center > pdf(a, x, y).value

    def test_divergence_marker_passthrough(self):
        assert pdf(AlphaBivariate(0.5, 0.5, 0.5, 0.5), 0.3, 0.3).diverged

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            pdf(GENERIC, -0.2, 0.5)
        with pytest.raises(DomainError):
            pdf(GENERIC, 0.5, 1.0)

    def test_tol_reaches_the_hypergeometric_integrals(self, monkeypatch):
        import bibeta.density as density
        seen = []

        def spying(name, real):
            def spy(*args, tol):
                seen.append((name, tol))
                return real(*args, tol=tol)
            return spy

        monkeypatch.setattr(density, "appell_f1", spying("appell_f1", density.appell_f1))
        monkeypatch.setattr(density, "hyp2f1", spying("hyp2f1", density.hyp2f1))
        for tol in (1e-10, 1e-6):
            pdf_closed_form(GENERIC, 0.3, 0.6, tol=tol)
            pdf_closed_form(GENERIC, 0.3, 0.3, tol=tol)
        # the default passes the integrals' own defaults exactly
        assert seen == [("appell_f1", 1e-10), ("hyp2f1", 1e-11),
                        ("appell_f1", 1e-6), ("hyp2f1", pytest.approx(1e-7, rel=1e-15))]

    def test_tol_reaches_the_batch_kernel(self, monkeypatch):
        import bibeta.density as density
        seen = []
        kernel = density.integrate_unit_batch

        def spy(p, q, smooth, n_rows, tol):
            seen.append(tol)
            return kernel(p, q, smooth, n_rows, tol)

        monkeypatch.setattr(density, "integrate_unit_batch", spy)
        for tol in (1e-10, 1e-6):
            assert pdf(GENERIC, 0.3, 0.6, tol=tol).method == "quadrature"
        assert seen == [1e-10, 1e-6]

    @pytest.mark.parametrize("route", [pdf, pdf_quadrature, pdf_closed_form])
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("weights,x,y", [
        ((2.0, 3.0, 4.0, 5.0), 0.5, 0.5),       # center: a gamma-function value
        ((0.4, 0.3, 0.4, 0.5), 0.3, 0.3),       # divergent diagonal: no integral
        ((2.0, 3.0, 4.0, 5.0), 0.3, 0.6),       # interior
    ])
    def test_bad_tol_raises_at_every_point(self, route, tol, weights, x, y):
        with pytest.raises(DomainError):
            route(AlphaBivariate(*weights), x, y, tol=tol)

    def test_convergence_error_carries_the_density(self, monkeypatch):
        a = AlphaBivariate(2.0, 3.0, 4.0, 5.0)
        converged = pdf(a, 0.3, 0.6)
        _stall_kernel(monkeypatch)
        with pytest.raises(ConvergenceError) as err:
            pdf(a, 0.3, 0.6)
        best = err.value.result
        assert isinstance(best, DensityValue)
        assert best.value == converged.value
        assert best.error_estimate == converged.error_estimate

    @pytest.mark.parametrize("line", sorted(HALF_LINES))
    @pytest.mark.parametrize("weights", NEAR_LINE_SETS)
    def test_matches_mpmath_near_the_lines(self, weights, line):
        a = AlphaBivariate(*weights)
        x0, y0, dx, dy = HALF_LINES[line]
        for k in range(6, 16):
            x, y = x0 + 10.0 ** -k * dx, y0 + 10.0 ** -k * dy
            assert rel_diff(pdf(a, x, y).value, density_mpmath(weights, x, y)) <= 1e-10

    @given(st.tuples(*[st.floats(-2.3, 2.5).map(math.exp)] * 4), POINTS)
    @settings(max_examples=200, deadline=None)
    def test_no_convergence_error_inside_the_square(self, weights, point):
        # a few ulps from a cut line included; an on-line point may read inf
        assert pdf(AlphaBivariate(*weights), *point).value >= 0.0


class TestPdfGrid:
    def test_all_ones_coarse_grid(self):
        grid = pdf_grid(ONES, resolution=2)
        assert grid.shape == (4, 3)
        assert np.allclose(grid[:, 2], 1.5, rtol=1e-9)
        assert np.allclose(sorted(map(tuple, grid[:, :2])),
                           [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)])

    def test_cell_average_normalization(self):
        a = AlphaBivariate(4.7, 3.5, 2.1, 3.7)
        grid = pdf_grid(a, resolution=200)
        assert grid[:, 2].sum() / 200**2 == pytest.approx(1.0, abs=1e-3)

    def test_ridge_sits_on_the_diagonal(self):
        a = AlphaBivariate(10, 0.1, 0.1, 10)
        grid = pdf_grid(a, resolution=100)
        k = int(np.argmax(grid[:, 2]))
        assert grid[k, 0] == grid[k, 1]
        finite = grid[np.isfinite(grid[:, 2])]
        x, y, _ = finite[np.argmax(finite[:, 2])]
        assert abs(x - y) <= 0.011

    @pytest.mark.parametrize("weights", [
        (2.0, 3.0, 4.0, 5.0),       # every weight above 1
        (0.5, 0.7, 0.8, 0.6),       # every weight below 1, both lines finite
        (2.0, 0.3, 0.4, 2.0),       # a10 + a01 <= 1: the diagonal diverges
        (0.3, 2.0, 3.0, 0.4),       # a11 + a00 <= 1: the antidiagonal diverges
    ])
    def test_cells_match_pdf_quadrature(self, weights):
        # an odd resolution puts cells on both lines and at the center
        a = AlphaBivariate(*weights)
        grid = pdf_grid(a, resolution=9, tol=1e-10)
        regions = [classify_region(x, y) for x, y in grid[:, :2]]
        diag = {Region.LINE_AP, Region.LINE_PC, Region.CENTER_P}
        anti = {Region.LINE_BP, Region.LINE_PD, Region.CENTER_P}
        assert {r for r in regions} == set(Region) - {Region.OUT_OF_DOMAIN}
        for (x, y, v), region in zip(grid, regions):
            expect_inf = ((region in diag and a.a10 + a.a01 <= 1.0)
                          or (region in anti and a.a11 + a.a00 <= 1.0))
            assert math.isinf(v) == expect_inf
            if not expect_inf:
                assert rel_diff(v, pdf_quadrature(a, x, y, tol=1e-10).value) <= 1e-12

    def test_unconverged_cell_raises(self, monkeypatch):
        _stall_kernel(monkeypatch)
        with pytest.raises(ConvergenceError):
            pdf_grid(GENERIC, resolution=3)

    def test_rejects_degenerate_resolution(self):
        with pytest.raises(DomainError):
            pdf_grid(ONES, resolution=1)


class TestDensityValue:
    def test_validation(self):
        with pytest.raises(DomainError):
            DensityValue(-0.5, "quadrature")
        with pytest.raises(DomainError):
            DensityValue(math.nan, "quadrature")
        with pytest.raises(DomainError):
            DensityValue(1.0, "guesswork")
        v = DensityValue(math.inf, "closed_form")
        assert v.diverged
