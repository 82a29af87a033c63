import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibeta.construction import AlphaBivariate
from bibeta.density import (DensityValue, _sum_minus_one, pdf, pdf_closed_form, pdf_grid,
                            pdf_points, pdf_quadrature)
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


# pdf at fixed points, pinned bit for bit: interior points in each triangle,
# points 1e-6 to 1e-14 off each half-line, dyadic on-line points and the
# center.  Rows are (weight set, x, y, value, error_estimate, evaluations),
# with value and error_estimate as float.hex.  A change to the stopping rule
# near the cut lines will move the near-line rows, and is expected to; the
# stopping-rule miss at (3.8757..., 0.7802715121...) recorded in CHANGES.md
# is a separate point and is not pinned here.
PINNED_SETS = [(2.0, 3.0, 4.0, 5.0), (0.5, 0.7, 0.8, 0.6), (0.4, 0.3, 0.4, 0.5),
               (10.0, 0.1, 0.1, 10.0)]
PINNED = [
    (0, 0.2, 0.35, "0x1.155ee085ae834p+2", "0x1.14c1a8ac5c132p-50", 170),
    (0, 0.45, 0.15, "0x1.11f7442a76bf2p-1", "0x1.278a4d7f0ed26p-54", 166),
    (0, 0.55, 0.8, "0x1.6332719ab69dep-5", "0x0.0p+0", 155),
    (0, 0.85, 0.6, "0x1.152a341ab4986p-10", "0x0.0p+0", 151),
    (0, 0.30000099999999996, 0.3, "0x1.81f329ab0677ep+2", "0x0.0p+0", 166),
    (0, 0.29999999, 0.3, "0x1.81f2f47934e08p+2", "0x0.0p+0", 170),
    (0, 0.6999999999, 0.7, "0x1.bd397bf983b77p-5", "0x1.feb18c0ec18f9p-57", 155),
    (0, 0.7000000000009999, 0.7, "0x1.bd397beb72e72p-5", "0x1.7f05290ada54dp-56", 151),
    (0, 0.3, 0.69999999999999, "0x1.14c5967b15f92p+0", "0x0.0p+0", 170),
    (0, 0.3, 0.700001, "0x1.14c45fc284781p+0", "0x1.2ea0e014d6a7cp-53", 155),
    (0, 0.7, 0.30000001, "0x1.d701e0cb2d629p-3", "0x1.c5f325acc29f7p-55", 151),
    (0, 0.7, 0.2999999999, "0x1.d701e003e9d26p-3", "0x1.06b3d316770c6p-55", 166),
    (0, 0.25, 0.25, "0x1.9ce62ffffffedp+1", "0x1.49eb5fffffffcp-51", 159),
    (0, 0.375, 0.625, "0x1.6ad5c381ffff9p+1", "0x0.0p+0", 152),
    (0, 0.5, 0.5, "0x1.e77fffffffff3p+1", "0x1.49eb5ffffffe8p-49", 141),
    (1, 0.2, 0.35, "0x1.19ec25975b011p+0", "0x1.79edff48f230ap-42", 108),
    (1, 0.45, 0.15, "0x1.b2390425feaa9p-1", "0x1.a7dabfda30033p-47", 107),
    (1, 0.55, 0.8, "0x1.c6d41d302d633p-1", "0x1.5a5ddfd4bc69fp-43", 106),
    (1, 0.85, 0.6, "0x1.468ac50174e52p-1", "0x1.2500a6c188be6p-49", 105),
    (1, 0.30000001, 0.3, "0x1.720bba07c4f71p+0", "0x1.46242c89b915dp-40", 426),
    (1, 0.2999999999, 0.3, "0x1.72120db8fcb07p+0", "0x1.166844c0e391ep-38", 431),
    (1, 0.699999999999, 0.7, "0x1.30a3ac8bd6da8p+0", "0x1.55166d93d81f1p-38", 425),
    (1, 0.70000000000001, 0.7, "0x1.30a3b69a0b820p+0", "0x1.755936e763991p-38", 420),
    (1, 0.3, 0.6999989999999999, "0x1.04e9538ed748ap+2", "0x1.04e53a9485b2bp-37", 431),
    (1, 0.3, 0.70000001, "0x1.1e6e5f974064ap+2", "0x0.0p+0", 850),
    (1, 0.7, 0.3000000001, "0x1.1275d7ea13a81p+2", "0x1.d25a66f05b31cp-45", 841),
    (1, 0.7, 0.299999999999, "0x1.1e1f48cefd20dp+2", "0x1.9f3a3f7e2aa1cp-39", 853),
    (1, 0.25, 0.25, "0x1.5dd8d697292b3p+0", "0x1.11d0b9edb815fp-45", 111),
    (1, 0.375, 0.625, "0x1.4bc324873789bp+2", "0x1.8c581d728c80dp-41", 121),
    (1, 0.5, 0.5, "0x1.56b4a38de4a49p+2", "0x0.0p+0", 124),
    (2, 0.2, 0.35, "0x1.e1153113be204p-1", "0x1.539bb584ea0d0p-41", 116),
    (2, 0.45, 0.15, "0x1.3c280a224dbfep-1", "0x1.e3a6d4615c032p-46", 113),
    (2, 0.55, 0.8, "0x1.59b27e0dd5b03p-1", "0x1.17a6fb54fafdap-46", 115),
    (2, 0.85, 0.6, "0x1.0231278d32195p-1", "0x1.a39274797e3d9p-45", 112),
    (2, 0.3000000001, 0.3, "0x1.aeec03eb41fccp+8", "0x1.90ccffbecc20ep-34", 911),
    (2, 0.299999999999, 0.3, "0x1.f83447397fbf2p+10", "0x1.1f49ba64ac120p-25", 930),
    (2, 0.69999999999999, 0.7, "0x1.cd283fb338205p+12", "0x0.0p+0", 1832),
    (2, 0.700001, 0.7, "0x1.8e35ceea2c993p+4", "0x1.2e1a17a9603c3p-30", 448),
    (2, 0.3, 0.6999999899999999, "0x1.b106f55b22215p+2", "0x0.0p+0", 930),
    (2, 0.3, 0.7000000001, "0x1.50aeb47de4d2ep+3", "0x1.5f8e7badc9903p-40", 916),
    (2, 0.7, 0.30000000000099997, "0x1.f192bd561479dp+3", "0x1.28aa2de2f582ep-32", 897),
    (2, 0.7, 0.29999999999999, "0x1.a5d2a22dc2df2p+4", "0x0.0p+0", 1823),
    (2, 0.25, 0.25, "inf", "0x0.0p+0", 0),
    (2, 0.375, 0.625, "inf", "0x0.0p+0", 0),
    (2, 0.5, 0.5, "inf", "0x0.0p+0", 0),
    (3, 0.2, 0.35, "0x1.bb5a4c0e9fb6bp-8", "0x0.0p+0", 199),
    (3, 0.45, 0.15, "0x1.f126c66ca78c0p-15", "0x0.0p+0", 199),
    (3, 0.55, 0.8, "0x1.f1bba9b7a8285p-11", "0x1.cc4026a944e18p-63", 199),
    (3, 0.85, 0.6, "0x1.40c7af7df06d0p-13", "0x0.0p+0", 199),
    (3, 0.30000000000099997, 0.3, "0x1.213c418dacdc9p+29", "0x1.0def396e9f7b2p-6", 794),
    (3, 0.29999999999999, 0.3, "0x1.680ea79db65d7p+34", "0x0.0p+0", 1589),
    (3, 0.6999989999999999, 0.7, "0x1.2c5d8c73e7f23p+13", "0x1.1c90633725439p-23", 397),
    (3, 0.70000001, 0.7, "0x1.75bde7b3d8ecap+18", "0x1.e8aa57de821c2p-35", 794),
    (3, 0.3, 0.6999999999, "0x1.ae9801f056974p-14", "0x0.0p+0", 199),
    (3, 0.3, 0.7000000000009999, "0x1.ae9801d8b21cbp-14", "0x0.0p+0", 199),
    (3, 0.7, 0.30000000000001, "0x1.ae9801d8eea28p-14", "0x0.0p+0", 199),
    (3, 0.7, 0.299999, "0x1.ae946f783ef57p-14", "0x0.0p+0", 199),
    (3, 0.25, 0.25, "inf", "0x0.0p+0", 0),
    (3, 0.375, 0.625, "0x1.2291c2cd94d33p-7", "0x0.0p+0", 189),
    (3, 0.5, 0.5, "inf", "0x0.0p+0", 0),
]


class TestPinnedValues:
    @pytest.mark.parametrize("k,x,y,value,error,evaluations", PINNED)
    def test_pdf_is_bitwise_unchanged(self, k, x, y, value, error, evaluations):
        got = pdf(AlphaBivariate(*PINNED_SETS[k]), x, y)
        assert got.value == float.fromhex(value)
        assert got.error_estimate == float.fromhex(error)
        assert got.evaluations == evaluations
        assert got.diverged == (evaluations == 0)


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

    # one point per sign pattern of (x + y - 1, x - y): the four triangles,
    # the four half-lines and the center, each reached through its own
    # reflection and swap; values as float.hex
    @pytest.mark.parametrize("weights,x,y,value", [
        *[((2.0, 3.0, 4.0, 5.0), *row) for row in [
            (0.2, 0.3, "0x1.b3de28010a717p+1"), (0.3, 0.2, "0x1.e2a91e3929800p+0"),
            (0.6, 0.7, "0x1.d38c74efa072cp-3"), (0.7, 0.6, "0x1.077cc6ce50c7fp-3"),
            (0.3, 0.3, "0x1.81f2f50009c8fp+2"), (0.7, 0.7, "0x1.bd397beb968d5p-5"),
            (0.25, 0.75, "0x1.94177fffffff2p-2"), (0.75, 0.25, "0x1.e473ffffffff5p-5"),
            (0.5, 0.5, "0x1.e77fffffffff3p+1")]],
        *[((0.9, 0.8, 0.7, 0.6), *row) for row in [
            (0.2, 0.3, "0x1.8109b2d2ca162p-1"), (0.3, 0.2, "0x1.b1dcd0c11cabdp-1"),
            (0.6, 0.7, "0x1.aa86b0c3dc9ffp+0"), (0.7, 0.6, "0x1.cfb399f734a3ap+0"),
            (0.3, 0.3, "0x1.5cb6705a32d53p+0"), (0.7, 0.7, "0x1.15d2bc5467d83p+1"),
            (0.25, 0.75, "0x1.6ffed357d1da3p+0"), (0.75, 0.25, "0x1.ba2742adf344dp+0"),
            (0.5, 0.5, "0x1.4e692d0b1e80cp+1")]],
    ])
    def test_values_are_pinned(self, weights, x, y, value):
        got = pdf_closed_form(AlphaBivariate(*weights), x, y)
        assert got.value == float.fromhex(value)
        assert not got.diverged

    def test_sum_test_is_exact_not_epsilon(self):
        # a11 + a00 <= 1, so the antidiagonal diverges; 0.3 + 0.7 rounds to
        # 1.0 but the exact sum falls short of it, so the point is off it
        a = AlphaBivariate(0.3, 2.0, 3.0, 0.4)
        for got in (pdf(a, 0.3, 0.7), pdf_closed_form(a, 0.3, 0.7)):
            assert not got.diverged
            assert got.value == pytest.approx(363433.33578135, rel=1e-12)
        # dyadic complements sum to 1 exactly and land on the line
        for x, y in [(0.25, 0.75), (0.875, 0.125)]:
            assert pdf(a, x, y).diverged
            assert pdf_closed_form(a, x, y).diverged


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

    # pdf_quadrature is another name for pdf, so the ids are spelled out
    @pytest.mark.parametrize("route", [pdf, pdf_quadrature, pdf_closed_form, pdf_points],
                             ids=["pdf", "pdf_quadrature", "pdf_closed_form", "pdf_points"])
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
        assert best.evaluations == converged.evaluations

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
        # the exact sign of x + y - 1, not the rounded sum
        patterns = [(np.sign(_sum_minus_one(x, y)), np.sign(x - y)) for x, y in grid[:, :2]]
        assert len(set(patterns)) == 9
        for (x, y, v), (d_sign, s_sign) in zip(grid, patterns):
            expect_inf = ((s_sign == 0.0 and a.a10 + a.a01 <= 1.0)
                          or (d_sign == 0.0 and a.a11 + a.a00 <= 1.0))
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

    @pytest.mark.parametrize("resolution", [2.9, 3.0, True, "3", None])
    def test_rejects_a_resolution_that_is_not_an_integer(self, resolution):
        with pytest.raises(DomainError, match="resolution must be an integer"):
            pdf_grid(ONES, resolution=resolution)

    def test_accepts_a_numpy_integer_resolution(self):
        assert pdf_grid(ONES, resolution=np.int64(3)).shape == (9, 3)


class TestPdfPoints:
    @pytest.mark.parametrize("weights", [(2.0, 3.0, 4.0, 5.0), (0.5, 0.7, 0.8, 0.6),
                                         (0.4, 0.3, 0.4, 0.5), (10.0, 0.1, 0.1, 10.0)])
    def test_agrees_with_scalar_pdf(self, weights):
        a = AlphaBivariate(*weights)
        rng = np.random.default_rng(5)
        xy = [tuple(p) for p in rng.uniform(0.01, 0.99, size=(40, 2))]
        # near each half-line, on both lines and at the center
        for x0, y0, dx, dy in HALF_LINES.values():
            xy += [(x0 + 1e-9 * dx, y0 + 1e-9 * dy), (x0 - 1e-13 * dx, y0 - 1e-13 * dy)]
        xy += [(0.25, 0.25), (0.75, 0.75), (0.375, 0.625), (0.625, 0.375), (0.5, 0.5)]
        x, y = np.array(xy).T
        got = pdf_points(a, x, y)
        # one kernel for both: the same bits, not merely close values
        for i, (xi, yi) in enumerate(xy):
            one = pdf(a, xi, yi)
            assert got.value[i] == one.value
            assert got.error_estimate[i] == one.error_estimate
            assert got.evaluations[i] == one.evaluations
            assert got.diverged[i] == one.diverged

    def test_shapes_and_empty_input(self):
        out = pdf_points(GENERIC, np.array([[0.2, 0.3], [0.6, 0.5]]), 0.4)
        assert out.value.shape == out.error_estimate.shape == (2, 2)
        assert out.diverged.shape == out.evaluations.shape == (2, 2)
        assert out.value[1, 1] == pdf(GENERIC, 0.5, 0.4).value
        empty = pdf_points(GENERIC, [], [])
        assert all(a.shape == (0,) for a in empty)
        assert empty.diverged.dtype == bool

    @pytest.mark.parametrize("x,y", [(0.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (math.nan, 0.5),
                                     (0.5, math.inf)])
    def test_points_off_the_open_square_raise(self, x, y):
        with pytest.raises(DomainError):
            pdf_points(GENERIC, [0.3, x], [0.4, y])

    def test_unconverged_point_raises(self, monkeypatch):
        _stall_kernel(monkeypatch)
        with pytest.raises(ConvergenceError):
            pdf_points(GENERIC, [0.2, 0.3], [0.4, 0.4])

    def test_scalar_pdf_does_not_use_it(self, monkeypatch):
        import bibeta.density as density

        def refuse(*args, **kwargs):
            raise AssertionError("scalar pdf went through pdf_points")

        monkeypatch.setattr(density, "pdf_points", refuse)
        assert pdf(GENERIC, 0.3, 0.6).value > 0.0


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

    def test_diverged_needs_an_inf_value(self):
        with pytest.raises(DomainError):
            DensityValue(1.0, "quadrature", diverged=True)
        assert not DensityValue(math.inf, "quadrature", diverged=False).diverged

    def test_overflow_inside_the_square_is_not_divergence(self):
        # a finite density of order 1e507, past the float range
        v = pdf(AlphaBivariate(0.1, 0.1, 0.1, 0.1), 1e-300, 2e-300)
        assert math.isinf(v.value) and not v.diverged

    def test_divergent_line_is_flagged(self):
        # a10 + a01 = 0.7 <= 1: the integral diverges on the diagonal
        alpha = AlphaBivariate(0.4, 0.3, 0.4, 0.5)
        for v in (pdf(alpha, 0.3, 0.3), pdf_closed_form(alpha, 0.3, 0.3)):
            assert math.isinf(v.value) and v.diverged
        assert not pdf(alpha, 0.3, 0.4).diverged

    def test_evaluations_follow_the_route(self):
        quadrature = pdf(GENERIC, 0.3, 0.6)
        assert quadrature.evaluations > 0
        assert pdf_closed_form(GENERIC, 0.3, 0.6).evaluations == 0
        alpha = AlphaBivariate(0.4, 0.3, 0.4, 0.5)
        assert pdf(alpha, 0.3, 0.3).evaluations == 0
        assert pdf_closed_form(alpha, 0.3, 0.3).evaluations == 0
        assert DensityValue(1.0, "quadrature").evaluations == 0

    def test_repr_shows_every_field(self):
        v = pdf(GENERIC, 0.3, 0.6)
        assert repr(v) == (f"DensityValue(value={v.value!r}, method='quadrature', "
                           f"error_estimate={v.error_estimate!r}, diverged=False, "
                           f"evaluations={v.evaluations!r})")
