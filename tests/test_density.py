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
    kernel = density.integrate_jacobi_batch

    def stalled(*args, **kwargs):
        out = kernel(*args, **kwargs)
        return dataclasses.replace(out, converged=np.zeros_like(out.converged))

    monkeypatch.setattr(density, "integrate_jacobi_batch", stalled)


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
# with value and error_estimate as float.hex.  Every finite value was
# pinned only once it agreed with a 30-digit mpmath value of the share
# integral to 1e-10 relative, with its error_estimate at least the true
# error.
PINNED_SETS = [(2.0, 3.0, 4.0, 5.0), (0.5, 0.7, 0.8, 0.6), (0.4, 0.3, 0.4, 0.5),
               (10.0, 0.1, 0.1, 10.0), (200.0, 1.0, 300.0, 400.0)]
PINNED = [
    (0, 0.2, 0.35, "0x1.155ee085ae834p+2", "0x1.e0140642fcbd0p-43", 24),
    (0, 0.45, 0.15, "0x1.11f7442a76beep-1", "0x1.ec9d25fa6add5p-46", 24),
    (0, 0.55, 0.8, "0x1.6332719ab69d3p-5", "0x1.4f47ae138e8d2p-49", 24),
    (0, 0.85, 0.6, "0x1.152a341ab4986p-10", "0x1.11567dc695e8cp-54", 24),
    (0, 0.30000099999999996, 0.3, "0x1.81f329ab06778p+2", "0x1.4e6d222efffb6p-42", 24),
    (0, 0.29999999, 0.3, "0x1.81f2f47934e0ep+2", "0x1.49cecca14a22cp-42", 24),
    (0, 0.6999999999, 0.7, "0x1.bd397bf983b70p-5", "0x1.a4882287fc050p-49", 24),
    (0, 0.7000000000009999, 0.7, "0x1.bd397beb72e6bp-5", "0x1.9d8cb51107c52p-49", 24),
    (0, 0.3, 0.69999999999999, "0x1.14c5967b15f9bp+0", "0x1.f3a101ab68fa7p-45", 24),
    (0, 0.3, 0.700001, "0x1.14c45fc284779p+0", "0x1.eba9b884ff457p-45", 24),
    (0, 0.7, 0.30000001, "0x1.d701e0cb2d629p-3", "0x1.a7b73e3c0a97fp-47", 24),
    (0, 0.7, 0.2999999999, "0x1.d701e003e9d26p-3", "0x1.a7b73d8be5e86p-47", 24),
    (0, 0.25, 0.25, "0x1.9ce62fffffffap+1", "0x1.68d90348686dap-43", 24),
    (0, 0.375, 0.625, "0x1.6ad5c38200010p+1", "0x1.453a7cb01bf47p-43", 24),
    (0, 0.5, 0.5, "0x1.e77fffffffff3p+1", "0x1.a12bc82f8b603p-43", 24),
    (1, 0.2, 0.35, "0x1.19ec25975b011p+0", "0x1.1afb4aff960dcp-41", 24),
    (1, 0.45, 0.15, "0x1.b2390425fea9fp-1", "0x1.853064bd341b7p-48", 24),
    (1, 0.55, 0.8, "0x1.c6d41d302d631p-1", "0x1.bca60d41e271ap-48", 24),
    (1, 0.85, 0.6, "0x1.468ac50174e4bp-1", "0x1.16ea33c5052f3p-48", 24),
    (1, 0.30000001, 0.3, "0x1.720bba07c4f70p+0", "0x1.888d44780d1b8p-35", 112),
    (1, 0.2999999999, 0.3, "0x1.72120db8fcafbp+0", "0x1.2d48b1070b793p-47", 240),
    (1, 0.699999999999, 0.7, "0x1.30a3ac8bd6da0p+0", "0x1.e21f41b396c70p-48", 240),
    (1, 0.70000000000001, 0.7, "0x1.30a3b69a0b820p+0", "0x1.0e90f2b04abc9p-47", 240),
    (1, 0.3, 0.6999989999999999, "0x1.04e9538ed748ap+2", "0x1.fab46dc8d262cp-35", 112),
    (1, 0.3, 0.70000001, "0x1.1e6e5f9740648p+2", "0x1.52aafc2bc5116p-34", 112),
    (1, 0.7, 0.3000000001, "0x1.1275d7ea13a7dp+2", "0x1.1ef5f5360f7e2p-32", 112),
    (1, 0.7, 0.299999999999, "0x1.1e1f48cefd20bp+2", "0x1.12b7abffb3b48p-45", 240),
    (1, 0.25, 0.25, "0x1.5dd8d697292b6p+0", "0x1.068e192890e4ap-47", 24),
    (1, 0.375, 0.625, "0x1.4bc3248737899p+2", "0x1.f1fcd29aa075cp-39", 24),
    (1, 0.5, 0.5, "0x1.56b4a38de4a4bp+2", "0x1.9e4b29283e799p-45", 24),
    (2, 0.2, 0.35, "0x1.e1153113be204p-1", "0x1.36b97626b775ap-38", 24),
    (2, 0.45, 0.15, "0x1.3c280a224dc03p-1", "0x1.9452d8d1cf6fep-48", 24),
    (2, 0.55, 0.8, "0x1.59b27e0dd5b07p-1", "0x1.023df51297a16p-46", 24),
    (2, 0.85, 0.6, "0x1.0231278d32194p-1", "0x1.316da01f95671p-48", 24),
    (2, 0.3000000001, 0.3, "0x1.aeec03eb41fbfp+8", "0x1.d36b64c3e772dp-31", 112),
    (2, 0.299999999999, 0.3, "0x1.f83447397fbe2p+10", "0x1.61b8637a5379bp-24", 112),
    (2, 0.69999999999999, 0.7, "0x1.cd283fb338205p+12", "0x1.0336317f963d5p-22", 112),
    (2, 0.700001, 0.7, "0x1.8e35ceea2c98dp+4", "0x1.e2a4a9b42eda3p-34", 112),
    (2, 0.3, 0.6999999899999999, "0x1.b106f55b2220ep+2", "0x1.5112cd601fdfcp-34", 112),
    (2, 0.3, 0.7000000001, "0x1.50aeb47de4d29p+3", "0x1.19c92f8b41596p-31", 112),
    (2, 0.7, 0.30000000000099997, "0x1.f192bd561479dp+3", "0x1.90ed3af31aee4p-43", 240),
    (2, 0.7, 0.29999999999999, "0x1.a5d2a22dc2decp+4", "0x1.671b0e8d383c2p-42", 240),
    (2, 0.25, 0.25, "inf", "0x0.0p+0", 0),
    (2, 0.375, 0.625, "inf", "0x0.0p+0", 0),
    (2, 0.5, 0.5, "inf", "0x0.0p+0", 0),
    (3, 0.2, 0.35, "0x1.bb5a4c0e9fb5ep-8", "0x1.18de4c3c088bep-50", 24),
    (3, 0.45, 0.15, "0x1.f126c66ca78b0p-15", "0x1.b9ad316c919f5p-58", 24),
    (3, 0.55, 0.8, "0x1.f1bba9b7a8275p-11", "0x1.b19e8aadc2284p-54", 24),
    (3, 0.85, 0.6, "0x1.40c7af7df06c6p-13", "0x1.1b2ea494ebc1ap-56", 24),
    (3, 0.30000000000099997, 0.3, "0x1.213c418dacdc9p+29", "0x1.1fcf48c1ff72ep-6", 112),
    (3, 0.29999999999999, 0.3, "0x1.680ea79db65d7p+34", "0x1.66b2f276be88bp-9", 240),
    (3, 0.6999989999999999, 0.7, "0x1.2c5d8c73e7f23p+13", "0x1.0bd4504a977a8p-30", 112),
    (3, 0.70000001, 0.7, "0x1.75bde7b3d8ecap+18", "0x1.d99b032496690p-25", 112),
    (3, 0.3, 0.6999999999, "0x1.ae9801f056974p-14", "0x1.a7b8d15a111d1p-57", 24),
    (3, 0.3, 0.7000000000009999, "0x1.ae9801d8b21bep-14", "0x1.a7b8d1456b998p-57", 24),
    (3, 0.7, 0.30000000000001, "0x1.ae9801d8eea28p-14", "0x1.a63f9f25b0ab0p-57", 24),
    (3, 0.7, 0.299999, "0x1.ae946f783ef49p-14", "0x1.a6f8bb92ff2cfp-57", 24),
    (3, 0.25, 0.25, "inf", "0x0.0p+0", 0),
    (3, 0.375, 0.625, "0x1.2291c2cd94d0fp-7", "0x1.000651eb1f6f2p-50", 24),
    (3, 0.5, 0.5, "inf", "0x0.0p+0", 0),
    # large weights, one of them 1: the integrand leaves the float range, so
    # the kernel sums these in logs round its peak
    (4, 0.5150190498212992, 0.2900853524863788, "0x1.ad113f10260fap-617",
     "0x1.3581969918ae0p-653", 632),
    (4, 0.5032966862425912, 0.43793371113213964, "0x1.75109999da474p-399",
     "0x1.506dac9ad859ap-432", 376),
    (4, 0.6805211081369064, 0.4645478728816999, "0x1.624e399ffc3bdp-763",
     "0x1.015b06cc533ebp-799", 632),
    (4, 0.09410927526509337, 0.8380282654441378, "0x1.f7128ef6d8f64p-475",
     "0x1.682a62a2d0637p-511", 376),
]


class TestPinnedValues:
    # ids name the point only, so a re-pin keeps them
    @pytest.mark.parametrize("k,x,y,value,error,evaluations", PINNED,
                             ids=[f"{k}-{x!r}-{y!r}" for k, x, y, *_ in PINNED])
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
    # reflection and swap; values as float.hex, each within 5.6e-15 of the
    # share integral in 30-digit mpmath arithmetic
    @pytest.mark.parametrize("weights,x,y,value", [
        *[((2.0, 3.0, 4.0, 5.0), *row) for row in [
            (0.2, 0.3, "0x1.b3de28010a71cp+1"), (0.3, 0.2, "0x1.e2a91e39297f6p+0"),
            (0.6, 0.7, "0x1.d38c74efa071ep-3"), (0.7, 0.6, "0x1.077cc6ce50c7dp-3"),
            (0.3, 0.3, "0x1.81f2f50009c97p+2"), (0.7, 0.7, "0x1.bd397beb968dbp-5"),
            (0.25, 0.75, "0x1.941780000000bp-2"), (0.75, 0.25, "0x1.e474000000016p-5"),
            (0.5, 0.5, "0x1.e77fffffffff3p+1")]],
        *[((0.9, 0.8, 0.7, 0.6), *row) for row in [
            (0.2, 0.3, "0x1.8109b2d2ca15ep-1"), (0.3, 0.2, "0x1.b1dcd0c11cabdp-1"),
            (0.6, 0.7, "0x1.aa86b0c3dc9ffp+0"), (0.7, 0.6, "0x1.cfb399f734a39p+0"),
            (0.3, 0.3, "0x1.5cb6705a32d4dp+0"), (0.7, 0.7, "0x1.15d2bc5467d84p+1"),
            (0.25, 0.75, "0x1.6ffed357d1d9bp+0"), (0.75, 0.25, "0x1.ba2742adf344ep+0"),
            (0.5, 0.5, "0x1.4e692d0b1e80cp+1")]],
    ])
    def test_values_are_pinned(self, weights, x, y, value):
        got = pdf_closed_form(AlphaBivariate(*weights), x, y)
        assert got.value == float.fromhex(value)
        assert not got.diverged

    @pytest.mark.parametrize("line", sorted(HALF_LINES))
    @pytest.mark.parametrize("weights", NEAR_LINE_SETS)
    def test_finite_near_the_lines(self, weights, line):
        # 1e-3 to 1e-12 off each half-line; the hypergeometric arguments
        # x/y and x/d round, which moves the value by up to some 1e-6
        a = AlphaBivariate(*weights)
        x0, y0, dx, dy = HALF_LINES[line]
        for k in range(3, 13):
            x, y = x0 + 10.0 ** -k * dx, y0 + 10.0 ** -k * dy
            got = pdf_closed_form(a, x, y)
            assert 0.0 < got.value < math.inf
            assert rel_diff(got.value, pdf(a, x, y).value) <= 1e-5

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
        kernel = density.integrate_jacobi_batch

        def spy(p, q, smooth, n_rows, tol, *branches):
            seen.append(tol)
            return kernel(p, q, smooth, n_rows, tol, *branches)

        monkeypatch.setattr(density, "integrate_jacobi_batch", spy)
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

    @pytest.mark.parametrize("line", sorted(HALF_LINES))
    @pytest.mark.parametrize("weights", NEAR_LINE_SETS)
    def test_error_estimate_bounds_the_error_near_the_lines(self, weights, line, monkeypatch):
        # gaps 1e-3 to 1e-12 off each half-line, against 30 digits; the
        # near end is mapped, so no point needs the peak layout
        import bibeta.density as density
        kernel = density.integrate_jacobi_batch
        peak = []

        def spy(*args):
            out = kernel(*args)
            peak.append(out.log_scale is not None)
            return out

        monkeypatch.setattr(density, "integrate_jacobi_batch", spy)
        a = AlphaBivariate(*weights)
        x0, y0, dx, dy = HALF_LINES[line]
        for k in range(3, 13):
            x, y = x0 + 10.0 ** -k * dx, y0 + 10.0 ** -k * dy
            got = pdf(a, x, y)
            exact = density_mpmath(weights, x, y, dps=30)
            assert abs(got.value - exact) <= 1e-10 * exact
            assert abs(got.value - exact) <= got.error_estimate
            assert got.evaluations <= 2 * 120
        assert sum(peak) == 0

    def test_near_line_point_that_missed_its_tol(self):
        # 1e-10 off the diagonal, where two agreeing estimates can both be
        # 1.8e-10 off: the value is within tol and its estimate covers it
        weights = (3.8757445074721826, 1.2967637794851443, 0.31872024535373095,
                   0.2072864625261938)
        x, y = 0.7802715121435961, 0.7802715120435961
        got = pdf(AlphaBivariate(*weights), x, y)
        exact = density_mpmath(weights, x, y, dps=30)
        assert abs(got.value - exact) <= 1e-12 * exact
        assert abs(got.value - exact) <= got.error_estimate <= 1e-10 * got.value

    def test_weights_whose_jacobi_mass_underflows(self):
        # B(p + 1, q + 1) of the rule's weight is below the float range here
        weights = (590.0140008464143, 560.2760549010645, 0.3161682705357524,
                   0.6567210857506889)
        a = AlphaBivariate(*weights)
        assert pdf(a, 2.198301702471607e-177, 4.5788053778196514e-63).value == 0.0
        got = pdf(a, 0.9995, 0.513)
        exact = density_mpmath(weights, 0.9995, 0.513, dps=30)
        assert abs(got.value - exact) <= min(1e-10 * exact, got.error_estimate)

    def test_subnormal_coordinate_reads_its_branch_point_as_far(self):
        # |d| / scale = 0.5 / 2.2e-309 overflows to inf: a far branch point
        got = pdf(AlphaBivariate(1.0, 1.0, 1.0, math.e), 0.5, 2.2e-309)
        assert 0.0 < got.value < math.inf and not got.diverged

    @given(st.tuples(*[st.floats(-2.3, 2.5).map(math.exp)] * 4), POINTS)
    @settings(max_examples=200, deadline=None)
    def test_no_convergence_error_inside_the_square(self, weights, point):
        # a few ulps from a cut line included; an on-line point may read inf
        assert pdf(AlphaBivariate(*weights), *point).value >= 0.0

    @given(st.tuples(*[st.floats(math.log(1e-3), math.log(1e4)).map(math.exp)] * 4), POINTS)
    @settings(max_examples=200, deadline=None)
    def test_no_convergence_error_at_large_weights(self, weights, point):
        # weights up to 1e4: integrands past the float range and peaks a
        # few thousandths wide, summed in logs; a density below the float
        # range reads 0
        assert pdf(AlphaBivariate(*weights), *point).value >= 0.0


class TestLargeWeights:
    # the first draw of sample_bivariate(AlphaBivariate(150, 225, 300,
    # 375), 1, RandomStream(3)), and its density in 30-digit mpmath
    ALPHA = AlphaBivariate(150.0, 225.0, 300.0, 375.0)
    POINT = (0.3929530679008409, 0.4517520833510923)
    EXACT = 10.457032788765158

    def test_density_at_a_draw(self):
        got = pdf(self.ALPHA, *self.POINT)
        assert abs(got.value - self.EXACT) <= 1e-9 * self.EXACT
        assert abs(got.value - self.EXACT) <= got.error_estimate

    def test_normalization(self):
        # Gauss-Legendre on the box of 9 standard deviations round the mean,
        # where all but a negligible part of the mass lies
        a = self.ALPHA
        m = a.total
        mean = np.array([a.a11 + a.a10, a.a11 + a.a01]) / m
        sd = np.sqrt(mean * (1.0 - mean) / (m + 1.0))
        nodes, weights = np.polynomial.legendre.leggauss(48)
        x, y = (mean[i] + 9.0 * sd[i] * nodes for i in range(2))
        got = pdf_points(a, *np.meshgrid(x, y, indexing="ij"))
        total = np.sum(np.outer(weights, weights) * got.value) * 81.0 * sd[0] * sd[1]
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_fitted_weights_at_their_data(self):
        # a fit to 1e5 draws returns weights near (200, 300, 400, 500), at
        # which no data point reads 0; batch and scalar agree bit for bit
        from bibeta.construction import RandomStream, sample_bivariate
        from bibeta.fitting import fit_data
        data = sample_bivariate(AlphaBivariate(200, 300, 400, 500), 100_000, RandomStream(1))
        alpha = fit_data(data).alpha_star
        assert min(alpha.as_array()) > 150.0
        x, y = data[:200].T
        got = pdf_points(alpha, x, y)
        assert np.all((got.value > 0.0) & np.isfinite(got.value))
        for i in range(20):
            one = pdf(alpha, float(x[i]), float(y[i]))
            assert (one.value, one.error_estimate, one.evaluations) == (
                got.value[i], got.error_estimate[i], got.evaluations[i])

    def test_peak_near_the_antidiagonal(self):
        # 1.7e-6 below the antidiagonal: t**-0.9986 meets (delta + t)**426.9,
        # a peak 0.02 wide that the ladder does not settle
        weights = (0.0014161640528755517, 887.6852243316595, 0.03241775215271978,
                   427.88092037414805)
        x, y = 0.6559017904532893, 0.34409648103541973
        got = pdf(AlphaBivariate(*weights), x, y)
        exact = density_mpmath(weights, x, y, dps=30)
        assert abs(got.value - exact) <= min(1e-10 * exact, got.error_estimate)

    def test_near_line_point_on_the_128_point_rule(self):
        # t**3.986 (1-t)**3.986 with a factor (delta + 1 - t)**-0.75 left
        # unmapped: the 128-point rule settles it
        weights = (6.160100586658901, 6.160100586658901, 0.12372837880587988,
                   0.12372837880587988)
        x, y = 0.01, 0.010000000000000007
        got = pdf(AlphaBivariate(*weights), x, y)
        exact = density_mpmath(weights, x, y, dps=30)
        assert abs(got.value - exact) <= min(1e-10 * exact, got.error_estimate)
        assert got.evaluations == 248


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
                # one kernel call for the whole lattice, every pattern in it,
                # and the same bits as a batch of one
                assert v == pdf_quadrature(a, x, y, tol=1e-10).value

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
    # the fifth and sixth give exponents 0.5, 2 and 0 (a weight of 1), powers
    # that numpy rounds otherwise for a float exponent than for an array of
    # them; the last sends points to the peak layout with an exponent of 0
    @pytest.mark.parametrize("weights", [(2.0, 3.0, 4.0, 5.0), (0.5, 0.7, 0.8, 0.6),
                                         (0.4, 0.3, 0.4, 0.5), (10.0, 0.1, 0.1, 10.0),
                                         (1.5, 3.0, 1.0, 0.7), (3.0, 1.5, 0.5, 3.0),
                                         (200.0, 1.0, 300.0, 400.0)])
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
