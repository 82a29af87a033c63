"""End-to-end acceptance checks.

Each test covers one release gate and reports a PASS/FAIL line through
conftest.record_acceptance, so the terminal summary doubles as a release
checklist.  Reference numbers are frozen here on purpose: they must not
drift with the implementation.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from bibeta.baselines import (
    ArnoldParams,
    LibbyNovickParams,
    pdf_libby_novick,
    pdf_three_param,
    sample_arnold,
)
from bibeta.construction import (
    AlphaBivariate,
    AlphaTrivariate,
    RandomStream,
    sample_bivariate,
    sample_trivariate,
)
from bibeta.density import pdf, pdf_closed_form, pdf_quadrature
from bibeta.errors import ConvergenceError
from bibeta.fitting import fit_moments
from bibeta.moments import (
    TABLE_A00_COLUMNS,
    MomentVector,
    correlation,
    correlation_table,
    moment_vector,
)
from bibeta.special import appell_f1, hyp2f1
from conftest import record_acceptance
from oracles import appell_f1_series


def _check(name, passed, detail=""):
    record_acceptance(name, passed, detail)
    assert passed, f"{name}: {detail}"


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# Frozen reference: rows are (a11, a10, a01) and the six columns follow
# TABLE_A00_COLUMNS = (10, 5, 2, 1, 0.5, 0.1).  Values quoted to 3 decimals.
REFERENCE_TABLE = (
    (10.0, 0.1, 0.1, '0.980', '0.970', '0.942', '0.899', '0.823', '0.490'),
    (10.0, 10.0, 0.1, '0.490', '0.394', '0.266', '0.182', '0.112', '0.000'),
    (10.0, 10.0, 0.5, '0.452', '0.342', '0.189', '0.085', '0.000', '-0.112'),
    (10.0, 10.0, 1.0, '0.409', '0.284', '0.112', '0.000', '-0.085', '-0.182'),
    (10.0, 10.0, 2.0, '0.333', '0.189', '0.000', '-0.112', '-0.189', '-0.266'),
    (10.0, 10.0, 5.0, '0.167', '0.000', '-0.189', '-0.284', '-0.342', '-0.394'),
    (5.0, 1.0, 1.0, '0.742', '0.667', '0.500', '0.333', '0.167', '-0.076'),
    (5.0, 10.0, 1.0, '0.284', '0.167', '0.000', '-0.112', '-0.199', '-0.300'),
    (5.0, 10.0, 2.0, '0.189', '0.048', '-0.141', '-0.255', '-0.333', '-0.413'),
    (5.0, 10.0, 5.0, '0.000', '-0.167', '-0.356', '-0.452', '-0.510', '-0.563'),
    (2.0, 1.0, 1.0, '0.576', '0.500', '0.333', '0.167', '0.000', '-0.242'),
    (2.0, 10.0, 1.0, '0.112', '0.000', '-0.167', '-0.284', '-0.378', '-0.490'),
    (2.0, 10.0, 2.0, '0.000', '-0.141', '-0.333', '-0.452', '-0.535', '-0.621'),
    (2.0, 10.0, 5.0, '-0.189', '-0.356', '-0.548', '-0.645', '-0.704', '-0.757'),
    (1.0, 1.0, 1.0, '0.409', '0.333', '0.167', '0.000', '-0.167', '-0.409'),
    (1.0, 10.0, 1.0, '0.000', '-0.112', '-0.284', '-0.409', '-0.510', '-0.633'),
    (1.0, 10.0, 2.0, '-0.112', '-0.255', '-0.452', '-0.576', '-0.663', '-0.752'),
    (1.0, 10.0, 5.0, '-0.284', '-0.452', '-0.645', '-0.742', '-0.802', '-0.856'),
    (0.5, 10.0, 0.1, '0.112', '0.068', '-0.000', '-0.057', '-0.119', '-0.266'),
    (0.5, 10.0, 0.5, '0.000', '-0.085', '-0.225', '-0.342', '-0.452', '-0.621'),
    (0.5, 10.0, 1.0, '-0.085', '-0.199', '-0.378', '-0.510', '-0.619', '-0.752'),
    (0.5, 10.0, 2.0, '-0.189', '-0.333', '-0.535', '-0.663', '-0.752', '-0.845'),
    (0.5, 10.0, 5.0, '-0.342', '-0.510', '-0.704', '-0.802', '-0.861', '-0.916'),
    (0.1, 10.0, 0.1, '0.000', '-0.040', '-0.112', '-0.182', '-0.266', '-0.490'),
    (0.1, 10.0, 0.5, '-0.112', '-0.201', '-0.356', '-0.490', '-0.621', '-0.823'),
    (0.1, 10.0, 1.0, '-0.182', '-0.300', '-0.490', '-0.633', '-0.752', '-0.899'),
    (0.1, 10.0, 2.0, '-0.266', '-0.413', '-0.621', '-0.752', '-0.845', '-0.942'),
    (0.1, 10.0, 5.0, '-0.394', '-0.563', '-0.757', '-0.856', '-0.916', '-0.970'),
)


def test_correlation_table_reproduction():
    t0 = time.time()
    rows = correlation_table()
    elapsed = time.time() - t0
    by_key = {row[:3]: row[3:] for row in rows}
    bad = []
    checked = 0
    for ref in REFERENCE_TABLE:
        got = by_key[ref[:3]]
        for col, printed in enumerate(ref[3:]):
            checked += 1
            target = float(printed)
            value = got[col]
            ok = abs(value) < 5e-4 if abs(target) == 0.0 else abs(value - target) < 5e-4
            if not ok:
                bad.append((ref[:3], TABLE_A00_COLUMNS[col], printed, value))
    _check(
        "correlation table: all values within 5e-4 of the reference, under 1s",
        not bad and checked == 168 and elapsed < 1.0,
        f"{checked} values, {len(bad)} mismatches, {elapsed:.3f}s"
        + (f"; first bad: {bad[0]}" if bad else ""),
    )


def test_exact_moment_fit():
    target = MomentVector(0.5857, 0.4856, 0.0162, 0.0167, 0.0034)
    expected = np.array([4.699, 3.502, 2.101, 3.700])
    t0 = time.time()
    res = fit_moments(target)
    elapsed = time.time() - t0
    dev = float(np.max(np.abs(res.alpha_star.as_array() - expected)))
    _check(
        "exact-moment fit: objective <= 1e-9, parameters within 0.05, under 5s",
        res.converged and res.objective_value <= 1e-9 and dev < 0.05 and elapsed < 5.0,
        f"objective {res.objective_value:.3e}, max dev {dev:.4f}, {elapsed:.2f}s",
    )


def test_perturbed_moment_fit():
    target = MomentVector(0.5738, 0.4647, 0.0151, 0.0170, 0.0035)
    expected = np.array([4.602, 3.639, 2.072, 4.049])
    res = fit_moments(target)
    dev = float(np.max(np.abs(res.alpha_star.as_array() - expected)))
    _check(
        "perturbed-moment fit: objective in [1e-7, 1e-5], parameters within 0.15",
        res.converged and 1e-7 <= res.objective_value <= 1e-5 and dev < 0.15,
        f"objective {res.objective_value:.3e}, max dev {dev:.4f}",
    )


NORMALIZATION_SETS = (
    (1.0, 1.0, 1.0, 1.0),
    (2.0, 2.0, 2.0, 2.0),
    (4.7, 3.5, 2.1, 3.7),
    (10.0, 0.1, 0.1, 10.0),
    (0.5, 1.5, 1.5, 0.5),
)


def _safe_pdf(alpha, x, y):
    try:
        return pdf(alpha, x, y).value
    except ConvergenceError as exc:
        return exc.result.value


def test_density_normalization():
    t0 = time.time()
    worst = 0.0
    details = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for raw in NORMALIZATION_SETS:
            a = AlphaBivariate(*raw)

            def inner(y):
                val, _ = integrate.quad(
                    lambda x: _safe_pdf(a, x, y), 0.0, 1.0,
                    points=sorted({y, 1.0 - y}), limit=300,
                )
                return val

            total, _ = integrate.quad(inner, 0.0, 1.0, limit=300)
            err = abs(total - 1.0)
            worst = max(worst, err)
            details.append(f"{raw}: {err:.2e}")
    elapsed = time.time() - t0
    _check(
        "density normalization: integral equals 1 within 1e-4 for five parameter sets, under 30s",
        worst < 1e-4 and elapsed < 30.0,
        f"worst {worst:.2e}, {elapsed:.1f}s",
    )


def _interior_point(rng):
    while True:
        x, y = rng.uniform(0.02, 0.98, size=2)
        if abs(x - y) > 5e-3 and abs(x + y - 1.0) > 5e-3:
            return float(x), float(y)


def _line_limit_smooth(alpha, center, direction, tol):
    """Closed-form value on a line equals the limit from both sides."""
    eps = 1e-8
    x0, y0 = center
    dx, dy = direction
    line = pdf_closed_form(alpha, x0, y0).value
    lo = pdf_closed_form(alpha, x0 - eps * dx, y0 - eps * dy).value
    hi = pdf_closed_form(alpha, x0 + eps * dx, y0 + eps * dy).value
    return _rel(line, lo) < tol and _rel(line, hi) < tol


def _line_limit_ratio(alpha, center, direction):
    """Shrinking the offset by 4 must shrink the gap to the line value."""
    x0, y0 = center
    dx, dy = direction
    line = pdf_closed_form(alpha, x0, y0).value
    ok = True
    for sgn in (+1.0, -1.0):
        e1 = pdf_closed_form(alpha, x0 + sgn * 1e-6 * dx, y0 + sgn * 1e-6 * dy).value
        e2 = pdf_closed_form(alpha, x0 + sgn * 2.5e-7 * dx, y0 + sgn * 2.5e-7 * dy).value
        g1, g2 = abs(e1 - line), abs(e2 - line)
        ok = ok and g2 <= 0.8 * g1 + 1e-12 * abs(line)
    return ok


def test_closed_form_matches_quadrature():
    failures = []

    rng = np.random.Generator(np.random.PCG64(811))
    for k in range(25):
        a = AlphaBivariate(*rng.uniform(1.05, 5.0, size=4))
        x, y = _interior_point(rng)
        cf = pdf_closed_form(a, x, y).value
        qd = pdf_quadrature(a, x, y, tol=1e-12).value
        if _rel(cf, qd) > 1e-8:
            failures.append(f"above-1 #{k}: rel {_rel(cf, qd):.2e}")

    rng = np.random.Generator(np.random.PCG64(812))
    for k in range(25):
        a = AlphaBivariate(*rng.uniform(0.15, 0.95, size=4))
        x, y = _interior_point(rng)
        cf = pdf_closed_form(a, x, y).value
        qd = pdf_quadrature(a, x, y, tol=1e-12).value
        if _rel(cf, qd) > 1e-6:
            failures.append(f"below-1 #{k}: rel {_rel(cf, qd):.2e}")

    # the four line formulas, approached from both sides
    smooth = AlphaBivariate(2.0, 3.0, 1.5, 2.5)
    for label, center, direction in (
        ("diag-low", (0.3, 0.3), (-1.0, 1.0)),
        ("diag-high", (0.7, 0.7), (-1.0, 1.0)),
        ("antidiag-left", (0.25, 0.75), (0.0, 1.0)),
        ("antidiag-right", (0.875, 0.125), (0.0, 1.0)),
        ("center", (0.5, 0.5), (1.0, 1.0)),
    ):
        if not _line_limit_smooth(smooth, center, direction, 1e-6):
            failures.append(f"limit {label} (smooth case)")

    rough = AlphaBivariate(0.9, 0.8, 0.7, 0.6)   # line exponents land at 0.5
    for label, center, direction in (
        ("diag-low", (0.3, 0.3), (-1.0, 1.0)),
        ("diag-high", (0.7, 0.7), (-1.0, 1.0)),
        ("antidiag-left", (0.25, 0.75), (0.0, 1.0)),
        ("antidiag-right", (0.875, 0.125), (0.0, 1.0)),
        ("center", (0.5, 0.5), (1.0, 1.0)),
    ):
        if not _line_limit_ratio(rough, center, direction):
            failures.append(f"limit {label} (rough case)")

    _check(
        "closed form vs quadrature: 1e-8/1e-6 at 50 interior points; lines are two-sided limits",
        not failures,
        f"{len(failures)} failures" + (f"; first: {failures[0]}" if failures else ""),
    )


MARGINAL_SETS = (
    (1.0, 1.0, 1.0, 1.0),
    (2.0, 2.0, 2.0, 2.0),
    (4.7, 3.5, 2.1, 3.7),
    (2.0, 3.0, 1.5, 2.5),
    (0.8, 1.2, 1.4, 0.9),
)


def test_marginal_beta_law():
    worst = 0.0
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for raw in MARGINAL_SETS:
            a = AlphaBivariate(*raw)
            for x in np.arange(0.1, 0.95, 0.1):
                x = float(x)
                got, _ = integrate.quad(
                    lambda y: _safe_pdf(a, x, y), 0.0, 1.0,
                    points=sorted({x, 1.0 - x}), limit=300,
                )
                expected = stats.beta.pdf(x, a.a11 + a.a10, a.a01 + a.a00)
                err = abs(got - expected) / max(1.0, expected)
                worst = max(worst, err)
                ok = ok and err <= 1e-5
    _check(
        "x-marginal equals the aggregated beta density at 9 abscissae for five parameter sets",
        ok,
        f"worst scaled error {worst:.2e}",
    )


def test_monte_carlo_moment_coherence():
    rng = np.random.Generator(np.random.PCG64(901))
    failures = []
    for k in range(10):
        a = AlphaBivariate(*rng.uniform(0.3, 6.0, size=4))
        draws = sample_bivariate(a, 10 ** 6, RandomStream(1000 + k))
        x, y = draws[:, 0], draws[:, 1]
        m = moment_vector(a)
        cx, cy = x - x.mean(), y - y.mean()
        stats_and_targets = (
            ("m10", x, m.m10),
            ("m01", y, m.m01),
            ("m20", cx * cx, m.m20),
            ("m02", cy * cy, m.m02),
            ("m11", cx * cy, m.m11),
        )
        for label, g, target in stats_and_targets:
            se = g.std() / 1000.0
            if abs(g.mean() - target) >= 4.0 * se:
                failures.append(f"set {k} {label}: {abs(g.mean()-target)/se:.1f} SE")
        if abs(np.corrcoef(x, y)[0, 1] - correlation(a)) >= 0.005:
            failures.append(f"set {k} correlation")
    _check(
        "Monte Carlo coherence: 1e6-draw moments within 4 SE, correlation within 0.005, ten sets",
        not failures,
        f"{len(failures)} failures" + (f"; first: {failures[0]}" if failures else ""),
    )


def test_trivariate_pairwise_consistency():
    rng = np.random.Generator(np.random.PCG64(911))
    worst = 0.0
    ok = True
    for k in range(2):
        a = AlphaTrivariate(*rng.uniform(0.4, 5.0, size=8))
        draws = sample_trivariate(a, 10 ** 6, RandomStream(1100 + k))
        for cols, margin in (((0, 1), a.margin_xy()),
                             ((0, 2), a.margin_xz()),
                             ((1, 2), a.margin_yz())):
            got = np.corrcoef(draws[:, cols[0]], draws[:, cols[1]])[0, 1]
            err = abs(got - correlation(margin))
            worst = max(worst, err)
            ok = ok and err < 0.005
    _check(
        "trivariate margins: pairwise sample correlations match aggregated parameters within 0.005",
        ok,
        f"worst deviation {worst:.4f}",
    )


def test_hypergeometric_identities():
    rng = np.random.Generator(np.random.PCG64(921))
    failures = []
    for k in range(100):
        a = float(rng.uniform(0.2, 3.0))
        c = a + float(rng.uniform(0.2, 3.0))
        b1, b2 = (float(v) for v in rng.uniform(0.1, 2.5, size=2))
        z1, z2 = (float(v) for v in rng.uniform(-0.8, 0.8, size=2))

        lhs = appell_f1(a, b1, 0.0, c, z1, z2, tol=1e-11)
        rhs = hyp2f1(b1, a, c, z1)
        if _rel(lhs, rhs) > 1e-9:
            failures.append(f"#{k} degenerate-second-slot: {_rel(lhs, rhs):.2e}")

        lhs = appell_f1(a, b1, b2, c, z1, z1, tol=1e-11)
        rhs = hyp2f1(b1 + b2, a, c, z1)
        if _rel(lhs, rhs) > 1e-9:
            failures.append(f"#{k} equal-arguments: {_rel(lhs, rhs):.2e}")

        lhs = appell_f1(a, b1, b2, c, z1, z2, tol=1e-11)
        rhs = appell_f1_series(a, b1, b2, c, z1, z2)
        if _rel(lhs, rhs) > 1e-9:
            failures.append(f"#{k} series oracle: {_rel(lhs, rhs):.2e}")
    _check(
        "hypergeometric identities and series oracle agree to 1e-9 on 100 random tuples",
        not failures,
        f"{len(failures)} failures" + (f"; first: {failures[0]}" if failures else ""),
    )


def test_baseline_reduction_and_arnold_sign():
    rng = np.random.Generator(np.random.PCG64(931))
    worst = 0.0
    for _ in range(20):
        a0, a1, a2 = (float(v) for v in rng.uniform(0.3, 5.0, size=3))
        x, y = (float(v) for v in rng.uniform(0.05, 0.95, size=2))
        p = LibbyNovickParams(a0, a1, a2)
        worst = max(worst, _rel(pdf_libby_novick(p, x, y),
                                pdf_three_param(a0, a1, a2, x, y)))
    draws = sample_arnold(ArnoldParams(1.0, 1.0, 0.01, 5.0, 0.01),
                          10 ** 6, RandomStream(1200))
    corr = float(np.corrcoef(draws[:, 0], draws[:, 1])[0, 1])
    _check(
        "baselines: unit-rate reduction identity to 1e-12 and negative-dependence sampler check",
        worst < 1e-12 and corr < 0.0,
        f"worst reduction error {worst:.2e}, sample correlation {corr:.3f}",
    )
