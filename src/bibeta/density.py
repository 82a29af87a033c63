"""Joint density of the shared-component bivariate beta.

The density at (x, y) is a one-dimensional integral over the feasible range
of the common share u:

    f(x, y) = B(a)^-1 * integral over max(0, x+y-1) < u < min(x, y) of
              u**(a11-1) * (x-u)**(a10-1) * (y-u)**(a01-1)
              * (1-x-y+u)**(a00-1) du.

``pdf``, also named ``pdf_quadrature``, is the integral, rescaled to (0, 1)
with every distance to an end of the share range formed without
cancellation, under the tanh-sinh rule.  ``pdf_points`` batches it over
arrays of points, and ``pdf_grid`` is ``pdf_points`` on a lattice.
``pdf_closed_form`` keeps the paper's hypergeometric expression (Appell F1
off the diagonals, Gauss 2F1 on them) as a reference.  The unit square
splits into four open triangles, cut by x = y and x + y = 1, and the closed
forms take a shape on each.

Only the lower-left triangle and the two half-lines through it are coded
directly.  The other pieces are reached through two exact distributional
symmetries: swapping the margins permutes the two solo shares, and reflecting
both margins (x, y) -> (1-x, 1-y) pairs every share with its complement.

On the diagonal halves the density is finite only when a10 + a01 > 1, and on
the antidiagonal halves only when a11 + a00 > 1; otherwise the defining
integral diverges and the returned value is the infinity marker, not an
error.  Membership of the cut lines is decided by exact floating comparison
of the given coordinates (the sum x + y is tested against 1 through a
compensated residual, so the test is exact even where x + y rounds).
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from typing import NamedTuple

import numpy as np

from .construction import AlphaBivariate, _check_count, _check_positive
from .errors import ConvergenceError, DomainError
# integrate_unit stays bound here: perfbench/tracing.py wraps it by name
from .special import (appell_f1, hyp2f1, integrate_unit,  # noqa: F401
                      integrate_unit_batch, ln_beta_multi)

__all__ = [
    "DensityValue",
    "pdf_quadrature",
    "pdf_closed_form",
    "pdf",
    "pdf_points",
    "DensityArrays",
    "pdf_grid",
]


def _sum_minus_one(x, y):
    # exact sign of x + y - 1 for the given floats (or elementwise for
    # arrays): two-sum residual, then Sterbenz-exact subtraction of 1 from
    # the rounded sum
    s = x + y
    b = s - x
    err = (x - (s - b)) + (y - b)
    return (s - 1.0) + err


_METHODS = ("closed_form", "quadrature")

# points per batched kernel call: bounds the (points x nodes) arrays
_CHUNK = 256


class DensityValue:
    """A density value plus how it was obtained.

    ``value`` is ``math.inf`` where the defining integral diverges (on the
    cut lines with too little weight in the relevant shares), and then
    ``diverged`` is True.  A finite density past the float range also reads
    ``inf``, with ``diverged`` False.  ``value`` is never negative or NaN.
    ``error_estimate`` is only nonzero for the quadrature route, and
    ``evaluations`` counts the integrand evaluations it spent (0 for the
    closed form and on a divergent line).  A caller that leaves ``diverged``
    out gets ``math.isinf(value)``; ``pdf`` and ``pdf_closed_form`` always
    state it.
    """

    __slots__ = ("value", "method", "error_estimate", "diverged", "evaluations")

    def __init__(self, value: float, method: str, error_estimate: float = 0.0,
                 diverged: bool | None = None):
        value = float(value)
        if math.isnan(value) or value < 0.0:
            raise DomainError(f"density value must be >= 0 or inf, got {value!r}")
        if method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}, got {method!r}")
        if not error_estimate >= 0.0:
            raise DomainError("error_estimate must be >= 0")
        if diverged is None:
            diverged = math.isinf(value)
        elif diverged and not math.isinf(value):
            raise DomainError(f"a diverged density must be inf, got {value!r}")
        self.value = value
        self.method = method
        self.error_estimate = float(error_estimate)
        self.diverged = bool(diverged)
        self.evaluations = 0

    @classmethod
    def _quadrature(cls, value, error_estimate, diverged, evaluations):
        # unchecked: _density_batch yields only values __init__ accepts
        self = object.__new__(cls)
        self.value = float(value)
        self.method = "quadrature"
        self.error_estimate = float(error_estimate)
        self.diverged = diverged
        self.evaluations = int(evaluations)
        return self

    def __repr__(self):
        return (f"DensityValue(value={self.value!r}, method={self.method!r}, "
                f"error_estimate={self.error_estimate!r}, diverged={self.diverged!r}, "
                f"evaluations={self.evaluations!r})")


def _require_inside(x: float, y: float) -> None:
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise DomainError(f"point ({x!r}, {y!r}) lies outside the open unit square")


class _Integrand(NamedTuple):
    """The parts of one weight set's integrand that a sign pattern of
    (x + y - 1, x - y) fixes, whatever the point."""

    p: float                 # endpoint exponents of the rescaled integral
    q: float
    share_exp: float | None  # exponent of u or 1-x-y+u, unless it vanishes at t = 0
    gap_exp: float | None    # exponent of x-u or y-u, unless it vanishes at t = 1
    ln_beta: float           # ln B(a11, a10, a01, a00)


@functools.lru_cache(maxsize=256)
def _integrands(alpha: AlphaBivariate) -> types.MappingProxyType:
    """Read-only ``_Integrand`` of every sign pattern, keyed by
    ``(sign(x + y - 1), sign(x - y))``, or None where the integral
    diverges."""
    ln_beta = ln_beta_multi((alpha.a11, alpha.a10, alpha.a01, alpha.a00))
    out = {}
    for d0, s0 in itertools.product((-1.0, 0.0, 1.0), repeat=2):
        # which factors vanish at the ends: u or 1-x-y+u at t = 0, x-u or
        # y-u at 1; those move into the endpoint exponents
        sing_share, sing_comp = d0 <= 0.0, d0 >= 0.0
        sing_x, sing_y = s0 <= 0.0, s0 >= 0.0
        p = (alpha.a11 - 1.0 if sing_share else 0.0) + (alpha.a00 - 1.0 if sing_comp else 0.0)
        q = (alpha.a10 - 1.0 if sing_x else 0.0) + (alpha.a01 - 1.0 if sing_y else 0.0)
        if p <= -1.0 or q <= -1.0:
            out[d0, s0] = None
            continue
        share = None if d0 == 0.0 else alpha.a11 - 1.0 if d0 > 0.0 else alpha.a00 - 1.0
        gap = None if s0 == 0.0 else alpha.a10 - 1.0 if s0 > 0.0 else alpha.a01 - 1.0
        out[d0, s0] = _Integrand(p, q, share, gap, ln_beta)
    return types.MappingProxyType(out)


def _density_batch(alpha: AlphaBivariate, signs: tuple, x, y, d, tol: float):
    """Density at points that share the sign pattern ``signs`` of (d, x - y),
    with d = x + y - 1 from ``_sum_minus_one``: the share-range integral,
    rescaled to (0, 1), from ``integrate_unit_batch``, times its prefactor.

    ``x``, ``y`` and ``d`` are 1-D arrays, or floats for a batch of one, which
    then steps through the kernel on scalars.  Every factor that vanishes at
    an endpoint moves into the endpoint exponents, which the pattern fixes;
    the rest stays in the smooth part.  The exponents and ln B(alpha) are
    formed once per weight set (``_integrands``).  Returns per-point
    ``(value, error_estimate, converged, evaluations)`` arrays and whether
    the integral diverges for the whole pattern; a divergent pattern reads
    ``(inf, 0, True, 0)`` without integrating.  A convergent integral whose
    density overflows also reads ``inf``.
    """
    columns = isinstance(x, np.ndarray)
    n = x.size if columns else 1
    integrand = _integrands(alpha)[signs]
    if integrand is None:
        return (np.full(n, math.inf), np.zeros(n), np.ones(n, dtype=bool),
                np.zeros(n, dtype=np.int64), True)
    # the share range runs from max(0, d) up to min(x, y)
    scale = 1.0 - np.maximum(x, y) if signs[0] > 0.0 else np.minimum(x, y)

    # (base, slope, exponent, from_right): base + slope*t, or from the top
    # |x - y| + scale*(1-t) over max(|x - y|, scale), which keeps its digits
    # where both are subnormal (|d| never is); columns against the node row,
    # or scalars for a batch of one, whose level sums then stay scalars
    col = (lambda v: v[:, None]) if columns else (lambda v: v)
    terms, ln_unit = [], 0.0
    if integrand.share_exp is not None:
        terms.append((col(abs(d)), col(scale), integrand.share_exp, False))
    if integrand.gap_exp is not None:
        gap = abs(x - y)
        unit = np.maximum(gap, scale)
        terms.append((col(gap / unit), col(scale / unit), integrand.gap_exp, True))
        ln_unit = integrand.gap_exp * np.log(unit)

    def smooth(t, one_minus_t, rows):
        # no re-indexing while every row is active
        every = rows.size == n
        out = None
        for base, slope, e, from_right in terms:
            if not every:
                base, slope = base[rows], slope[rows]
            f = np.power(base + slope * (one_minus_t if from_right else t), e)
            out = f if out is None else out * f
        return 1.0 if out is None else out

    p, q = integrand.p, integrand.q
    batch = integrate_unit_batch(p, q, smooth, n, tol)
    ln_pref = (1.0 + p + q) * np.log(scale) + ln_unit - integrand.ln_beta
    # in logs: a prefactor past the float range meets its integral first, and
    # a density that still overflows reads inf, not inf * 0 = nan in its error
    with np.errstate(divide="ignore", over="ignore"):
        value, error = np.exp(ln_pref + np.log((batch.value, batch.abs_error_estimate)))
    return value, error, batch.converged, batch.evaluations, False


def pdf(alpha: AlphaBivariate, x: float, y: float, tol: float = 1e-10) -> DensityValue:
    """Density at (x, y) to relative tolerance ``tol``, by direct tanh-sinh
    integration over the share range, on the integrand ``pdf_grid`` uses, as
    a batch of one point.

    ``inf`` with ``diverged`` True on a divergent cut line; ``inf`` with
    ``diverged`` False where a finite density exceeds the float range, as
    near a corner with small weights; ``DomainError`` off the open square or
    for a ``tol`` that is not finite and positive; ``ConvergenceError``,
    carrying the best ``DensityValue``, if the rule runs out of levels.
    """
    x, y = float(x), float(y)
    # tol first, so a bad one fails at every point, cut lines included
    tol = _check_positive("tol", tol)
    _require_inside(x, y)
    d = _sum_minus_one(x, y)
    value, error, converged, evaluations, diverged = _density_batch(
        alpha, (np.sign(d), np.sign(x - y)), x, y, d, tol)
    result = DensityValue._quadrature(value[0], error[0], diverged, evaluations[0])
    if not converged[0]:
        raise ConvergenceError(f"density at ({x!r}, {y!r}) did not reach tol={tol:g}",
                               result=result)
    return result


# the name of the quadrature route, kept beside ``pdf_closed_form``
pdf_quadrature = pdf


# --- closed forms ---------------------------------------------------------
#
# Lower-left triangle (x + y < 1, x < y), the directly-coded piece:
#
#   f = B(a)^-1 * B(a11, a10) * x**(a11+a10-1) * y**(a01-1) * (1-x-y)**(a00-1)
#       * F1(a11; 1-a01, 1-a00; a11+a10; x/y, x/(x+y-1))
#
# Diagonal half below the center, with s = a10 + a01 - 1 > 0:
#
#   f = B(a)^-1 * B(a11, s) * x**(a11+s-1) * (1-2x)**(a00-1)
#       * 2F1(1-a00, a11; a11+s; x/(2x-1))
#
# Antidiagonal half left of the center, with r = a11 + a00 - 1 > 0:
#
#   f = B(a)^-1 * B(a10, r) * x**(a10+r-1) * (1-x)**(a01-1)
#       * 2F1(1-a01, r; a10+r; x/(1-x))
#
# The center value is the limit of the diagonal form; a Pfaff transform turns
# the 2F1 argument into x/(1-x), whose value at the center is summable in
# gamma functions, leaving
#
#   f(1/2, 1/2) = B(a)^-1 * 2**(3-M) * G(a10+a01-1) * G(a11+a00-1) / G(M-2).


def _line_tol(tol: float) -> float:
    # the 2F1 on the cut lines runs a decade tighter than ``tol``; scaling by
    # the ratio keeps the default tol's 1e-11 exact (1e-10 / 10 is not)
    return 1e-11 * (tol / 1e-10)


def _lower_triangle(alpha: AlphaBivariate, x: float, y: float, d: float,
                    tol: float) -> float:
    # valid for d = x+y-1 < 0 and x < y
    ln_pref = (-ln_beta_multi(alpha.as_array())
               + ln_beta_multi((alpha.a11, alpha.a10))
               + (alpha.a11 + alpha.a10 - 1.0) * math.log(x)
               + (alpha.a01 - 1.0) * math.log(y)
               + (alpha.a00 - 1.0) * math.log(-d))
    f1 = appell_f1(alpha.a11, 1.0 - alpha.a01, 1.0 - alpha.a00,
                   alpha.a11 + alpha.a10, x / y, x / d, tol=tol)
    return math.exp(ln_pref) * f1


def _diagonal_half(alpha: AlphaBivariate, x: float, tol: float) -> float | None:
    # valid for x = y < 1/2; diverges (None) unless the solo shares carry
    # weight > 1
    s = alpha.a10 + alpha.a01 - 1.0
    if s <= 0.0:
        return None
    one_minus_2x = 1.0 - 2.0 * x
    ln_pref = (-ln_beta_multi(alpha.as_array())
               + ln_beta_multi((alpha.a11, s))
               + (alpha.a11 + s - 1.0) * math.log(x)
               + (alpha.a00 - 1.0) * math.log(one_minus_2x))
    g = hyp2f1(1.0 - alpha.a00, alpha.a11, alpha.a11 + s, x / (2.0 * x - 1.0),
               tol=_line_tol(tol))
    return math.exp(ln_pref) * g


def _antidiagonal_half(alpha: AlphaBivariate, x: float, y: float,
                       tol: float) -> float | None:
    # valid for x = 1 - y < 1/2; diverges (None) unless shared + complement > 1
    r = alpha.a11 + alpha.a00 - 1.0
    if r <= 0.0:
        return None
    ln_pref = (-ln_beta_multi(alpha.as_array())
               + ln_beta_multi((alpha.a10, r))
               + (alpha.a10 + r - 1.0) * math.log(x)
               + (alpha.a01 - 1.0) * math.log(y))
    g = hyp2f1(1.0 - alpha.a01, r, alpha.a10 + r, x / y, tol=_line_tol(tol))
    return math.exp(ln_pref) * g


def _center(alpha: AlphaBivariate) -> float | None:
    s = alpha.a10 + alpha.a01 - 1.0
    r = alpha.a11 + alpha.a00 - 1.0
    if s <= 0.0 or r <= 0.0:
        return None
    m = alpha.total
    ln_f = (-ln_beta_multi(alpha.as_array()) + (3.0 - m) * math.log(2.0)
            + math.lgamma(s) + math.lgamma(r) - math.lgamma(m - 2.0))
    return math.exp(ln_f)


def pdf_closed_form(alpha: AlphaBivariate, x: float, y: float,
                    tol: float = 1e-10) -> DensityValue:
    """Density via the paper's hypergeometric expression.

    A point with x + y > 1 is reflected to (1-x, 1-y) and one with x > y
    swapped to (y, x), both exact symmetries of the construction, which
    leaves the lower-left triangle, its two half-lines or the center.
    ``tol`` is the relative tolerance of the Appell F1 integral; the Gauss
    2F1 on the cut lines runs one decade tighter.
    """
    x, y = float(x), float(y)
    tol = _check_positive("tol", tol)
    _require_inside(x, y)
    d = _sum_minus_one(x, y)
    if d > 0.0:
        alpha, x, y, d = alpha.reflected(), 1.0 - x, 1.0 - y, -d
    if x > y:
        alpha, x, y = alpha.swapped(), y, x
    if x == y:
        v = _diagonal_half(alpha, x, tol) if d < 0.0 else _center(alpha)
    elif d < 0.0:
        v = _lower_triangle(alpha, x, y, d, tol)
    else:
        v = _antidiagonal_half(alpha, x, y, tol)
    if v is None:
        return DensityValue(math.inf, "closed_form", diverged=True)
    return DensityValue(v, "closed_form", diverged=False)


class DensityArrays(NamedTuple):
    """Per-point results of ``pdf_points``, each shaped like the input."""

    value: np.ndarray
    error_estimate: np.ndarray
    diverged: np.ndarray
    evaluations: np.ndarray


def pdf_points(alpha: AlphaBivariate, x, y, tol: float = 1e-10) -> DensityArrays:
    """``pdf`` at many points at once: arrays of value, error estimate,
    ``diverged`` and evaluations, shaped like ``x`` and ``y`` broadcast.

    Points are grouped by their sign pattern of (x + y - 1, x - y), which
    fixes the integrand's endpoint exponents, and each group runs through
    ``pdf``'s integrand in batched kernel calls of up to 256 points.  Points
    on the cut lines and the center follow ``pdf``'s rules.
    ``DomainError`` if any point lies off the open square or for a bad
    ``tol``; ``ConvergenceError`` if any point runs out of levels.
    """
    tol = _check_positive("tol", tol)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    inside = (0.0 < x) & (x < 1.0) & (0.0 < y) & (y < 1.0)
    if not inside.all():
        i = int(np.argmin(inside))
        raise DomainError(f"point ({float(x[i])!r}, {float(y[i])!r}) lies outside "
                          "the open unit square")
    d = _sum_minus_one(x, y)
    value = np.empty(x.size)
    error = np.empty(x.size)
    diverged = np.zeros(x.size, dtype=bool)
    evaluations = np.empty(x.size, dtype=np.int64)
    d_sign, s_sign = np.sign(d), np.sign(x - y)
    pattern = 3 * d_sign + s_sign
    for key in np.unique(pattern):
        points = np.flatnonzero(pattern == key)
        signs = d_sign[points[0]], s_sign[points[0]]
        for start in range(0, points.size, _CHUNK):
            rows = points[start:start + _CHUNK]
            v, e, converged, n, div = _density_batch(alpha, signs, x[rows], y[rows],
                                                     d[rows], tol)
            if not converged.all():
                i = rows[np.argmin(converged)]
                raise ConvergenceError(f"density at ({float(x[i])!r}, {float(y[i])!r}) "
                                       f"did not reach tol={tol:g}")
            value[rows], error[rows], evaluations[rows], diverged[rows] = v, e, n, div
    return DensityArrays(value.reshape(shape), error.reshape(shape),
                         diverged.reshape(shape), evaluations.reshape(shape))


def pdf_grid(alpha: AlphaBivariate, resolution: int = 100,
             tol: float = 1e-10) -> np.ndarray:
    """Density on the cell-midpoint lattice ((i+1/2)/R, (j+1/2)/R).

    Returns an (R*R, 3) array of rows (x, y, density), the first coordinate
    varying slowest.  Cells sitting exactly on a divergent cut line hold the
    infinity marker.  The lattice goes through ``pdf_points``; an
    unconverged cell raises ``ConvergenceError``.  ``resolution`` must be an
    integer >= 2, or ``DomainError``.
    """
    resolution = _check_count("resolution", resolution, 2)
    axis = (np.arange(resolution) + 0.5) / resolution
    x = np.repeat(axis, resolution)
    y = np.tile(axis, resolution)
    return np.column_stack((x, y, pdf_points(alpha, x, y, tol).value))
