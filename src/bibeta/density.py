"""Joint density of the shared-component bivariate beta.

The density at (x, y) is a one-dimensional integral over the feasible range
of the common share u:

    f(x, y) = B(a)^-1 * integral over max(0, x+y-1) < u < min(x, y) of
              u**(a11-1) * (x-u)**(a10-1) * (y-u)**(a01-1)
              * (1-x-y+u)**(a00-1) du.

``pdf`` is ``pdf_quadrature``: the integral, rescaled to (0, 1) with every
distance to an end of the share range formed without cancellation, under the
tanh-sinh rule; ``pdf_grid`` batches it.  ``pdf_closed_form`` keeps the
paper's hypergeometric expression (Appell F1 off the diagonals, Gauss 2F1 on
them) as a reference.  The unit square splits into four open triangles,
cut by x = y and x + y = 1, and the closed forms take a shape on each.

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

import enum
import math

import numpy as np

from .construction import AlphaBivariate
from .errors import ConvergenceError, DomainError
# integrate_unit stays bound here: perfbench/tracing.py wraps it by name
from .special import (appell_f1, hyp2f1, integrate_unit,  # noqa: F401
                      integrate_unit_batch, ln_beta_multi)

__all__ = [
    "Region",
    "DensityValue",
    "classify_region",
    "pdf_quadrature",
    "pdf_closed_form",
    "pdf",
    "pdf_grid",
]


class Region(enum.Enum):
    ABP = "ABP"                  # x + y < 1, x < y
    APD = "APD"                  # x + y < 1, x > y
    BCP = "BCP"                  # x + y > 1, x < y
    CDP = "CDP"                  # x + y > 1, x > y
    LINE_AP = "LINE_AP"          # x = y < 1/2
    LINE_PC = "LINE_PC"          # x = y > 1/2
    LINE_BP = "LINE_BP"          # x + y = 1, x < 1/2
    LINE_PD = "LINE_PD"          # x + y = 1, x > 1/2
    CENTER_P = "CENTER_P"        # x = y = 1/2
    OUT_OF_DOMAIN = "OUT_OF_DOMAIN"


def _sum_minus_one(x, y):
    # exact sign of x + y - 1 for the given floats (or elementwise for
    # arrays): two-sum residual, then Sterbenz-exact subtraction of 1 from
    # the rounded sum
    s = x + y
    b = s - x
    err = (x - (s - b)) + (y - b)
    return (s - 1.0) + err


def classify_region(x: float, y: float) -> Region:
    """Place (x, y) on the region map; no epsilon snapping anywhere."""
    if not (isinstance(x, (int, float)) and isinstance(y, (int, float))):
        raise DomainError("coordinates must be real numbers")
    x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        return Region.OUT_OF_DOMAIN
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        return Region.OUT_OF_DOMAIN
    d = _sum_minus_one(x, y)
    if x == y:
        if d == 0.0:
            return Region.CENTER_P
        return Region.LINE_AP if x < 0.5 else Region.LINE_PC
    if d == 0.0:
        return Region.LINE_BP if x < 0.5 else Region.LINE_PD
    if d < 0.0:
        return Region.ABP if x < y else Region.APD
    return Region.BCP if x < y else Region.CDP


_METHODS = ("closed_form", "quadrature")

# lattice cells per batched kernel call: bounds the (cells x nodes) arrays
_GRID_CHUNK = 256


class DensityValue:
    """A density value plus how it was obtained.

    ``value`` may be ``math.inf`` where the defining integral diverges (on
    the cut lines with too little weight in the relevant shares); it is never
    negative or NaN.  ``error_estimate`` is only nonzero for the quadrature
    route.
    """

    __slots__ = ("value", "method", "error_estimate")

    def __init__(self, value: float, method: str, error_estimate: float = 0.0):
        value = float(value)
        if math.isnan(value) or value < 0.0:
            raise DomainError(f"density value must be >= 0 or inf, got {value!r}")
        if method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}, got {method!r}")
        if not error_estimate >= 0.0:
            raise DomainError("error_estimate must be >= 0")
        self.value = value
        self.method = method
        self.error_estimate = float(error_estimate)

    @property
    def diverged(self) -> bool:
        return math.isinf(self.value)

    def __repr__(self):
        return (f"DensityValue(value={self.value!r}, method={self.method!r}, "
                f"error_estimate={self.error_estimate!r})")


def _require_inside(x: float, y: float, tol: float) -> Region:
    # tol first, so a bad one fails at every point, cut lines included
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    region = classify_region(x, y)
    if region is Region.OUT_OF_DOMAIN:
        raise DomainError(f"point ({x!r}, {y!r}) lies outside the open unit square")
    return region


def _density_batch(alpha: AlphaBivariate, x: np.ndarray, y: np.ndarray, d: np.ndarray,
                   tol: float):
    """Density at points that share one sign pattern of (d, x - y), with
    d = x + y - 1 from ``_sum_minus_one``: the share-range integral,
    rescaled to (0, 1), from ``integrate_unit_batch``, times its prefactor.

    Every factor that vanishes at an endpoint moves into the endpoint
    exponents, which the pattern fixes; the rest stays in the smooth part.
    Returns per-point ``(value, error_estimate, converged)``, which read
    ``(inf, 0, True)`` without integrating where the integral diverges.
    """
    d0, s0 = d[0], x[0] - y[0]
    # the share range runs from max(0, d) up to min(x, y)
    scale = 1.0 - np.maximum(x, y) if d0 > 0.0 else np.minimum(x, y)

    # which factors vanish at the ends: u or 1-x-y+u at t = 0, x-u or y-u at 1
    sing_share, sing_comp = d0 <= 0.0, d0 >= 0.0
    sing_x, sing_y = s0 <= 0.0, s0 >= 0.0

    p = (alpha.a11 - 1.0 if sing_share else 0.0) + (alpha.a00 - 1.0 if sing_comp else 0.0)
    q = (alpha.a10 - 1.0 if sing_x else 0.0) + (alpha.a01 - 1.0 if sing_y else 0.0)
    n = x.size
    if p <= -1.0 or q <= -1.0:
        return np.full(n, math.inf), np.zeros(n), np.ones(n, dtype=bool)

    # (base, slope, exponent, from_right): base + slope*t, or from the top
    # |x - y| + scale*(1-t) over max(|x - y|, scale), which keeps its digits
    # where both are subnormal (|d| never is); columns against the node row,
    # or scalars for a batch of one, whose level sums then stay 1-D
    col = (lambda v: v[:, None]) if n > 1 else (lambda v: v[0])
    scale_col = col(scale)
    terms, ln_unit = [], 0.0
    if not sing_share:
        terms.append((col(d), scale_col, alpha.a11 - 1.0, False))          # u
    if not sing_comp:
        terms.append((col(-d), scale_col, alpha.a00 - 1.0, False))         # 1-x-y+u
    if s0 != 0.0:
        gap = np.abs(x - y)
        unit = np.maximum(gap, scale)
        e = alpha.a10 - 1.0 if s0 > 0.0 else alpha.a01 - 1.0             # x-u, y-u
        terms.append((col(gap / unit), col(scale / unit), e, True))
        ln_unit = e * np.log(unit)

    def smooth(t, one_minus_t, rows):
        # no re-indexing while every row is active
        every = rows.size == n
        out = 1.0
        for base, slope, e, from_right in terms:
            if not every:
                base, slope = base[rows], slope[rows]
            out = out * np.power(base + slope * (one_minus_t if from_right else t), e)
        return out

    batch = integrate_unit_batch(p, q, smooth, n, tol)
    ln_pref = (1.0 + p + q) * np.log(scale) + ln_unit - ln_beta_multi(alpha.as_array())
    # in logs: a prefactor past the float range meets its integral first, and
    # a density that still overflows reads inf, not inf * 0 = nan in its error
    with np.errstate(divide="ignore", over="ignore"):
        value = np.exp(ln_pref + np.log(batch.value))
        error = np.exp(ln_pref + np.log(batch.abs_error_estimate))
    return value, error, batch.converged


def pdf_quadrature(alpha: AlphaBivariate, x: float, y: float,
                   tol: float = 1e-10) -> DensityValue:
    """Density by direct tanh-sinh integration over the share range, on
    the integrand ``pdf_grid`` uses, as a batch of one point.

    Returns the infinity marker where the integral diverges.  A
    ``ConvergenceError`` carries the best estimate as a ``DensityValue``.
    """
    x, y = float(x), float(y)
    _require_inside(x, y, tol)
    value, error, converged = _density_batch(
        alpha, np.array([x]), np.array([y]), np.array([_sum_minus_one(x, y)]), tol)
    result = DensityValue(value[0], "quadrature", error[0])
    if not converged[0]:
        raise ConvergenceError(f"density at ({x!r}, {y!r}) did not reach tol={tol:g}",
                               result=result)
    return result


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


def _diagonal_half(alpha: AlphaBivariate, x: float, tol: float) -> float:
    # valid for x = y < 1/2; diverges unless the solo shares carry weight > 1
    s = alpha.a10 + alpha.a01 - 1.0
    if s <= 0.0:
        return math.inf
    one_minus_2x = 1.0 - 2.0 * x
    ln_pref = (-ln_beta_multi(alpha.as_array())
               + ln_beta_multi((alpha.a11, s))
               + (alpha.a11 + s - 1.0) * math.log(x)
               + (alpha.a00 - 1.0) * math.log(one_minus_2x))
    g = hyp2f1(1.0 - alpha.a00, alpha.a11, alpha.a11 + s, x / (2.0 * x - 1.0),
               tol=_line_tol(tol))
    return math.exp(ln_pref) * g


def _antidiagonal_half(alpha: AlphaBivariate, x: float, y: float, tol: float) -> float:
    # valid for x = 1 - y < 1/2; diverges unless shared + complement > 1
    r = alpha.a11 + alpha.a00 - 1.0
    if r <= 0.0:
        return math.inf
    ln_pref = (-ln_beta_multi(alpha.as_array())
               + ln_beta_multi((alpha.a10, r))
               + (alpha.a10 + r - 1.0) * math.log(x)
               + (alpha.a01 - 1.0) * math.log(y))
    g = hyp2f1(1.0 - alpha.a01, r, alpha.a10 + r, x / y, tol=_line_tol(tol))
    return math.exp(ln_pref) * g


def _center(alpha: AlphaBivariate) -> float:
    s = alpha.a10 + alpha.a01 - 1.0
    r = alpha.a11 + alpha.a00 - 1.0
    if s <= 0.0 or r <= 0.0:
        return math.inf
    m = alpha.total
    ln_f = (-ln_beta_multi(alpha.as_array()) + (3.0 - m) * math.log(2.0)
            + math.lgamma(s) + math.lgamma(r) - math.lgamma(m - 2.0))
    return math.exp(ln_f)


def pdf_closed_form(alpha: AlphaBivariate, x: float, y: float,
                    tol: float = 1e-10) -> DensityValue:
    """Density via the region-matched hypergeometric expression.

    Regions other than the directly-coded ones are mapped back through the
    swap and reflection symmetries of the construction, which are exact.
    ``tol`` is the relative tolerance of the Appell F1 integral; the Gauss
    2F1 on the cut lines runs one decade tighter.
    """
    x, y = float(x), float(y)
    region = _require_inside(x, y, tol)
    d = _sum_minus_one(x, y)

    if region is Region.ABP:
        v = _lower_triangle(alpha, x, y, d, tol)
    elif region is Region.APD:
        v = _lower_triangle(alpha.swapped(), y, x, d, tol)
    elif region is Region.CDP:
        v = _lower_triangle(alpha.reflected(), 1.0 - x, 1.0 - y, -d, tol)
    elif region is Region.BCP:
        v = _lower_triangle(alpha.reflected().swapped(), 1.0 - y, 1.0 - x, -d, tol)
    elif region is Region.LINE_AP:
        v = _diagonal_half(alpha, x, tol)
    elif region is Region.LINE_PC:
        v = _diagonal_half(alpha.reflected(), 1.0 - x, tol)
    elif region is Region.LINE_BP:
        v = _antidiagonal_half(alpha, x, y, tol)
    elif region is Region.LINE_PD:
        # on this line 1-x equals y exactly, so the reflected point is (y, x)
        v = _antidiagonal_half(alpha.reflected(), y, x, tol)
    else:
        v = _center(alpha)
    return DensityValue(v, "closed_form")


def pdf(alpha: AlphaBivariate, x: float, y: float, tol: float = 1e-10) -> DensityValue:
    """Density at (x, y) to relative tolerance ``tol``: ``pdf_quadrature``.

    ``inf`` on a divergent cut line; ``DomainError`` off the open square or
    for a ``tol`` that is not finite and positive; ``ConvergenceError``,
    carrying the best ``DensityValue``, if the rule runs out of levels.
    """
    return pdf_quadrature(alpha, x, y, tol=tol)


def pdf_grid(alpha: AlphaBivariate, resolution: int = 100,
             tol: float = 1e-10) -> np.ndarray:
    """Density on the cell-midpoint lattice ((i+1/2)/R, (j+1/2)/R).

    Returns an (R*R, 3) array of rows (x, y, density), the first coordinate
    varying slowest.  Cells sitting exactly on a divergent cut line hold the
    infinity marker.  Cells are grouped by their sign pattern of
    (x + y - 1, x - y) and run through ``pdf_quadrature``'s integrand in
    batched kernel calls; an unconverged cell raises ``ConvergenceError``.
    """
    resolution = int(resolution)
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution!r}")
    axis = (np.arange(resolution) + 0.5) / resolution
    x = np.repeat(axis, resolution)
    y = np.tile(axis, resolution)
    d = _sum_minus_one(x, y)
    density = np.empty(x.size)
    pattern = 3 * np.sign(d) + np.sign(x - y)
    for key in np.unique(pattern):
        cells = np.flatnonzero(pattern == key)
        for start in range(0, cells.size, _GRID_CHUNK):
            rows = cells[start:start + _GRID_CHUNK]
            value, _, converged = _density_batch(alpha, x[rows], y[rows], d[rows], tol)
            if not converged.all():
                raise ConvergenceError(f"a grid cell did not reach tol={tol:g}")
            density[rows] = value
    return np.column_stack((x, y, density))
