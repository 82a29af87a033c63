"""Joint density of the shared-component bivariate beta.

The density at (x, y) is a one-dimensional integral over the feasible range
of the common share u:

    f(x, y) = B(a)^-1 * integral over max(0, x+y-1) < u < min(x, y) of
              u**(a11-1) * (x-u)**(a10-1) * (y-u)**(a01-1)
              * (1-x-y+u)**(a00-1) du.

Two evaluation routes are provided.  ``pdf_quadrature`` rescales the integral
to (0, 1) and hands it to the tanh-sinh rule; ``pdf_closed_form`` evaluates
the region-matched hypergeometric expression (Appell F1 off the diagonals,
Gauss 2F1 on them).  The unit square splits into four open triangles around
the center, cut by the diagonal x = y and the antidiagonal x + y = 1; the
closed forms take a different shape on each piece.

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
from .special import (IntegrandSpec, appell_f1, hyp2f1, integrate_unit,
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


def _require_inside(alpha: AlphaBivariate, x: float, y: float) -> Region:
    region = classify_region(x, y)
    if region is Region.OUT_OF_DOMAIN:
        raise DomainError(f"point ({x!r}, {y!r}) lies outside the open unit square")
    return region


def _share_integrand(alpha: AlphaBivariate, x: np.ndarray, y: np.ndarray, d: np.ndarray):
    """The share-range integral, rescaled to (0, 1), at points that share
    one sign pattern of (d, x - y), with d = x + y - 1 from
    ``_sum_minus_one``.

    Every factor that vanishes at an endpoint moves into the endpoint
    exponents, which the pattern fixes; the rest stays in the smooth part.
    Returns ``(p, q, scale, smooth)``: the exponents, the length of each
    point's share range, and ``smooth(t, rows)``, the smooth factor of the
    points ``rows`` as a (rows x nodes) array.  The integral diverges when
    ``p`` or ``q`` is at most -1.
    """
    d0, s0 = d[0], x[0] - y[0]
    if d0 > 0.0:
        lo, scale = d, 1.0 - np.maximum(x, y)
    else:
        lo, scale = 0.0, np.minimum(x, y)

    # which factors vanish at the endpoints of the rescaled integral
    sing_share = d0 <= 0.0         # u -> 0 at t = 0
    sing_comp = d0 >= 0.0          # 1-x-y+u -> 0 at t = 0
    sing_x = s0 <= 0.0             # x-u -> 0 at t = 1
    sing_y = s0 >= 0.0             # y-u -> 0 at t = 1

    p = (alpha.a11 - 1.0 if sing_share else 0.0) + (alpha.a00 - 1.0 if sing_comp else 0.0)
    q = (alpha.a10 - 1.0 if sing_x else 0.0) + (alpha.a01 - 1.0 if sing_y else 0.0)

    # per-point bases as columns, so they broadcast against the node row
    smooth_terms = []
    if not sing_share:
        smooth_terms.append((lo[:, None], alpha.a11 - 1.0))        # u = lo + scale*t
    if not sing_comp:
        smooth_terms.append((-d[:, None], alpha.a00 - 1.0))        # 1-x-y+u = -d + scale*t
    down_terms = []
    if not sing_x:
        down_terms.append(((x - lo)[:, None], alpha.a10 - 1.0))    # x-u = (x-lo) - scale*t
    if not sing_y:
        down_terms.append(((y - lo)[:, None], alpha.a01 - 1.0))
    scale_col = scale[:, None]

    def smooth(t, rows):
        sc = scale_col[rows]
        out = np.ones((sc.shape[0], t.size))
        for base, e in smooth_terms:
            out = out * np.power(base[rows] + sc * t, e)
        for base, e in down_terms:
            out = out * np.power(base[rows] - sc * t, e)
        return out

    return p, q, scale, smooth


def pdf_quadrature(alpha: AlphaBivariate, x: float, y: float,
                   tol: float = 1e-10) -> DensityValue:
    """Density by direct tanh-sinh integration over the share range.

    The integration variable is rescaled to (0, 1); every factor that
    vanishes at an endpoint moves into the declared endpoint exponents, the
    rest stays in the smooth part.  Returns the infinity marker where the
    integral diverges.  This is the integrand ``pdf_grid`` uses, on a batch
    of one point.
    """
    x, y = float(x), float(y)
    _require_inside(alpha, x, y)
    p, q, scale, smooth = _share_integrand(
        alpha, np.array([x]), np.array([y]), np.array([_sum_minus_one(x, y)]))
    if p <= -1.0 or q <= -1.0:
        return DensityValue(math.inf, "quadrature")
    result = integrate_unit(IntegrandSpec(p, q, lambda t: smooth(t, [0])), tol=tol)
    ln_pref = (1.0 + p + q) * math.log(scale[0]) - ln_beta_multi(alpha.as_array())
    pref = math.exp(ln_pref)
    return DensityValue(pref * result.value, "quadrature", pref * result.abs_error_estimate)


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
    region = _require_inside(alpha, x, y)
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
    """Density with automatic route choice.

    The closed form is preferred; the quadrature route takes over when the
    hypergeometric arguments fall outside their valid range or fail to
    converge, which happens only within rounding distance of the cut lines.
    Both routes honour ``tol``.
    """
    x, y = float(x), float(y)
    _require_inside(alpha, x, y)
    try:
        return pdf_closed_form(alpha, x, y, tol=tol)
    except (ConvergenceError, DomainError, OverflowError):
        return pdf_quadrature(alpha, x, y, tol=tol)


def pdf_grid(alpha: AlphaBivariate, resolution: int = 100,
             tol: float = 1e-10) -> np.ndarray:
    """Density on the cell-midpoint lattice ((i+1/2)/R, (j+1/2)/R).

    Returns an (R*R, 3) array of rows (x, y, density), the first coordinate
    varying slowest.  Cells sitting exactly on a divergent cut line hold the
    infinity marker.  Cells are grouped by their sign pattern of
    (x + y - 1, x - y), and each group runs through the quadrature route in
    batched kernel calls; a cell the kernel leaves unconverged at ``tol``
    goes through ``pdf``.
    """
    resolution = int(resolution)
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution!r}")
    axis = (np.arange(resolution) + 0.5) / resolution
    x = np.repeat(axis, resolution)
    y = np.tile(axis, resolution)
    d = _sum_minus_one(x, y)
    density = np.empty(x.size)
    ln_b = ln_beta_multi(alpha.as_array())
    pattern = 3 * np.sign(d) + np.sign(x - y)
    for key in np.unique(pattern):
        cells = np.flatnonzero(pattern == key)
        for start in range(0, cells.size, _GRID_CHUNK):
            rows = cells[start:start + _GRID_CHUNK]
            p, q, scale, smooth = _share_integrand(alpha, x[rows], y[rows], d[rows])
            if p <= -1.0 or q <= -1.0:
                density[rows] = math.inf
                continue
            batch = integrate_unit_batch(p, q, smooth, rows.size, tol)
            density[rows] = np.exp((1.0 + p + q) * np.log(scale) - ln_b) * batch.value
            for i in rows[~batch.converged]:
                density[i] = pdf(alpha, x[i], y[i], tol=tol).value
    return np.column_stack((x, y, density))
