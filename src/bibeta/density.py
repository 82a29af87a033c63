"""Joint density of the shared-component bivariate beta.

The density at (x, y) is a one-dimensional integral over the feasible range
of the common share u:

    f(x, y) = B(a)^-1 * integral over max(0, x+y-1) < u < min(x, y) of
              u**(a11-1) * (x-u)**(a10-1) * (y-u)**(a01-1)
              * (1-x-y+u)**(a00-1) du.

``pdf``, also named ``pdf_quadrature``, is the integral, rescaled to (0, 1)
with every distance to an end of the share range formed without
cancellation, under the Gauss-Jacobi kernel
``special.integrate_jacobi_batch``.  Each sign pattern of (x + y - 1, x - y)
fixes which factors vanish at the ends of the share range; their powers are
the kernel's Jacobi weight.  Each other factor has a branch point at a
distance from its end that the point fixes, and the kernel maps an end
where that distance is below 0.05.  A factor counts only where its exponent
is not a non-negative integer and, added to the endpoint power at its end,
is below 4 (``special._maps_branch``); a smoother end is left to the plain
rule, which resolves it sooner than the map would.  A row whose sum leaves
the float range, or that 128 points do not settle, the kernel integrates in
logs on a layout centred on the integrand's peak; the prefactor is summed
in logs too, so a density below the float range reads 0.0 and one above it
reads ``inf``.  ``pdf_points`` batches it over arrays of points, sorted
by sign pattern, in one kernel call per ``_CHUNK`` = 2048 points, whatever
their patterns: the kernel takes each point's endpoint powers, and a point
on a divergent line reads ``inf`` without reaching it.  ``pdf_grid`` is
``pdf_points`` on a lattice; a batch of one takes the same steps on numpy
scalars, so all three agree bit for bit.  What each pattern fixes is one
read-only table per weight set (``_columns``), which ``pdf`` and
``pdf_points`` both read; a factor whose exponent is 0 drops out on both.
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
import math
from typing import NamedTuple

import numpy as np

from .construction import AlphaBivariate, _check_count, _check_point, _check_positive
from .errors import ConvergenceError, DomainError
# integrate_unit stays bound here: perfbench/tracing.py wraps it by name
from .special import (appell_f1, hyp2f1, integrate_jacobi_batch,  # noqa: F401
                      integrate_unit, ln_beta_multi, _maps_branch)

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

# points per batched kernel call: bounds the (points x nodes) arrays, at
# most 3 pieces of 128 nodes a row, so about 6 MB each
_CHUNK = 2048


class DensityValue:
    """A density value plus how it was obtained.

    ``value`` is ``math.inf`` where the defining integral diverges (on the
    cut lines with too little weight in the relevant shares), and then
    ``diverged`` is True.  A finite density past the float range also reads
    ``inf``, with ``diverged`` False, and one below it reads 0.0.  ``value``
    is never negative or NaN.
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
        # unchecked: pdf passes only values __init__ accepts
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


# the rounding bound of a density, relative: _ROUNDING times the magnitudes
# its logarithm is summed from (the log-gammas of ln B(alpha) among them)
# and the exponents that amplify the rounding of the integrand's factors
_ROUNDING = 4.0 * float(np.finfo(float).eps)

# the sign patterns (sign(d), sign(x - y)) by their code 3 * (sign(d) + 1)
# + sign(x - y) + 1, in the order pdf_points sorts points: the four
# triangles, then the half-lines and the center, whose points are few and
# share the kernel's steps
_ORDER = (0, 2, 6, 8, 1, 3, 5, 7, 4)
# the rank of a divergent pattern, past the nine
_DIVERGENT = 9


class _Columns(NamedTuple):
    """What each sign pattern of (x + y - 1, x - y) fixes of one weight
    set's integrand, whatever the point, in read-only arrays: ``rank`` maps
    a pattern code to its rank in ``_ORDER``, or to ``_DIVERGENT``;
    ``fields`` holds a row per ``_FIELDS``, a column per rank."""

    rank: np.ndarray
    fields: np.ndarray
    ln_beta: float


# the rows of ``_Columns.fields``: the endpoint exponents p and q of the
# rescaled integral; the exponents of u or 1-x-y+u, unless it vanishes at
# t = 0, and of x-u or y-u, unless it vanishes at t = 1, each 0 where the
# factor is absent, as on a line; whether the kernel maps the end of that
# factor's branch point (``_maps_branch``), 1.0 or 0.0; the point-free part
# of the rounding bound; and the power 1 + p + q of the share range's
# length in the prefactor.  A divergent pattern's column holds zeros.
_FIELDS = ("p", "q", "share_exp", "gap_exp", "share_branch", "gap_branch", "size", "lead")


@functools.lru_cache(maxsize=256)
def _columns(alpha: AlphaBivariate) -> _Columns:
    weights = a11, a10, a01, a00 = alpha.a11, alpha.a10, alpha.a01, alpha.a00
    ln_beta_size = (math.fsum(abs(math.lgamma(a)) for a in weights)
                    + abs(math.lgamma(math.fsum(weights))))
    rank = np.full(len(_ORDER), _DIVERGENT, dtype=np.int8)
    fields = np.zeros((len(_FIELDS), len(_ORDER)))
    for r, code in enumerate(_ORDER):
        # sign(d) + 1 and sign(x - y) + 1; a factor that vanishes at an end,
        # u or 1-x-y+u at t = 0, x-u or y-u at 1, moves into its exponent
        d0, s0 = divmod(code, 3)
        p = (a11 - 1.0 if d0 <= 1 else 0.0) + (a00 - 1.0 if d0 >= 1 else 0.0)
        q = (a10 - 1.0 if s0 <= 1 else 0.0) + (a01 - 1.0 if s0 >= 1 else 0.0)
        if p <= -1.0 or q <= -1.0:
            continue
        share = 0.0 if d0 == 1 else a11 - 1.0 if d0 > 1 else a00 - 1.0
        gap = 0.0 if s0 == 1 else a10 - 1.0 if s0 > 1 else a01 - 1.0
        rank[code] = r
        fields[:, r] = (p, q, share, gap, _maps_branch(share, p), _maps_branch(gap, q),
                        1.0 + ln_beta_size + abs(p) + abs(q) + (abs(share) + abs(gap)),
                        1.0 + p + q)
    rank.flags.writeable = fields.flags.writeable = False
    return _Columns(rank, fields, ln_beta_multi(weights))


def _integrate(p, q, factors, n, ln_scale, ln_unit, ln_beta, size, tol):
    """The density from ``integrate_jacobi_batch``'s integral of the rescaled
    integrand and its prefactor, summed in logs: ``(value, error_estimate,
    batch)``, with the kernel's ``BatchQuadrature`` last.  ``ln_scale`` is
    ``(1 + p + q) * log(scale)``, the log of the share range's length to the
    power it carries.  The error estimate is the kernel's, carried through
    the prefactor, plus the rounding bound (``_ROUNDING``)."""
    batch = integrate_jacobi_batch(p, q, factors, n, tol)
    # in logs: a prefactor past the float range meets its integral first, and
    # a density that still overflows reads inf, not inf * 0 = nan in its error
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logs = np.log((batch.value, batch.abs_error_estimate))
        if batch.log_scale is not None:
            logs = logs + batch.log_scale
        value, error = np.exp(ln_scale + ln_unit - ln_beta + logs)
        # at most 1: an integral that underflowed to 0 keeps its error
        rounding = _ROUNDING * (size + abs(ln_scale) + abs(ln_unit) + abs(logs[0]))
        error = error + value * np.minimum(rounding, 1.0)
    return value, error, batch


def _density_point(columns: _Columns, rank: int, x: float, y: float, d: float,
                   tol: float):
    """``_integrate``'s ``(value, error_estimate, batch)`` at a point off the
    divergent lines, with d = x + y - 1 from ``_sum_minus_one`` and ``rank``
    its sign pattern's rank in ``columns``: the share-range integral,
    rescaled to (0, 1), times its prefactor, as a batch of one that steps
    through the kernel on scalars.

    Every factor that vanishes at an endpoint moves into the endpoint
    exponents, which the pattern fixes; the rest stays in the smooth part,
    and the kernel gets the distance of each remaining factor's branch point
    from its end of (0, 1): |d|/scale for the share factor at t = 0,
    |x - y|/scale for the gap factor at t = 1.  A factor whose exponent is 0
    is 1 and drops out.
    """
    p, q, share_exp, gap_exp, share_branch, gap_branch, size, lead = (
        columns.fields[:, rank].tolist())
    # the share range runs from max(0, d) up to min(x, y); max, min, abs and
    # / on floats round as numpy's do, so a batch of one keeps its bits
    scale = 1.0 - max(x, y) if d > 0.0 else min(x, y)

    # (base, slope, exponent, from_right, branch): base + slope*t, or from
    # the top |x - y| + scale*(1-t) over max(|x - y|, scale), which keeps its
    # digits where both are subnormal (|d| never is); Python floats, so that
    # the kernel's sums stay scalars.  A branch distance past the float range
    # (a subnormal scale) reads inf: far.
    factors, ln_unit = [], 0.0
    if share_exp:
        factors.append((abs(d), scale, share_exp, False, abs(d) / scale if share_branch else None))
    if gap_exp:
        gap = abs(x - y)
        unit = max(gap, scale)
        factors.append((gap / unit, scale / unit, gap_exp, True,
                        gap / scale if gap_branch else None))
        ln_unit = gap_exp * np.log(unit)
    value, error, batch = _integrate(p, q, factors, 1, lead * np.log(scale), ln_unit,
                                     columns.ln_beta, size, tol)
    return value[0], error[0], batch


def _density_rows(alpha: AlphaBivariate, rank, x, y, d, tol: float):
    """``_density_point`` for 1-D arrays of points off the divergent lines,
    with their pattern ranks in ``_columns``, in one kernel call: the scalar
    path's operations, per point, on columns against the node row, with the
    pattern's fields looked up per point.  A factor whose exponent is 0 is
    1, and the kernel drops it; a branch point the kernel does not map is at
    ``inf``.  Returns per-point ``(value, error_estimate, converged,
    evaluations)``."""
    columns = _columns(alpha)
    p, q, share_exp, gap_exp, share_branch, gap_branch, size, lead = columns.fields[:, rank]
    scale = np.where(d > 0.0, 1.0 - np.maximum(x, y), np.minimum(x, y))
    depth, gap = abs(d), abs(x - y)
    unit = np.maximum(gap, scale)
    with np.errstate(over="ignore"):
        factors = [(depth[:, None], scale[:, None], share_exp, False,
                    np.where(share_branch, depth / scale, math.inf)),
                   ((gap / unit)[:, None], (scale / unit)[:, None], gap_exp, True,
                    np.where(gap_branch, gap / scale, math.inf))]
    value, error, batch = _integrate(p, q, factors, rank.size, lead * np.log(scale),
                                     gap_exp * np.log(unit), columns.ln_beta, size, tol)
    return value, error, batch.converged, batch.evaluations


def pdf(alpha: AlphaBivariate, x: float, y: float, tol: float = 1e-10) -> DensityValue:
    """Density at (x, y) to relative tolerance ``tol``, by Gauss-Jacobi
    integration over the share range, on the integrand ``pdf_grid`` uses, as
    a batch of one point.

    ``inf`` with ``diverged`` True on a divergent cut line; ``inf`` with
    ``diverged`` False where a finite density exceeds the float range, as
    near a corner with small weights; ``DomainError`` off the open square or
    for a ``tol`` that is not finite and positive; ``ConvergenceError``,
    carrying the best ``DensityValue``, if the kernel does not settle.
    """
    # tol first, so a bad one fails at every point, cut lines included
    tol = _check_positive("tol", tol)
    x, y = _check_point(x, y)
    d = _sum_minus_one(x, y)
    columns = _columns(alpha)
    # the rank of the pattern code 3 * (sign(d) + 1) + sign(x - y) + 1
    rank = columns.rank[(0 if d < 0.0 else 3 if d == 0.0 else 6)
                        + (0 if x < y else 1 if x == y else 2)]
    if rank == _DIVERGENT:
        return DensityValue._quadrature(math.inf, 0.0, True, 0)
    value, error, batch = _density_point(columns, rank, x, y, d, tol)
    result = DensityValue._quadrature(value, error, False, batch.evaluations[0])
    if not batch.converged[0]:
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
    tol = _check_positive("tol", tol)
    x, y = _check_point(x, y)
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

    Points are sorted by their sign pattern of (x + y - 1, x - y), which
    fixes the integrand's endpoint exponents, and run through ``pdf``'s
    integrand in one kernel call per 2048 points, each point on the rules of
    its own pattern, so each pattern's points share the kernel's steps.
    Points on the cut lines and the center follow ``pdf``'s rules.
    ``DomainError`` if any point lies off the open square, for coordinates
    that numpy does not read as an integer or float array (strings, bools,
    ``None``) or for a bad ``tol``; ``ConvergenceError`` if any point does
    not settle.
    """
    tol = _check_positive("tol", tol)
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype.kind not in "iuf" or y.dtype.kind not in "iuf":
        raise DomainError("point coordinates must be arrays of real numbers, got "
                          f"{x.dtype} and {y.dtype}")
    x, y = x.astype(float, copy=False), y.astype(float, copy=False)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    inside = (0.0 < x) & (x < 1.0) & (0.0 < y) & (y < 1.0)
    if not inside.all():
        i = int(np.argmin(inside))
        raise DomainError(f"point ({float(x[i])!r}, {float(y[i])!r}) lies outside "
                          "the open unit square")
    d = _sum_minus_one(x, y)
    # each point's pattern rank, or _DIVERGENT, and the points in order of
    # it: a chunk then holds each pattern's points as one run of the kernel's
    # rows, and the points on a divergent line, last, read inf without
    # reaching it
    rank = _columns(alpha).rank[(3.0 * np.sign(d) + np.sign(x - y) + 4.0).astype(np.intp)]
    order = np.argsort(rank, kind="stable")
    diverged = rank == _DIVERGENT
    value = np.full(x.size, math.inf)
    error = np.zeros(x.size)
    evaluations = np.zeros(x.size, dtype=np.int64)
    live = x.size - np.count_nonzero(diverged)
    for start in range(0, live, _CHUNK):
        rows = order[start:min(start + _CHUNK, live)]
        v, e, converged, n = _density_rows(alpha, rank[rows], x[rows], y[rows], d[rows], tol)
        if not converged.all():
            i = rows[np.argmin(converged)]
            raise ConvergenceError(f"density at ({float(x[i])!r}, {float(y[i])!r}) "
                                   f"did not reach tol={tol:g}")
        value[rows], error[rows], evaluations[rows] = v, e, n
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
