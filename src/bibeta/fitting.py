"""Moment matching for the shared-component bivariate beta.

The estimator minimizes the squared distance between the five exact moments
(two means, two variances, one covariance) and their targets, over strictly
positive weights whose total stays below the feasibility bound implied by
the marginal variances.  The search runs in log space with a Nelder-Mead
simplex (``minimize``, a port of scipy's, so fitting needs only numpy), a
one-sided quadratic penalty for the total-weight bound, and one start at a
closed-form initial inversion.  Jittered restarts around that inversion run
only while the best start has failed to converge or ends with the penalty
active, up to ``FitOptions.restarts`` starts in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import AlphaBivariate
from .errors import DegenerateDataError, DomainError, InfeasibleMomentsError
from .moments import MomentVector, central_moment, moment_vector

__all__ = [
    "FitOptions",
    "FitResult",
    "sample_central_moments",
    "alpha_sum_bound",
    "objective",
    "initial_guess",
    "fit_moments",
    "fit_data",
]

# keep the optimum strictly inside the bound; the hinge starts this far in
_BOUND_MARGIN = 1e-8
_PENALTY_WEIGHT = 10.0
_GUESS_FLOOR = 1e-6
_LOG_CLIP = 40.0


@dataclass(frozen=True)
class FitOptions:
    restarts: int = 8
    max_iterations: int = 4000
    objective_tolerance: float = 1e-13
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.restarts, int) and self.restarts >= 1):
            raise DomainError(f"restarts must be an integer >= 1, got {self.restarts!r}")
        if not (isinstance(self.max_iterations, int) and self.max_iterations >= 1):
            raise DomainError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        if not (math.isfinite(self.objective_tolerance) and self.objective_tolerance > 0.0):
            raise DomainError("objective_tolerance must be finite and > 0")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@dataclass(frozen=True)
class FitResult:
    alpha_star: AlphaBivariate
    objective_value: float
    converged: bool
    restarts_used: int


def sample_central_moments(data) -> MomentVector:
    """Sample means, variances and covariance, all with divisor N.

    Needs at least three points strictly inside the unit square, and
    nonzero variation in both coordinates.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError(f"data must be an (n, 2) array of pairs, got shape {arr.shape}")
    if arr.shape[0] < 3:
        raise DegenerateDataError(f"need at least 3 points, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("data points must lie strictly inside the unit square")
    if np.ptp(arr[:, 0]) == 0.0 or np.ptp(arr[:, 1]) == 0.0:
        raise DegenerateDataError("constant coordinate: sample variance is zero")
    mean = arr.mean(axis=0)
    dx = arr[:, 0] - mean[0]
    dy = arr[:, 1] - mean[1]
    m20 = float(np.mean(dx * dx))
    m02 = float(np.mean(dy * dy))
    if m20 == 0.0 or m02 == 0.0:
        raise DegenerateDataError("zero sample variance in at least one coordinate")
    return MomentVector(m10=float(mean[0]), m01=float(mean[1]),
                        m20=m20, m02=m02, m11=float(np.mean(dx * dy)))


def alpha_sum_bound(m: MomentVector) -> float:
    """Feasibility cap on the total weight.

    Each margin's mean/variance pair implies a total; the cap is the larger
    of the two implied totals.  A non-positive cap means no parameter vector
    can reach the requested variances.
    """
    bound = max(m.m10 * (1.0 - m.m10) / m.m20 - 1.0,
                m.m01 * (1.0 - m.m01) / m.m02 - 1.0)
    if bound <= 0.0:
        raise InfeasibleMomentsError(
            f"moment vector admits no positive total weight (bound {bound:g})")
    return bound


def objective(alpha: AlphaBivariate, m: MomentVector) -> float:
    """Squared distance between the exact moments of alpha and the targets."""
    mu = moment_vector(alpha)
    return float(sum((a - b) ** 2 for a, b in zip(mu.as_tuple(), m.as_tuple())))


def initial_guess(m: MomentVector) -> AlphaBivariate:
    """Closed-form inversion of the moment equations.

    Exact when the targets are consistent with some parameter vector;
    components are floored at a small positive value otherwise.
    """
    m_hat = 0.5 * ((m.m10 * (1.0 - m.m10) / m.m20 - 1.0)
                   + (m.m01 * (1.0 - m.m01) / m.m02 - 1.0))
    m_hat = max(m_hat, _GUESS_FLOOR)
    a11 = m_hat * m.m10 * m.m01 + m.m11 * m_hat * (m_hat + 1.0)
    a10 = m_hat * m.m10 - a11
    a01 = m_hat * m.m01 - a11
    a00 = m_hat - a11 - a10 - a01
    vals = [max(v, _GUESS_FLOOR) for v in (a11, a10, a01, a00)]
    return AlphaBivariate(*vals)


class _MaxFevReached(Exception):
    pass


class SimplexResult:
    """Outcome of ``minimize``: the best vertex, its value, the iteration
    and evaluation counts, and whether the tolerances stopped the search.
    A plain class, not a dataclass, which would add its build time to every
    CLI start."""

    __slots__ = ("x", "fun", "nit", "nfev", "success")

    def __init__(self, x: np.ndarray, fun: float, nit: int, nfev: int, success: bool):
        self.x, self.fun, self.nit, self.nfev, self.success = x, fun, nit, nfev, success


def minimize(fun, x0, *, maxiter: int, maxfev: int, xatol: float,
             fatol: float) -> SimplexResult:
    """Nelder-Mead simplex search (Nelder & Mead 1965) from ``x0``.

    Stops once the simplex spans at most ``xatol`` in every coordinate and
    ``fatol`` in value (``success``), or after ``maxiter`` iterations or
    ``maxfev`` evaluations.

    A port of scipy's ``_minimize_neldermead`` (scipy.optimize, BSD-3-Clause,
    Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers) for
    the case ``_fit`` uses: standard coefficients (``adaptive=False``), no
    bounds, no callback.  The initial simplex, the operation order and the
    evaluation accounting are scipy's, so ``x``, ``fun``, ``nit``, ``nfev``
    and ``success`` agree with ``scipy.optimize.minimize(method="Nelder-Mead")``
    bit for bit.
    """
    x0 = np.asarray(x0, dtype=float).flatten()
    n = x0.size
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFevReached
        nfev += 1
        return float(fun(np.copy(x)))

    # each vertex past the first moves one coordinate by 5% (or to 0.00025)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y

    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _MaxFevReached:
        pass
    # sorted twice, as scipy does: argsort is not stable, so the second sort
    # may reorder ties
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    # reflection 1, expansion 2, contraction 1/2, shrink 1/2
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:
                    # inside contraction
                    xcc = 0.5 * xbar + 0.5 * sim[-1]
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _MaxFevReached:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return SimplexResult(x=sim[0], fun=float(np.min(fsim)), nit=iterations, nfev=nfev,
                         success=nfev < maxfev and iterations < maxiter)


def _third_order_targets(data) -> tuple:
    arr = np.asarray(data, dtype=float)
    dx = arr[:, 0] - arr[:, 0].mean()
    dy = arr[:, 1] - arr[:, 1].mean()
    # products, not ``** 3`` (a pow call per element); one product buffer
    # is reused, so at most two temporaries live beside dx and dy
    prod = dx * dx
    m30, m21 = np.mean(prod * dx), np.mean(prod * dy)
    np.multiply(dx, dy, out=prod)
    m12 = np.mean(prod * dy)
    np.multiply(dy, dy, out=prod)
    m03 = np.mean(prod * dy)
    return float(m30), float(m03), float(m21), float(m12)


def _fit(m: MomentVector, opts: FitOptions, third_targets=None) -> FitResult:
    bound = alpha_sum_bound(m)
    hinge_at = bound * (1.0 - _BOUND_MARGIN)
    targets = np.asarray(m.as_tuple())

    def penalized(theta):
        alpha_arr = np.exp(np.clip(theta, -_LOG_CLIP, _LOG_CLIP))
        alpha = AlphaBivariate(*alpha_arr)
        mu = np.asarray(moment_vector(alpha).as_tuple())
        val = float(np.sum((mu - targets) ** 2))
        if third_targets is not None:
            val += sum((central_moment(alpha, r, s) - t) ** 2
                       for (r, s), t in zip(((3, 0), (0, 3), (2, 1), (1, 2)), third_targets))
        excess = float(np.sum(alpha_arr)) - hinge_at
        if excess > 0.0:
            val += _PENALTY_WEIGHT * excess * excess
        return val

    theta_base = np.log(initial_guess(m).as_array())
    rng = np.random.Generator(np.random.PCG64(opts.seed))
    best = None
    used = 0
    for r in range(opts.restarts):
        theta0 = theta_base if r == 0 else theta_base + rng.uniform(-0.3, 0.3, size=4)
        res = minimize(penalized, theta0, maxiter=opts.max_iterations,
                       maxfev=8 * opts.max_iterations, xatol=1e-10,
                       fatol=opts.objective_tolerance)
        used = r + 1
        if best is None or res.fun < best.fun:
            best = res
        alpha_arr = np.exp(np.clip(best.x, -_LOG_CLIP, _LOG_CLIP))
        total = float(np.sum(alpha_arr))
        # another start can only help a failed start or one the hinge holds
        if best.success and (best.fun <= opts.objective_tolerance or total < hinge_at):
            break

    if total >= bound:
        alpha_arr = alpha_arr * (bound * (1.0 - _BOUND_MARGIN) / total)
    alpha_star = AlphaBivariate(*alpha_arr)
    value = objective(alpha_star, m)

    # the optimizer must never come back worse than its own starting point
    guess_arr = np.exp(theta_base)
    guess_total = float(np.sum(guess_arr))
    if guess_total >= bound:
        guess_arr = guess_arr * (bound * (1.0 - _BOUND_MARGIN) / guess_total)
    guess = AlphaBivariate(*guess_arr)
    guess_value = objective(guess, m)
    if guess_value < value:
        alpha_star, value = guess, guess_value

    return FitResult(alpha_star=alpha_star,
                     objective_value=value,
                     converged=bool(best.success),
                     restarts_used=used)


def fit_moments(m: MomentVector, options: FitOptions | None = None) -> FitResult:
    """Fit the weights to a target moment vector."""
    return _fit(m, options or FitOptions())


def fit_data(data, options: FitOptions | None = None, *,
             match_third_order: bool = False) -> FitResult:
    """Fit the weights to the sample moments of (x, y) pairs.

    With ``match_third_order`` the objective additionally tracks the four
    third-order central moments; the reported objective value stays the
    plain five-component distance either way.
    """
    m = sample_central_moments(data)
    third = _third_order_targets(data) if match_third_order else None
    return _fit(m, options or FitOptions(), third_targets=third)
