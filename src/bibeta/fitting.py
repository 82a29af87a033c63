"""Moment matching for the shared-component bivariate beta.

The estimator minimizes the squared distance between the five exact moments
(two means, two variances, one covariance) and their targets, over strictly
positive weights whose total stays below the feasibility bound implied by
the marginal variances.  The search runs in log space with a Nelder-Mead
simplex (scipy), a one-sided quadratic penalty for the total-weight bound,
and one start at a closed-form initial inversion.  Jittered restarts around
that inversion run only while the best start has failed to converge or ends
with the penalty active, up to ``FitOptions.restarts`` starts in all.
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


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call so that
    importing bibeta does not pay for scipy."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **kwargs)


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
        res = minimize(penalized, theta0, method="Nelder-Mead",
                       options={"maxiter": opts.max_iterations,
                                "maxfev": 8 * opts.max_iterations,
                                "xatol": 1e-10,
                                "fatol": opts.objective_tolerance,
                                "adaptive": False})
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
