"""Moment matching for the shared-component bivariate beta.

The estimator minimizes the squared distance between the five exact moments
(two means, two variances, one covariance) and their targets over strictly
positive weights.  ``minimize`` is a Levenberg-Marquardt solve in the log
weights from a closed-form initial inversion; the five residuals and their
Jacobian are closed form.  With third-order matching, four residuals on the
third central moments join the same solve; those moments are third joint
cumulants of the Dirichlet shares, so they and their Jacobian rows are
closed form too.  A fit whose total weight reaches the feasibility bound
implied by the marginal variances is scaled back under it.  Jittered
restarts around the inversion run only while every start so far has failed
to converge, up to ``FitOptions.restarts`` starts in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import AlphaBivariate
from .errors import DegenerateDataError, DomainError, InfeasibleMomentsError
# central_moment stays bound: perfbench/tracing.py wraps it by name, failing if it is missing
from .moments import MomentVector, central_moment, moment_vector  # noqa: F401

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

# a fit on or past the total-weight bound is scaled back this far inside it
_BOUND_MARGIN = 1e-8
_GUESS_FLOOR = 1e-6
_LOG_CLIP = 40.0
# largest move of one log weight in one trial step: unbounded, the linear
# model in log weights can send a small weight to the clip in one step, where
# its Jacobian column vanishes and it cannot grow back when it later should
_MAX_STEP = 2.0
# longest run of the data's centred products formed at once: two such
# buffers stay in a core's cache
_SUM_LEAF = 1 << 14


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class FitOptions:
    """``objective_tolerance`` is relative: a solve settles once an accepted
    step lowers the objective by at most this fraction of its value."""

    restarts: int = 8
    max_iterations: int = 4000
    objective_tolerance: float = 1e-13
    seed: int = 0

    def __post_init__(self):
        if not (_is_int(self.restarts) and self.restarts >= 1):
            raise DomainError(f"restarts must be an integer >= 1, got {self.restarts!r}")
        if not (_is_int(self.max_iterations) and self.max_iterations >= 1):
            raise DomainError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        tol = self.objective_tolerance
        if not ((_is_int(tol) or isinstance(tol, float)) and math.isfinite(tol) and tol > 0.0):
            raise DomainError(f"objective_tolerance must be a finite number > 0, got {tol!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@dataclass(frozen=True)
class FitResult:
    """``nit`` and ``nfev`` are the solver's iterations and residual
    evaluations summed over every start; ``bound_rescaled`` says whether the
    solution reached the total-weight bound and was scaled back under it."""

    alpha_star: AlphaBivariate
    objective_value: float
    converged: bool
    restarts_used: int
    nit: int = 0
    nfev: int = 0
    bound_rescaled: bool = False


def _product_sums(dx: np.ndarray, dy: np.ndarray, start: int, stop: int,
                  buf: np.ndarray, third: bool) -> np.ndarray:
    """Sums over [start, stop) of the products of the centred columns, in
    the order x*x, x*x*x, x*x*y, y*y, y*y*y, x*y, x*y*y; the three-factor
    products only with ``third``.

    numpy sums a contiguous column pairwise, halving it (rounded down to a
    multiple of 8) until a piece is short.  Splitting the same way down to
    ``_SUM_LEAF`` entries, with each leaf's products formed in the two
    cache-sized rows of ``buf``, gives the sums of whole product columns bit
    for bit without writing any.  Products, not ``**``, which calls pow per
    element.
    """
    n = stop - start
    if n > _SUM_LEAF:
        half = n // 2
        half -= half % 8
        return (_product_sums(dx, dy, start, start + half, buf, third)
                + _product_sums(dx, dy, start + half, stop, buf, third))
    x, y, pair, prod = dx[start:stop], dy[start:stop], buf[0, :n], buf[1, :n]
    sums = []
    for u, v, factors in ((x, x, (x, y)), (y, y, (y,)), (x, y, (y,))):
        np.multiply(u, v, out=pair)
        sums.append(pair.sum())
        if third:
            sums.extend(np.multiply(pair, w, out=prod).sum() for w in factors)
    return np.array(sums)


def _data_moments(data, third: bool) -> tuple:
    """The sample ``MomentVector`` of (n, 2) data and, with ``third``, the
    third central moments (m30, m03, m21, m12), else None.

    One centred pass: the validated columns are copied out contiguous once,
    each mean is numpy's pairwise sum over its column, and every central
    moment is a pairwise mean of products of the columns centred on those
    means.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError(f"data must be an (n, 2) array of pairs, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 3:
        raise DegenerateDataError(f"need at least 3 points, got {n}")
    dx, dy = arr[:, 0].copy(), arr[:, 1].copy()
    lo_x, hi_x, lo_y, hi_y = dx.min(), dx.max(), dy.min(), dy.max()
    # NaN fails every comparison, so it lands here with the out-of-range points
    if not (lo_x > 0.0 and lo_y > 0.0 and hi_x < 1.0 and hi_y < 1.0):
        raise DomainError("data points must lie strictly inside the unit square")
    if lo_x == hi_x or lo_y == hi_y:
        raise DegenerateDataError("constant coordinate: sample variance is zero")
    mean_x, mean_y = dx.mean(), dy.mean()
    dx -= mean_x
    dy -= mean_y
    sums = _product_sums(dx, dy, 0, n, np.empty((2, min(n, _SUM_LEAF))), third) / n
    if third:
        m20, m30, m21, m02, m03, m11, m12 = (float(v) for v in sums)
    else:
        m20, m02, m11 = (float(v) for v in sums)
    if m20 == 0.0 or m02 == 0.0:
        raise DegenerateDataError("zero sample variance in at least one coordinate")
    m = MomentVector(m10=float(mean_x), m01=float(mean_y), m20=m20, m02=m02, m11=m11)
    return m, ((m30, m03, m21, m12) if third else None)


def sample_central_moments(data) -> MomentVector:
    """Sample means, variances and covariance, all with divisor N.

    Needs at least three points strictly inside the unit square, and
    nonzero variation in both coordinates.  Each mean is a pairwise sum
    over its column, and the variances and the covariance are pairwise
    means of products of the columns centred on those means.
    ``fit_data``'s third-order targets share that one centring.
    """
    return _data_moments(data, third=False)[0]


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


class LeastSquaresResult:
    """Outcome of ``minimize``: the final point, its sum of squared
    residuals, the iteration and residual-evaluation counts, and whether a
    stopping rule other than the iteration cap ended the solve.  A plain
    class, not a dataclass, which would add its build time to every CLI
    start."""

    __slots__ = ("x", "fun", "nit", "nfev", "success")

    def __init__(self, x: np.ndarray, fun: float, nit: int, nfev: int, success: bool):
        self.x, self.fun, self.nit, self.nfev, self.success = x, fun, nit, nfev, success


def minimize(residuals, x0, *, jacobian, maxiter: int, ftol: float) -> LeastSquaresResult:
    """Levenberg-Marquardt solve (Levenberg 1944; Marquardt 1963) of
    ``min r(x) . r(x)`` from ``x0``, with ``r = residuals(x)`` and its
    Jacobian ``jacobian(x)``.

    Each iteration solves ``(J'J + lam D) step = -J'r``, where ``D`` is the
    diagonal of ``J'J`` floored at ``1e-12`` times its largest entry, so a
    column that vanishes with its weight leaves the system regular.  A trial
    that does not lower the objective multiplies ``lam`` by ten and is
    retried; an accepted one divides it by ten.  Each step component is
    clipped to ``+-_MAX_STEP`` and each trial point to ``+-_LOG_CLIP``.

    The solve ends with ``success`` once an accepted step lowers the
    objective by at most ``ftol`` relative, or once no step damped up to
    ``lam = 1e16`` lowers it; otherwise after ``maxiter`` iterations.
    """
    x = np.clip(np.asarray(x0, dtype=float), -_LOG_CLIP, _LOG_CLIP)
    r = residuals(x)
    fun = float(r @ r)
    nfev = 1
    lam = 1e-3
    for nit in range(1, maxiter + 1):
        jac = jacobian(x)
        jtj = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(jtj)
        diag = np.maximum(diag, 1e-12 * diag.max())
        while True:
            if lam > 1e16:
                return LeastSquaresResult(x, fun, nit, nfev, True)
            step = np.linalg.solve(jtj + np.diag(lam * diag), -grad)
            trial = np.clip(x + np.clip(step, -_MAX_STEP, _MAX_STEP), -_LOG_CLIP, _LOG_CLIP)
            r_trial = residuals(trial)
            nfev += 1
            fun_trial = float(r_trial @ r_trial)
            if fun_trial < fun:
                break
            lam *= 10.0
        lam *= 0.1
        settled = fun - fun_trial <= ftol * fun
        x, r, fun = trial, r_trial, fun_trial
        if settled:
            return LeastSquaresResult(x, fun, nit, nfev, True)
    return LeastSquaresResult(x, fun, maxiter, nfev, False)


def _coordinates(alpha: np.ndarray) -> tuple:
    """The total weight m, the two means, k = 1/(m+1) and c = a11/m."""
    m = alpha.sum()
    return m, (alpha[0] + alpha[1]) / m, (alpha[0] + alpha[2]) / m, 1.0 / (m + 1.0), alpha[0] / m


def _five_residuals(alpha: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The five moment differences, each closed form in ``_coordinates``."""
    _, mx, my, k, c = _coordinates(alpha)
    return np.array([mx, my, mx * (1.0 - mx) * k, my * (1.0 - my) * k,
                     (c - mx * my) * k]) - targets


def _coordinate_rows(m, mx, my, k, c) -> np.ndarray:
    """d(mx, my, k, c)/d(a11, a10, a01, a00), 4 x 4."""
    return np.array([[1.0 - mx, 1.0 - mx, -mx, -mx],
                     [1.0 - my, -my, 1.0 - my, -my],
                     [-k * k * m] * 4,
                     [1.0 - c, -c, -c, -c]]) / m


def _five_jacobian(alpha: np.ndarray) -> np.ndarray:
    """d(residuals)/d(log alpha) of ``_five_residuals``, 5 x 4."""
    m, mx, my, k, c = coords = _coordinates(alpha)
    dr = np.array([[1.0, 0.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0, 0.0],
                   [(1.0 - 2.0 * mx) * k, 0.0, mx * (1.0 - mx), 0.0],
                   [0.0, (1.0 - 2.0 * my) * k, my * (1.0 - my), 0.0],
                   [-my * k, -mx * k, c - mx * my, k]])
    return dr @ _coordinate_rows(*coords) * alpha


def _third_shapes(mx, my, c) -> np.ndarray:
    """The third central moments (m30, m03, m21, m12) over k3."""
    return np.array([mx * (1.0 - mx) * (1.0 - 2.0 * mx),
                     my * (1.0 - my) * (1.0 - 2.0 * my),
                     c - mx * my - 2.0 * c * mx + 2.0 * mx * mx * my,
                     c - mx * my - 2.0 * c * my + 2.0 * mx * my * my])


def _third_residuals(alpha: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The four third-order moment differences.

    X and Y are sums of Dirichlet shares, so their third central moments are
    third joint cumulants of the shares (Johnson, Kotz, Balakrishnan &
    Bolshev, Continuous Multivariate Distributions, vol. 1, ch. 49): each is
    k3 = 2/((m+1)(m+2)) times a cubic in the ``_coordinates``.
    """
    m, mx, my, _, c = _coordinates(alpha)
    return 2.0 / ((m + 1.0) * (m + 2.0)) * _third_shapes(mx, my, c) - targets


def _third_jacobian(alpha: np.ndarray) -> np.ndarray:
    """d(residuals)/d(log alpha) of ``_third_residuals``, 4 x 4."""
    m, mx, my, k, c = coords = _coordinates(alpha)
    k3 = 2.0 * k / (m + 2.0)
    # d(shapes)/d(mx, my, c) and dk3/dm; every weight moves m by one
    ds = np.array([[1.0 - 6.0 * mx + 6.0 * mx * mx, 0.0, 0.0],
                   [0.0, 1.0 - 6.0 * my + 6.0 * my * my, 0.0],
                   [4.0 * mx * my - my - 2.0 * c, 2.0 * mx * mx - mx, 1.0 - 2.0 * mx],
                   [2.0 * my * my - my, 4.0 * mx * my - mx - 2.0 * c, 1.0 - 2.0 * my]])
    dk3 = -k3 * (k + 1.0 / (m + 2.0))
    dq = _coordinate_rows(*coords)[[0, 1, 3]]
    return (k3 * ds @ dq + dk3 * _third_shapes(mx, my, c)[:, None]) * alpha


def _third_order_targets(data) -> tuple:
    return _data_moments(data, third=True)[1]


def _fit(m: MomentVector, opts: FitOptions, third_targets=None) -> FitResult:
    bound = alpha_sum_bound(m)
    targets = np.asarray(m.as_tuple())

    if third_targets is None:
        def residuals(theta):
            return _five_residuals(np.exp(theta), targets)

        def jacobian(theta):
            return _five_jacobian(np.exp(theta))
    else:
        def residuals(theta):
            alpha = np.exp(theta)
            return np.concatenate((_five_residuals(alpha, targets),
                                   _third_residuals(alpha, third_targets)))

        def jacobian(theta):
            alpha = np.exp(theta)
            return np.vstack((_five_jacobian(alpha), _third_jacobian(alpha)))

    theta_base = np.log(initial_guess(m).as_array())
    rng = np.random.Generator(np.random.PCG64(opts.seed))
    best = None
    nit = nfev = 0
    for used in range(1, opts.restarts + 1):
        theta0 = theta_base if used == 1 else theta_base + rng.uniform(-0.3, 0.3, size=4)
        res = minimize(residuals, theta0, jacobian=jacobian, maxiter=opts.max_iterations,
                       ftol=opts.objective_tolerance)
        nit += res.nit
        nfev += res.nfev
        if best is None or res.fun < best.fun:
            best = res
        if best.success:
            break

    alpha_arr = np.exp(best.x)
    total = float(np.sum(alpha_arr))
    rescaled = total >= bound
    if rescaled:
        alpha_arr = alpha_arr * (bound * (1.0 - _BOUND_MARGIN) / total)
    alpha_star = AlphaBivariate(*alpha_arr)
    return FitResult(alpha_star=alpha_star,
                     objective_value=objective(alpha_star, m),
                     converged=bool(best.success),
                     restarts_used=used, nit=nit, nfev=nfev, bound_rescaled=rescaled)


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
    m, third = _data_moments(data, match_third_order)
    return _fit(m, options or FitOptions(), third_targets=third)
