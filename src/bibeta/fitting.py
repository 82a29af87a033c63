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

from dataclasses import dataclass

import numpy as np

from .construction import (AlphaBivariate, RandomStream, _check_count, _check_positive,
                           _check_seed)
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
# longest run of the data held at once, as two columns and their three or
# seven products: on a 2-vCPU x86_64 host 2**15 was no faster, 2**16 slower
_SUM_LEAF = 1 << 14


@dataclass(frozen=True)
class FitOptions:
    """``objective_tolerance`` is relative: a solve settles once an accepted
    step lowers the objective by at most this fraction of its value."""

    restarts: int = 8
    max_iterations: int = 4000
    objective_tolerance: float = 1e-13
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iterations"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), 1))
        object.__setattr__(self, "objective_tolerance",
                           _check_positive("objective_tolerance", self.objective_tolerance))
        object.__setattr__(self, "seed", _check_seed(self.seed))


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


def _tree_sums(leaf, start: int, stop: int) -> np.ndarray:
    """The sums ``leaf(a, b)`` returns for the leaves of [start, stop),
    added back up numpy's pairwise tree.

    numpy sums a contiguous run pairwise, halving it (rounded down to a
    multiple of 8) until a piece is short.  Splitting the same way down to
    ``_SUM_LEAF`` entries, and adding each leaf's own pairwise sum back up
    the same tree, gives the sum of the whole run bit for bit.
    """
    n = stop - start
    if n > _SUM_LEAF:
        half = n // 2
        half -= half % 8
        return _tree_sums(leaf, start, start + half) + _tree_sums(leaf, start + half, stop)
    return leaf(start, stop)


def _real_pairs(data) -> np.ndarray:
    """``data`` as a float array; data that numpy does not read as an integer
    or float array (ragged, ``None``, strings, complex) is a ``DomainError``."""
    message = "data must be an (n, 2) array of real numbers"
    try:
        arr = np.asarray(data)
    except (TypeError, ValueError) as exc:
        raise DomainError(message) from exc
    if arr.dtype.kind not in "iuf":
        raise DomainError(message)
    return arr.astype(float, copy=False)


def _data_moments(data, third: bool) -> tuple:
    """The sample ``MomentVector`` of (n, 2) data and, with ``third``, the
    third central moments (m30, m03, m21, m12), else None.

    Two passes over the leaves of the columns' pairwise-sum tree, each leaf
    held in cache-sized contiguous buffers and no column copied out whole.
    The first copies each leaf's two columns into rows of one buffer,
    checks its range and sums it, so each mean is numpy's pairwise sum over
    its column.  The second centres each leaf on those means and forms its
    products x*x, x*y, y*y, and with ``third`` x*x*x, x*x*y, x*y*y, y*y*y,
    in the rows of a second buffer, so every central moment is the pairwise
    mean of a whole product column.  Products, not ``**``, which calls pow
    per element.  Only contiguous rows are summed: a strided view's sum
    follows another order.
    """
    arr = _real_pairs(data)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError(f"data must be an (n, 2) array of pairs, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 3:
        raise DegenerateDataError(f"need at least 3 points, got {n}")
    rows = 7 if third else 3
    pair_buf = np.empty(2 * min(n, _SUM_LEAF))
    prod_buf = np.empty(rows * min(n, _SUM_LEAF))
    lo, hi = np.full(2, np.inf), np.full(2, -np.inf)

    def column_sums(a: int, b: int) -> np.ndarray:
        cols = pair_buf[:2 * (b - a)].reshape(2, b - a)
        np.copyto(cols, arr[a:b].T)
        leaf_lo, leaf_hi = cols.min(axis=1), cols.max(axis=1)
        # NaN fails every comparison, so it lands here with the out-of-range points
        if not (leaf_lo[0] > 0.0 and leaf_lo[1] > 0.0 and leaf_hi[0] < 1.0 and leaf_hi[1] < 1.0):
            raise DomainError("data points must lie strictly inside the unit square")
        np.minimum(lo, leaf_lo, out=lo)
        np.maximum(hi, leaf_hi, out=hi)
        return cols.sum(axis=1)

    def product_sums(a: int, b: int) -> np.ndarray:
        d = pair_buf[:2 * (b - a)].reshape(2, b - a)
        np.subtract(arr[a:b].T, mean[:, None], out=d)
        prods = prod_buf[:rows * (b - a)].reshape(rows, b - a)
        np.multiply(d[0], d, out=prods[0:2])
        np.multiply(d[1], d[1], out=prods[2])
        if third:
            np.multiply(prods[0], d, out=prods[3:5])
            np.multiply(prods[1:3], d[1], out=prods[5:7])
        return prods.sum(axis=1)

    mean = _tree_sums(column_sums, 0, n) / n
    if lo[0] == hi[0] or lo[1] == hi[1]:
        raise DegenerateDataError("constant coordinate: sample variance is zero")
    sums = _tree_sums(product_sums, 0, n) / n
    m20, m11, m02 = (float(v) for v in sums[:3])
    if m20 == 0.0 or m02 == 0.0:
        raise DegenerateDataError("zero sample variance in at least one coordinate")
    m = MomentVector(m10=float(mean[0]), m01=float(mean[1]), m20=m20, m02=m02, m11=m11)
    if not third:
        return m, None
    m30, m21, m12, m03 = (float(v) for v in sums[3:])
    return m, (m30, m03, m21, m12)


def sample_central_moments(data) -> MomentVector:
    """Sample means, variances and covariance, all with divisor N.

    Needs an (n, 2) array of real numbers with at least three points
    strictly inside the unit square, and nonzero variation in both
    coordinates.  Each mean is numpy's pairwise sum over its column, and
    the variances and the covariance are pairwise means of products of the
    columns centred on those means, bit for bit, though the pass runs leaf
    by leaf through the pairwise tree and copies no column out whole.
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

    A trial equal to the last rejected one is rejected again without
    evaluating the residuals there: the objective only falls between the
    two, so the repeat cannot lower it.

    The solve ends with ``success`` once an accepted step lowers the
    objective by at most ``ftol`` relative, once a damped trial point rounds
    to ``x`` itself (without evaluating the residuals there), or once no step
    damped up to ``lam = 1e16`` lowers it; otherwise after ``maxiter``
    iterations.
    """
    x = np.clip(np.asarray(x0, dtype=float), -_LOG_CLIP, _LOG_CLIP)
    r = residuals(x)
    fun = float(r @ r)
    nfev = 1
    lam = 1e-3
    rejected = None
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
            if np.array_equal(trial, x):
                # the damped step no longer moves x, and more damping would
                # only shrink it further
                return LeastSquaresResult(x, fun, nit, nfev, True)
            if rejected is None or not np.array_equal(trial, rejected):
                r_trial = residuals(trial)
                nfev += 1
                fun_trial = float(r_trial @ r_trial)
                if fun_trial < fun:
                    break
                rejected = trial
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
    best = None
    nit = nfev = 0
    for used in range(1, opts.restarts + 1):
        if used == 1:
            theta0 = theta_base
        else:
            # the jitter's stream, made only once a restart runs: nothing is
            # drawn before, and numpy.random stays unloaded until then
            if used == 2:
                rng = RandomStream(opts.seed).generator
            theta0 = theta_base + rng.uniform(-0.3, 0.3, size=4)
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
