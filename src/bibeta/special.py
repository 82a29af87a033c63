"""Multivariate beta and hypergeometric evaluation on (0, 1).

The workhorse is a double-exponential (tanh-sinh) quadrature rule specialised
to integrands of the form ``t**p * (1-t)**q * smooth(t)`` with ``p, q > -1``.
Under the substitution ``t = sigmoid(pi*sinh(u))`` the trapezoid rule in ``u``
converges at a near-spectral rate even when the endpoint powers are singular,
because the node density grows double-exponentially towards both endpoints.
``t`` and ``1 - t`` are both derived in log form straight from ``u``, so the
endpoint powers stay accurate where ``t`` itself would round to 0 or 1.
The rule runs at most 10 levels, each with its node index capped at 2**14
on either side.  ``integrate_unit_batch`` sweeps many integrands with the
same endpoint exponents over one set of nodes at once, and
``integrate_unit`` is a batch of one.

The nodes and their endpoint weights ``exp(p1*log t + q1*log(1-t) +
log(pi cosh u))`` are cached per (levels, p + 1, q + 1), in a
least-recently-used cache of at most 256 read-only entries, each filled
only when a call first reaches its levels.  Every row runs levels 0-2
before the stopping rule may end it, so those three levels form one entry:
their nodes go through the smooth factor in one call, and the three level
sums are taken by slices.
Each later level is an entry of its own.  An entry also holds the indices of
the nodes whose weight underflows to 0; those nodes add nothing, whatever the
smooth factor is there.  Where ``smooth`` gives every row the same factors,
as in a batch of one, the level sums, the estimates and the stopping test
are numpy scalars, not arrays of one element.  The nodes, the sums and the
stopping rule are those of a level-by-level sweep, so the results equal that
sweep's bit for bit.

Gauss and Appell hypergeometric values are computed from their Euler integral
representations through that one quadrature path.  Power-series evaluation is
deliberately not used here; the test suite keeps independent series oracles.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .construction import _check_positive
from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureResult",
    "ln_beta_multi",
    "integrate_unit",
    "integrate_unit_batch",
    "BatchQuadrature",
    "hyp2f1",
    "appell_f1",
]

# Nodes are clipped into the open interval before the smooth factor sees them;
# all singular behaviour must already live in the declared endpoint exponents.
_T_LO = 1e-300
_T_HI = float(np.nextafter(1.0, 0.0))

# exp underflows to 0 below -745; cap node ranges once the weight is gone.
_LOG_TINY = 780.0

# levels of the rule, and the cap on each level's node index per side
_MAX_LEVELS = 10
_NODE_BUDGET = 2 ** 14


def ln_beta_multi(alphas: Sequence[float]) -> float:
    """Log of the multivariate beta function: sum(lgamma) - lgamma(sum)."""
    vals = [_check_positive("ln_beta_multi component", a) for a in alphas]
    if len(vals) < 2:
        raise DomainError("ln_beta_multi needs at least two components")
    return math.fsum(math.lgamma(a) for a in vals) - math.lgamma(math.fsum(vals))


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.abs_error_estimate >= 0.0:
            raise DomainError("abs_error_estimate must be >= 0")
        if not (isinstance(self.evaluations, int) and self.evaluations >= 1):
            raise DomainError("evaluations must be a positive integer")


def _node_cap(h: float, c: float) -> int:
    # largest k with c * pi * sinh(k*h) still inside exp's range
    u_max = math.asinh(_LOG_TINY / (c * math.pi))
    return min(int(u_max / h), _NODE_BUDGET)


@functools.lru_cache(maxsize=256)
def _weighted_nodes(levels: tuple, p1: float, q1: float):
    """Read-only ``(t, 1-t, weight, zeros, ends)`` over the nodes that
    ``levels`` add, concatenated in that order, with ``weight = exp(p1*log t
    + q1*log(1-t) + log(pi cosh u))``; ``zeros`` holds the indices where that
    weight underflows to 0, and the nodes of ``levels[i]`` end at offset
    ``ends[i]``.  Filled only for the levels a call reaches."""
    parts = []
    for level in levels:
        # every integer node at level 0, the odd multiples of the halved
        # mesh after that
        h = 2.0 ** -level
        k_left, k_right = _node_cap(h, p1), _node_cap(h, q1)
        if level == 0:
            k = np.arange(-k_left, k_right + 1)
        else:
            k = np.concatenate((np.arange(-1, -k_left - 1, -2), np.arange(1, k_right + 1, 2)))
        u = k * h
        g = math.pi * np.sinh(u)
        log_t = -np.logaddexp(0.0, -g)       # log sigmoid(g)
        log_1mt = -np.logaddexp(0.0, g)
        log_jac = np.log(math.pi * np.cosh(u))
        t, one_minus_t = (np.clip(np.exp(v), _T_LO, _T_HI) for v in (log_t, log_1mt))
        parts.append((t, one_minus_t, np.exp(p1 * log_t + q1 * log_1mt + log_jac)))
    if len(parts) == 1:
        t, one_minus_t, w = parts[0]
    else:
        t, one_minus_t, w = (np.concatenate(a) for a in zip(*parts))
    zeros = np.flatnonzero(w == 0.0)
    for a in (t, one_minus_t, w, zeros):
        a.flags.writeable = False
    ends = tuple(itertools.accumulate(part[0].size for part in parts))
    return t, one_minus_t, w, zeros, ends


def _level_sums(levels, p1, q1, smooth, rows):
    """Sums of weight times smooth factor over the nodes each of ``levels``
    adds, one entry per row in ``rows`` (or one for all of them), from one
    ``smooth`` call; and the number of those nodes."""
    t, one_minus_t, w, zeros, ends = _weighted_nodes(levels, p1, q1)
    vals = w * np.asarray(smooth(t, one_minus_t, rows), dtype=float)
    if zeros.size:
        # a node whose weight underflowed adds nothing, even where the smooth
        # factor is inf or nan there
        vals[..., zeros] = 0.0
    if np.count_nonzero(np.isfinite(vals)) != vals.size:
        raise DomainError("integrand is not finite at interior nodes; "
                          "declare endpoint singularities via the exponents")
    starts = (0,) + ends[:-1]
    return [vals[..., a:b].sum(axis=-1) for a, b in zip(starts, ends)], t.size


@dataclass(frozen=True)
class BatchQuadrature:
    """Per-row results of ``integrate_unit_batch``; a row that ran out of
    levels holds its best estimate and ``converged`` False."""

    value: np.ndarray
    abs_error_estimate: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray


def integrate_unit_batch(endpoint_exponent_left: float, endpoint_exponent_right: float,
                         smooth: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                         n_rows: int, tol: float = 1e-10) -> BatchQuadrature:
    """Integrate ``t**p * (1-t)**q * smooth(t, row)`` over (0, 1) for
    ``n_rows`` integrands that share the endpoint exponents ``p`` and ``q``.

    ``smooth(t, one_minus_t, active)`` gets nodes (those of levels 0-2
    together, then one level's at a time), ``1 - t`` (positive where ``t``
    rounds to 1) and the indices of the rows still iterating, and returns
    their smooth factors as an ``(active.size, t.size)`` array, or anything
    that broadcasts to it.  It is only called with nodes strictly inside
    (0, 1) and must be finite there.  Each row stops on the rule of
    ``integrate_unit``; the rest go on to finer levels.
    """
    tol = _check_positive("tol", tol)
    for e in (endpoint_exponent_left, endpoint_exponent_right):
        if not (math.isfinite(e) and e > -1.0):
            raise DomainError(f"endpoint exponents must be finite and > -1, got {e!r}")
    p1 = endpoint_exponent_left + 1.0
    q1 = endpoint_exponent_right + 1.0
    value = np.empty(n_rows)
    err = np.empty(n_rows)
    evals = np.empty(n_rows, dtype=np.int64)
    converged = np.zeros(n_rows, dtype=bool)

    # every row runs levels 0-2, so their nodes go through one smooth call;
    # v, e: estimate and last inter-level difference of the rows in `active`,
    # shaped like the level sums, so scalars where ``smooth`` gives every row
    # the same factors (a batch of one among them)
    active = np.arange(n_rows)
    floor = tol * 1e-280
    with np.errstate(invalid="ignore", over="ignore"):
        sums, spent = _level_sums((0, 1, 2), p1, q1, smooth, active)
        v, e = sums[0], math.inf            # h = 1 at level 0
        for level in range(1, _MAX_LEVELS):
            if level < 3:
                new_sum = sums[level]
            else:
                (new_sum,), n = _level_sums((level,), p1, q1, smooth, active)
                spent += n
            new = v / 2.0 + 2.0 ** -level * new_sum
            e = abs(new - v)
            v = new
            if level < 2:
                continue
            # e <= tol * max(|v|, 1e-280) as two comparisons, which numpy
            # scalars make without a ufunc call (a NaN v has a NaN e)
            done = (e <= tol * abs(v)) | (e <= floor)
            stopping = np.count_nonzero(done)
            if stopping == done.size:
                converged[active] = True
                break
            if stopping:
                stop = active[done]
                value[stop], err[stop], evals[stop] = v[done], e[done], spent
                converged[stop] = True
                keep = ~done
                active, v, e = active[keep], v[keep], e[keep]

    # the rows that stopped last, or ran out of levels
    value[active], err[active], evals[active] = v, e, spent
    return BatchQuadrature(value, err, evals, converged)


def integrate_unit(p: float, q: float, smooth: Callable[[np.ndarray], np.ndarray],
                   tol: float = 1e-10) -> QuadratureResult:
    """Integrate ``t**p * (1-t)**q * smooth(t)`` over (0, 1), for finite
    ``p, q > -1``.

    ``smooth`` gets an array of nodes strictly inside (0, 1) and must return
    finite values there; any singular behaviour has to be expressed through
    the exponents.

    Levels halve the mesh, reusing earlier nodes; iteration stops once two
    consecutive levels agree to ``tol`` in relative terms.  The reported
    ``abs_error_estimate`` is that last inter-level difference, a conservative
    bound given the rule's double-exponential convergence.  This is
    ``integrate_unit_batch`` on a batch of one.

    Raises
    ------
    ConvergenceError
        If the levels run out first.  The best estimate rides along on the
        exception's ``result`` attribute.
    """
    batch = integrate_unit_batch(p, q, lambda t, *_: smooth(t), 1, tol)
    result = QuadratureResult(value=float(batch.value[0]),
                              abs_error_estimate=float(batch.abs_error_estimate[0]),
                              evaluations=int(batch.evaluations[0]))
    if batch.converged[0]:
        return result
    raise ConvergenceError(
        f"tanh-sinh rule did not reach tol={tol:g} within {_MAX_LEVELS} levels "
        f"({result.evaluations} evaluations); last inter-level difference "
        f"{result.abs_error_estimate:g}", result=result)


def hyp2f1(a: float, b: float, c: float, z: float, *, tol: float = 1e-11) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z < 1 and c > b > 0.

    Evaluated through the Euler integral

        2F1(a, b; c; z) = B(b, c-b)^-1 * integral_0^1
                          t**(b-1) * (1-t)**(c-b-1) * (1-z*t)**(-a) dt.

    The default tolerance leaves the result accurate to about 1e-10 relative.
    This is ``appell_f1(b, a, 0, c, z, 0)``: the same integral with no
    second factor.
    """
    return appell_f1(b, a, 0.0, c, z, 0.0, tol=tol)


def appell_f1(a: float, b1: float, b2: float, c: float,
              z1: float, z2: float, *, tol: float = 1e-10) -> float:
    """Appell F1(a; b1, b2; c; z1, z2) for real z1, z2 < 1 and c > a > 0.

    Uses the one-dimensional Euler integral

        F1 = B(a, c-a)^-1 * integral_0^1
             t**(a-1) * (1-t)**(c-a-1) * (1-z1*t)**(-b1) * (1-z2*t)**(-b2) dt,

    accurate to about 1e-9 relative at the default tolerance.
    """
    a, b1, b2, c = float(a), float(b1), float(b2), float(c)
    z1, z2 = float(z1), float(z2)
    for name, v in (("a", a), ("b1", b1), ("b2", b2), ("c", c), ("z1", z1), ("z2", z2)):
        if not math.isfinite(v):
            raise DomainError(f"appell_f1 argument {name} must be finite, got {v!r}")
    if not (c > a > 0.0):
        raise DomainError(f"appell_f1 needs c > a > 0, got a={a!r}, c={c!r}")
    if not (z1 < 1.0 and z2 < 1.0):
        raise DomainError(f"appell_f1 integral form needs z1, z2 < 1, got {z1!r}, {z2!r}")
    if (b1 == 0.0 or z1 == 0.0) and (b2 == 0.0 or z2 == 0.0):
        return 1.0

    def smooth(t):
        out = np.ones_like(t)
        if b1 != 0.0 and z1 != 0.0:
            out = out * np.power(1.0 - z1 * t, -b1)
        if b2 != 0.0 and z2 != 0.0:
            out = out * np.power(1.0 - z2 * t, -b2)
        return out

    q = integrate_unit(a - 1.0, c - a - 1.0, smooth, tol)
    return math.exp(-ln_beta_multi((a, c - a))) * q.value
