"""Multivariate beta and hypergeometric evaluation on (0, 1).

Two quadrature rules for integrands of the form ``t**p * (1-t)**q *
smooth(t)`` with ``p, q > -1``.

``integrate_jacobi_batch`` is the density's kernel.  Its nodes are those of
the Gauss rule for the weight ``t**p * (1-t)**q`` itself, found by Golub &
Welsch (Math. Comp. 23, 1969) as the eigenvalues of the closed-form Jacobi
matrix (``numpy.linalg.eigh``), with the first off-diagonal entry in its
cancelled form, which stays finite where p + q = -1; a small weight comes
from the three-term recurrence instead, accurate relative to itself.  The
rules are cached read-only per (n, p, q).  A row climbs the ladder n = 8, 16, 32, 64, the
first two in one smooth call, and stops once two successive rules agree to
``tol`` relative.  ``smooth`` may have a branch point just beyond an end, at
a distance ``delta`` the caller knows; where ``delta < 0.05`` that end's
piece (0, 1/8) is integrated under ``s = delta * expm1(w * log1p((1/8) /
delta))``, a map in the manner of Slevinsky & Olver (SIAM J. Sci. Comput.
37, 2015) that makes ``(delta + s)**e`` the entire ``delta**e * exp(e * w *
L)``.  The rest of the interval takes the Jacobi rule of the powers that
vanish at its ends, with the other powers folded into its cached weights;
only the mapped pieces, which depend on ``delta``, are formed per call.
Rows still unsettled at 64 points go on to ``integrate_unit_batch``.

``integrate_unit_batch`` is a double-exponential (tanh-sinh) rule: under
the substitution ``t = sigmoid(pi*sinh(u))`` the trapezoid rule in ``u``
converges at a near-spectral rate even when the endpoint powers are
singular, because the node density grows double-exponentially towards both
endpoints.  ``t`` and ``1 - t`` are both derived in log form straight from
``u``, so the endpoint powers stay accurate where ``t`` itself would round
to 0 or 1.  The rule runs at most 10 levels, each with its node index
capped at 2**14 on either side, sweeping many integrands with the same
endpoint exponents over one set of nodes at once; ``integrate_unit`` is a
batch of one.

Its nodes and their endpoint weights ``exp(p1*log t + q1*log(1-t) +
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
are numpy scalars, not arrays of one element, in both rules.  The nodes,
the sums and the stopping rule are those of a level-by-level sweep, so the
results equal that sweep's bit for bit.

Gauss and Appell hypergeometric values are computed from their Euler integral
representations through the tanh-sinh path.  Power-series evaluation is
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
    "integrate_jacobi_batch",
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
    """Per-row results of ``integrate_unit_batch`` and
    ``integrate_jacobi_batch``; a row that ran out of levels holds its best
    estimate and ``converged`` False.  ``fallback`` marks the rows that
    ``integrate_jacobi_batch`` handed on to the tanh-sinh rule."""

    value: np.ndarray
    abs_error_estimate: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray
    fallback: np.ndarray


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
    return BatchQuadrature(value, err, evals, converged, np.zeros(n_rows, dtype=bool))


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


# --- Gauss-Jacobi rule ------------------------------------------------------

# points of the rules a row climbs; the first two go through one smooth call
_LADDER = ((8, 16), (32,), (64,))
# an end with a branch point closer than _NEAR (relative to the unit
# interval) gets the exponential map on the piece of length _CUT next to it
_NEAR = 0.05
_CUT = 0.125


@functools.lru_cache(maxsize=512)
def _jacobi_rule(n: int, p: float, q: float):
    """Read-only ``(t, 1-t, weight)`` of the n-point (n >= 2) Gauss rule on
    (0, 1) for the weight ``t**p * (1-t)**q``, by Golub & Welsch: the nodes
    are the eigenvalues of the Jacobi matrix, the weights B(p+1, q+1) times
    the squared first components of its unit eigenvectors, or for a small
    weight the Christoffel number from the three-term recurrence."""
    # recurrence of the Jacobi polynomials on (-1, 1) for the weight
    # (1-x)**a * (1+x)**b, with t = (1+x)/2
    a, b = q, p
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    off2 = np.empty(n - 1)
    # b_1 with the factor 1 + a + b cancelled: it vanishes where p + q = -1
    off2[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    k, s = k[2:], s[2:]
    off2[1:] = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    off = np.sqrt(off2)
    x, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mass = math.exp(math.lgamma(p + 1.0) + math.lgamma(q + 1.0) - math.lgamma(p + q + 2.0))
    share = vectors[0] ** 2
    # a squared eigenvector component is accurate only relative to the
    # largest (the t**40 moment at p = -0.8, q = 19.3 came out 3e-10 off),
    # so a small weight is taken as 1 / sum_j P_j(x)**2 over the orthonormal
    # polynomials, run up the recurrence, which is accurate relative to
    # itself away from a singular end, where the weights are large
    # (each polynomial times sqrt(mass), which may underflow)
    previous, current = np.zeros(n), np.ones(n)
    total = current.copy()
    for j in range(n - 1):
        previous, current = current, ((x - diag[j]) * current
                                      - (off[j - 1] * previous if j else 0.0)) / off[j]
        total += current * current
    rule = (np.clip(0.5 + 0.5 * x, _T_LO, _T_HI), np.clip(0.5 - 0.5 * x, _T_LO, _T_HI),
            mass * np.where(share < 1e-4, 1.0 / total, share))
    for v in rule:
        v.flags.writeable = False
    return rule


def _fixed(n, p, q, lo, hi):
    """``(t, 1-t, weight)`` on the piece (lo, hi) of (0, 1) with the whole
    weight ``t**p * (1-t)**q`` folded in: a Jacobi rule on the powers that
    vanish at the piece's own ends, times the rest of the weight."""
    length = hi - lo
    inner_p = p if lo == 0.0 else 0.0
    inner_q = q if hi == 1.0 else 0.0
    v, one_minus_v, w = _jacobi_rule(n, inner_p, inner_q)
    t = lo + length * v
    one_minus_t = (1.0 - hi) + length * one_minus_v
    w = w * length ** (1.0 + inner_p + inner_q)
    if inner_p != p:
        w = w * t ** p
    if inner_q != q:
        w = w * one_minus_t ** q
    return t, one_minus_t, w


@functools.lru_cache(maxsize=256)
def _ladder_step(step: int, p: float, q: float, near_left: bool, near_right: bool):
    """Read-only tables of one step of the ladder in one layout of pieces:
    ``(fixed, mapped, placement, ends)``.

    ``fixed`` is the ``(t, 1-t, weight)`` of the piece between the near ends
    for every rule of the step, concatenated; ``mapped`` holds, per near end
    (left first), the nodes ``w`` and weights ``W / w**e`` of the step's
    rules in ``w``, concatenated, with ``e`` the endpoint exponent at that
    end.  ``placement`` lists ``(source, start, stop, to, to_stop)``: the
    step's nodes ``to:to_stop`` are the slice ``start:stop`` of ``fixed``
    (source 0) or of a mapped end (1, then 2), per rule the left piece, the
    fixed piece, the right piece.  The nodes of the step's i-th rule end at
    ``ends[i]``."""
    rules = _LADDER[step]
    lo = _CUT if near_left else 0.0
    hi = 1.0 - _CUT if near_right else 1.0
    fixed = tuple(map(np.concatenate, zip(*(_fixed(n, p, q, lo, hi) for n in rules))))
    mapped = []
    for near, e in ((near_left, p), (near_right, q)):
        if near:
            w, _, weight = map(np.concatenate, zip(*(_jacobi_rule(n, e, 0.0) for n in rules)))
            mapped.append((w, weight / w ** e))
    placement = []
    start = stop = 0
    for n in rules:
        for source, near in ((1, near_left), (0, True), (2 if near_left else 1, near_right)):
            if near:
                placement.append((source, start, start + n, stop, stop + n))
                stop += n
        start += n
    sides = 1 + near_left + near_right
    ends = tuple(itertools.accumulate(sides * n for n in rules))
    for a in itertools.chain(fixed, *mapped):
        a.flags.writeable = False
    return fixed, tuple(mapped), tuple(placement), ends


def _map_end(w, w_weight, delta, log_span, e_near, e_far):
    """``(s, 1-s, weight)`` on the piece (0, _CUT) under ``s = delta *
    expm1(w * log_span)``, ``s`` the distance to the near end, which turns a
    factor ``(delta + s)**e`` into ``delta**e * exp(e * w * log_span)``.
    The weight is the rule's ``W / w**e_near`` times ``s**e_near *
    (1-s)**e_far`` and the Jacobian ``log_span * (delta + s)``."""
    s = delta * np.expm1(w * log_span)
    one_minus_s = 1.0 - s
    weight = w_weight * log_span * (delta + s)
    if e_near:
        weight = weight * s ** e_near
    if e_far:
        weight = weight * one_minus_s ** e_far
    return s, one_minus_s, weight


def _step_nodes(step, p, q, layout, left, right):
    """``(t, 1-t, weight, ends)`` of one ladder step for the active rows:
    1-D where no end is mapped or for a batch of one, else shaped (rows,
    nodes).  ``left`` and ``right`` are ``(delta, log_span)`` of the mapped
    ends, columns or floats, or None."""
    fixed, mapped, placement, ends = _ladder_step(step, p, q, *layout)
    if not mapped:
        return (*fixed, ends)
    sources = [fixed]
    if left is not None:
        sources.append(_map_end(*mapped[0], *left, p, q))
    if right is not None:
        s, one_minus_s, w = _map_end(*mapped[-1], *right, q, p)
        sources.append((one_minus_s, s, w))
    shape = sources[1][0].shape[:-1] + (ends[-1],)
    out = []
    for k in range(3):
        full = np.empty(shape)
        for i, a, b, start, stop in placement:
            full[..., start:stop] = sources[i][k][..., a:b]
        out.append(full)
    return (*out, ends)


def _run_ladder(p, q, layout, smooth, active, left, right, tol, out):
    """Climb the ladder for the rows ``active`` (indices of the batch), which
    share ``layout``; write the settled rows into ``out`` and return the
    rows still unsettled after the last rule, and the nodes each spent."""
    value, err, evals, converged = out
    floor = tol * 1e-280
    spent = 0
    previous = None
    for step in range(len(_LADDER)):
        t, one_minus_t, w, ends = _step_nodes(step, p, q, layout, left, right)
        vals = w * smooth(t, one_minus_t, active)
        spent += t.shape[-1]
        start = 0
        for stop in ends:
            new = np.add.reduce(vals[..., start:stop], axis=-1)
            start = stop
            if previous is None:
                previous = new
                continue
            # a NaN or inf sum never settles, and goes on to the fallback
            e = abs(new - previous)
            previous = new
            done = (e <= tol * abs(new)) | (e <= floor)
            stopping = np.count_nonzero(done)
            if stopping == done.size:
                value[active], err[active], evals[active] = new, e, spent
                converged[active] = True
                return active[:0], spent
            if stopping:
                stop_rows = active[done]
                value[stop_rows], err[stop_rows], evals[stop_rows] = new[done], e[done], spent
                converged[stop_rows] = True
                keep = ~done
                active, previous, e = active[keep], previous[keep], e[keep]
                left = left and (left[0][keep], left[1][keep])
                right = right and (right[0][keep], right[1][keep])
    value[active], err[active], evals[active] = previous, e, spent
    return active, spent


def integrate_jacobi_batch(endpoint_exponent_left: float, endpoint_exponent_right: float,
                           smooth: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                           n_rows: int, tol: float, branch_left=None,
                           branch_right=None) -> BatchQuadrature:
    """Integrate ``t**p * (1-t)**q * smooth(t, row)`` over (0, 1) for
    ``n_rows`` integrands that share ``p`` and ``q``, by Gauss-Jacobi rules.

    ``smooth`` is called as for ``integrate_unit_batch``, with nodes that
    are 1-D or, where an end is mapped and the batch has more than one row,
    shaped (rows, nodes).  ``branch_left`` and ``branch_right`` give, per
    row (an array, or a float for a batch of one), the distance ``delta``
    from t = 0 to a branch point of ``smooth`` at t = -delta, and from t = 1
    to one at t = 1 + delta; None where ``smooth`` has none.  An end with
    ``delta < 0.05`` is split off at 1/8 and integrated under ``s = delta *
    expm1(w * L)``, ``L = log1p((1/8) / delta)``, ``s`` the distance to that
    end, with the Jacobi weight ``w**p`` (or ``w**q``); that makes
    ``(delta + s)**e`` entire.  The rest of (0, 1) takes a Jacobi rule on
    the powers that vanish at its ends.

    Each row runs the 8- and 16-point rules on every piece in one smooth
    call, then 32 and 64 points, and stops once two successive rules agree
    to ``tol`` relative; that difference is its error estimate, and the
    result is the finer rule's.  Rows not settled at 64 points go to
    ``integrate_unit_batch`` on the same integrand (``fallback``), which
    also rejects a smooth factor that is not finite; their evaluations
    count both.  ``tol`` must already be a finite float > 0, and the
    endpoint exponents finite and > -1.
    """
    p, q = endpoint_exponent_left, endpoint_exponent_right
    value = np.empty(n_rows)
    err = np.empty(n_rows)
    evals = np.empty(n_rows, dtype=np.int64)
    converged = np.zeros(n_rows, dtype=bool)
    fallback = np.zeros(n_rows, dtype=bool)
    out = (value, err, evals, converged)
    # rows split over the layouts of their near ends; each group runs alone
    if isinstance(branch_left, np.ndarray) or isinstance(branch_right, np.ndarray):
        key = np.zeros(n_rows, dtype=np.int8)
        for bit, branch in ((1, branch_left), (2, branch_right)):
            if branch is not None:
                key += bit * (branch < _NEAR)
        groups = ([(k, np.flatnonzero(key == k)) for k in np.unique(key).tolist()]
                  if key.any() else [(0, None)])
    else:
        groups = [((branch_left is not None and branch_left < _NEAR)
                   + 2 * (branch_right is not None and branch_right < _NEAR), None)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, rows in groups:
            layout = (bool(k & 1), bool(k & 2))
            ends = []
            for near, branch in zip(layout, (branch_left, branch_right)):
                if near and rows is not None:
                    branch = branch[rows][:, None]
                ends.append((branch, np.log1p(_CUT / branch)) if near else None)
            rest, spent = _run_ladder(p, q, layout, smooth,
                                      np.arange(n_rows) if rows is None else rows,
                                      *ends, tol, out)
            if rest.size:
                batch = integrate_unit_batch(
                    p, q, lambda t, one_minus_t, active, rest=rest:
                    smooth(t, one_minus_t, rest[active]), rest.size, tol)
                value[rest], err[rest] = batch.value, batch.abs_error_estimate
                evals[rest] = spent + batch.evaluations
                converged[rest], fallback[rest] = batch.converged, True
    return BatchQuadrature(value, err, evals, converged, fallback)


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
    # tol first, so a bad one fails on the trivial cases too
    tol = _check_positive("tol", tol)
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
