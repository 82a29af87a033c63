"""Multivariate beta and hypergeometric evaluation on (0, 1).

One quadrature rule, ``integrate_jacobi_batch``, for integrals of the form

    integral_0^1 t**p * (1-t)**q * prod_k (base_k + slope_k * u_k)**e_k dt

with ``p, q > -1`` and each ``u_k`` either ``t`` or ``1 - t``: the density's
share integral and the Euler integrals of Gauss 2F1 and Appell F1 all take
this form.

Its nodes are those of the Gauss rule for the weight ``t**p * (1-t)**q``
itself, found by Golub & Welsch (Math. Comp. 23, 1969) as the eigenvalues of
the closed-form Jacobi matrix (``numpy.linalg.eigh``), with the first
off-diagonal entry in its cancelled form, which stays finite where p + q =
-1; a small weight comes from the three-term recurrence instead, accurate
relative to itself.  The rules are cached read-only per (n, p, q).  A row
climbs the ladder n = 8, 16, 32, 64, 128, the first two in one evaluation of
the factors, and stops once two successive rules agree to ``tol`` relative
on a sum that is finite and clear of underflow.  A factor's zero, a branch
point of the integrand, may lie just beyond an end, at a distance ``delta``
the caller knows; where ``delta < 0.05`` that end's piece (0, 1/8) is
integrated under ``s = delta * expm1(w * log1p((1/8) / delta))``, a map in
the manner of Slevinsky & Olver (SIAM J. Sci. Comput. 37, 2015) that makes
``(delta + s)**e`` the entire ``delta**e * exp(e * w * L)``.  The rest of
the interval takes the Jacobi rule of the powers that vanish at its ends,
with the other powers folded into its cached weights; only the mapped
pieces, which depend on ``delta``, are formed per call.  Where the factors
give every row the same values, as in a batch of one, the sums, the
estimates and the stopping test are numpy scalars, not arrays of one
element.  The powers p, q and e_k may differ from row to row: the rows of
a layout of near ends then climb one ladder together, each on the rules of
its own powers, evaluated in batches of at most 2**13 nodes, each batch
rows of one run that share their powers, which numpy raises to as floats.

A row whose sum is nan or near underflow leaves the ladder at once, and one
still unsettled at 128 points, an overflowing one among them, after it.
Both are summed in logs, ``exp(ln W + h - scale)`` per node with a per-row
log scale that the result carries, on pieces centred on the integrand's
peak, as in Laplace's method (de Bruijn, Asymptotic Methods in Analysis,
1958, ch. 4): h, the log of the integrand, is taken at the nodes of a
128-point rule, and the cuts lie at its best node and at the nodes just
beyond those where h is within K**2 / 2 of it, as it is within K sigma of
a Gaussian's peak, with K set by ``tol``.  The pieces take the same ladder
and stopping rule.  A near end keeps its map: the rule runs in the mapped
variable, on the half of (0, 1) at that end.  ``integrate_unit``
runs the plain ladder on a batch of one, for a smooth factor given as a
callable.

Gauss and Appell hypergeometric values are computed from their Euler integral
representations on the kernel, each factor 1 - z*t written as a distance
from its zero.  Power-series evaluation is deliberately not used here; the
test suite keeps independent series oracles.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .construction import _check_positive
from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureResult",
    "ln_beta_multi",
    "integrate_unit",
    "BatchQuadrature",
    "integrate_jacobi_batch",
    "hyp2f1",
    "appell_f1",
]

# Nodes are clipped into the open interval before the factors see them;
# all singular behaviour must already live in the declared endpoint exponents.
_T_LO = 1e-300
_T_HI = float(np.nextafter(1.0, 0.0))


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


@dataclass(frozen=True)
class BatchQuadrature:
    """Per-row results of ``integrate_jacobi_batch``: the integral of a row
    is ``value * exp(log_scale)``, with ``log_scale`` 0 for a row the plain
    ladder settled, or None where the plain ladder settled every row; a row
    that ran out of rules holds its best estimate and ``converged`` False."""

    value: np.ndarray
    abs_error_estimate: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray
    log_scale: np.ndarray | None


# points of the rules a row climbs; the first two go through one evaluation
_LADDER = ((8, 16), (32,), (64,), (128,))
# an end with a branch point closer than _NEAR (relative to the unit
# interval) gets the exponential map on the piece of length _CUT next to it
_NEAR = 0.05
_CUT = 0.125
# an end power p, or a branch factor's exponent e with it, that behaves like
# s**(sigma - 1) with sigma = p + 1 (+ e) >= _SMOOTH is left to the plain
# rule, which settles it within the ladder while the map or a Jacobi weight
# of that power may not
_SMOOTH = 5.0
# nodes a step of the ladder spends on a row, without a mapped end
_WIDTH = tuple(sum(rules) for rules in _LADDER)
# nodes that one step evaluates at once, at most: 64 KB a table.  Larger
# temporaries can cost page faults, as the allocator hands their memory back
# to the system when freed and maps it again for the next batch (about 90
# minor faults a 1600-point grid at 128 KB, under glibc on x86_64)
_BATCH = 1 << 13
# a ladder sum below _UNDERFLOW / tol may have lost the digits of its terms
# to underflow, and does not settle
_UNDERFLOW = 1e3 * float(np.finfo(float).tiny)
# a factor's exponent
_EXPONENT = operator.itemgetter(2)


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
    """``(t, 1-t, weight, ends)`` of one ladder step for active rows that
    share ``p`` and ``q``: 1-D where no end is mapped or for a batch of one,
    else shaped (rows, nodes).  ``left`` and ``right`` are ``(delta,
    log_span)`` of the mapped ends, columns or floats, or None."""
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


def _kinds(columns, n_rows):
    """The runs of rows that share their powers ``columns``, ``(p, q, e_1,
    ...)``, each a float or an (n_rows,) array: ``(kind, powers)``, with
    ``powers`` the runs' tuples of floats, in order, and ``kind`` each
    row's run, or None where every row has the one tuple."""
    arrays = [c for c in columns if isinstance(c, np.ndarray)]
    if not arrays:
        return None, [columns]
    first = np.empty(n_rows, dtype=bool)
    first[0] = True
    np.not_equal(arrays[0][1:], arrays[0][:-1], out=first[1:])
    for c in arrays[1:]:
        first[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(first)
    powers = list(zip(*(c[starts].tolist() if isinstance(c, np.ndarray) else [c] * starts.size
                        for c in columns)))
    if len(powers) == 1:
        return None, powers
    return np.repeat(np.arange(starts.size), np.diff(starts, append=n_rows)), powers


def _runs(kind, powers, m):
    """``(start, stop, powers)`` of the runs among m rows of the runs
    ``kind`` (``_kinds``; None for one), in order."""
    if kind is None:
        return [(0, m, powers[0])]
    runs = []
    start = 0
    for i, count in enumerate(np.bincount(kind, minlength=len(powers)).tolist()):
        if count:
            runs.append((start, start + count, powers[i]))
            start += count
    return runs


def _by_batches(kind, powers, factors, n_rows):
    """``evaluate`` for ``_run_ladder`` on every batch but one row on float
    powers, with the runs ``kind`` and ``powers`` (``_kinds``) of the rows'
    powers: ``evaluate(step, layout, active, left, right)`` gives each
    rule's sum per active row, as a (rules, rows) array, and the nodes a
    row spent.  A step runs in batches of rows of one kind, at most
    ``_BATCH`` nodes (rows times the step's width) and at least a row each,
    on the rules of the kind's powers, with ``np.power`` on a float
    exponent, as numpy rounds some powers (2, 0.5, -1) of an array of
    exponents otherwise; the weight times the product of the factors is
    formed in place in one new array, and a factor whose exponent is 0 is 1
    and drops out."""
    # the active rows last seen, and the factors for them: no re-indexing
    # while every row is active
    seen = [None, None]

    def step_sums(step, layout, active, left, right):
        width = (1 + layout[0] + layout[1]) * _WIDTH[step]
        most = max(1, _BATCH // width)
        columns = factors
        if active.size != n_rows:
            if seen[0] is not active:
                seen[:] = active, [(f[0][active], f[1][active], *f[2:]) for f in factors]
            columns = seen[1]
        sums = None
        for a, b, (p, q, *exponents) in _runs(None if kind is None else kind[active], powers,
                                              active.size):
            for lo in range(a, b, most):
                rows = slice(lo, min(b, lo + most))
                t, one_minus_t, w, ends = _step_nodes(
                    step, p, q, layout, *(end and (end[0][rows], end[1][rows])
                                          for end in (left, right)))
                vals = None
                for (base, slope, _, from_right, _), e in zip(columns, exponents):
                    if not e:
                        continue
                    f = slope[rows] * (one_minus_t if from_right else t)
                    f += base[rows]
                    np.power(f, e, out=f)
                    if vals is None:
                        vals = f
                    else:
                        vals *= f
                if vals is None:
                    vals = w
                else:
                    vals *= w
                if sums is None:
                    sums = np.empty((len(ends), active.size))
                start = 0
                for k, stop in enumerate(ends):
                    sums[k, rows] = np.add.reduce(vals[..., start:stop], axis=-1)
                    start = stop
        return sums, width
    return step_sums


def _run_ladder(p, q, layout, evaluate, active, left, right, tol, out):
    """Climb the ladder for the rows ``active`` (indices of the batch), which
    share ``layout``.  For rows that share the powers ``p`` and ``q``,
    ``evaluate(t, 1-t, rows)`` gives the factors; where ``p`` is None,
    ``evaluate(step, layout, active, left, right)`` gives each rule's sum
    per active row, every row on the rules of its own powers, and the nodes
    a row spent (``_by_batches``).  Writes every row's last estimate, its
    error and the nodes it spent into ``out``, marks the settled ones, and
    returns the indices of the rest: those whose sum came out nan or near
    underflow, which leave at once, and those still unsettled after the last
    rule."""
    value, err, evals, converged = out
    unsettled = []
    spent = 0
    previous = None
    for step in range(len(_LADDER)):
        if p is None:
            sums, width = evaluate(step, layout, active, left, right)
            spent += width
        else:
            t, one_minus_t, w, ends = _step_nodes(step, p, q, layout, left, right)
            vals = w * evaluate(t, one_minus_t, active)
            spent += t.shape[-1]
            sums = []
            start = 0
            for stop in ends:
                sums.append(np.add.reduce(vals[..., start:stop], axis=-1))
                start = stop
        for new in sums:
            if previous is None:
                previous = new
                continue
            e = abs(new - previous)
            previous = new
            # e <= tol * |new|, but false where tol * |new| is below
            # _UNDERFLOW or not finite (inf - inf is nan): such a sum never
            # settles
            bound = tol * abs(new)
            done = e - bound <= -_UNDERFLOW
            stopping = np.count_nonzero(done)
            if stopping == done.size:
                value[active], err[active], evals[active] = new, e, spent
                converged[active] = True
                return np.concatenate(unsettled) if unsettled else active[:0]
            # a sum near underflow or nan leaves at once (one that is inf
            # climbs on, and leaves after the last rule)
            lost = ~(bound >= _UNDERFLOW)
            n_lost = np.count_nonzero(lost)
            if n_lost == lost.size:
                value[active], err[active], evals[active] = new, e, spent
                return np.concatenate((*unsettled, active))
            if stopping or n_lost:
                # every active row's estimate; a row that climbs on writes
                # its own again
                value[active], err[active], evals[active] = new, e, spent
                converged[active[done]] = True
                keep = ~done
                if n_lost:
                    unsettled.append(active[lost])
                    keep &= ~lost
                if not keep.any():
                    return np.concatenate(unsettled)
                active, previous, e = active[keep], previous[keep], e[keep]
                left = left and (left[0][keep], left[1][keep])
                right = right and (right[0][keep], right[1][keep])
    value[active], err[active], evals[active] = previous, e, spent
    return np.concatenate((*unsettled, active))


def _product(factors):
    """``evaluate(t, 1-t, rows)`` for ``_run_ladder`` on a batch of one: the
    product of the factors ``(base + slope * u)**e`` at the nodes."""
    def evaluate(t, one_minus_t, rows):
        out = None
        for base, slope, e, from_right, _ in factors:
            f = np.power(base + slope * (one_minus_t if from_right else t), e)
            out = f if out is None else out * f
        return 1.0 if out is None else out
    return evaluate


def _maps_branch(e: float, e_end: float) -> bool:
    """Whether the kernel should map the end where a factor with exponent
    ``e`` has its zero near, at an end with power ``e_end``: not for a
    polynomial factor, nor where the two behave like s**(sigma - 1) with
    sigma = e_end + e + 1 >= 5, which the plain rule settles within its
    ladder while the mapped factor exp(sigma * w * L) may not."""
    return not (e >= 0.0 and e == int(e)) and e_end + e + 1.0 < _SMOOTH


def _branches(factors):
    # the nearest branch distance the caller gives beyond each end, or None
    near = [None, None]
    for *_, from_right, branch in factors:
        if branch is not None:
            other = near[from_right]
            near[from_right] = branch if other is None else np.minimum(other, branch)
    return near


def _log_integrand(t, one_minus_t, p, q, columns):
    """``h = p log t + q log(1-t) + sum e log(base + slope * u)``, the log of
    the integrand; ``columns`` holds ``(base, slope, e, from_right)`` per
    factor, shaped to broadcast against t."""
    h = 0.0
    if p:
        h = p * np.log(t)
    if q:
        h = h + q * np.log(one_minus_t)
    for base, slope, e, from_right in columns:
        h = h + e * np.log(base + slope * (one_minus_t if from_right else t))
    return h


def _segment(kind, lo, hi, p, q, delta):
    """The variable v in (0, 1) of the segment (lo, hi) of (0, 1): ``(r0, r1,
    at)``, with r0 and r1 the end powers that a rule touching v = 0 or v = 1
    takes into its Jacobi weight, and ``at(v, 1-v)`` giving t, 1-t and
    log|dt/dv|.  A segment at a near end (``kind`` "left" or "right") runs
    under that end's map ``s = delta * expm1(v * L)``, ``s`` the distance to
    the end, ``L = log1p((hi - lo) / delta)``; its rules take the end power
    at v = 0."""
    if kind is None:
        length = hi - lo

        def at(v, one_minus_v):
            return lo + length * v, (1.0 - hi) + length * one_minus_v, math.log(length)
        return (p if lo == 0.0 and p + 1.0 < _SMOOTH else 0.0,
                q if hi == 1.0 and q + 1.0 < _SMOOTH else 0.0, at)
    log_span = np.log1p((hi - lo) / delta)

    def at(v, one_minus_v):
        s = delta * np.expm1(v * log_span)
        t, one_minus_t = (s, 1.0 - s) if kind == "left" else (1.0 - s, s)
        return t, one_minus_t, np.log(log_span * (delta + s))
    return p if kind == "left" else q, 0.0, at


def _cuts(v, terms, ln_w, reach):
    """Three cuts of a segment's variable round each row's peak, from the
    ``terms`` of ``_piece_terms`` at the nodes ``v`` of a rule whose weights
    have the logs ``ln_w``: the best node, and the nodes just outside those
    held, where H = ``terms - ln_w``, the log of the integrand in the
    segment's variable less the end powers the rule takes, is within
    ``reach**2 / 2`` of the best.  Where the held nodes reach an end of the
    segment, the cuts grade towards it by quarters, so that no piece ends
    just short of an end power; where they reach both ends round a dip, the
    cuts are the first and last nodes that fell and their midpoint."""
    h = terms - ln_w
    rows = np.arange(h.shape[0])
    best = np.argmax(h, axis=-1)
    held = h > (h[rows, best] - 0.5 * reach * reach)[:, None]
    held[rows, best] = True
    end = v.size - 1
    first_held = np.argmax(held, axis=-1)
    last_held = end - np.argmax(held[:, ::-1], axis=-1)
    lo, hi = v[np.maximum(first_held - 1, 0)], v[np.minimum(last_held + 1, end)]
    to_0, to_1 = first_held == 0, last_held == end
    cuts = (np.where(to_0, np.where(to_1, 0.25, 0.25 * hi), lo),
            np.where(to_0, np.where(to_1, 0.5, 0.5 * hi),
                     np.where(to_1, 0.5 + 0.5 * lo, v[best])),
            np.where(to_1, np.where(to_0, 0.75, 0.75 + 0.25 * lo), hi))
    fell = ~held
    dip = to_0 & to_1 & fell.any(axis=-1)
    first_fell = v[np.argmax(fell, axis=-1)]
    last_fell = v[end - np.argmax(fell[:, ::-1], axis=-1)]
    return [np.where(dip, c, cut)[:, None] for c, cut in
            zip((first_fell, 0.5 * (first_fell + last_fell), last_fell), cuts)]


def _piece_terms(n, segment, lo, hi, p, q, columns):
    """``ln J + h`` at the n nodes of a piece (lo, hi) of a segment's variable
    (None for an end of it), with J the rule's weight over the Jacobi weight
    it is exact for, times the lengths, so that the piece's integral is the
    sum of their exponentials."""
    r0, r1, at = segment
    inner_p = r0 if lo is None else 0.0
    inner_q = r1 if hi is None else 0.0
    x, one_minus_x, w = _jacobi_rule(n, inner_p, inner_q)
    lo = 0.0 if lo is None else lo
    hi = 1.0 if hi is None else hi
    length = hi - lo
    t, one_minus_t, log_jac = at(lo + length * x, (1.0 - hi) + length * one_minus_x)
    ln_j = np.log(w) + np.log(length) + log_jac
    if inner_p:
        ln_j = ln_j - inner_p * np.log(x)
    if inner_q:
        ln_j = ln_j - inner_q * np.log(one_minus_x)
    return ln_j + _log_integrand(t, one_minus_t, p, q, columns)


def _run_peak(p, q, factors, n_rows, rows, branches, tol, out, log_scale):
    """Integrate the rows ``rows`` in logs on pieces centred on their peaks:
    (0, 1), or where an end is near, (0, 1/2) and (1/2, 1) with the near
    ones under their maps, each cut in four at nodes of a 128-point rule on
    the segment (``_cuts``).  Writes the rows' estimates, errors and log
    scales into ``out`` and ``log_scale``, marks the settled ones and adds
    the nodes spent, the 128 per segment that place the cuts among them."""
    def per_row(v):
        return np.broadcast_to(np.reshape(np.asarray(v, dtype=float), (-1, 1)), (n_rows, 1))[rows]

    columns = [(per_row(base), per_row(slope), e, r) for base, slope, e, r, _ in factors]
    delta = [None if branch is None else per_row(branch) for branch in branches]
    near = [np.zeros(rows.size, dtype=bool) if d is None else d[:, 0] < _NEAR for d in delta]
    reach = 2.0 + math.sqrt(2.0 * math.log1p(1.0 / tol))
    n = _LADDER[-1][-1]
    for ends in sorted(set(zip(near[0].tolist(), near[1].tolist()))):
        group = np.flatnonzero((near[0] == ends[0]) & (near[1] == ends[1]))
        cols = [(base[group], slope[group], e, r) for base, slope, e, r in columns]
        pieces = []
        for kind, lo, hi in ([("left" if ends[0] else None, 0.0, 0.5),
                              ("right" if ends[1] else None, 0.5, 1.0)]
                             if any(ends) else [(None, 0.0, 1.0)]):
            segment = _segment(kind, lo, hi, p, q,
                               None if kind is None else delta[kind == "right"][group])
            # a 128-point rule on the segment places the cuts
            terms = np.broadcast_to(_piece_terms(n, segment, None, None, p, q, cols),
                                    (group.size, n))
            v, _, w = _jacobi_rule(n, *segment[:2])
            cuts = [None, *_cuts(v, terms, np.log(w), reach), None]
            pieces += [(segment, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
            out[2][rows[group]] += n
        _peak_ladder(p, q, pieces, cols, tol, rows[group], out, log_scale)


def _peak_ladder(p, q, pieces, columns, tol, rows, out, log_scale):
    """The ladder and stop rule on the peak layout ``pieces``, ``(segment,
    lo, hi)`` each, for the rows ``rows``."""
    value, err, evals, converged = out
    m = rows.size
    spent = evals[rows]
    open_rows = np.ones(m, dtype=bool)
    scale = previous = None
    for n in itertools.chain(*_LADDER):
        terms = np.concatenate([np.broadcast_to(term, (m, term.shape[-1])) for term in (
            _piece_terms(n, segment, lo, hi, p, q, columns) for segment, lo, hi in pieces)],
            axis=-1)
        spent = spent + terms.shape[-1]
        if scale is None:
            scale = np.max(terms, axis=-1)
            scale = np.where(np.isfinite(scale), scale, 0.0)
        new = np.exp(terms - scale[:, None]).sum(axis=-1)
        if previous is not None:
            e = abs(new - previous)
            index = rows[open_rows]
            value[index], err[index] = new[open_rows], e[open_rows]
            evals[index] = spent[open_rows]
            done = open_rows & (e <= tol * new) & (new > 0.0)
            converged[rows[done]] = True
            open_rows &= ~done
            if not open_rows.any():
                break
        previous = new
    log_scale[rows] = scale


def integrate_jacobi_batch(endpoint_exponent_left, endpoint_exponent_right,
                           factors: Sequence[tuple], n_rows: int,
                           tol: float) -> BatchQuadrature:
    """Integrate ``t**p * (1-t)**q * prod_k (base_k + slope_k * u_k)**e_k``
    over (0, 1) for ``n_rows`` integrands, as the module docstring
    describes.

    ``p``, ``q`` and each ``e_k`` are floats that every row shares, or
    (n_rows,) arrays of one value per row; rows whose values agree are best
    kept together, as each run of them takes its own numpy calls.
    ``factors`` lists ``(base, slope, e, from_right, branch)``: ``u``
    is ``1 - t`` if ``from_right``, else ``t``; ``base`` and ``slope`` are
    (n_rows, 1) columns, or floats for a batch of one, and the factor is
    positive on (0, 1); ``branch`` is the distance from that end to the
    factor's zero (an array or a float, ``inf`` for none), or None where
    the factor is not to be mapped (``_maps_branch``).  An end is mapped
    where its nearest branch is closer than 0.05; the rows of each layout
    of mapped ends climb one ladder together, each on the rules of its own
    ``p`` and ``q``, so a row's result does not depend on the rows beside
    it.  A row's result is ``value * exp(log_scale)``, its error estimate
    the difference of its last two rules times the same scale, and its
    evaluations count both layouts.  ``tol`` must already be a finite float
    > 0, and the endpoint exponents finite and > -1.
    """
    p, q = endpoint_exponent_left, endpoint_exponent_right
    value = np.empty(n_rows)
    err = np.empty(n_rows)
    evals = np.empty(n_rows, dtype=np.int64)
    converged = np.zeros(n_rows, dtype=bool)
    out = (value, err, evals, converged)
    branch_left, branch_right = _branches(factors)
    # rows split over the layouts of their near ends; each group runs alone
    key = ((branch_left is not None and branch_left < _NEAR)
           + 2 * (branch_right is not None and branch_right < _NEAR))
    groups = [(key, None)]
    if isinstance(key, np.ndarray):
        counts = np.bincount(key, minlength=4)
        groups = ([(k, np.flatnonzero(key == k)) for k in np.flatnonzero(counts).tolist()]
                  if counts[0] < n_rows else [(0, None)])
    columns = (p, q, *map(_EXPONENT, factors))
    # a batch of one on float powers, as a scalar pdf, whose sums stay numpy
    # scalars
    if n_rows == 1 and np.ndarray not in map(type, columns):
        evaluate = _product(factors)
        per_row = None
    else:
        if not n_rows:
            return BatchQuadrature(value, err, evals, converged, None)
        per_row = _kinds(columns, n_rows)
        evaluate = _by_batches(*per_row, factors, n_rows)
    rest = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, rows in groups:
            layout = (bool(k & 1), bool(k & 2))
            ends = []
            for near, branch in zip(layout, (branch_left, branch_right)):
                if near and rows is not None:
                    branch = branch[rows][:, None]
                ends.append((branch, np.log1p(_CUT / branch)) if near else None)
            rest.append(_run_ladder(None if per_row else p, q, layout, evaluate,
                                    np.arange(n_rows) if rows is None else rows,
                                    *ends, tol, out))
    rest = rest[0] if len(rest) == 1 else np.concatenate(rest)
    if not rest.size:
        return BatchQuadrature(value, err, evals, converged, None)
    log_scale = np.zeros(n_rows)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        # the rest by their powers, a batch of one on float powers as one
        # run; a factor whose exponent is 0 there is 1 and drops out
        kind, powers = per_row or (None, [columns])
        k = np.zeros(rest.size, dtype=np.intp) if kind is None else kind[rest]
        groups = {}
        for i in np.flatnonzero(np.bincount(k, minlength=len(powers))).tolist():
            groups.setdefault(powers[i], []).append(rest[k == i])
        for (p_rows, q_rows, *exponents), rows in groups.items():
            kept = [(base, slope, e, from_right, branch)
                    for (base, slope, _, from_right, branch), e in zip(factors, exponents) if e]
            _run_peak(p_rows, q_rows, kept, n_rows, np.concatenate(rows),
                      (branch_left, branch_right), tol, out, log_scale)
    return BatchQuadrature(value, err, evals, converged, log_scale)


def integrate_unit(p: float, q: float, smooth: Callable[[np.ndarray], np.ndarray],
                   tol: float = 1e-10) -> QuadratureResult:
    """Integrate ``t**p * (1-t)**q * smooth(t)`` over (0, 1), for finite
    ``p, q > -1``.

    ``smooth`` gets an array of nodes strictly inside (0, 1) and must return
    finite values there, or ``DomainError``; any singular behaviour has to
    be expressed through the exponents.

    The Gauss-Jacobi ladder of ``integrate_jacobi_batch`` on a batch of
    one, without its peak layout: 8 and 16 points, then 32, 64 and 128,
    until two successive rules agree to ``tol`` relative on a sum that is
    finite and clear of underflow.  The reported ``abs_error_estimate`` is
    that last difference.

    Raises
    ------
    ConvergenceError
        If the rules run out first.  The best estimate rides along on the
        exception's ``result`` attribute.
    """
    tol = _check_positive("tol", tol)
    for e in (p, q):
        if not (math.isfinite(e) and e > -1.0):
            raise DomainError(f"endpoint exponents must be finite and > -1, got {e!r}")

    def evaluate(t, one_minus_t, rows):
        vals = np.asarray(smooth(t), dtype=float)
        if np.count_nonzero(np.isfinite(vals)) != vals.size:
            raise DomainError("integrand is not finite at interior nodes; "
                              "declare endpoint singularities via the exponents")
        return vals

    out = (np.empty(1), np.empty(1), np.empty(1, dtype=np.int64), np.zeros(1, dtype=bool))
    _run_ladder(float(p), float(q), (False, False), evaluate, np.arange(1), None, None, tol,
                out)
    result = QuadratureResult(value=float(out[0][0]), abs_error_estimate=float(out[1][0]),
                              evaluations=int(out[2][0]))
    if out[3][0]:
        return result
    raise ConvergenceError(
        f"Gauss-Jacobi rules did not reach tol={tol:g} within {_LADDER[-1][-1]} points "
        f"({result.evaluations} evaluations); last difference "
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

    on ``integrate_jacobi_batch``, accurate to about 1e-9 relative at the
    default tolerance.  For 0 < z < 1 a factor 1 - z*t is formed as (1-z) +
    z*(1-t), its zero (1-z)/z beyond t = 1; for z < 0 as 1 + |z|*t, its zero
    1/|z| beyond t = 0.  ``ConvergenceError`` if the kernel does not settle.
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
    factors = []
    for b, z in ((b1, z1), (b2, z2)):
        if b != 0.0 and z != 0.0:
            # (base, slope, e, from_right) and the distance to the zero
            factor, branch = (((1.0 - z, z, -b, True), (1.0 - z) / z) if z > 0.0
                              else ((1.0, -z, -b, False), -1.0 / z))
            e_end = c - a - 1.0 if z > 0.0 else a - 1.0
            factors.append((*factor, branch if _maps_branch(-b, e_end) else None))
    batch = integrate_jacobi_batch(a - 1.0, c - a - 1.0, factors, 1, tol)
    if not batch.converged[0]:
        raise ConvergenceError(f"appell_f1 integral did not reach tol={tol:g} "
                               f"({int(batch.evaluations[0])} evaluations)")
    scale = 0.0 if batch.log_scale is None else batch.log_scale[0]
    return math.exp(scale - ln_beta_multi((a, c - a))) * float(batch.value[0])
