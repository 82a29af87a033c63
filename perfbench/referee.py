"""High-precision density referee built on mpmath, independent of bibeta.

The density is the share-range integral

    f(x, y) = B(a)^-1 * int_lo^hi u**(a11-1) (x-u)**(a10-1) (y-u)**(a01-1)
              (1-x-y+u)**(a00-1) du,   lo = max(0, x+y-1), hi = min(x, y).

Near a cut line a factor that vanishes just beyond one end of the range
makes the integrand vary on the scale of that gap.  Each half of the range
is therefore integrated in the distance s from its end, and past the gap in
log s, where the integrand is smooth; mpmath's tanh-sinh rule handles the
algebraic endpoint singularities of both pieces.  ``x`` and ``y`` enter as
exact binary values, so the line distances are resolved without rounding.
"""

from __future__ import annotations

import math

import mpmath

_DPS = 20


def _half(powers, end, direction, length, gap):
    # integral over s in (0, length) of prod (c + k*s)**e, where c + k*s is
    # each factor's value at u = end + direction*s; c is formed once, exactly
    # 0 for the factors that vanish at this end, so small s loses no digits
    terms = [(c + k * end, k * direction, e) for c, k, e in powers]
    vanish = [(k, e) for c, k, e in terms if c == 0]
    rest = [t for t in terms if t[0] != 0]
    # prod (k*s)**e over the vanishing factors is K * s**E; s = w**(1/(E+1))
    # absorbs s**E ds into dw / (E+1), leaving a smooth integrand in w
    big_e = mpmath.fsum(e for _, e in vanish)
    coef = mpmath.fprod(k ** e for k, e in vanish)
    p = 1 / (big_e + 1)

    def h(s):
        out = mpmath.mpf(1)
        for c, k, e in rest:
            out *= (c + k * s) ** e
        return out

    head_end = length if gap <= 0 or gap >= length else gap
    total = _quad(lambda w: h(w ** p), 0, head_end ** (big_e + 1)) * p
    if head_end < length:
        total += _quad(lambda v: h(mpmath.exp(v)) * mpmath.exp(v * (big_e + 1)),
                       mpmath.log(gap), mpmath.log(length))
    return coef * total


def _quad(fn, a, b):
    # mpmath stops on an absolute error of about 10**-dps, so bring the
    # integrand to order one first; tiny densities would otherwise be noise
    scale = max(abs(fn(a + (b - a) * k / 16)) for k in range(1, 16))
    return mpmath.quad(lambda t: fn(t) / scale, [a, b]) * scale


def density(alpha, x: float, y: float) -> float:
    """Density at (x, y) inside the open unit square, or ``math.inf``.

    ``alpha`` is (a11, a10, a01, a00).  Returns ``inf`` where the integral
    diverges, which happens only on a cut line whose relevant weight sum is
    at most 1.
    """
    with mpmath.workdps(_DPS):
        a11, a10, a01, a00 = (mpmath.mpf(float(a)) for a in alpha)
        X, Y = mpmath.mpf(float(x)), mpmath.mpf(float(y))
        d = X + Y - 1
        if X == Y and a10 + a01 <= 1:
            return math.inf
        if d == 0 and a11 + a00 <= 1:
            return math.inf
        lo = d if d > 0 else mpmath.mpf(0)
        hi = min(X, Y)
        ln_b = (mpmath.loggamma(a11) + mpmath.loggamma(a10) + mpmath.loggamma(a01)
                + mpmath.loggamma(a00) - mpmath.loggamma(a11 + a10 + a01 + a00))
        # factor c + k*u with its exponent: u, x-u, y-u, 1-x-y+u
        powers = [(0, 1, a11 - 1), (X, -1, a10 - 1), (Y, -1, a01 - 1), (-d, 1, a00 - 1)]
        half = (hi - lo) / 2
        # gap from each end of the range to the nearest root beyond it
        total = (_half(powers, lo, 1, half, abs(d))
                 + _half(powers, hi, -1, half, abs(X - Y)))
        return float(total * mpmath.exp(-ln_b))
