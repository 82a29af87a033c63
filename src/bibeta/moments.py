"""Exact moments and correlation of the shared-component bivariate beta.

Everything here is closed form.  Mixed raw moments reduce, via multinomial
expansion of (u11 + u10)**r * (u11 + u01)**s, to Dirichlet moments, which are
ratios of rising factorials.  Central moments expand over those raw moments.
Both are summed by one route, in exact integer arithmetic, and rounded once
at the end, so every order is correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .construction import AlphaBivariate, _check_count
from .errors import DomainError

__all__ = [
    "MomentVector",
    "moment_vector",
    "correlation",
    "mixed_moment",
    "central_moment",
    "correlation_table",
    "TABLE_ROW_PARAMS",
    "TABLE_A00_COLUMNS",
]


@dataclass(frozen=True)
class MomentVector:
    """Means, variances and covariance (m10, m01, m20, m02, m11)."""

    m10: float
    m01: float
    m20: float
    m02: float
    m11: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if not 0.0 < self.m10 < 1.0 or not 0.0 < self.m01 < 1.0:
            raise DomainError("means must lie strictly inside (0, 1)")
        if not (self.m20 > 0.0 and self.m02 > 0.0):
            raise DomainError("variances must be > 0")
        if self.m20 > self.m10 * (1.0 - self.m10):
            raise DomainError("m20 exceeds the variance cap m10*(1-m10)")
        if self.m02 > self.m01 * (1.0 - self.m01):
            raise DomainError("m02 exceeds the variance cap m01*(1-m01)")
        # tiny slack so a covariance built as sqrt(m20*m02) round-trips
        if abs(self.m11) > math.sqrt(self.m20 * self.m02) * (1.0 + 1e-12):
            raise DomainError("|m11| exceeds sqrt(m20*m02)")

    def as_tuple(self):
        return (self.m10, self.m01, self.m20, self.m02, self.m11)


def moment_vector(alpha: AlphaBivariate) -> MomentVector:
    """Exact first and second central moments."""
    m = alpha.total
    denom = m * m * (m + 1.0)
    return MomentVector(
        m10=alpha.a1p / m,
        m01=alpha.ap1 / m,
        m20=alpha.a1p * alpha.a0p / denom,
        m02=alpha.ap1 * alpha.ap0 / denom,
        m11=(alpha.a11 * alpha.a00 - alpha.a10 * alpha.a01) / denom,
    )


def correlation(alpha: AlphaBivariate) -> float:
    """Pearson correlation of (X, Y); sign follows a11*a00 - a10*a01."""
    num = alpha.a11 * alpha.a00 - alpha.a10 * alpha.a01
    den = math.sqrt(alpha.a1p * alpha.ap1 * alpha.a0p * alpha.ap0)
    return num / den


def _exact_raw_moments(alpha: AlphaBivariate, n: int):
    """Raw moments up to total order ``n`` in exact integer arithmetic.

    Each float weight is an integer A over a common power of two D, and a
    rising factorial a**(k) is A(A + D)...(A + (k-1)D) / D**k.  Expanding
    (u11 + u10)**i * (u11 + u01)**j over Dirichlet moments, the powers of D
    cancel, so E[X**i * Y**j] is ``raw(i, j) / rm[i + j]``, both integers.
    Returns the integer total M and margin weights (AX, AY), the table ``rm``
    of M(M + D)...(M + (k-1)D) for k = 0..n, and ``raw``.
    """
    ratios = [w.as_integer_ratio() for w in (alpha.a11, alpha.a10, alpha.a01, alpha.a00)]
    d = max(den for _, den in ratios)
    a11, a10, a01, a00 = (num * (d // den) for num, den in ratios)

    def rising(a: int) -> list:
        out = [1]
        for k in range(n):
            out.append(out[-1] * (a + k * d))
        return out

    r11, r10, r01 = rising(a11), rising(a10), rising(a01)

    def raw(i: int, j: int) -> int:
        return sum(math.comb(i, p) * math.comb(j, q) * r11[p + q] * r10[i - p] * r01[j - q]
                   for p in range(i + 1) for q in range(j + 1))

    m = a11 + a10 + a01 + a00
    return m, a11 + a10, a11 + a01, rising(m), raw


def mixed_moment(alpha: AlphaBivariate, r: int, s: int) -> float:
    """E[X**r * Y**s], correctly rounded.

    The Dirichlet expansion is summed exactly in integers by the route
    ``central_moment`` uses, and one integer division rounds it, so no
    order overflows and none needs log space.
    """
    r = _check_count("r", r)
    s = _check_count("s", s)
    _, _, _, rm, raw = _exact_raw_moments(alpha, r + s)
    return raw(r, s) / rm[r + s]


def central_moment(alpha: AlphaBivariate, r: int, s: int) -> float:
    """E[(X - EX)**r * (Y - EY)**s], correctly rounded.

    The binomial expansion over raw moments cancels: at weights near 1000
    the (4, 4) moment is about 1e-13 of the raw moments it is summed from.
    So the expansion is summed exactly, over the integer raw moments of
    ``_exact_raw_moments``.  With D the weights' common power of two, M the
    integer total and n = r + s, every term is an integer over
    M**n * M(M + D)...(M + (n-1)D), and the one division at the end rounds
    once.
    """
    r = _check_count("r", r)
    s = _check_count("s", s)
    n = r + s
    m, ax, ay, rm, raw = _exact_raw_moments(alpha, n)
    total = 0
    for i in range(r + 1):
        for j in range(s + 1):
            total += (math.comb(r, i) * math.comb(s, j) * (-ax) ** (r - i) * (-ay) ** (s - j)
                      * m ** (i + j) * (rm[n] // rm[i + j]) * raw(i, j))
    return total / (m ** n * rm[n])


# Correlation table layout: one row per (a11, a10, a01), one column per a00.
TABLE_ROW_PARAMS = (
    (10.0, 0.1, 0.1),
    (10.0, 10.0, 0.1), (10.0, 10.0, 0.5), (10.0, 10.0, 1.0),
    (10.0, 10.0, 2.0), (10.0, 10.0, 5.0),
    (5.0, 1.0, 1.0), (5.0, 10.0, 1.0), (5.0, 10.0, 2.0), (5.0, 10.0, 5.0),
    (2.0, 1.0, 1.0), (2.0, 10.0, 1.0), (2.0, 10.0, 2.0), (2.0, 10.0, 5.0),
    (1.0, 1.0, 1.0), (1.0, 10.0, 1.0), (1.0, 10.0, 2.0), (1.0, 10.0, 5.0),
    (0.5, 10.0, 0.1), (0.5, 10.0, 0.5), (0.5, 10.0, 1.0),
    (0.5, 10.0, 2.0), (0.5, 10.0, 5.0),
    (0.1, 10.0, 0.1), (0.1, 10.0, 0.5), (0.1, 10.0, 1.0),
    (0.1, 10.0, 2.0), (0.1, 10.0, 5.0),
)
TABLE_A00_COLUMNS = (10.0, 5.0, 2.0, 1.0, 0.5, 0.1)


def correlation_table():
    """All correlations of the reference sweep.

    Returns a list of 9-tuples: the three row parameters followed by the
    correlation at each a00 column.
    """
    rows = []
    for a11, a10, a01 in TABLE_ROW_PARAMS:
        corr = tuple(correlation(AlphaBivariate(a11, a10, a01, a00))
                     for a00 in TABLE_A00_COLUMNS)
        rows.append((a11, a10, a01) + corr)
    return rows
