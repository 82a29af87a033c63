"""Parameter containers and samplers for the shared-component construction.

A four-component Dirichlet vector ``(u11, u10, u01, u00)`` is collapsed to
``X = u11 + u10`` and ``Y = u11 + u01``.  Each margin is then a beta variable,
and the common share ``u11`` (together with the complementary share ``u00``)
is what makes the pair correlated.  The trivariate extension plays the same
game with eight shares, one per cell of a 2x2x2 table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "AlphaBivariate",
    "AlphaTrivariate",
    "RandomStream",
    "sample_dirichlet",
    "sample_bivariate",
    "sample_trivariate",
]

# samples are nudged into the open interval; astronomically rare underflow
# of a Dirichlet share would otherwise produce an exact 0 or 1
_OPEN_LO = float(np.nextafter(0.0, 1.0))
_OPEN_HI = float(np.nextafter(1.0, 0.0))


def _check_positive(name: str, value) -> float:
    """``value`` as a float: a Python or numpy int or float, finite and > 0;
    ``bool`` and strings are not numbers here."""
    try:
        ok = (not isinstance(value, bool)
              and isinstance(value, (int, float, np.integer, np.floating))
              and math.isfinite(value) and value > 0.0)
    except OverflowError:       # an int past the float range
        ok = False
    if not ok:
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def _check_count(name: str, value, least: int = 0) -> int:
    """``value`` as an int: a Python or numpy integer, not ``bool``, and at
    least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _check_seed(seed) -> int:
    """``seed`` as an int: a count below 2**64."""
    seed = _check_count("seed", seed)
    if seed >= 2 ** 64:
        raise DomainError(f"seed must be < 2**64, got {seed!r}")
    return seed


@dataclass(frozen=True)
class AlphaBivariate:
    """Dirichlet weights of the four shares, all strictly positive."""

    a11: float
    a10: float
    a01: float
    a00: float

    def __post_init__(self):
        for name in ("a11", "a10", "a01", "a00"):
            object.__setattr__(self, name, _check_positive(name, getattr(self, name)))

    @property
    def total(self) -> float:
        return self.a11 + self.a10 + self.a01 + self.a00

    # first/second beta parameters of the two margins
    @property
    def a1p(self) -> float:
        return self.a11 + self.a10

    @property
    def a0p(self) -> float:
        return self.a01 + self.a00

    @property
    def ap1(self) -> float:
        return self.a11 + self.a01

    @property
    def ap0(self) -> float:
        return self.a10 + self.a00

    def as_array(self) -> np.ndarray:
        return np.array([self.a11, self.a10, self.a01, self.a00])

    def swapped(self) -> "AlphaBivariate":
        """Weights of (Y, X): the two solo shares trade places."""
        return AlphaBivariate(self.a11, self.a01, self.a10, self.a00)

    def reflected(self) -> "AlphaBivariate":
        """Weights of (1-X, 1-Y): every share pairs with its complement."""
        return AlphaBivariate(self.a00, self.a01, self.a10, self.a11)


@dataclass(frozen=True)
class AlphaTrivariate:
    """Dirichlet weights of the eight shares of the 2x2x2 table."""

    a111: float
    a110: float
    a101: float
    a011: float
    a100: float
    a010: float
    a001: float
    a000: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, _check_positive(name, getattr(self, name)))

    @property
    def total(self) -> float:
        return float(np.sum(self.as_array()))

    def as_array(self) -> np.ndarray:
        return np.array([self.a111, self.a110, self.a101, self.a011,
                         self.a100, self.a010, self.a001, self.a000])

    def margin_xy(self) -> AlphaBivariate:
        """Collapse Z: shares aggregate by their (x, y) indices."""
        return AlphaBivariate(self.a111 + self.a110, self.a101 + self.a100,
                              self.a011 + self.a010, self.a001 + self.a000)

    def margin_xz(self) -> AlphaBivariate:
        return AlphaBivariate(self.a111 + self.a101, self.a110 + self.a100,
                              self.a011 + self.a001, self.a010 + self.a000)

    def margin_yz(self) -> AlphaBivariate:
        return AlphaBivariate(self.a111 + self.a011, self.a110 + self.a010,
                              self.a101 + self.a001, self.a100 + self.a000)


class RandomStream:
    """Deterministic random source keyed by a 64-bit seed.

    Wraps numpy's PCG64 generator: period 2**128, and the same seed always
    reproduces the same draw sequence bit for bit on a given install.
    """

    def __init__(self, seed: int):
        self.seed = _check_seed(seed)
        self._generator = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def __repr__(self):
        return f"RandomStream(seed={self.seed})"


def _row_totals(draws: np.ndarray) -> np.ndarray:
    """``draws.sum(axis=1)``, bit for bit.  numpy adds a row of fewer than 8
    entries in order, so ordered column adds give the same totals without
    its slow reduction along the short axis; from 8 entries on it sums
    pairwise, and that reduction is kept."""
    k = draws.shape[1]
    if k >= 8:
        return draws.sum(axis=1)
    totals = draws[:, 0] + draws[:, 1]
    for j in range(2, k):
        totals += draws[:, j]
    return totals


def _gamma_rows(a: np.ndarray, n: int, stream: RandomStream):
    """(n, k) independent Gamma(a_j) draws and their row totals."""
    draws = stream.generator.standard_gamma(a, size=(n, a.size))
    return draws, _row_totals(draws)


def _finite_rows(n: int, draw) -> np.ndarray:
    """``draw(n)``, an (n, k) array of sampled rows, with every row that
    holds a non-finite entry drawn again by ``draw(m)``, for the m such
    rows in order, up to 8 times; ``DomainError`` if one is still left.

    Such a row comes from gamma draws that all underflowed to 0, possible
    only for extreme tiny weights, and its 0/0 runs silently here.  One
    whole-array test passes the first draw; row indices are built only when
    it fails, from the flat indices of the bad entries.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = draw(n)
        if np.isfinite(out).all():
            return out
        todo, rows = np.arange(n), out
        for _ in range(8):
            todo = todo[np.unique(np.flatnonzero(~np.isfinite(rows)) // rows.shape[1])]
            rows = draw(todo.size)
            out[todo] = rows
            if np.isfinite(rows).all():
                return out
    raise DomainError("sampler kept producing degenerate gamma draws")


def sample_dirichlet(alphas, stream: RandomStream, size=None):
    """Dirichlet draws: independent gamma draws, each row divided by its
    total, so a row sums to 1 up to rounding.

    ``alphas`` is a length-k sequence of positive reals.  Returns shape (k,)
    when ``size`` is None, else (size, k); ``size`` must be a non-negative
    integer.
    """
    a = np.asarray([_check_positive("alpha component", v) for v in alphas])
    if a.size < 2:
        raise DomainError("sample_dirichlet needs at least two components")
    n = 1 if size is None else _check_count("size", size)

    def draw(m):
        draws, totals = _gamma_rows(a, m, stream)
        draws /= totals[:, None]
        return draws

    draws = _finite_rows(n, draw)
    return draws[0] if size is None else draws


def _sum_shares(a: np.ndarray, n: int, stream: RandomStream, cells) -> np.ndarray:
    """n Dirichlet(a) rows collapsed to one column per entry of ``cells``,
    each the left-to-right sum of the shares it lists, clipped into (0, 1).

    Only the shares some cell uses are divided by the row total, in place,
    and the sums are written straight into the output.
    """
    def draw(m):
        draws, totals = _gamma_rows(a, m, stream)
        for j in sorted({j for cell in cells for j in cell}):
            np.divide(draws[:, j], totals, out=draws[:, j])
        out = np.empty((m, len(cells)))
        for col, (first, second, *rest) in enumerate(cells):
            np.add(draws[:, first], draws[:, second], out=out[:, col])
            for j in rest:
                out[:, col] += draws[:, j]
        return out

    out = _finite_rows(n, draw)
    return np.clip(out, _OPEN_LO, _OPEN_HI, out=out)


def sample_bivariate(alpha: AlphaBivariate, n: int, stream: RandomStream) -> np.ndarray:
    """n independent (x, y) pairs as an (n, 2) array, all inside (0, 1)."""
    n = _check_count("n", n)
    return _sum_shares(alpha.as_array(), n, stream, ((0, 1), (0, 2)))


def sample_trivariate(alpha: AlphaTrivariate, n: int, stream: RandomStream) -> np.ndarray:
    """n independent (x, y, z) triples as an (n, 3) array, all inside (0, 1)."""
    n = _check_count("n", n)
    return _sum_shares(alpha.as_array(), n, stream, ((0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 6)))
