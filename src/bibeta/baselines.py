"""Classical bivariate beta constructions used for comparison.

Two gamma-ratio families with a shared denominator component (one with
free rates, one reduced to three parameters), plus the five-gamma
construction whose density has no closed form and is provided as a
sampler only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import (_OPEN_HI, _OPEN_LO, RandomStream, _check_count, _check_positive,
                           _finite_rows)
from .density import _require_inside
from .special import ln_beta_multi

__all__ = [
    "LibbyNovickParams",
    "ArnoldParams",
    "sample_libby_novick",
    "pdf_libby_novick",
    "pdf_three_param",
    "sample_arnold",
]


@dataclass(frozen=True)
class LibbyNovickParams:
    """Shapes a0, a1, a2 and rates b0, b1, b2 of the three source gammas.

    The shared gamma (index 0) sits in both denominators; only the rate
    ratios lambda1 = b1/b0 and lambda2 = b2/b0 enter the density.
    """

    a0: float
    a1: float
    a2: float
    b0: float = 1.0
    b1: float = 1.0
    b2: float = 1.0

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "b0", "b1", "b2"):
            object.__setattr__(self, name, _check_positive(name, getattr(self, name)))

    @property
    def lambda1(self) -> float:
        return self.b1 / self.b0

    @property
    def lambda2(self) -> float:
        return self.b2 / self.b0


@dataclass(frozen=True)
class ArnoldParams:
    """Shapes of the five unit-scale source gammas."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a5"):
            object.__setattr__(self, name, _check_positive(name, getattr(self, name)))


def _gamma_ratio_pairs(n, stream: RandomStream, shapes, ratios) -> np.ndarray:
    """n pairs ``ratios(*g)`` of unit-scale Gamma(shape) draws ``g``, one
    array per entry of ``shapes``, drawn in that order.

    A pair that comes out non-finite (every gamma of a ratio underflowed to
    0) is drawn again, up to 8 times.  The pairs are clipped into the open
    unit square.
    """
    def draw(m):
        return np.column_stack(ratios(*(stream.generator.standard_gamma(a, size=m)
                                        for a in shapes)))

    return np.clip(_finite_rows(_check_count("n", n, 1), draw), _OPEN_LO, _OPEN_HI)


def sample_libby_novick(p: LibbyNovickParams, n: int, stream: RandomStream) -> np.ndarray:
    """Draw n pairs as ratios G1/(G1+G0), G2/(G2+G0)."""
    def ratios(g0, g1, g2):
        g0, g1, g2 = g0 / p.b0, g1 / p.b1, g2 / p.b2
        return g1 / (g1 + g0), g2 / (g2 + g0)

    return _gamma_ratio_pairs(n, stream, (p.a0, p.a1, p.a2), ratios)


def pdf_libby_novick(p: LibbyNovickParams, x: float, y: float) -> float:
    """Density of the shared-denominator gamma-ratio pair at (x, y)."""
    x, y = float(x), float(y)
    _require_inside(x, y)
    l1, l2 = p.lambda1, p.lambda2
    s = p.a0 + p.a1 + p.a2
    ln_f = (-ln_beta_multi((p.a0, p.a1, p.a2))
            + p.a1 * math.log(l1) + (p.a1 - 1.0) * math.log(x) - (p.a1 + 1.0) * math.log1p(-x)
            + p.a2 * math.log(l2) + (p.a2 - 1.0) * math.log(y) - (p.a2 + 1.0) * math.log1p(-y)
            - s * math.log1p(l1 * x / (1.0 - x) + l2 * y / (1.0 - y)))
    return math.exp(ln_f)


def pdf_three_param(a0: float, a1: float, a2: float, x: float, y: float) -> float:
    """Density of the equal-rates reduction, with denominator (1-xy)^(a0+a1+a2)."""
    a0, a1, a2 = (_check_positive(f"a{i}", v) for i, v in enumerate((a0, a1, a2)))
    x, y = float(x), float(y)
    _require_inside(x, y)
    s = a0 + a1 + a2
    ln_f = (-ln_beta_multi((a0, a1, a2))
            + (a1 - 1.0) * math.log(x) + (a0 + a2 - 1.0) * math.log1p(-x)
            + (a2 - 1.0) * math.log(y) + (a0 + a1 - 1.0) * math.log1p(-y)
            - s * math.log1p(-x * y))
    return math.exp(ln_f)


def sample_arnold(p: ArnoldParams, n: int, stream: RandomStream) -> np.ndarray:
    """Draw n pairs from the five-gamma construction.

    X = (G1+G3)/(G1+G3+G4+G5) and Y = (G2+G4)/(G2+G3+G4+G5).  The pair
    density has no closed form, so this family is sampler-only.
    """
    def ratios(g1, g2, g3, g4, g5):
        return (g1 + g3) / (g1 + g3 + g4 + g5), (g2 + g4) / (g2 + g3 + g4 + g5)

    return _gamma_ratio_pairs(n, stream, (p.a1, p.a2, p.a3, p.a4, p.a5), ratios)
