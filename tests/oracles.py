"""Independent numerical oracles used only by the tests.

Deliberately implemented by different methods than the library: fixed-order
Gauss-Legendre panels on a dyadic subdivision instead of a variable
transformation, truncated power series instead of integral representations,
and a brute-force Riemann sum for the density.  Agreement between the two
code paths is then meaningful evidence.
"""

import math

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def gauss_legendre_unit(f, depth: int = 48) -> float:
    """Integral of f over (0,1) on dyadic panels accumulating at both ends.

    The untouched slivers (0, 2**-depth) and (1 - 2**-depth, 1) are dropped,
    so this oracle is only trustworthy when the integrand vanishes (or at
    least stays bounded) at the endpoints.
    """
    lower = [0.5 ** k for k in range(depth, 0, -1)]
    edges = lower + [1.0 - e for e in reversed(lower[:-1])]
    total = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t = mid + half * _GL_NODES
        total.append(half * float(np.dot(_GL_WEIGHTS, f(t))))
    return math.fsum(total)


def hyp2f1_series(a: float, b: float, c: float, z: float,
                  tol: float = 1e-14, max_terms: int = 200000) -> float:
    """Gauss hypergeometric by direct power series, Pfaff-mapped for z < 0."""
    if z < 0.0:
        # 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)), argument in (0,1)
        return (1.0 - z) ** (-a) * hyp2f1_series(a, c - b, c, z / (z - 1.0),
                                                 tol=tol, max_terms=max_terms)
    if not 0.0 <= z < 1.0:
        raise ValueError(f"series oracle needs z < 1, got {z}")
    term, total = 1.0, 1.0
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= tol * max(abs(total), 1e-300) and n > 4:
            return total
    raise RuntimeError("hyp2f1 series did not settle")


def appell_f1_series(a: float, b1: float, b2: float, c: float,
                     z1: float, z2: float, tol: float = 1e-13,
                     max_rows: int = 20000, max_cols: int = 20000) -> float:
    """Appell F1 by its double power series; needs |z1| < 1 and |z2| < 1.

    Row m carries the z1 power; each row is summed over the z2 powers with a
    term recurrence, so no factorials are ever formed explicitly.
    """
    if not (abs(z1) < 1.0 and abs(z2) < 1.0):
        raise ValueError("double series needs |z1| < 1 and |z2| < 1")
    total = 0.0
    row_lead = 1.0  # (a)_m (b1)_m / ((c)_m m!) z1^m
    quiet = 0
    for m in range(max_rows):
        term = row_lead
        row_sum = term
        for n in range(max_cols):
            term *= (a + m + n) * (b2 + n) / ((c + m + n) * (n + 1.0)) * z2
            row_sum += term
            if abs(term) <= tol * max(abs(row_sum), 1e-300) and n > 4:
                break
        else:
            raise RuntimeError("F1 inner series did not settle")
        total += row_sum
        if abs(row_sum) <= tol * max(abs(total), 1e-300):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
        row_lead *= (a + m) * (b1 + m) / ((c + m) * (m + 1.0)) * z1
    raise RuntimeError("F1 outer series did not settle")


def density_riemann(alpha_tuple, x: float, y: float, panels: int = 200001) -> float:
    """Brute-force midpoint Riemann sum of the defining share integral.

    Slow and only first-order accurate; useful as a sanity anchor at points
    where the integrand is not singular at the active endpoints.
    """
    a11, a10, a01, a00 = alpha_tuple
    lo = max(0.0, x + y - 1.0)
    hi = min(x, y)
    u = np.linspace(lo, hi, panels + 1)
    u = 0.5 * (u[1:] + u[:-1])
    h = (hi - lo) / panels
    ln_b = (math.lgamma(a11) + math.lgamma(a10) + math.lgamma(a01)
            + math.lgamma(a00) - math.lgamma(a11 + a10 + a01 + a00))
    vals = (np.power(u, a11 - 1.0) * np.power(x - u, a10 - 1.0)
            * np.power(y - u, a01 - 1.0) * np.power(1.0 - x - y + u, a00 - 1.0))
    return float(vals.sum() * h * math.exp(-ln_b))




def density_mpmath(alpha_tuple, x: float, y: float, dps: int = 20) -> float:
    """The defining share integral in ``dps``-digit mpmath arithmetic.

    ``x`` and ``y`` enter as their exact binary values.  Each half of the
    share range is integrated in the distance ``s`` from its end, so the
    factor that vanishes there is ``s`` itself and the one that nearly
    vanishes is ``gap + s``, with ``gap`` the exact distance to the cut line
    (``|x + y - 1|`` at the lower end, ``|x - y|`` at the upper).  Where the
    vanishing factor's exponent ``E`` is negative, ``s = w**(1/(E+1))`` takes
    out the endpoint singularity.  The range is cut where
    ``s = gap * 1000**k``, so no piece is more than 1000 times longer than
    its distance from the nearest zero.  Each piece is scaled to order one
    before it is integrated, since mpmath's rule stops on an absolute error.
    Raises ``ValueError`` for a point on a cut line.
    """
    import mpmath

    with mpmath.workdps(dps):
        e11, e10, e01, e00 = (mpmath.mpf(a) - 1 for a in alpha_tuple)   # exponents
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        d = x + y - 1
        lo, hi = max(mpmath.mpf(0), d), min(x, y)
        half = (hi - lo) / 2
        total = mpmath.mpf(0)
        # each end: factors (value at the end, slope in s, exponent), with
        # u = lo + s or u = hi - s; the value is exactly 0 for the vanishing one
        for factors in (((lo, 1, e11), (x - lo, -1, e10), (y - lo, -1, e01), (lo - d, 1, e00)),
                        ((hi, -1, e11), (x - hi, 1, e10), (y - hi, 1, e01), (hi - d, -1, e00))):
            rest = [f for f in factors if f[0] != 0]
            if len(rest) != 3:
                raise ValueError("the mpmath oracle needs a point off the cut lines")
            big_e = sum(e for c, _, e in factors if c == 0)
            gap = min(c for c, slope, _ in rest if slope > 0)
            # w = s**k, with k = E + 1 where E < 0, turns s**E ds into dw / k
            k, power = (big_e + 1, 0) if big_e < 0 else (1, big_e)

            def g(w, rest=rest, k=k, power=power):
                s = w ** (1 / k)
                out = s ** power / k
                for c, slope, e in rest:
                    out *= (c + slope * s) ** e
                return out

            cuts = [mpmath.mpf(0)]
            step = gap
            while step < half:
                cuts.append(step ** k)
                step *= 1000
            cuts.append(half ** k)
            for a, b in zip(cuts[:-1], cuts[1:]):
                # mpmath's quad stops on an absolute error: bring each piece to O(1)
                size = max(g((a + b) / 2), g(b))
                total += size * mpmath.quad(lambda w: g(w) / size, [a, b])
        ln_b = (sum(mpmath.loggamma(e + 1) for e in (e11, e10, e01, e00))
                - mpmath.loggamma(e11 + e10 + e01 + e00 + 4))
        return float(total * mpmath.exp(-ln_b))


def central_moment_mpmath(alpha_tuple, r: int, s: int, dps: int = 50) -> float:
    """E[(X - EX)**r * (Y - EY)**s] in ``dps``-digit mpmath arithmetic.

    The binomial expansion over raw moments, each a sum of Dirichlet
    moments (ratios of rising factorials), with the weights entering as
    their exact binary values.  The expansion cancels, so ``dps`` must
    exceed 16 by the number of digits it loses.
    """
    import mpmath

    def rising(a, k):
        return mpmath.fprod(a + i for i in range(k))

    with mpmath.workdps(dps):
        a11, a10, a01, a00 = (mpmath.mpf(a) for a in alpha_tuple)
        m = a11 + a10 + a01 + a00
        mu_x, mu_y = (a11 + a10) / m, (a11 + a01) / m
        total = mpmath.mpf(0)
        for i in range(r + 1):
            for j in range(s + 1):
                raw = mpmath.fsum(math.comb(i, p) * math.comb(j, q) * rising(a11, p + q)
                                  * rising(a10, i - p) * rising(a01, j - q)
                                  for p in range(i + 1) for q in range(j + 1)) / rising(m, i + j)
                total += (math.comb(r, i) * math.comb(s, j)
                          * (-mu_x) ** (r - i) * (-mu_y) ** (s - j) * raw)
        return float(total)
