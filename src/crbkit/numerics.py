"""Shared numerical rules: quadrature, the normal tail and its inverse,
Poisson probabilities and 1-D maximization.

Importing this module loads no SciPy, so neither does ``import
crbkit.cli``: :func:`normal_upper_tail` is built on ``math.erf``, and
:func:`erf_inverse` polishes M. Giles' single-precision start ("Approximating
the erfinv function", GPU Computing Gems, 2011) by Halley steps on
``math.erf`` and ``math.erfc``. The two Poisson oracles, which no CLI verb
calls, load ``scipy.special`` when first called: :func:`poisson_pmf_table`
uses ``gammaln``, and :func:`poisson_isf` is the exact Poisson upper
quantile that ``scipy.stats.poisson.isf`` returns, built from ``pdtrik``
and ``pdtr`` the way scipy builds it. All routines are pure and
deterministic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureFailure

__all__ = [
    "adaptive_simpson",
    "erf_inverse",
    "gauss_legendre",
    "golden_section_max",
    "normal_upper_tail",
    "poisson_isf",
    "poisson_pmf_table",
]


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Read-only nodes and weights of the ``n``-point rule on [-1, 1]."""
    nodes, weights = leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def adaptive_simpson(f, a: float, b: float, rel_tol: float = 1e-10,
                     panel_budget: int = 1_000_000) -> float:
    """Integrate ``f`` over ``[a, b]`` by adaptive Simpson subdivision.

    The tolerance is relative to the running magnitude of the integral.
    Raises :class:`QuadratureFailure` when the panel budget is exhausted
    before every interval meets its share of the tolerance.
    """
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, rel_tol, panel_budget)

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = simpson(a, b, fa, fm, fb)
    # Crude magnitude scale; refreshed as the estimate improves.
    scale = max(abs(whole), 1e-300)

    # Stack of (x0, x2, f0, f1, f2, coarse_estimate, local_tol).
    stack = [(a, b, fa, fm, fb, whole, rel_tol * scale)]
    total = 0.0
    panels = 0
    while stack:
        x0, x2, f0, f1, f2, coarse, tol = stack.pop()
        panels += 1
        if panels > panel_budget:
            raise QuadratureFailure(
                f"panel budget {panel_budget} exhausted on [{a}, {b}]")
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        fine = left + right
        err = (fine - coarse) / 15.0
        if abs(err) <= tol or (x2 - x0) < 1e-14 * (b - a):
            total += fine + err
        else:
            half = 0.5 * tol
            stack.append((x0, xm, f0, fl, f1, left, half))
            stack.append((xm, x2, f1, fr, f2, right, half))
    return total


_erf = np.vectorize(math.erf, otypes=[float])


def normal_upper_tail(x):
    """Standard normal mass above ``x`` (scalar or array, elementwise)."""
    return 0.5 * (1.0 - _erf(x / math.sqrt(2.0)))


# Giles' single-precision erfinv(y) / y: a polynomial in w - 2.5 for
# w = -log(1 - y^2) < 5, and in sqrt(w) - 3 beyond, highest power first
_GILES_CENTRAL = (2.81022636e-08, 3.43273939e-07, -3.5233877e-06,
                  -4.39150654e-06, 2.1858087e-04, -1.25372503e-03,
                  -4.17768164e-03, 2.46640727e-01, 1.50140941)
_GILES_TAIL = (-2.00214257e-04, 1.00950558e-04, 1.34934322e-03,
               -3.67342844e-03, 5.73950773e-03, -7.6224613e-03,
               9.43887047e-03, 1.00167406, 2.83297682)


def erf_inverse(y: float) -> float:
    """Inverse error function on (-1, 1).

    Giles' start for ``|y|``, then Halley steps on ``erf(x) - |y|``, or on
    ``(1 - |y|) - erfc(x)`` above ``|y| = 0.5`` where ``1 - |y|`` is exact.
    The steps stop once one falls below an ulp of ``x`` or stops shrinking
    (the round-off floor of ``math.erf``); the result is odd in ``y``.
    """
    if not -1.0 < y < 1.0:
        raise ValueError(f"erf_inverse argument must be in (-1, 1), got {y}")
    t = abs(float(y))
    w = -math.log((1.0 - t) * (1.0 + t))
    if w < 5.0:
        w, coeffs = w - 2.5, _GILES_CENTRAL
    else:
        w, coeffs = math.sqrt(w) - 3.0, _GILES_TAIL
    p = 0.0
    for c in coeffs:
        p = p * w + c
    x = p * t
    q = 1.0 - t
    step = math.inf
    while abs(step) >= math.ulp(x):
        r = q - math.erfc(x) if t > 0.5 else math.erf(x) - t
        newton = r * (0.5 * math.sqrt(math.pi)) * math.exp(x * x)
        halley = newton / (1.0 + x * newton)
        if not abs(halley) < abs(step):
            break
        x -= halley
        step = halley
    return math.copysign(x, y)


def poisson_isf(q: float, mu: float) -> int:
    """Smallest ``k`` with ``P(X > k) <= q`` for ``X ~ Poisson(mu)``.

    Equals ``scipy.stats.poisson.isf(q, mu)`` for ``0 < q < 1`` and
    ``mu > 0``, by scipy's own quantile rule at ``p = 1 - q``: start at
    ``ceil(pdtrik(p, mu))`` and step down once when the CDF one below
    already reaches ``p``.
    """
    from scipy.special import pdtr, pdtrik

    p = 1.0 - q
    k = math.ceil(pdtrik(p, mu))
    return k - 1 if k > 0 and pdtr(k - 1, mu) >= p else k


def poisson_pmf_table(mu, y_max: int) -> np.ndarray:
    """Poisson pmf ``P[..., y]`` of every mean in ``mu`` at ``y = 0 … y_max``.

    A mean at or below zero is a dark signal: all its mass sits at ``y = 0``.
    """
    from scipy.special import gammaln

    mu = np.asarray(mu, dtype=float)[..., None]
    y = np.arange(y_max + 1, dtype=float)
    lit = mu > 0.0
    table = np.exp(y * np.log(np.where(lit, mu, 1.0)) - mu - gammaln(y + 1.0))
    return np.where(lit, table, y == 0.0)


def golden_section_max(f, lo: float, hi: float, abs_tol: float = 1e-8):
    """Maximize a unimodal ``f`` on ``[lo, hi]`` by golden-section search.

    Returns ``(x_best, f_best)``. Tolerance is absolute in ``x``.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > abs_tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd

