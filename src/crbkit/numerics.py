"""Shared numerical rules: quadrature, the normal tail and its inverse,
Poisson probabilities and 1-D maximization.

This is the one module that imports SciPy, and it takes ``scipy.special``
alone: :func:`normal_upper_tail` is built on ``erf``, :func:`erf_inverse`
is ``erfinv``, :func:`poisson_pmf_table` uses ``gammaln``, and
:func:`poisson_isf` is the exact Poisson upper quantile that
``scipy.stats.poisson.isf`` returns, built from ``pdtrik`` and ``pdtr``
the way scipy builds it. Neither ``scipy.stats`` nor ``scipy.optimize`` is
imported; together they would more than double the package's import time.
All routines are pure and deterministic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import erf, erfinv, gammaln, pdtr, pdtrik

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
    nodes, weights = np.polynomial.legendre.leggauss(n)
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


def normal_upper_tail(x):
    """Standard normal mass above ``x`` (scalar or array)."""
    return 0.5 * (1.0 - erf(x / math.sqrt(2.0)))


def erf_inverse(y: float) -> float:
    """Inverse error function on (-1, 1), by ``scipy.special.erfinv``."""
    if not -1.0 < y < 1.0:
        raise ValueError(f"erf_inverse argument must be in (-1, 1), got {y}")
    return float(erfinv(y))


def poisson_isf(q: float, mu: float) -> int:
    """Smallest ``k`` with ``P(X > k) <= q`` for ``X ~ Poisson(mu)``.

    Equals ``scipy.stats.poisson.isf(q, mu)`` for ``0 < q < 1`` and
    ``mu > 0``, by scipy's own quantile rule at ``p = 1 - q``: start at
    ``ceil(pdtrik(p, mu))`` and step down once when the CDF one below
    already reaches ``p``.
    """
    p = 1.0 - q
    k = math.ceil(pdtrik(p, mu))
    return k - 1 if k > 0 and pdtr(k - 1, mu) >= p else k


def poisson_pmf_table(mu, y_max: int) -> np.ndarray:
    """Poisson pmf ``P[..., y]`` of every mean in ``mu`` at ``y = 0 … y_max``.

    A mean at or below zero is a dark signal: all its mass sits at ``y = 0``.
    """
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

