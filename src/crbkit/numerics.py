"""Shared numerical rules: quadrature, the normal tail and its inverse,
Poisson probabilities, NumPy's Poisson sampler on counter-based substreams
and 1-D maximization.

Importing this module loads no SciPy, so neither does ``import
crbkit.cli``: :func:`normal_upper_tail` is built on ``math.erf``, and
:func:`erf_inverse` polishes M. Giles' single-precision start ("Approximating
the erfinv function", GPU Computing Gems, 2011) by Halley steps on
``math.erf`` and ``math.erfc``. :func:`poisson_pmf_table` takes its
log-gamma from the sampler's own Stirling series (NumPy's
``random_loggam``). Only :func:`poisson_isf`, which no CLI verb calls, loads
``scipy.special`` when first called: it is the exact Poisson upper quantile
that ``scipy.stats.poisson.isf`` returns, built from ``pdtrik`` and ``pdtr``
the way scipy builds it. All routines are pure and deterministic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, QuadratureFailure

__all__ = [
    "adaptive_simpson",
    "erf_inverse",
    "gauss_legendre",
    "golden_section_max",
    "normal_upper_tail",
    "poisson_isf",
    "poisson_pmf_table",
    "poisson_substreams",
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
    mu = np.asarray(mu, dtype=float)[..., None]
    y = np.arange(y_max + 1, dtype=float)
    lit = mu > 0.0
    table = np.exp(y * np.log(np.where(lit, mu, 1.0)) - mu
                   - _loggam(y + 1.0, np.log))
    return np.where(lit, table, y == 0.0)


# -- NumPy's Poisson sampler, batched over counter-based substreams -----------

_MASK64 = 2 ** 64 - 1
_LO32 = np.uint64(2 ** 32 - 1)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
# Philox4x64-10 (Salmon et al., SC'11): multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# NumPy's random_loggam: Stirling series coefficients, log(2 pi) / 2, and
# log(6), ..., log(3) subtracted below x = 7 (x = 1 and 2 give 0 anyway)
_LOGGAM_COEFFS = (-1.39243221690590e+00, 1.796443723688307e-01,
                  -2.955065359477124e-02, 6.410256410256410e-03,
                  -1.917526917526918e-03, 8.417508417508418e-04,
                  -5.952380952380952e-04, 7.936507936507937e-04,
                  -2.777777777777778e-03, 8.333333333333333e-02)
_HALF_LOG_2PI = 0.5 * 1.8378770664093453
_LOG_BELOW_7 = tuple(math.log(7.0 - j) for j in range(1, 5))
# NumPy's Generator.poisson rejects means above this
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max
                         - np.sqrt(np.iinfo(np.int64).max) * 10)
_libm_log = np.vectorize(math.log, otypes=[float])
# draws per pass of the sampler: its working arrays stay near 0.5 MB, and
# the peak memory of a 10 000-draw batch matches NumPy's one-draw loop
_DRAWS_PER_PASS = 2048


def _mulhilo(m, x):
    """High and low words of the 128-bit products ``m * x`` in ``uint64``:
    ``m`` holds one 64-bit multiplier per row of ``x``, split in 32-bit
    halves so that no partial product overflows. The sums are in place,
    which keeps the temporaries few."""
    m_lo, m_hi = m & _LO32, m >> _SHIFT32
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    ll = m_lo * x_lo
    mid = m_hi * x_lo
    mid += ll >> _SHIFT32
    ll = np.multiply(m_lo, x_hi, out=ll)
    ll += mid & _LO32
    hi = np.multiply(m_hi, x_hi, out=x_hi)
    hi += mid >> _SHIFT32
    hi += ll >> _SHIFT32
    return hi, np.multiply(m, x, out=x_lo)


def _philox_uniforms(seed: int, block: int, draws, n_comp: int) -> np.ndarray:
    """Uniforms ``(4, n)`` of NumPy's ``Philox(key=seed)`` at the counters
    ``[block, 0, s, i]`` of the draws ``s * n_comp + i``: word ``w`` of each
    output block as ``(w >> 11) * 2**-53``, as ``Generator.random`` turns
    it into a double.

    A fresh ``Philox(key=seed, counter=[0, 0, s, i])`` increments word 0
    before every 4-word block, so its ``b``-th block is this function at
    ``block = b``.
    """
    keys = [[int(seed), 0]]
    for _ in range(9):
        keys.append([(k + w) & _MASK64 for k, w in zip(keys[-1], _PHILOX_W)])
    keys = np.array(keys, dtype=np.uint64)[:, :, None]
    mult = np.array(_PHILOX_M, dtype=np.uint64)[:, None]
    sample, comp = np.divmod(draws, n_comp)
    even = np.stack([np.full_like(sample, block), sample]).astype(np.uint64)
    odd = np.stack([np.zeros_like(comp), comp]).astype(np.uint64)
    for key in keys:
        hi, lo = _mulhilo(mult, even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    words = np.stack([even, odd], axis=1).reshape(4, -1)
    return (words >> _SHIFT11) * 2.0 ** -53


def _loggam(x, log):
    """NumPy's ``random_loggam(x)`` for whole numbers ``x >= 1`` (array),
    with ``log`` for its one variable logarithm."""
    x0 = np.maximum(x, 7.0)
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_COEFFS[0]
    for c in _LOGGAM_COEFFS[1:]:
        gl0 = gl0 * x2 + c
    gl = gl0 / x0 + _HALF_LOG_2PI + (x0 - 0.5) * log(x0) - x0
    for j, log_j in enumerate(_LOG_BELOW_7, start=1):
        gl = np.where(x <= 7.0 - j, gl - log_j, gl)
    return np.where(x <= 2.0, 0.0, gl)


def _ptrs_sides(v, us, k, c, ci, log):
    """Both sides of the PTRS log-acceptance test, and the size of the
    terms that cancel in its right side."""
    lam, loglam, b, a, log_inv_alpha, _ = (row[ci] for row in c)
    gam = _loggam(k + 1.0, log)
    lhs = log(v) + log_inv_alpha - log(a / (us * us) + b)
    k_log = k * loglam
    return lhs, -lam + k_log - gam, lam + k_log + gam


def _ptrs_attempt(u, v, c, ci):
    """One PTRS attempt per draw from the uniforms ``u``, ``v``, with the
    constants ``c[:, ci]`` of its mean: the candidate count (a float) and
    whether it is accepted."""
    lam, _, b, a, _, vr = c
    u = u - 0.5
    us = 0.5 - np.abs(u)
    k = np.floor((2 * a[ci] / us + b[ci]) * u + lam[ci] + 0.43)
    accept = (us >= 0.07) & (v <= vr[ci])
    slow = np.flatnonzero(~accept & (k >= 0) & ~((us < 0.013) & (v > us)))
    if slow.size:
        v, us, k_slow, ci = v[slow], us[slow], k[slow], ci[slow]
        lhs, rhs, scale = _ptrs_sides(v, us, k_slow, c, ci, np.log)
        # np.log may differ from libm's log by a few ulp: decide the draws
        # that close to the boundary again with libm, as NumPy's C does
        near = np.flatnonzero(np.abs(lhs - rhs) <= 1e-12 * scale)
        if near.size:
            lhs[near], rhs[near], _ = _ptrs_sides(
                v[near], us[near], k_slow[near], c, ci[near], _libm_log)
        accept[slow] = lhs <= rhs
    return k, accept


def poisson_substreams(means, seed: int, count: int) -> np.ndarray:
    """Poisson draws ``out[s, i]`` of mean ``means[i]``, ``(count, J)``.

    Each is the first variate that ``Generator.poisson`` draws from a fresh
    ``Philox(key=seed, counter=[0, 0, s, i])``, reproduced bit for bit by
    NumPy's own ``random_poisson`` on arrays: 0 for a zero mean, the
    multiplication method below 10 and Hörmann's transformed rejection
    (PTRS, Insurance: Math. Econ. 12, 1993) from 10 up. Per-mean constants
    come from ``math``, which is libm, as in NumPy's C. Each method runs on
    all of its draws at once, in passes of about :data:`_DRAWS_PER_PASS`
    draws, so the working memory does not grow with ``count``.
    """
    means = [float(m) for m in means]
    if not all(0.0 <= m <= _POISSON_LAM_MAX for m in means):
        raise DomainError(f"Poisson means must lie in [0, {_POISSON_LAM_MAX:g}]"
                          f"; the largest is {max(means):g}")
    n_comp = len(means)
    lam = np.array(means)
    out = np.zeros((count, n_comp), dtype=np.int64)
    for method, use in ((_poisson_mult, (lam > 0.0) & (lam < 10.0)),
                        (_poisson_ptrs, lam >= 10.0)):
        comps = np.flatnonzero(use)
        if not comps.size:
            continue
        step = max(1, _DRAWS_PER_PASS // comps.size)
        for first in range(0, count, step):
            samples = np.arange(first, min(first + step, count))
            draws = (samples[:, None] * n_comp + comps).ravel()
            out.flat[draws] = method(means, seed, draws, n_comp)
    return out


def _poisson_mult(means, seed, draws, n_comp):
    """Multiplication method: the number of uniforms whose running product
    stays above ``exp(-mean)``, one Philox block of four at a time."""
    exp_neg = np.array([math.exp(-m) for m in means])
    count, prod = np.zeros(len(draws), dtype=np.int64), np.ones(len(draws))
    live, block = np.arange(len(draws)), 1
    while live.size:
        u = _philox_uniforms(seed, block, draws[live], n_comp)
        u[0] *= prod
        np.cumprod(u, axis=0, out=u)        # the C loop's left-to-right product
        steps = np.count_nonzero(u > exp_neg[draws[live] % n_comp], axis=0)
        count[live] += steps
        more = steps == 4
        live, prod, block = live[more], u[3, more], block + 1
    return count


def _poisson_ptrs(means, seed, draws, n_comp):
    """PTRS: two attempts per Philox block, ``(u, v)`` from words 0, 1 and
    then 2, 3, until one is accepted."""
    consts = np.zeros((6, n_comp))
    for i, m in enumerate(means):
        if m < 10.0:
            continue
        b = 0.931 + 2.53 * math.sqrt(m)
        a = -0.059 + 0.02483 * b
        consts[:, i] = (m, math.log(m), b, a,
                        math.log(1.1239 + 1.1328 / (b - 3.4)),
                        0.9277 - 3.6224 / (b - 2))
    k_out = np.empty(len(draws), dtype=np.int64)
    live, block = np.arange(len(draws)), 1
    with np.errstate(divide="ignore"):      # us = 0 or v = 0, as in C
        while live.size:
            u = _philox_uniforms(seed, block, draws[live], n_comp)
            ci = draws[live] % n_comp
            k, done = _ptrs_attempt(u[0], u[1], consts, ci)
            retry = np.flatnonzero(~done)
            k[retry], done[retry] = _ptrs_attempt(u[2, retry], u[3, retry],
                                                  consts, ci[retry])
            k_out[live[done]] = k[done]
            live, block = live[~done], block + 1
    return k_out


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

