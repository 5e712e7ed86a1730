"""Shared numerical rules: quadrature, the normal tail, Poisson
probabilities, NumPy's Poisson sampler on counter-based substreams and
1-D maximization over many brackets at once.

The package needs NumPy and the standard library only:
:func:`normal_upper_tail` is built on ``math.erfc``, the shrink takes its
normal quantile from ``statistics.NormalDist``, :func:`poisson_pmf_table`
takes its log-gamma from the sampler's own Stirling series (NumPy's
``random_loggam``), and :func:`poisson_tail_bound` is a closed-form
Bernstein cut-off. All routines are pure and deterministic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, DomainError, QuadratureFailure

__all__ = [
    "adaptive_simpson",
    "gauss_legendre",
    "golden_section_max",
    "normal_upper_tail",
    "poisson_pmf_table",
    "poisson_substreams",
    "poisson_tail_bound",
]


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Read-only nodes and weights of the ``n``-point rule on [-1, 1]."""
    nodes, weights = leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def adaptive_simpson(f, a: float, b: float, n: int = 1,
                     rel_tol: float = 1e-10,
                     panel_budget: int = 1_000_000) -> np.ndarray:
    """Integrate ``f(x, i)`` over ``[a, b]`` for ``i = 0 .. n-1`` by
    adaptive Simpson subdivision; returns the ``n`` integrals.

    ``f`` takes equal-shape arrays of abscissae and integrand indices. All
    open panels of all integrals are refined together, one ``f`` call per
    level. A panel is accepted when its Richardson error is within its
    tolerance (``rel_tol`` times the size of the integral's first Simpson
    estimate, halved at each split) or it is narrower than ``1e-14 (b - a)``.
    Each integral sums its accepted panels one at a time from right to left,
    so its result does not depend on the other integrals of the call.
    Raises :class:`QuadratureFailure` before a level would take an integral
    past ``panel_budget`` panels.
    """
    if a == b:
        return np.zeros(n)
    if b < a:
        return -adaptive_simpson(f, b, a, n, rel_tol, panel_budget)
    a, b = float(a), float(b)
    owner = np.arange(n)
    f0, f1, f2 = f(np.repeat([a, 0.5 * (a + b), b], n),
                   np.tile(owner, 3)).reshape(3, n)
    x0, x2 = np.full(n, a), np.full(n, b)
    coarse = (b - a) / 6.0 * (f0 + 4.0 * f1 + f2)
    tol = rel_tol * np.maximum(np.abs(coarse), 1e-300)
    used = np.zeros(n, dtype=int)
    accepted = []      # (x0, fine + err, owner) of the accepted panels
    while owner.size:
        used += np.bincount(owner, minlength=n)
        over = np.flatnonzero(used > panel_budget)
        if over.size:
            raise QuadratureFailure(f"panel budget {panel_budget} exhausted "
                                    f"on [{a}, {b}] by integral {over[0]}")
        xm = 0.5 * (x0 + x2)
        fl, fr = f(np.concatenate([0.5 * (x0 + xm), 0.5 * (xm + x2)]),
                   np.tile(owner, 2)).reshape(2, -1)
        left = (xm - x0) / 6.0 * (f0 + 4.0 * fl + f1)
        right = (x2 - xm) / 6.0 * (f1 + 4.0 * fr + f2)
        fine = left + right
        err = (fine - coarse) / 15.0
        done = (np.abs(err) <= tol) | ((x2 - x0) < 1e-14 * (b - a))
        accepted.append((x0[done], (fine + err)[done], owner[done]))
        keep = ~done
        # the open panels' halves: (x0, x2, f0, f1, f2, coarse) of each
        x0, x2, f0, f1, f2, coarse = (
            np.concatenate([lo[keep], hi[keep]]) for lo, hi in zip(
                (x0, xm, f0, fl, f1, left), (xm, x2, f1, fr, f2, right)))
        tol, owner = np.tile(0.5 * tol[keep], 2), np.tile(owner[keep], 2)
    x, value, owner = (np.concatenate(c) for c in zip(*accepted))
    # each integral's panels from right to left; an accumulation adds them
    # in that order (a reduction would pair them up)
    order = np.lexsort((-x, owner))
    ends = np.cumsum(np.bincount(owner, minlength=n))[:-1]
    return np.array([np.cumsum(v)[-1]
                     for v in np.split(value[order], ends)])


_erfc = np.vectorize(math.erfc, otypes=[float])


def normal_upper_tail(x):
    """Standard normal mass above ``x`` (scalar or array, elementwise).

    ``erfc`` keeps the far tail up to ``x = 37.5``, where it leaves the
    normal float range, within a relative ``0.6 x^2 eps`` (the rounding of
    ``x / sqrt 2``); ``1 - erf`` would read 0 from ``x = 8.4`` on. A scalar
    skips the vectorized call: the same ``erfc`` on the same argument.
    """
    if np.ndim(x) == 0:
        return np.float64(0.5 * math.erfc(x / math.sqrt(2.0)))
    return 0.5 * _erfc(x / math.sqrt(2.0))


def poisson_tail_bound(q: float, mu):
    """A count ``k`` with ``P(X > k) <= q`` for ``X ~ Poisson(mu)``,
    elementwise over ``mu >= 0``.

    Bernstein's inequality (G. Bennett, JASA 57, 1962) bounds the tail by
    ``P(X >= mu + t) <= exp(-t^2 / (2 (mu + t / 3)))``; ``k`` is the ceiling
    of ``mu + t`` at which that bound equals ``q``. For ``q`` in [1e-14,
    1e-2] it exceeds the exact quantile by under ``24 + 0.75 sqrt(mu)``.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"tail mass must lie in (0, 1), got {q}")
    log_q = -math.log(q)
    return np.ceil(mu + log_q / 3.0 + np.sqrt(log_q * log_q / 9.0
                                              + 2.0 * log_q * mu)).astype(int)


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
# Philox4x64-10 (Salmon et al., SC'11): multipliers (one per row, and their
# 32-bit halves) and key increments
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _SHIFT32
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
# draws per pass of the sampler: one pass covers a 10 000-draw batch, so the
# fixed cost of a pass (about 180 small array operations per Philox block)
# is paid once per batch; its working arrays peak at about 130 bytes per
# draw, 1.3 MB
_DRAWS_PER_PASS = 10240


def _mulhilo(x, lo, hi, mid):
    """High and low words of the 128-bit products of the Philox multipliers
    (one per row) and ``x`` (``(2, n)``, ``uint64``), written to ``hi`` and
    ``lo``; ``x`` is spent as scratch, and so is ``mid``. The factors are
    split in 32-bit halves so that no partial product overflows, and every
    operation is in place. A sum ``p + (mid & LO32)`` that fits 64 bits is
    formed as ``p + mid - ((mid >> 32) << 32)``, exact modulo 2**64."""
    np.multiply(_PHILOX_M, x, out=lo)
    np.right_shift(x, _SHIFT32, out=hi)             # x_hi
    x &= _LO32                                      # x_lo
    np.multiply(_PHILOX_M_HI, x, out=mid)
    x *= _PHILOX_M_LO
    x >>= _SHIFT32
    mid += x                                        # no carry out of 64 bits
    np.multiply(_PHILOX_M_LO, hi, out=x)
    hi *= _PHILOX_M_HI
    x += mid
    mid >>= _SHIFT32
    hi += mid
    mid <<= _SHIFT32
    x -= mid
    x >>= _SHIFT32
    hi += x


def _philox_uniforms(seed: int, block: int, draws, n_comp: int) -> np.ndarray:
    """Uniforms ``(4, n)`` of NumPy's ``Philox(key=seed)`` at the counters
    ``[block, 0, s, i]`` of the draws ``s * n_comp + i``: word ``w`` of each
    output block as ``(w >> 11) * 2**-53``, as ``Generator.random`` turns
    it into a double.

    A fresh ``Philox(key=seed, counter=[0, 0, s, i])`` increments word 0
    before every 4-word block, so its ``b``-th block is this function at
    ``block = b``. The rounds run in place, in five ``(2, n)`` buffers:
    words 0 and 2 of the counter (``even``), words 1 and 3 (``odd``) and
    three scratch, freed before the output is allocated.
    """
    keys = [[int(seed), 0]]
    for _ in range(9):
        keys.append([(k + w) & _MASK64 for k, w in zip(keys[-1], _PHILOX_W)])
    keys = np.array(keys, dtype=np.uint64)[:, :, None]
    n = len(draws)
    even, odd = np.empty((2, n), dtype=np.uint64), np.zeros((2, n), np.uint64)
    even[0] = block
    np.divmod(draws.view(np.uint64), n_comp, out=(even[1], odd[1]))  # >= 0
    lo, hi, mid = (np.empty((2, n), dtype=np.uint64) for _ in range(3))
    for key in keys:
        _mulhilo(even, lo, hi, mid)
        # even <- hi[::-1] ^ odd ^ key and odd <- lo[::-1]; the old odd
        # buffer is the next round's lo
        np.bitwise_xor(hi[::-1], odd, out=even)
        even ^= key
        odd, lo = lo[::-1], odd
    del lo, hi, mid            # the scratch goes before the output comes
    u = np.empty((4, n))
    np.multiply(np.right_shift(even, _SHIFT11, out=even), 2.0 ** -53,
                out=u[0::2])
    np.multiply(np.right_shift(odd, _SHIFT11, out=odd), 2.0 ** -53,
                out=u[1::2])
    return u


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
    draws, so the working memory does not grow with ``count``; the draws do
    not depend on how they are split into passes.
    """
    means = [float(m) for m in means]
    if not all(0.0 <= m <= _POISSON_LAM_MAX for m in means):
        raise DomainError(f"Poisson means must lie in [0, {_POISSON_LAM_MAX:g}]"
                          f"; the largest is {max(means):g}")
    n_comp = len(means)
    lam = np.array(means)
    try:
        out = np.zeros((count, n_comp), dtype=np.int64)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"too many samples for an array: {count}") from exc
    for method, use in ((_poisson_mult, (lam > 0.0) & (lam < 10.0)),
                        (_poisson_ptrs, lam >= 10.0)):
        comps = np.flatnonzero(use)
        if not comps.size:
            continue
        step = max(1, _DRAWS_PER_PASS // comps.size)
        for first in range(0, count, step):
            draws = (np.arange(first, min(first + step, count))[:, None]
                     * n_comp + comps).ravel()
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
        del u, steps            # the next block's rounds run without them
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


def golden_section_max(f, lo, hi, abs_tol: float = 1e-8):
    """Maximize unimodal functions on the brackets ``[lo, hi]`` by
    golden-section search, all brackets in lockstep.

    ``lo`` and ``hi`` are scalars or equal-shape arrays, and ``f`` maps an
    array of points of that shape to their values, elementwise. Every
    search takes the scalar update and stops when its own bracket is at
    most ``abs_tol`` wide; the steps it is carried through after that are
    discarded, so its result is the scalar search's to the last bit. Returns
    ``(x_best, f_best)`` of the brackets' shape.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float),
                               np.asarray(hi, dtype=float))
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    up = fc >= fd
    x_best, f_best = np.where(up, c, d), np.where(up, fc, fd)
    live = (b - a) > abs_tol
    while np.count_nonzero(live):
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = invphi * (b - a)
        x = np.where(left, b - step, a + step)
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        wide = (b - a) > abs_tol
        done = live > wide
        if np.count_nonzero(done):
            up = fc >= fd
            x_best = np.where(done, np.where(up, c, d), x_best)
            f_best = np.where(done, np.where(up, fc, fd), f_best)
            live = live & wide
    return x_best, f_best
