"""Numerical primitives: quadrature, normal tail, Poisson cut-off, search."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf, ndtr
from scipy.stats import poisson

import crbkit as ck
from crbkit import numerics
from crbkit.numerics import (adaptive_simpson, gauss_legendre,
                             golden_section_max, normal_upper_tail,
                             poisson_pmf_table, poisson_substreams,
                             poisson_tail_bound)


def sinc2(centers, k=1.0):
    """Integrands ``sinc^2(k (x - centers[i]))`` in the engine's form."""
    centers = np.asarray(centers, dtype=float)
    return lambda x, i: np.sinc(k * (x - centers[i]) / np.pi) ** 2


def stack_simpson(f, a, b, rel_tol=1e-10):
    """Reference: the depth-first scalar adaptive Simpson rule, one panel
    per pop, the right half popped first."""
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    stack = [(a, b, fa, fm, fb, whole, rel_tol * max(abs(whole), 1e-300))]
    total = 0.0
    while stack:
        x0, x2, f0, f1, f2, coarse, tol = stack.pop()
        xm = 0.5 * (x0 + x2)
        fl, fr = f(0.5 * (x0 + xm)), f(0.5 * (xm + x2))
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = (left + right - coarse) / 15.0
        if abs(err) <= tol or (x2 - x0) < 1e-14 * (b - a):
            total += left + right + err
        else:
            stack.append((x0, xm, f0, fl, f1, left, 0.5 * tol))
            stack.append((xm, x2, f1, fr, f2, right, 0.5 * tol))
    return total


class TestAdaptiveSimpson:
    def test_known_integrals(self):
        assert adaptive_simpson(lambda x, i: np.sin(x), 0.0, math.pi)[0] == \
            pytest.approx(2.0, rel=1e-10)
        assert adaptive_simpson(lambda x, i: x ** 3, -1.0, 2.0)[0] == \
            pytest.approx(15.0 / 4.0, rel=1e-12)
        assert adaptive_simpson(lambda x, i: np.exp(-x * x), -8.0, 8.0)[0] \
            == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_several_integrands_in_one_call(self):
        powers = np.array([0, 1, 2, 3])
        got = adaptive_simpson(lambda x, i: x ** powers[i], -1.0, 2.0, 4)
        assert got.shape == (4,)
        assert got == pytest.approx((2.0 ** (powers + 1) - (-1.0) ** (powers + 1))
                                    / (powers + 1), rel=1e-12)

    def test_orientation_and_empty(self):
        assert adaptive_simpson(lambda x, i: np.sin(x), math.pi, 0.0)[0] == \
            pytest.approx(-2.0, rel=1e-10)
        assert adaptive_simpson(lambda x, i: np.sin(x), 1.0, 1.0)[0] == 0.0
        f = sinc2([0.0, 0.7, -2.0])
        assert np.array_equal(adaptive_simpson(f, 1.5, -0.5, 3),
                              -adaptive_simpson(f, -0.5, 1.5, 3))
        assert np.array_equal(adaptive_simpson(f, 0.3, 0.3, 3), np.zeros(3))

    def test_budget_exhaustion(self):
        with pytest.raises(ck.QuadratureFailure):
            adaptive_simpson(lambda x, i: np.sin(1e4 * x) ** 2, 0.0, 10.0,
                             rel_tol=1e-14, panel_budget=20)

    def test_budget_exhaustion_names_the_integral(self):
        # integrand 1 oscillates far past the budget; 0 and 2 are linear,
        # which one panel integrates exactly
        def f(x, i):
            return np.where(i == 1, np.sin(1e4 * x) ** 2, x)

        with pytest.raises(ck.QuadratureFailure,
                           match=r"on \[0\.0, 10\.0\] by integral 1$"):
            adaptive_simpson(f, 0.0, 10.0, 3, rel_tol=1e-14, panel_budget=20)

    def test_budget_is_per_integral(self):
        # a call passes with the largest budget its integrals need alone
        centers = [-2.0, 0.1, 0.5, 2.5]
        f = sinc2(centers, k=20.0)

        def need(c):
            lo, hi = 1, 10_000          # fails at lo, passes at hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    adaptive_simpson(sinc2([c], k=20.0), 0.0, 1.0,
                                     panel_budget=mid)
                    hi = mid
                except ck.QuadratureFailure:
                    lo = mid
            return hi

        needs = [need(c) for c in centers]
        assert sum(needs) > max(needs) > min(needs)
        adaptive_simpson(f, 0.0, 1.0, 4, panel_budget=max(needs))
        with pytest.raises(ck.QuadratureFailure, match="by integral "
                           f"{needs.index(max(needs))}$"):
            adaptive_simpson(f, 0.0, 1.0, 4, panel_budget=max(needs) - 1)

    @settings(max_examples=25, deadline=None)
    @given(centers=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
           lo=st.floats(-1.0, 0.5), width=st.floats(0.1, 2.0),
           rel_tol=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]),
           k=st.floats(1.0, 30.0))
    def test_matches_depth_first_reference(self, centers, lo, width, rel_tol,
                                           k):
        # the same panels, summed in the same order: equal bit for bit
        got = adaptive_simpson(sinc2(centers, k), lo, lo + width,
                               len(centers), rel_tol=rel_tol)
        want = [stack_simpson(lambda x: sinc2([c], k)(x, 0), lo, lo + width,
                              rel_tol) for c in centers]
        assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(centers=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
           rel_tol=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]),
           k=st.floats(1.0, 30.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_each_integral_is_its_own_single_call(self, centers, rel_tol, k,
                                                  seed):
        # bit for bit: batch membership and order never change a result
        together = adaptive_simpson(sinc2(centers, k), 0.0, 1.0, len(centers),
                                    rel_tol=rel_tol)
        for c, value in zip(centers, together):
            alone = adaptive_simpson(sinc2([c], k), 0.0, 1.0, rel_tol=rel_tol)
            assert alone.tolist() == [value]
        perm = np.random.default_rng(seed).permutation(len(centers))
        shuffled = adaptive_simpson(sinc2(np.array(centers)[perm], k), 0.0,
                                    1.0, len(centers), rel_tol=rel_tol)
        assert shuffled.tolist() == together[perm].tolist()


class TestNormalUpperTail:
    """``0.5 erfc(x / sqrt 2)`` on ``math.erfc``: absolutely against SciPy's
    ``1 - erf``, relatively against ``scipy.special.ndtr``."""

    @staticmethod
    def scipy_tail(x):
        return 0.5 * (1.0 - erf(np.asarray(x) / math.sqrt(2.0)))

    @pytest.mark.parametrize("x", [0.0, -0.0, 1.0, -1.5, 8.3, -8.3, 40.0,
                                   -40.0, 1e-300, np.float64(2.25)])
    def test_scalar(self, x):
        got = normal_upper_tail(x)
        assert isinstance(got, np.float64)
        assert abs(got - self.scipy_tail(x)) <= 2.3e-16

    @pytest.mark.parametrize("shape", [(0,), (1,), (7,), (3, 4)])
    def test_array_keeps_shape_and_dtype(self, shape):
        rng = np.random.default_rng(14)
        x = 4.0 * rng.standard_normal(shape)
        got = normal_upper_tail(x)
        assert got.shape == shape and got.dtype == np.float64
        assert np.all(np.abs(got - self.scipy_tail(x)) <= 2.3e-16)

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(-60.0, 60.0))
    def test_matches_scipy_property(self, x):
        assert abs(normal_upper_tail(x) - self.scipy_tail(x)) <= 2.3e-16

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(-37.0, 37.0))
    @example(x=8.4)
    @example(x=8.5)
    @example(x=37.0)
    def test_far_tail_matches_ndtr_relatively(self, x):
        # Rounding the argument x / sqrt 2 moves the tail by a relative
        # ~x^2 eps / 2; against 50-digit values this tail is off by up to
        # 0.6 x^2 eps and ndtr by up to 1.6 (x^2 + 1) eps, so the two agree
        # within 2 (x^2 + 16) eps. 1 - erf read 0 here from x = 8.4 on.
        got, ref = normal_upper_tail(x), float(ndtr(-x))
        assert ref > 0.0
        eps = np.finfo(float).eps
        assert abs(got / ref - 1.0) <= 2.0 * (x * x + 16.0) * eps


class TestPoissonTailBound:
    """The Bernstein cut-off against ``scipy.stats.poisson``."""

    @settings(max_examples=400, deadline=None)
    @given(q=st.floats(-14.0, -2.0).map(lambda e: 10.0 ** e),
           mu=st.floats(-12.0, 7.0).map(lambda e: 10.0 ** e))
    @example(q=1e-12, mu=1e-12)
    @example(q=1e-14, mu=1e7)
    @example(q=1e-2, mu=1.0)
    def test_leaves_at_most_q_and_stays_near_the_quantile(self, q, mu):
        k = poisson_tail_bound(q, mu)
        exact = poisson.isf(q, mu)
        assert poisson.sf(k, mu) <= q
        assert exact <= k <= exact + 24.0 + 0.75 * math.sqrt(mu)

    def test_elementwise_and_dark_mean(self):
        mu = np.array([0.0, 4.0, 98.0])
        assert poisson_tail_bound(1e-12, mu).tolist() == [
            poisson_tail_bound(1e-12, m) for m in mu]
        assert poisson.sf(poisson_tail_bound(1e-12, 0.0), 0.0) == 0.0

    @pytest.mark.parametrize("q", [0.0, -1.0, 1.0, 2.0, math.nan])
    def test_tail_mass_outside_unit_interval(self, q):
        with pytest.raises(ck.DomainError):
            poisson_tail_bound(q, 1.0)


class TestPoissonPmfTable:
    def test_matches_scipy_and_dark_rows(self):
        mu = np.array([[0.3, 4.0], [0.0, 25.0]])
        table = poisson_pmf_table(mu, 60)
        assert table.shape == (2, 2, 61)
        for idx in [(0, 0), (0, 1), (1, 1)]:
            assert np.allclose(table[idx], poisson.pmf(np.arange(61), mu[idx]),
                               rtol=1e-12, atol=0.0)
        assert np.array_equal(table[1, 0], np.eye(61)[0])

    @pytest.mark.parametrize("mu", [98.0, 1000.0])
    def test_matches_scipy_at_large_means(self, mu):
        # criterion 7's largest signal is 98; y runs as far as its table
        # does (poisson_tail_bound(1e-12, mu)), compared where the pmf is a
        # normal float (a subnormal keeps fewer bits in any implementation)
        y = np.arange(poisson_tail_bound(1e-12, mu) + 1)
        want = poisson.pmf(y, mu)
        normal = want >= np.finfo(float).tiny
        assert want[normal].sum() >= 1.0 - 1e-11
        assert np.allclose(poisson_pmf_table(mu, y[-1])[normal], want[normal],
                           rtol=1e-11, atol=0.0)

    def test_scalar_mean(self):
        assert np.array_equal(poisson_pmf_table(4.0, 9),
                              poisson_pmf_table([4.0], 9)[0])


class TestPoissonSubstreams:
    # NumPy draws a mean below 10 by the multiplication method and one of
    # 10 or more by transformed rejection; 9.99 takes 3+ Philox blocks
    _mean = st.one_of(st.just(0.0), st.floats(0.0, 10.0),
                      st.floats(10.0, 200.0), st.floats(200.0, 1e7))

    @settings(max_examples=60, deadline=None)
    @given(means=st.lists(_mean, min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 64 - 1), count=st.integers(1, 40),
           per_pass=st.one_of(st.sampled_from([1, 3]), st.integers(1, 400)))
    @example(means=[9.99, 10.0], seed=2 ** 64 - 1, count=40, per_pass=1)
    @example(means=[0.0, 3.0, 50.0, 1e6], seed=7, count=40, per_pass=3)
    @example(means=[9.99, 1e6], seed=12345, count=40, per_pass=1000)
    def test_draws_do_not_depend_on_pass_size(self, means, seed, count,
                                              per_pass):
        # the default pass holds every draw here; per_pass = 1 gives one
        # sample a pass, and one above count * len(means) a single pass
        whole = poisson_substreams(means, seed, count)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_DRAWS_PER_PASS", per_pass)
            split = poisson_substreams(means, seed, count)
        assert split.dtype == whole.dtype
        assert np.array_equal(split, whole)


class TestGaussLegendre:
    def test_cached_read_only_rule(self):
        nodes, weights = gauss_legendre(24)
        assert gauss_legendre(24)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert weights.sum() == pytest.approx(2.0, rel=1e-14)
        assert np.dot(weights, nodes ** 46) == pytest.approx(2.0 / 47.0,
                                                             rel=1e-12)


class TestGoldenSection:
    def test_parabola(self):
        x, val = golden_section_max(lambda x: -(x - 0.37) ** 2, 0.0, 1.0,
                                    abs_tol=1e-10)
        assert x == pytest.approx(0.37, abs=1e-8)
        assert val == pytest.approx(0.0, abs=1e-15)

