"""Numerical primitives: quadrature, erf inverse, Poisson quantile, search."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf, erfinv
from scipy.stats import poisson

import crbkit as ck
from crbkit.numerics import (adaptive_simpson, erf_inverse, gauss_legendre,
                             golden_section_max, normal_upper_tail,
                             poisson_isf, poisson_pmf_table)


class TestAdaptiveSimpson:
    def test_known_integrals(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi) == \
            pytest.approx(2.0, rel=1e-10)
        assert adaptive_simpson(lambda x: x ** 3, -1.0, 2.0) == \
            pytest.approx(15.0 / 4.0, rel=1e-12)
        assert adaptive_simpson(lambda x: math.exp(-x * x), -8.0, 8.0) == \
            pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_orientation_and_empty(self):
        assert adaptive_simpson(math.sin, math.pi, 0.0) == \
            pytest.approx(-2.0, rel=1e-10)
        assert adaptive_simpson(math.sin, 1.0, 1.0) == 0.0

    def test_budget_exhaustion(self):
        with pytest.raises(ck.QuadratureFailure):
            adaptive_simpson(lambda x: math.sin(1e4 * x) ** 2, 0.0, 10.0,
                             rel_tol=1e-14, panel_budget=20)


class TestErfInverse:
    def test_round_trip(self):
        for y in (-0.999999, -0.9, -0.3, 0.0, 1e-8, 0.5, 0.99, 0.9999999):
            assert erf(erf_inverse(y)) == pytest.approx(y, abs=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(y=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    @example(y=1.0 - 2.0 ** -53)
    @example(y=-5e-324)
    def test_round_trip_property(self, y):
        assert abs(erf(erf_inverse(y)) - y) <= 1e-15

    def test_out_of_domain(self):
        for y in (1.0, -1.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                erf_inverse(y)

    @settings(max_examples=500, deadline=None)
    @given(y=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    @example(y=1.0 - 2.0 ** -53)
    @example(y=1.0 - 1e-15)
    @example(y=-5e-324)
    # the Halley steps switch from erf to erfc residuals above |y| = 0.5
    @example(y=0.5)
    @example(y=-0.5)
    @example(y=math.nextafter(0.5, 0.0))
    @example(y=math.nextafter(-0.5, -1.0))
    def test_matches_scipy_erfinv(self, y):
        x, ref = erf_inverse(y), float(erfinv(y))
        assert abs(x - ref) <= 3.0 * math.ulp(ref), (y, x, ref)

    def test_odd_and_signed_zero(self):
        for y in (1e-300, 0.25, 0.5, 0.75, 1.0 - 1e-12):
            assert erf_inverse(-y) == -erf_inverse(y)
        assert math.copysign(1.0, erf_inverse(-0.0)) == -1.0
        assert erf_inverse(0.0) == 0.0


class TestNormalUpperTail:
    """``0.5 (1 - erf(x / sqrt 2))`` on ``math.erf``, against SciPy's erf."""

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


class TestPoissonIsf:
    """``poisson_isf`` against ``scipy.stats.poisson.isf``, exactly."""

    @settings(max_examples=400, deadline=None)
    @given(q=st.floats(-14.0, -2.0).map(lambda e: 10.0 ** e),
           mu=st.floats(-12.0, 7.0).map(lambda e: 10.0 ** e))
    @example(q=1e-12, mu=1e-12)
    @example(q=1e-14, mu=1e7)
    @example(q=1e-2, mu=1.0)
    def test_matches_scipy(self, q, mu):
        assert poisson_isf(q, mu) == int(poisson.isf(q, mu))

    def test_call_site_values(self, monkeypatch):
        # fim_bruteforce at the criterion-1 points, and optimal_bias_check
        # for Uniform1(N=200, eta=0.7, n=2), whose largest signal is 98
        calls = [(1e-12, 98.0)]
        monkeypatch.setattr(
            ck.fisher, "poisson_isf",
            lambda q, mu: calls.append((q, mu)) or poisson_isf(q, mu))
        rng = np.random.default_rng(101)
        m1 = ck.Uniform1Model(N=200, eta=0.7, n=2)
        m2 = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
        for _ in range(10):
            ck.fim_bruteforce(m1, [rng.uniform(0.1, 0.9)], tail_mass=1e-12)
        for _ in range(10):
            ck.fim_bruteforce(m2, rng.uniform(0.1, 0.9, 2), tail_mass=1e-12)
        assert len(calls) == 31
        for q, mu in calls:
            assert poisson_isf(q, mu) == int(poisson.isf(q, mu)), (q, mu)


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
        # does (poisson_isf(1e-12, mu) + 10), compared where the pmf is a
        # normal float (a subnormal keeps fewer bits in any implementation)
        y = np.arange(poisson_isf(1e-12, mu) + 11)
        want = poisson.pmf(y, mu)
        normal = want >= np.finfo(float).tiny
        assert want[normal].sum() >= 1.0 - 1e-11
        assert np.allclose(poisson_pmf_table(mu, y[-1])[normal], want[normal],
                           rtol=1e-11, atol=0.0)

    def test_scalar_mean(self):
        assert np.array_equal(poisson_pmf_table(4.0, 9),
                              poisson_pmf_table([4.0], 9)[0])


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

