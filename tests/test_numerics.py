"""Numerical primitives: quadrature, erf inverse, search."""

import math

import pytest
from scipy.special import erf

import crbkit as ck
from crbkit.numerics import adaptive_simpson, erf_inverse, golden_section_max


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

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            erf_inverse(1.0)


class TestGoldenSection:
    def test_parabola(self):
        x, val = golden_section_max(lambda x: -(x - 0.37) ** 2, 0.0, 1.0,
                                    abs_tol=1e-10)
        assert x == pytest.approx(0.37, abs=1e-8)
        assert val == pytest.approx(0.0, abs=1e-15)

