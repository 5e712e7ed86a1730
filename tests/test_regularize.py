"""Regularization: shifted-probe search, eigen-axis lifting, width oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import crbkit as ck
from crbkit.fisher import fim_axis_lambda
from crbkit.regularize import GRID_FLOOR, GRID_POINTS, REFINE_TOL, _lift


def _golden_oracle(f, lo, hi, abs_tol):
    """The scalar golden-section search the lockstep engine reproduces."""
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
    return (c, fc) if fc >= fd else (d, fd)


def axis_search_oracle(fi_along, travel_pos, travel_neg, extent,
                       fi_at_center):
    """One axis, one sign at a time: the search the batched lift replaces,
    grid probes and golden-section refinement on 1-element arrays."""
    best = fi_at_center

    def objective(deltas):
        f = np.maximum(fi_along(deltas), 0.0)
        return f / (1.0 + np.abs(deltas) * np.sqrt(f)) ** 2

    for sign, travel in ((1.0, travel_pos), (-1.0, travel_neg)):
        if travel <= 0.0:
            continue
        grid = np.geomspace(GRID_FLOOR * extent, extent, GRID_POINTS)
        grid = np.append(grid[grid <= travel], travel)
        vals = objective(sign * grid)
        idx = int(np.argmax(vals))
        if vals[idx] > best:
            best = float(vals[idx])
        lo = grid[idx - 1] if idx > 0 else 0.0
        hi = grid[idx + 1] if idx + 1 < grid.size else grid[idx]
        if hi > lo:
            _, v_ref = _golden_oracle(
                lambda t: float(objective(np.array([sign * t]))[0]),
                lo, hi, REFINE_TOL)
            if v_ref > best:
                best = float(v_ref)
    return best


def uniform1_reg_closed(n_groups, eta, n, a):
    """Closed-form regularized information of the uniform model.

    The shifted-probe objective K x^(2(n-1)) / (1 + |x - a| sqrt(K) x^(n-1))^2
    is maximized at x_opt = ((n-1)/sqrt(K))^(1/n) when a <= x_opt, and at a
    itself otherwise.
    """
    k = 4.0 * n ** 2 * n_groups * eta ** n
    x_opt = ((n - 1) / np.sqrt(k)) ** (1.0 / n)
    if a >= x_opt:
        return k * a ** (2 * (n - 1))
    num = k * x_opt ** (2 * (n - 1))
    den = (1.0 + (x_opt - a) * np.sqrt(k) * x_opt ** (n - 1)) ** 2
    return num / den


class TestRegularize1D:
    def setup_method(self):
        self.model = ck.Uniform1Model(N=200, eta=0.7, n=2)
        self.fi = lambda a: ck.fim_poisson(self.model, [a]).matrix[0, 0]

    def test_dark_point_value(self):
        val = ck.regularize_1d(self.fi, 0.0, (0.0, 1.0))
        assert val == pytest.approx(np.sqrt(1568.0) / 4.0, rel=1e-9)
        assert val == pytest.approx(uniform1_reg_closed(200, 0.7, 2, 0.0),
                                    rel=1e-9)
        assert 1.0 / np.sqrt(val) == pytest.approx(0.3178, abs=2e-4)

    def test_bright_point_untouched(self):
        val = ck.regularize_1d(self.fi, 0.8, (0.0, 1.0))
        assert val == self.fi(0.8)
        assert val == pytest.approx(1003.52, rel=1e-10)

    def test_constant_information(self):
        assert ck.regularize_1d(lambda a: 3.75, 0.3, (0.0, 1.0)) == 3.75

    def test_closed_form_sweep(self):
        for a in (0.0, 0.05, 0.1, 0.1589, 0.3, 0.6, 1.0):
            val = ck.regularize_1d(self.fi, a, (0.0, 1.0))
            assert val == pytest.approx(uniform1_reg_closed(200, 0.7, 2, a),
                                        rel=1e-7)

    def test_monotone_utility_over_trace(self):
        # Delta_reg <= |theta' - theta| + F(theta')**-0.5 for every probe.
        trace = []

        def fi(a):
            trace.append((a, self.fi(a)))
            return trace[-1][1]

        val = ck.regularize_1d(fi, 0.0, (0.0, 1.0))
        delta_reg = 1.0 / np.sqrt(val)
        assert len(trace) > 1
        for theta_p, f_p in trace:
            bound = abs(theta_p) + (1.0 / np.sqrt(f_p) if f_p > 0 else np.inf)
            assert delta_reg <= bound + 1e-12

    def test_empty_domain(self):
        with pytest.raises(ck.EmptyDomain):
            ck.regularize_1d(self.fi, -0.5, (0.0, 1.0))


def _reg(model, theta):
    theta = np.asarray(theta, dtype=float)
    return ck.regularize_fim(ck.fim_poisson(model, theta), theta, model.box(),
                             model.axis_profile)


class TestRegularizeFim:
    def test_regular_point_is_fixed_point(self):
        m = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
        th = np.array([0.5, 0.5])
        f = ck.fim_poisson(m, th)
        f_reg = _reg(m, th)
        assert np.abs(f_reg.matrix - f.matrix).max() <= \
            1e-6 * np.abs(f.matrix).max()
        # grid oracle: the axis objective is maximized at zero shift
        vals, vecs = np.linalg.eigh(f.matrix)
        for i in range(2):
            lam = fim_axis_lambda(m, th, vecs[:, i],
                                  np.linspace(-0.45, 0.45, 181))
            obj = lam / (1.0 + np.abs(np.linspace(-0.45, 0.45, 181))
                         * np.sqrt(lam)) ** 2
            assert obj.max() <= vals[i] * (1.0 + 1e-9)

    def test_dark_slit_array_becomes_invertible(self):
        pattern = np.array([1, 1, 0, 0, 1, 1, 0, 0, 1, 1], dtype=float)
        m = ck.SlitArrayModel(N=1e4, M=10, d=0.5, d_R=1.0, reference=pattern)
        f = ck.fim_poisson(m, pattern)
        vals = np.linalg.eigvalsh(f.matrix)
        assert vals.min() < 1e-10 * vals.max()
        f_reg = _reg(m, pattern)
        vr = np.linalg.eigvalsh(f_reg.matrix)
        assert vr.min() > 1e-12 * vr.max()
        assert np.isfinite(ck.total_variance(f_reg))

    def test_one_dimensional_consistency(self):
        # the 1x1 eigen-axis search on the exact profile reproduces the
        # closed form at the tolerance of the scalar sweep
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        for a in (0.0, 0.05, 0.1, 0.1589, 0.3, 0.6, 1.0):
            matrix = _reg(m, [a])
            assert matrix.matrix[0, 0] == pytest.approx(
                uniform1_reg_closed(200, 0.7, 2, a), rel=1e-7)

    def test_output_commutes_with_input(self):
        pattern = np.array([1, 1, 0, 0, 1, 1, 0, 0, 1, 1], dtype=float)
        m = ck.SlitArrayModel(N=1e4, M=10, d=0.5, d_R=1.0, reference=pattern)
        f = ck.fim_poisson(m, pattern).matrix
        f_reg = _reg(m, pattern).matrix
        comm = f @ f_reg - f_reg @ f
        assert np.abs(comm).max() < 1e-10 * np.abs(f).max() * \
            np.abs(f_reg).max() / max(np.abs(f).max(), 1.0)

    def test_subnormal_eigenvector_entry_warns_nothing(self):
        # eigenvectors of F here carry entries near 1e-309, where the travel
        # (box - theta) / v overflows; the min over the entries cuts it
        m = _PROFILE_MODELS["SlitArray"]
        th = np.array([0.25, 1.0, 2.2250738585072014e-308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f_reg = _reg(m, th).matrix
        assert np.all(np.isfinite(f_reg))

    def test_rejects_indefinite_array(self):
        # an array meets the FisherMatrix rules: symmetric and PSD
        m = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
        with pytest.raises(ck.NonSymmetricInput, match="not PSD"):
            ck.regularize_fim(np.array([[1.0, 0.0], [0.0, -0.5]]),
                              [0.5, 0.5], m.box(), m.axis_profile)

    def test_domain_must_contain_theta(self):
        m = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
        th = np.array([1.5, 0.5])
        with pytest.raises(ck.EmptyDomain):
            ck.regularize_fim(ck.fim_poisson(m, th), th, m.box(),
                              m.axis_profile)


# Small models of every variant; tables are built once per module.
_PROFILE_MODELS = {
    "Uniform1": ck.Uniform1Model(N=200, eta=0.7, n=2),
    "Uniform1n1": ck.Uniform1Model(N=50, eta=0.9, n=1),
    "TwoPixel": ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8),
    "SlitArray": ck.SlitArrayModel(N=1e4, M=3, d=0.5, d_R=1.0),
    "BiphotonG2": ck.BiphotonG2Model(N=1e5, M=3, d=0.8, d_R=1.0,
                                     sigma_c=0.4),
}
_unit_interval = st.floats(0.0, 1.0)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(_PROFILE_MODELS)), data=st.data())
    def test_axis_profile_matches_fim_poisson(self, name, data):
        # the exact profile equals v^T F(theta + delta v) v, dark signal
        # components included
        m = _PROFILE_MODELS[name]
        theta = data.draw(arrays(float, m.dim, elements=st.sampled_from(
            [0.0]) | st.floats(0.05, 1.0)))
        v = data.draw(arrays(float, m.dim, elements=st.floats(-1.0, 1.0)))
        assume(np.linalg.norm(v) > 1e-3)
        v = v / np.linalg.norm(v)
        deltas = np.array(data.draw(st.lists(st.floats(-1.0, 1.0),
                                             min_size=1, max_size=5)))
        got = m.axis_profile(theta, v[:, None])(deltas[None])[0]
        assert got.shape == deltas.shape
        for delta, value in zip(deltas, got):
            f = ck.fim_poisson(m, theta + delta * v).matrix
            assert value == pytest.approx(float(v @ f @ v), rel=1e-9, abs=(
                1e-12 * max(np.abs(f).max(), np.finfo(float).tiny)))

    def test_axis_profile_below_the_normal_range(self):
        # both sides subnormal (1.69e-317): 1e-12 of the largest entry of F
        # underflows to 0, and the two roundings differ by 5e-321
        m = _PROFILE_MODELS["BiphotonG2"]
        v = np.ones(3) / np.sqrt(3.0)
        delta = 9.745103526901232e-162
        got = m.axis_profile(np.zeros(3), v[:, None])([[delta]])[0, 0]
        f = ck.fim_poisson(m, delta * v).matrix
        assert 0.0 < got < np.finfo(float).tiny
        assert got == pytest.approx(float(v @ f @ v), rel=1e-9, abs=(
            1e-12 * max(np.abs(f).max(), np.finfo(float).tiny)))

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(["TwoPixel", "SlitArray", "BiphotonG2"]),
           data=st.data())
    def test_regularize_fim_lifts_and_commutes(self, name, data):
        # never lowers an eigenvalue, and keeps the input's eigenvectors
        m = _PROFILE_MODELS[name]
        # dark and dim amplitudes are where axes get lifted
        theta = data.draw(arrays(float, m.dim, elements=st.sampled_from(
            [0.0, 1.0]) | st.floats(0.0, 0.3) | _unit_interval))
        f = ck.fim_poisson(m, theta).matrix
        f_reg = _reg(m, theta).matrix
        vals, vecs = np.linalg.eigh(f)
        scale = max(np.abs(f).max(), np.abs(f_reg).max(), 1e-300)
        lifted = np.einsum("mi,mn,ni->i", vecs, f_reg, vecs)
        assert np.all(lifted >= vals - 1e-12 * scale)
        comm = f @ f_reg - f_reg @ f
        assert np.abs(comm).max() <= 1e-10 * scale * max(np.abs(f).max(),
                                                          1e-300)


# Uniform1 at n = 2 and 3, TwoPixel and SlitArray, as in the repair
_LOCKSTEP_MODELS = {
    "Uniform1": _PROFILE_MODELS["Uniform1"],
    "Uniform1n3": ck.Uniform1Model(N=200, eta=0.7, n=3),
    "TwoPixel": _PROFILE_MODELS["TwoPixel"],
    "SlitArray": _PROFILE_MODELS["SlitArray"],
}


class TestLockstepSearch:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(_LOCKSTEP_MODELS) + ["Uniform1n1"]),
           n_axes=st.integers(1, 4), data=st.data())
    def test_one_axis_is_a_row_of_the_batched_profile(self, name, n_axes,
                                                      data):
        # fim_axis_lambda passes its axis as one column of the same map
        m = _PROFILE_MODELS.get(name) or _LOCKSTEP_MODELS[name]
        theta = data.draw(arrays(float, m.dim, elements=st.sampled_from(
            [0.0, 1.0]) | _unit_interval))
        vecs = data.draw(arrays(float, (m.dim, n_axes),
                                elements=st.floats(-1.0, 1.0)))
        deltas = np.array(data.draw(st.lists(st.floats(-1.0, 1.0),
                                             min_size=1, max_size=5)))
        batched = m.axis_profile(theta, vecs)(np.tile(deltas, (n_axes, 1)))
        for k in range(n_axes):
            one = fim_axis_lambda(m, theta, vecs[:, k], deltas)
            assert one.shape == deltas.shape
            assert one.tobytes() == batched[k].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(_LOCKSTEP_MODELS)), data=st.data())
    def test_each_axis_equals_the_one_axis_search(self, name, data):
        # every search of the batch, frozen at its own tolerance, returns
        # the one-axis search's value to the last bit on the same profile
        m = _LOCKSTEP_MODELS[name]
        theta = data.draw(arrays(float, m.dim, elements=st.sampled_from(
            [0.0, 1.0]) | _unit_interval))
        vals, vecs = ck.fim_poisson(m, theta).eigh()
        profile = m.axis_profile(theta, vecs)
        extent = data.draw(st.sampled_from([1.0, 2.0, 1e-7]))
        # no travel, travel under the first probe (its bracket may already
        # be under REFINE_TOL), and travel anywhere up to the probe margin
        travel = np.array(data.draw(st.lists(st.sampled_from(
            [0.0, 0.5 * GRID_FLOOR * extent, 0.5 * REFINE_TOL])
            | st.floats(0.0, 3.0 * extent), min_size=2 * m.dim,
            max_size=2 * m.dim))).reshape(m.dim, 2)
        center = np.maximum(vals, 0.0)
        got = _lift(profile, travel, extent, center)
        n_axes = m.dim
        for k in range(n_axes):
            def fi_along(deltas, k=k):
                return profile(np.tile(deltas, (n_axes, 1)))[k]
            want = axis_search_oracle(fi_along, travel[k, 0], travel[k, 1],
                                      extent, center[k])
            assert got[k] == want

    @settings(max_examples=15, deadline=None)
    @given(n_pixels=st.integers(1, 6), d=st.floats(0.2, 1.2),
           sigma_c=st.floats(0.05, 1.0), data=st.data())
    def test_batched_biphoton_profile_matches_one_axis(self, n_pixels, d,
                                                       sigma_c, data):
        m = ck.BiphotonG2Model(N=1e5, M=n_pixels, d=d, sigma_c=sigma_c)
        theta = data.draw(arrays(float, n_pixels, elements=st.sampled_from(
            [0.0, 1.0]) | _unit_interval))
        vecs = ck.fim_poisson(m, theta).eigh()[1]
        deltas = np.array([-1.5, -0.1, 0.0, 0.3, 2.0])
        batched = m.axis_profile(theta, vecs)(np.tile(deltas, (n_pixels, 1)))
        for k in range(n_pixels):
            one = m.axis_profile(theta, vecs[:, k:k + 1])(deltas[None])[0]
            assert np.abs(batched[k] - one).max() <= 1e-13 * np.abs(one).max()

    def test_biphoton_axis_products_are_chunked(self):
        # all 24 axes' products at once would take P M K floats, 8.2 MB here
        amplitudes = [1, 1, 1, 0, 0, 0] * 3 + [1] * 6
        m = ck.BiphotonG2Model(N=1e5, M=24, d=0.8, sigma_c=0.4,
                               reference=amplitudes)
        theta = np.array(amplitudes, dtype=float)
        f = ck.fim_poisson(m, theta)           # builds the table
        products = len(m._ensure_tables()) * 24 * 24 * 8
        tracemalloc.start()
        try:
            ck.regularize_fim(f, theta, m.box(), m.axis_profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert products > 7e6
        assert peak < 2.5e6


class TestWidthOracles:
    def test_y1_halfwidth(self):
        for x0_over_sigma in (0.5, 1.0, 2.0):
            p = ck.Y1Profile(x0=x0_over_sigma, sigma=1.0)
            closed = ck.profile_width_closed(p)
            assert closed == x0_over_sigma + 1.0
            assert ck.profile_width_numeric(p) == pytest.approx(closed,
                                                                rel=1e-6)

    def test_y1_without_flat_top_is_sigma(self):
        # curvature is 1/sigma^2 from x = 0 on, so the search keeps the value
        # it starts from and the width is sigma to the last bit
        for sigma in (0.5, 1.0, 2.0):
            p = ck.Y1Profile(x0=0.0, sigma=sigma)
            assert ck.profile_width_numeric(p) == pytest.approx(sigma,
                                                                rel=1e-15)

    def test_y2_halfwidth_k4(self):
        p = ck.Y2Profile(k=4.0, sigma=1.0)
        closed = ck.profile_width_closed(p)
        assert closed == pytest.approx(1.2779, abs=1e-3)
        assert ck.profile_width_numeric(p) == pytest.approx(closed, rel=1e-6)

    def test_numeric_matches_closed_sweep(self):
        for x0 in (0.5, 1.0, 2.0):
            for sigma in (0.5, 1.0, 2.0):
                p = ck.Y1Profile(x0=x0 * sigma, sigma=sigma)
                assert ck.profile_width_numeric(p) == pytest.approx(
                    ck.profile_width_closed(p), rel=1e-6)
        for k in (3.0, 4.0, 6.0, 8.0):
            for sigma in (0.5, 1.0, 2.0):
                p = ck.Y2Profile(k=k, sigma=sigma)
                assert ck.profile_width_numeric(p) == pytest.approx(
                    ck.profile_width_closed(p), rel=1e-6)

    def test_y2_near_parabolic_limit(self):
        # Closed form at k = 2.01 evaluates to 1.02420...; the ratio tends
        # to 1 as k -> 2 (2.4% away at this probe).
        p = ck.Y2Profile(k=2.01, sigma=1.0)
        assert ck.profile_width_closed(p) == pytest.approx(1.024204, abs=1e-5)
        assert ck.profile_width_closed(p) == pytest.approx(1.0, abs=0.025)

    def test_invalid_profiles(self):
        with pytest.raises(ck.ConfigError):
            ck.Y1Profile(x0=-1.0, sigma=1.0)
        with pytest.raises(ck.ConfigError):
            ck.Y2Profile(k=2.0, sigma=1.0)
