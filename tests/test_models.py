"""Signal models: closed-form values, derivative checks, kernel oracles."""

import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import sici

import crbkit as ck
from crbkit.models import KMAX_FACTOR, _sinc, _square_law_profile


def fd_jacobian(model, theta, h_rel=1e-4, h_min=1e-6):
    theta = np.asarray(theta, dtype=float)
    out = np.empty((ck.eval_signal(model, theta).size, theta.size))
    for mu in range(theta.size):
        h = max(h_min, h_rel * abs(theta[mu]))
        e = np.zeros(theta.size)
        e[mu] = h
        out[:, mu] = (ck.eval_signal(model, theta + e)
                      - ck.eval_signal(model, theta - e)) / (2 * h)
    return out


class TestUniform1:
    def test_zero_transmission_zero_signal(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        assert ck.eval_signal(m, [0.0])[0] == 0.0

    def test_signal_value(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        assert ck.eval_signal(m, [0.5])[0] == pytest.approx(6.125, rel=1e-12)

    def test_jacobian_value(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        assert ck.eval_jacobian(m, [0.5])[0, 0] == pytest.approx(49.0, rel=1e-12)

    def test_jacobian_vanishes_at_zero(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        assert ck.eval_jacobian(m, [0.0])[0, 0] == 0.0

    def test_loglog_slope_is_2n(self):
        for n in (1, 2, 3):
            m = ck.Uniform1Model(N=100, eta=0.5, n=n)
            a1, a2 = 0.3, 0.6
            s1 = ck.eval_signal(m, [a1])[0]
            s2 = ck.eval_signal(m, [a2])[0]
            slope = np.log(s2 / s1) / np.log(a2 / a1)
            assert slope == pytest.approx(2 * n, abs=1e-9)


class TestSquareLawProfile:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6),
           scale=st.floats(1e-3, 1e6),
           delta=st.floats(-10.0, 10.0))
    def test_collapsed_map_matches_factored_sum(self, data, n, scale, delta):
        # the three-coefficient map against 4 scale sum (g + delta h)^2 in
        # exact arithmetic; the expanded form may cancel near a zero slope,
        # so the bound scales with its terms, not with the value, and
        # allows for underflow below the smallest normal number
        entries = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
        g = np.array(data.draw(entries))
        h = np.array(data.draw(entries))
        got = float(_square_law_profile(scale, g[None], h[None])(
            np.array([[delta]]))[0, 0])
        exact = 4 * Fraction(scale) * sum(
            (Fraction(gp) + Fraction(delta) * Fraction(hp)) ** 2
            for gp, hp in zip(g, h))
        c0, c1, c2 = (4 * scale * np.sum(g * g), 8 * scale * np.sum(g * h),
                      4 * scale * np.sum(h * h))
        size = abs(c0) + abs(c1 * delta) + c2 * delta * delta
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        assert abs(Fraction(got) - exact) <= 8 * eps * size + tiny


class TestTwoPixel:
    def test_signal_value(self):
        m = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
        s = ck.eval_signal(m, [0.5, 0.5])
        assert s == pytest.approx([99.225, 99.225], rel=1e-12)

    def test_jacobian_value(self):
        m = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
        j = ck.eval_jacobian(m, [0.5, 0.5])
        assert j[0, 0] == pytest.approx(441.0, rel=1e-12)

    def test_jacobian_matches_finite_differences(self):
        m = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
        rng = np.random.default_rng(1)
        for _ in range(20):
            th = rng.uniform(0.05, 0.95, 2)
            assert np.allclose(ck.eval_jacobian(m, th), fd_jacobian(m, th),
                               rtol=1e-5)


class TestValidation:
    def test_dimension_mismatch(self):
        m = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
        with pytest.raises(ck.DimensionMismatch):
            ck.eval_signal(m, [0.5])

    def test_non_finite(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        with pytest.raises(ck.NonFiniteParameter):
            ck.eval_signal(m, [np.nan])

    def test_config_errors(self):
        with pytest.raises(ck.ConfigError):
            ck.Uniform1Model(N=-5, eta=0.7, n=2)
        with pytest.raises(ck.ConfigError):
            ck.Uniform1Model(N=5, eta=1.5, n=2)
        with pytest.raises(ck.ConfigError):
            ck.SlitArrayModel(N=10, M=4, d=-1.0)
        with pytest.raises(ck.ConfigError):
            ck.BiphotonG2Model(N=10, M=4, d=0.5, sigma_c=0.0)

    @pytest.mark.parametrize("model, step_factor", [
        pytest.param(model, step, id=f"{prefix}{step}")
        for model, prefix in ((ck.BiphotonG2Model, ""),
                              (ck.SlitArrayModel, "SlitArray-"))
        for step in (0.4, 0.3, 2.0, 0.0, -0.5, math.nan, math.inf)])
    def test_biphoton_step_must_divide_pixel(self, model, step_factor):
        """Both pixel-array models put pixel edges on the detector grid."""
        with pytest.raises(ck.ConfigError, match="step_factor"):
            model(N=10, M=4, d=0.5, step_factor=step_factor)

    @pytest.mark.parametrize("model", [ck.SlitArrayModel, ck.BiphotonG2Model])
    @pytest.mark.parametrize("m_pixels", [4.5, 0, -2, True, math.nan,
                                          pytest.param("4", id="str")])
    def test_pixel_count_must_be_whole(self, model, m_pixels):
        with pytest.raises(ck.ConfigError, match="M must be a whole number"):
            model(N=10, M=m_pixels, d=0.5)

    @pytest.mark.parametrize("model", [ck.SlitArrayModel, ck.BiphotonG2Model])
    def test_whole_float_pixel_count_is_int(self, model):
        spec = model(N=10, M=4.0, d=0.5)
        assert type(spec.M) is int and spec.M == 4
        assert spec.box().dim == 4 and spec.labels[-1] == "A4"

    @pytest.mark.parametrize("step_factor, steps", [
        (1.0, 1), (0.5, 2), (1 / 3, 3), (0.25, 4)])
    def test_biphoton_whole_steps_per_pixel(self, step_factor, steps):
        spec = ck.BiphotonG2Model(N=10, M=3, d=0.6, step_factor=step_factor)
        assert spec.pixel_steps == steps
        assert np.allclose(spec.detectors[1:] - spec.detectors[:-1],
                           0.6 / steps)
        assert_matches_pairwise(3, 0.6, 0.3, step_factor)

    @pytest.mark.parametrize("variant, params, message", [
        ("Uniform1", {"N": math.nan}, "model parameter N must be a finite "
         "number, not nan"),
        ("Uniform1", {"N": math.inf}, "model parameter N must be a finite "
         "number, not inf"),
        ("TwoPixel", {"h0": math.nan}, "model parameter h0 must be a finite "
         "number, not nan"),
        ("TwoPixel", {"N": math.inf}, "model parameter N must be a finite "
         "number, not inf"),
        ("SlitArray", {"d": math.inf}, "model parameter d must be a finite "
         "number, not inf"),
        ("SlitArray", {"N": math.nan}, "model parameter N must be a finite "
         "number, not nan"),
        ("SlitArray", {"d_R": math.nan}, "model parameter d_R must be a "
         "finite number, not nan"),
        ("BiphotonG2", {"sigma_c": math.nan}, "model parameter sigma_c must "
         "be a finite number, not nan"),
        ("Uniform1", {"n": math.nan}, "n must be a whole number >= 1, not nan"),
        ("Uniform1", {"n": math.inf}, "n must be a whole number >= 1, not inf"),
        ("Uniform1", {"n": True}, "n must be a whole number >= 1, not True"),
        ("Uniform1", {"n": 2.5}, "n must be a whole number >= 1, not 2.5"),
        ("Uniform1", {"n": 1e300},
         "n is too large for its square to be a float: 1e+300"),
        ("SlitArray", {"M": 4.5}, "M must be a whole number >= 1, not 4.5"),
        ("BiphotonG2", {"M": 0}, "M must be a whole number >= 1, not 0"),
        ("SlitArray", {"M": True}, "M must be a whole number >= 1, not True"),
        ("BiphotonG2", {"M": math.nan},
         "M must be a whole number >= 1, not nan"),
        ("SlitArray", {"M": "4"}, "M must be a whole number >= 1, not '4'"),
        ("SlitArray", {"reference": [1, math.nan, 1]}, "model parameter "
         "reference must be a flat list of finite numbers"),
        ("BiphotonG2", {"reference": [1, True, 1]}, "model parameter "
         "reference must be a flat list of finite numbers"),
        # NumPy refuses both grids by their length, before allocating
        ("SlitArray", {"step_factor": 1e-300}, "detector grid is too large "
         "for an array length: pad_factor 2.0, step_factor 1e-300"),
        ("BiphotonG2", {"pad_factor": 1e300}, "detector grid is too large "
         "for an array length: pad_factor 1e+300, step_factor 0.5"),
    ], ids=["U-N-nan", "U-N-inf", "TP-h0-nan", "TP-N-inf", "SA-d-inf",
            "SA-N-nan", "SA-d_R-nan", "BG-sigma_c-nan", "n-nan", "n-inf",
            "n-bool", "n-fraction", "n-huge", "M-fraction", "M-zero",
            "M-bool", "M-nan", "M-str", "reference-nan", "reference-bool",
            "grid-step", "grid-pad"])
    def test_json_and_direct_construction_agree(self, variant, params,
                                                message):
        base = {"Uniform1": {"N": 200, "eta": 0.7, "n": 2},
                "TwoPixel": {"N": 1000, "eta": 0.7, "h0": 1.0, "h1": 0.8},
                "SlitArray": {"N": 100, "M": 3, "d": 0.5},
                "BiphotonG2": {"N": 100, "M": 3, "d": 0.5}}[variant]
        params = dict(base, **params)
        with pytest.raises(ck.ConfigError) as from_json:
            ck.model_from_json({"variant": variant, "params": params})
        with pytest.raises(ck.ConfigError) as direct:
            getattr(ck, f"{variant}Model")(**params)
        assert str(from_json.value) == str(direct.value) == message

    def test_reference_array_accepted(self):
        pattern = [1.0, 0.0, 1.0]
        a = ck.SlitArrayModel(N=100, M=3, d=0.5, reference=np.array(pattern))
        b = ck.SlitArrayModel(N=100, M=3, d=0.5, reference=pattern)
        assert np.array_equal(a.reference, b.reference)
        with pytest.raises(ck.ConfigError, match="reference must be a flat"):
            ck.SlitArrayModel(N=100, M=3, d=0.5, reference=np.ones((1, 3)))

    def test_box_rejects_nan_bounds(self):
        with pytest.raises(ck.ConfigError, match="box bounds must not be NaN"):
            ck.BoxDomain([math.nan, 0.0], [1.0, 1.0])
        # infinite bounds stay legal: box_constraints skips them
        box = ck.BoxDomain([-math.inf, 0.0], [1.0, math.inf])
        assert len(ck.box_constraints(box)) == 2

    def test_signals_nonnegative_on_random_points(self):
        models = [
            ck.Uniform1Model(N=200, eta=0.7, n=2),
            ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8),
            ck.SlitArrayModel(N=100, M=4, d=0.5),
        ]
        rng = np.random.default_rng(2)
        for m in models:
            for _ in range(30):
                th = rng.uniform(0.0, 1.0, m.dim)
                assert np.all(ck.eval_signal(m, th) >= 0.0)


def trapezoid_sinc2_integral(lo, hi, x_j, d_r, panels=1_000_000):
    """Independent brute-force quadrature of the slit kernel coefficient."""
    k = KMAX_FACTOR / d_r
    s = np.linspace(lo, hi, panels + 1)
    y = _sinc(k * (s - x_j)) ** 2
    return 4.0 * k * k * np.trapezoid(y, s)


SLIT_GEOMETRIES = [
    # M, d, d_R, pad_factor, step_factor
    (10, 0.5, 1.0, 2.0, 0.5),
    (10, 0.5, 1.0, 2.0, 1.0),
    (7, 0.3, 0.8, 1.5, 1 / 3),
    (5, 0.14, 1.0, 2.0, 0.25),
    (4, 1.2, 1.3, 0.5, 1 / 3),
    (1, 0.7, 1.0, 2.0, 0.5),
]


def slit_spec(geometry):
    m_pixels, d, d_r, pad, step_factor = geometry
    return ck.SlitArrayModel(N=10, M=m_pixels, d=d, d_R=d_r, pad_factor=pad,
                             step_factor=step_factor)


def detector_indices(spec):
    """Indices ``j`` of the detector positions ``x_j = j step``."""
    return np.round(spec.detectors / spec.step).astype(int).tolist()


class TestSlitKernel:
    def test_point_pixel_limit(self):
        d_r = 1.0
        spec = ck.SlitArrayModel(N=10, M=3, d=0.001 * d_r, d_R=d_r)
        # Pixel 2 covers [0.001, 0.002]; detector j=3 sits at 0.0015 (its
        # center), so the integrand is sinc^2(~0) ~= 1 across the pixel.
        k = KMAX_FACTOR / d_r
        val = ck.slit_kernel_coeff(2, 3, spec)
        assert val == pytest.approx(4 * k * k * spec.d, rel=1e-5)

    def test_symmetric_offsets_equal(self):
        spec = ck.SlitArrayModel(N=10, M=4, d=0.5, d_R=1.0)
        # Detector j=2 sits at x = d, the shared edge of pixels 1 and 2,
        # which are mirror images through the sinc^2 peak.
        left = ck.slit_kernel_coeff(1, 2, spec)
        right = ck.slit_kernel_coeff(2, 2, spec)
        assert left == pytest.approx(right, rel=1e-10)

    def test_against_trapezoid_oracle(self):
        spec = ck.SlitArrayModel(N=10, M=4, d=0.5, d_R=1.0)
        val = ck.slit_kernel_coeff(2, 2, spec)   # pixel adjacent to x_j = d/2
        oracle = trapezoid_sinc2_integral(0.5, 1.0, 0.5, 1.0)
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_shift_covariance(self):
        # Translating a detector by a full pixel equals shifting the pixel
        # index: D_m(x_j) == D_{m+1}(x_j + d), so pixel sums over
        # correspondingly shifted windows agree to quadrature tolerance.
        spec = ck.SlitArrayModel(N=10, M=8, d=0.5, d_R=1.0)
        j = 8                                     # x_j = 2.0, mid-array
        for m in range(1, 8):
            a = ck.slit_kernel_coeff(m, j, spec)
            b = ck.slit_kernel_coeff(m + 1, j + 2, spec)
            assert a == pytest.approx(b, rel=1e-9)
        sum_a = sum(ck.slit_kernel_coeff(m, j, spec) for m in range(1, 8))
        sum_b = sum(ck.slit_kernel_coeff(m, j + 2, spec) for m in range(2, 9))
        assert sum_a * spec.d == pytest.approx(sum_b * spec.d, rel=1e-9)

    @pytest.mark.parametrize("geometry", SLIT_GEOMETRIES)
    def test_table_matches_per_entry_oracle(self, geometry):
        spec = slit_spec(geometry)
        oracle = np.array([[ck.slit_kernel_coeff(m, j, spec)
                            for m in range(1, spec.M + 1)]
                           for j in detector_indices(spec)])
        table = spec.coeffs
        assert table.shape == oracle.shape
        assert np.abs(table - oracle).max() <= 1e-14 * np.abs(oracle).max()

    @pytest.mark.parametrize("geometry", SLIT_GEOMETRIES)
    def test_table_matches_closed_form(self, geometry):
        # int sinc^2(u) du = F(u) = Si(2u) - sin^2(u) / u, the last term
        # written u sinc^2(u) so that F(0) = 0 needs no special case
        spec = slit_spec(geometry)
        k = KMAX_FACTOR / spec.d_R
        x = spec.step * np.array(detector_indices(spec), dtype=float)[:, None]
        edges = spec.d * np.arange(spec.M + 1)

        def antiderivative(u):
            return sici(2.0 * u)[0] - u * _sinc(u) ** 2

        f = antiderivative(k * (edges[None, :] - x))
        oracle = 4.0 * k * (f[:, 1:] - f[:, :-1])
        table = spec.coeffs
        assert table.shape == oracle.shape
        assert np.abs(table - oracle).max() <= 1e-10 * np.abs(table).max()

    @pytest.mark.parametrize("geometry", SLIT_GEOMETRIES)
    def test_one_quadrature_per_offset(self, geometry, monkeypatch):
        spec = slit_spec(geometry)
        calls = []
        real = ck.models.adaptive_simpson

        def counting(f, a, b, n, **kwargs):
            calls.append(n)
            return real(f, a, b, n, **kwargs)

        monkeypatch.setattr(ck.models, "adaptive_simpson", counting)
        table = spec.coeffs
        offsets = {spec.pixel_steps * (m - 1) - j
                   for m in range(1, spec.M + 1) for j in detector_indices(spec)}
        assert calls == [len(offsets)]
        if geometry == SLIT_GEOMETRIES[0]:
            assert (calls, table.size) == ([55], 370)

    def test_empty_detector_grid(self):
        # a negative padding would shrink the detector grid inside the
        # object (here: empty it); it is refused when the model is built
        with pytest.raises(ck.ConfigError,
                           match="pad_factor must be a finite number >= 0"):
            ck.SlitArrayModel(N=10, M=2, d=0.5, pad_factor=-1.0)


def pairwise_g2_coeffs(spec):
    """Reference coupling table: one quadrature and product per pixel pair.

    The same Gauss-Legendre rule as :func:`crbkit.biphoton_g2_coeffs`, with
    nodes placed in absolute coordinates for every pair ``(m, l)``.
    """
    xs = spec.detectors
    n_det, mm, d, sig = xs.size, spec.M, spec.d, spec.sigma_c
    k = KMAX_FACTOR / spec.d_R
    u_cut = 8.0 * sig
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sig)
    gl_u, gw_u = np.polynomial.legendre.leggauss(16)
    gl_s, gw_s = np.polynomial.legendre.leggauss(24)
    out = np.zeros((n_det, n_det, mm, mm))
    for m in range(mm):
        lo_m, hi_m = m * d, m * d + d
        for l in range(mm):
            c_ml = (m - l) * d
            u_lo, u_hi = max(c_ml - d, -u_cut), min(c_ml + d, u_cut)
            if u_lo >= u_hi:
                continue
            if u_lo < c_ml < u_hi:
                pieces = [(u_lo, c_ml), (c_ml, u_hi)]
            else:
                pieces = [(u_lo, u_hi)]
            s1_nodes, s2_nodes, weights = [], [], []
            for pa, pb in pieces:
                u_nodes = 0.5 * (pb - pa) * gl_u + 0.5 * (pa + pb)
                u_w = 0.5 * (pb - pa) * gw_u
                for u, wu in zip(u_nodes, u_w):
                    a = max(lo_m, l * d + u)
                    b = min(hi_m, l * d + d + u)
                    if b - a <= 0:
                        continue
                    s = 0.5 * (b - a) * gl_s + 0.5 * (a + b)
                    g = norm * math.exp(-0.5 * (u / sig) ** 2)
                    s1_nodes.append(s)
                    s2_nodes.append(s - u)
                    weights.append(wu * g * 0.5 * (b - a) * gw_s)
            if not weights:
                continue
            s1, s2 = np.concatenate(s1_nodes), np.concatenate(s2_nodes)
            w = np.concatenate(weights)
            h1 = 2.0 * k * _sinc(k * (s1[:, None] - xs[None, :]))
            h2 = 2.0 * k * _sinc(k * (s2[:, None] - xs[None, :]))
            out[:, :, m, l] = (h1 * w[:, None]).T @ h2
    return 0.5 * (out + out.transpose(1, 0, 3, 2))


def pair_table(d4):
    """Pair table ``Dsym[p, m, l]`` of a swap-symmetric ``D[i, j, m, l]``.

    ``p`` runs over the pairs ``i <= j`` in ``np.triu_indices`` order.
    """
    pairs = d4[np.triu_indices(d4.shape[0])]
    return pairs + pairs.transpose(0, 2, 1)


def assert_matches_pairwise(m_pixels, d, sigma_c, step_factor=0.5):
    spec = ck.BiphotonG2Model(N=10, M=m_pixels, d=d, d_R=1.0,
                              sigma_c=sigma_c, step_factor=step_factor)
    table = ck.biphoton_g2_coeffs(spec)
    oracle = pair_table(pairwise_g2_coeffs(spec))
    assert table.shape == oracle.shape
    assert np.abs(table - oracle).max() <= 1e-13 * np.abs(oracle).max()
    assert np.array_equal(table, table.transpose(0, 2, 1))


class TestBiphotonCoeffs:
    @pytest.mark.parametrize("m_pixels, d, sigma_c", [
        (24, 0.14, 0.4),
        (24, 1.0, 0.4),
        (4, 0.5, 5e-8),
        (1, 0.7, 0.3),
        (5, 0.4, 2.0),        # the cut-off 8 sigma_c spans every offset
    ])
    def test_matches_pairwise_oracle(self, m_pixels, d, sigma_c):
        assert_matches_pairwise(m_pixels, d, sigma_c)

    # The cut-off 8 sigma_c leaves the offsets o with (o + 1) d <= 8 sigma_c
    # on the shared nodes and clips the next ones. The examples clip
    # offsets 3 and 4 of 6 pixels (0 to 2 shared; 4 to one piece), and
    # offsets 0 and 1 of 3 pixels (1 to one piece; 2 lies past the cut-off).
    @settings(max_examples=25, deadline=None)
    @given(m_pixels=st.integers(1, 6), d=st.floats(0.1, 1.5),
           sigma_c=st.floats(0.02, 2.0),
           step_factor=st.sampled_from([1.0, 0.5, 1.0 / 3.0]))
    @example(m_pixels=6, d=0.5, sigma_c=0.2, step_factor=1.0 / 3.0)
    @example(m_pixels=3, d=1.0, sigma_c=0.05, step_factor=1.0)
    def test_matches_pairwise_oracle_random(self, m_pixels, d, sigma_c,
                                            step_factor):
        assert_matches_pairwise(m_pixels, d, sigma_c, step_factor)

    def test_ideal_limit_is_diagonal(self):
        spec = ck.BiphotonG2Model(N=10, M=4, d=0.5, d_R=1.0, sigma_c=0.5e-3)
        table = ck.biphoton_g2_coeffs(spec)
        diag = np.einsum("pmm->pm", table)
        off = table - np.einsum("pm,ml->pml", diag, np.eye(4))
        assert np.abs(off).max() < 1e-3 * np.abs(diag).max()

    def test_ideal_limit_matches_slit_coefficients(self):
        # The leading finite-correlation correction is O(sigma_c / d), so
        # ratio constancy at 1e-6 needs sigma_c well below 1e-6 d.
        bi = ck.BiphotonG2Model(N=10, M=4, d=0.5, d_R=1.0, sigma_c=5e-8)
        slit = ck.SlitArrayModel(N=10, M=4, d=0.5, d_R=1.0)
        table = ck.biphoton_g2_coeffs(bi)
        xs = bi.detectors
        j_idx = np.round(xs / bi.step).astype(int)
        iu, ju = np.triu_indices(xs.size)
        jj_pair = np.flatnonzero(iu == ju)        # rows of the pairs (j, j)
        ratios = []
        for jj in range(0, xs.size, 5):
            for m in range(1, 5):
                slit_val = ck.slit_kernel_coeff(m, int(j_idx[jj]), slit)
                if slit_val > 1e-6:
                    ratios.append(table[jj_pair[jj], m - 1, m - 1] / slit_val)
        ratios = np.asarray(ratios)
        assert np.abs(ratios / ratios[0] - 1.0).max() < 1e-6

    def test_swap_symmetry_exact(self):
        spec = ck.BiphotonG2Model(N=10, M=3, d=0.4, d_R=1.0, sigma_c=0.3)
        table = ck.biphoton_g2_coeffs(spec)
        n_det = spec.detectors.size
        assert table.shape == (n_det * (n_det + 1) // 2, 3, 3)
        assert np.array_equal(table, table.transpose(0, 2, 1))

    def test_concurrent_builds_match_sequential(self):
        # d = 0.14 has the largest per-node products, 151 x 24 x 151
        specs = [ck.BiphotonG2Model(N=1e5, M=24, d=d, d_R=1.0, sigma_c=0.4)
                 for d in (0.14, 1.0)]
        sequential = [ck.biphoton_g2_coeffs(spec) for spec in specs]
        with ThreadPoolExecutor(2) as pool:
            concurrent = list(pool.map(ck.biphoton_g2_coeffs, specs))
        for one, other in zip(sequential, concurrent):
            assert np.array_equal(one, other)

    def test_table_build_memory(self):
        # the build holds about one extra table, not a four-index copy
        spec = ck.BiphotonG2Model(N=1e5, M=24, d=0.8, d_R=1, sigma_c=0.4)
        tracemalloc.start()
        try:
            table = spec._ensure_tables()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * table.nbytes

    def test_jacobian_matches_finite_differences(self):
        m = ck.BiphotonG2Model(N=100, M=3, d=0.5, d_R=1.0, sigma_c=0.2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            th = rng.uniform(0.2, 0.9, 3)
            assert np.allclose(ck.eval_jacobian(m, th), fd_jacobian(m, th),
                               rtol=1e-5, atol=1e-10)


class TestSlitArrayModel:
    def test_total_reference_signal_is_n(self):
        pattern = np.array([1.0, 0.5, 1.0, 0.0, 1.0])
        m = ck.SlitArrayModel(N=5000, M=5, d=0.6, d_R=1.0, reference=pattern)
        assert ck.eval_signal(m, pattern).sum() == pytest.approx(5000.0)

    def test_jacobian_matches_finite_differences(self):
        m = ck.SlitArrayModel(N=1e4, M=6, d=0.5, d_R=1.0)
        rng = np.random.default_rng(4)
        for _ in range(10):
            th = rng.uniform(0.1, 0.95, 6)
            assert np.allclose(ck.eval_jacobian(m, th), fd_jacobian(m, th),
                               rtol=1e-5, atol=1e-9)

    def test_detector_grid_covers_padded_support(self):
        m = ck.SlitArrayModel(N=10, M=10, d=0.5, d_R=1.0)
        xs = m.detectors
        assert xs.min() <= -2.0 + 1e-9 and xs.max() >= 5.0 + 2.0 - 1e-9
        assert np.allclose(np.diff(xs), 0.25)


class TestModelJson:
    def test_round_trip(self):
        docs = [
            {"variant": "Uniform1", "params": {"N": 200, "eta": 0.7, "n": 2}},
            {"variant": "TwoPixel",
             "params": {"N": 1000, "eta": 0.7, "h0": 1.0, "h1": 0.8}},
            {"variant": "SlitArray",
             "params": {"N": 100.0, "M": 4, "d": 0.5, "d_R": 1.0,
                        "reference": [1, 0, 1, 0], "pad_factor": 2.0,
                        "step_factor": 0.5}},
        ]
        for doc in docs:
            model = ck.model_from_json(doc)
            back = ck.model_to_json(model)
            again = ck.model_from_json(json.dumps(back))
            assert ck.model_to_json(again) == back

    def test_unknown_variant_rejected(self):
        with pytest.raises(ck.ConfigError):
            ck.model_from_json({"variant": "Nope", "params": {}})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ck.ConfigError):
            ck.model_from_json({"variant": "Uniform1",
                                "params": {"N": 1, "eta": 0.5, "n": 1,
                                           "bogus": 3}})
