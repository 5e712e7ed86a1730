"""Fisher matrices: closed forms, brute-force oracle, Gaussian comparison."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crbkit as ck
from crbkit.scan import regularize_and_correct, run_ellipse


def uniform1_fi_closed(n_groups, eta, n, a):
    """4 n^2 N eta^n A^(2(n-1)) -- scalar information of the uniform model."""
    return 4.0 * n ** 2 * n_groups * eta ** n * a ** (2 * (n - 1))


def twopixel_fim_closed(n_groups, eta, h0, h1, a1, a2):
    zeta = 2.0 * h0 * h1 / (h0 ** 2 + h1 ** 2)
    pref = 16.0 * n_groups * eta ** 2 * (h0 ** 2 + h1 ** 2)
    return pref * np.array([[a1 ** 2, zeta * a1 * a2],
                            [zeta * a1 * a2, a2 ** 2]])


class TestPoissonFim:
    def test_uniform1_value(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        f = ck.fim_poisson(m, [0.5])
        assert f.matrix[0, 0] == pytest.approx(392.0, rel=1e-12)

    def test_uniform1_dark_limit_is_zero(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        assert ck.fim_poisson(m, [0.0]).matrix[0, 0] == 0.0

    def test_uniform1_dark_point_is_its_limit(self):
        # n = 1: F = 4 scale at every A, and A = 0 is no exception
        m = ck.Uniform1Model(N=200, eta=0.7, n=1)
        assert ck.fim_poisson(m, [0.0]).matrix[0, 0] == 4.0 * m.scale
        assert ck.fim_poisson(m, [1e-9]).matrix[0, 0] == 4.0 * m.scale

    def test_uniform1_closed_form_sweep(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        for a in np.arange(0.1, 0.95, 0.1):
            assert ck.fim_poisson(m, [a]).matrix[0, 0] == pytest.approx(
                uniform1_fi_closed(200, 0.7, 2, a), rel=1e-10)

    def test_twopixel_value(self):
        m = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
        f = ck.fim_poisson(m, [0.5, 0.5]).matrix
        assert f[0, 0] == pytest.approx(3214.4, rel=1e-10)
        assert f[0, 1] == pytest.approx(3136.0, rel=1e-10)
        assert np.allclose(f, twopixel_fim_closed(1000, 0.7, 1.0, 0.8, 0.5, 0.5),
                           rtol=1e-10)

    def test_linearity_in_counts(self):
        m1 = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
        m2 = ck.TwoPixelModel(N=3000, eta=0.7, h0=1.0, h1=0.8)
        th = [0.4, 0.7]
        assert np.allclose(3.0 * ck.fim_poisson(m1, th).matrix,
                           ck.fim_poisson(m2, th).matrix, rtol=1e-12)

    def test_psd_on_random_points(self):
        m = ck.SlitArrayModel(N=1e4, M=6, d=0.5, d_R=1.0)
        rng = np.random.default_rng(7)
        for _ in range(10):
            th = rng.uniform(0.0, 1.0, 6)
            f = ck.fim_poisson(m, th)
            vals = np.linalg.eigvalsh(f.matrix)
            assert vals.min() >= -1e-10 * max(vals.max(), 1e-300)


class TestBruteForce:
    def test_uniform1_matches(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        fb = ck.fim_bruteforce(m, [0.5], tail_mass=1e-12)
        assert fb.matrix[0, 0] == pytest.approx(392.0, rel=4e-4)

    def test_constant_signal_gives_zero(self):
        class FlatModel:
            dim = 1
            labels = ("c",)

            def box(self):
                return ck.unit_box(1)

            def signal(self, theta):
                theta = np.asarray(theta, dtype=float)
                if theta.ndim == 1:
                    return np.full(2, 5.0)
                return np.full((theta.shape[0], 2), 5.0)

            def jacobian(self, theta):
                theta = np.asarray(theta, dtype=float)
                if theta.ndim == 1:
                    return np.zeros((2, 1))
                return np.zeros((theta.shape[0], 2, 1))

        flat = FlatModel()
        # bypass eval_* validation shims by matching the informal interface
        fb = ck.fim_bruteforce(flat, [0.5], tail_mass=1e-12)
        assert abs(fb.matrix[0, 0]) < 1e-20

    def test_twopixel_oracle_equivalence(self):
        m = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
        fa = ck.fim_poisson(m, [0.5, 0.5]).matrix
        fb = ck.fim_bruteforce(m, [0.5, 0.5], tail_mass=1e-12).matrix
        assert np.abs(fb / fa - 1.0).max() < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(n_groups=st.floats(20.0, 2000.0), eta=st.floats(0.3, 1.0),
           n=st.integers(1, 3), a=st.floats(0.1, 0.9))
    def test_uniform1_random_models(self, n_groups, eta, n, a):
        m = ck.Uniform1Model(N=n_groups, eta=eta, n=n)
        fa = ck.fim_poisson(m, [a]).matrix
        fb = ck.fim_bruteforce(m, [a], tail_mass=1e-12).matrix
        assert np.abs(fb / fa - 1.0).max() < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(n_groups=st.floats(20.0, 2000.0), eta=st.floats(0.3, 1.0),
           h0=st.floats(0.1, 1.0), h1=st.floats(0.1, 1.0),
           a1=st.floats(0.1, 0.9), a2=st.floats(0.1, 0.9))
    def test_twopixel_random_models(self, n_groups, eta, h0, h1, a1, a2):
        m = ck.TwoPixelModel(N=n_groups, eta=eta, h0=h0, h1=h1)
        fa = ck.fim_poisson(m, [a1, a2]).matrix
        fb = ck.fim_bruteforce(m, [a1, a2], tail_mass=1e-12).matrix
        assert np.abs(fb / fa - 1.0).max() < 1e-6

    def test_truncation_budget(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        with pytest.raises(ck.TruncationBudgetExceeded):
            ck.fim_bruteforce(m, [0.5], tail_mass=1e-12, outcome_budget=3)

    @pytest.mark.parametrize("tail_mass", [0.0, -1.0, 1.0, 2.0, np.nan])
    def test_tail_mass_outside_unit_interval(self, tail_mass):
        # tail_mass = 1 used to sum no outcome past the mean: 72.46, not 392
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        with pytest.raises(ck.DomainError) as err:
            ck.fim_bruteforce(m, [0.5], tail_mass=tail_mass)
        assert str(err.value) == f"tail mass must lie in (0, 1), got {tail_mass}"


class TestGaussianNoise:
    def test_ratio_at_bright_signal(self):
        # Choose A so that S = 500: ratio F_G/F_P = 1 + 1/(2*500).
        m = ck.Uniform1Model(N=500 / 0.49 / 0.6 ** 4, eta=0.7, n=2)
        a = 0.6
        s = ck.eval_signal(m, [a])[0]
        fp = ck.fim_poisson(m, [a]).matrix[0, 0]
        fg = ck.fim_gaussian_noise(m, [a]).matrix[0, 0]
        assert fg / fp - 1.0 == pytest.approx(1.0 / (2.0 * s), rel=1e-12)

    def test_bright_asymptote(self):
        m = ck.TwoPixelModel(N=5000, eta=0.7, h0=1.0, h1=0.8)
        th = [0.7, 0.8]
        assert ck.eval_signal(m, th).min() > 50
        fp = ck.fim_poisson(m, th).matrix
        fg = ck.fim_gaussian_noise(m, th).matrix
        assert np.abs(fg / fp - 1.0).max() < 1e-2

    def test_dark_divergence_scaling(self):
        # In the weak-signal regime F_G grows by 4 when A is halved (A^-2).
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        a = 1e-4
        f1 = ck.fim_gaussian_noise(m, [a]).matrix[0, 0]
        f2 = ck.fim_gaussian_noise(m, [a / 2]).matrix[0, 0]
        assert f2 / f1 == pytest.approx(4.0, rel=1e-6)

    def test_exact_zero_signal_raises(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        with pytest.raises(ck.SingularTermError):
            ck.fim_gaussian_noise(m, [0.0])


class TestTotalVariance:
    def test_diagonal(self):
        f = ck.FisherMatrix(np.diag([4.0, 25.0]))
        assert ck.total_variance(f) == pytest.approx(0.29, rel=1e-14)

    def test_identity(self):
        for k in (1, 3, 7):
            assert ck.total_variance(ck.FisherMatrix(np.eye(k))) == \
                pytest.approx(float(k), rel=1e-14)

    def test_uniform1_reciprocal(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        f = ck.fim_poisson(m, [0.5])
        assert ck.total_variance(f) == pytest.approx(1.0 / 392.0, rel=1e-12)

    def test_singular_raises(self):
        with pytest.raises(ck.SingularFIM):
            ck.total_variance(ck.FisherMatrix(np.diag([1.0, 0.0])))

    def test_basis_independence(self):
        rng = np.random.default_rng(11)
        f = np.diag([3.0, 11.0, 0.4])
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = q @ f @ q.T
        tv1 = ck.total_variance(ck.FisherMatrix(f))
        tv2 = ck.total_variance(ck.FisherMatrix(0.5 * (rotated + rotated.T)))
        assert tv1 == pytest.approx(tv2, rel=1e-10)


class TestFisherMatrixType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ck.NonSymmetricInput):
            ck.FisherMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry", [1e308, -1e308])
    def test_rejects_entry_above_half_range(self, entry):
        # m + m^T would overflow; the largest finite m still passes
        with pytest.raises(ck.NonFiniteParameter) as err:
            ck.FisherMatrix(np.array([[1.0, entry], [entry, 1.0]]))
        assert str(err.value) == ("matrix has an entry of 1e+308, above "
                                  "half the float range")
        half = np.finfo(float).max / 2
        assert ck.FisherMatrix([[half]]).matrix[0, 0] == half

    def test_not_psd_message_is_one_line(self):
        # the extreme eigenvalues, not the whole spectrum, which NumPy's
        # array formatting wraps past about a dozen values
        with pytest.raises(ck.NonSymmetricInput, match="not PSD") as err:
            ck.FisherMatrix(-0.123456 * np.eye(24))
        assert "\n" not in str(err.value)
        assert "from -0.123 to -0.123" in str(err.value)

    def test_one_decomposition_per_matrix(self, decompositions):
        # F, F_reg and F_corr are each decomposed once, when built; the
        # shrink decomposes its entry kernel once, whatever its iterations
        model = ck.TwoPixelModel(N=50, eta=0.7, h0=1.0, h1=0.8)
        f, _, f_corr, _, report = regularize_and_correct(model, [0.9, 0.9])
        ck.total_variance(f)
        ck.total_variance(f_corr)
        assert report.iterations > 0
        assert len(decompositions) == 4

    def test_eigh_puts_zero_rows_first_as_coordinate_axes(self):
        f = ck.FisherMatrix(np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0],
                                      [1.0, 0.0, 2.0]]))
        vals, vecs = f.eigh()
        assert vals[0] == 0.0 and np.array_equal(vecs[:, 0], [0.0, 1.0, 0.0])
        assert vals[1:] == pytest.approx([1.0, 3.0], rel=1e-14)
        assert np.allclose((vecs * vals) @ vecs.T, f.matrix, atol=1e-14)

    def test_json_round_trip(self):
        f = ck.FisherMatrix(np.array([[2.0, 0.5], [0.5, 3.0]]), ("A1", "A2"))
        doc = f.to_json()
        back = ck.FisherMatrix.from_json(doc)
        assert np.array_equal(back.matrix, f.matrix)
        assert back.labels == f.labels

    def test_dark_inconsistency_raises(self):
        class BadModel:
            dim = 1
            labels = ("x",)

            def signal(self, theta):
                theta = np.asarray(theta)
                out = np.zeros(theta.shape[:-1] + (1,))
                return out

            def jacobian(self, theta):
                theta = np.asarray(theta)
                return np.ones(theta.shape[:-1] + (1, 1))

        # fim_poisson reads grad Psi, in which no 1/S can diverge; the
        # oracle still divides by S
        with pytest.raises(ck.SingularTermError):
            ck.fim_bruteforce(BadModel(), [0.3])


def _rejects_as_asymmetric(call) -> bool:
    try:
        call()
    except ck.NonSymmetricInput:
        return True
    except ck.ConfigError:          # run_ellipse draws only 2x2 kernels
        pass
    return False


class TestOneSymmetryRule:
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
           log_asym=st.floats(-14.0, -8.0))
    @example(n=2, seed=0, log_asym=-11.0)
    @example(n=3, seed=0, log_asym=-9.0)
    def test_every_entry_point_agrees(self, n, seed, log_asym):
        # A well-conditioned SPD matrix with one off-diagonal entry moved
        # by 10**log_asym of its largest entry. FisherMatrix, GaussianApprox,
        # regularize_fim given an array and the ellipse config all accept
        # it or all reject it.
        a = np.random.default_rng(seed).normal(size=(n, n))
        m = a @ a.T + n * np.eye(n)
        m[0, 1] += 10.0 ** log_asym * np.abs(m).max()
        theta = np.full(n, 0.5)

        def flat(theta, v):
            return lambda deltas: np.zeros(np.shape(deltas))

        verdicts = {
            "FisherMatrix": _rejects_as_asymmetric(lambda: ck.FisherMatrix(m)),
            "GaussianApprox": _rejects_as_asymmetric(
                lambda: ck.GaussianApprox(theta, m)),
            "regularize_fim": _rejects_as_asymmetric(
                lambda: ck.regularize_fim(m, theta, ck.unit_box(n), flat)),
            "run_ellipse": _rejects_as_asymmetric(
                lambda: run_ellipse({"kernel": m.tolist()})),
        }
        assert len(set(verdicts.values())) == 1, verdicts
        if abs(log_asym + 12.0) > 0.01:
            assert verdicts["FisherMatrix"] == (log_asym > -12.0)
