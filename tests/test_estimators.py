"""Estimators and Monte-Carlo harness: closed forms, oracles, determinism."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.random import Philox, default_rng
from scipy.integrate import dblquad
from scipy.optimize import least_squares, minimize
from scipy.stats import poisson

import crbkit as ck
import crbkit.estimators as estimators
from crbkit.estimators import (SampleBatch, _convex_start, _fit_box,
                               ls_estimate_batch)
from crbkit.optimize import (_solve_rows, minimize_box_batch, objective,
                             spread_starts)


@pytest.fixture(scope="module")
def uniform1():
    return ck.Uniform1Model(N=200, eta=0.7, n=2)


@pytest.fixture(scope="module")
def twopixel():
    return ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)


class TestSampling:
    def test_dark_component_always_zero(self, uniform1):
        batch = ck.sample_signal(uniform1, [0.0], seed=1, count=500)
        assert np.all(batch.outcomes == 0)

    def test_mean_within_clt_band(self, uniform1):
        count = 100_000
        batch = ck.sample_signal(uniform1, [0.5], seed=2, count=count)
        s = 6.125
        assert abs(batch.outcomes.mean() - s) <= 5.0 * np.sqrt(s / count)

    def test_bitwise_determinism(self, twopixel):
        b1 = ck.sample_signal(twopixel, [0.4, 0.6], seed=42, count=300)
        b2 = ck.sample_signal(twopixel, [0.4, 0.6], seed=42, count=300)
        assert np.array_equal(b1.outcomes, b2.outcomes)
        b3 = ck.sample_signal(twopixel, [0.4, 0.6], seed=43, count=300)
        assert not np.array_equal(b1.outcomes, b3.outcomes)

    @staticmethod
    def _check_substreams(model, theta, seed, count, k):
        k = min(k, count)
        # Oracle: a freshly built generator on each (sample, component)
        # substream; a shorter batch is a prefix of a longer one.
        means = ck.eval_signal(model, theta)
        batch = ck.sample_signal(model, theta, seed=seed, count=count)
        assert batch.outcomes.shape == (count, means.size)
        for s in range(count):
            for i, mean in enumerate(means):
                bg = np.random.Philox(
                    key=np.uint64(seed),
                    counter=np.array([0, 0, s, i], dtype=np.uint64))
                assert batch.outcomes[s, i] == \
                    np.random.Generator(bg).poisson(mean), (s, i, mean)
        head = ck.sample_signal(model, theta, seed=seed, count=k)
        assert np.array_equal(head.outcomes, batch.outcomes[:k])

    _seeds = st.integers(0, 2 ** 64 - 1)
    _counts = st.integers(1, 30)
    _amplitude = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    _pair = st.lists(_amplitude, min_size=2, max_size=2)
    _quad = st.lists(_amplitude, min_size=4, max_size=4)
    # adjacent floats: S = 98 A^4 is 10 - 2e-15 at the first, 10 + 7e-15
    # at the second
    _below_10, _at_10 = 0.5651887140592688, 0.565188714059269

    # Uniform1 here has S = 98 A^4: NumPy draws means below 10 by
    # inversion and means of 10 or more by transformed rejection.
    @settings(max_examples=20, deadline=None)
    @given(seed=_seeds, count=_counts, a=st.floats(0.0, 0.56), k=_counts)
    @example(seed=2 ** 64 - 1, count=30, a=_below_10, k=4)
    @example(seed=12345, count=30, a=0.565, k=9)     # S = 9.99: 3+ blocks
    @example(seed=7, count=30, a=0.001, k=1)         # S = 9.8e-11
    def test_substreams_uniform_low_mean(self, uniform1, seed, count, a, k):
        assert ck.eval_signal(uniform1, [a])[0] < 10.0
        self._check_substreams(uniform1, [a], seed, count, k)

    @settings(max_examples=20, deadline=None)
    @given(seed=_seeds, count=_counts, a=st.floats(0.57, 1.0), k=_counts)
    @example(seed=2 ** 64 - 1, count=30, a=_at_10, k=4)
    def test_substreams_uniform_high_mean(self, uniform1, seed, count, a, k):
        assert ck.eval_signal(uniform1, [a])[0] >= 10.0
        self._check_substreams(uniform1, [a], seed, count, k)

    @settings(max_examples=10, deadline=None)
    @given(seed=_seeds, count=_counts, a=st.floats(0.57, 1.0), k=_counts)
    @example(seed=2 ** 63 - 1, count=30, a=0.91, k=2)   # S = 3.4e6
    # a draw whose log-acceptance test is near enough its boundary to be
    # decided again with libm's log
    @example(seed=199, count=30, a=0.91, k=7)
    def test_substreams_uniform_large_mean(self, seed, count, a, k):
        model = ck.Uniform1Model(N=1e7, eta=0.7, n=2)
        assert ck.eval_signal(model, [a])[0] >= 5e5
        self._check_substreams(model, [a], seed, count, k)

    @settings(max_examples=20, deadline=None)
    @given(seed=_seeds, count=_counts, theta=_pair, k=_counts)
    def test_substreams_two_pixel(self, twopixel, seed, count, theta, k):
        self._check_substreams(twopixel, theta, seed, count, k)

    @settings(max_examples=20, deadline=None)
    @given(seed=_seeds, count=_counts, theta=_quad, k=_counts)
    @example(seed=2 ** 32 - 1, count=5, theta=[0.0] * 4, k=3)
    def test_substreams_slit_dark_pixel(self, slit4, seed, count, theta, k):
        self._check_substreams(slit4, theta, seed, count, k)

    @pytest.mark.parametrize("seed, count, message", [
        (-1, 3, "seed must be a whole number >= 0, not -1"),
        (1.5, 3, "seed must be a whole number >= 0, not 1.5"),
        (2 ** 64, 3, "seed must be below 2\\*\\*64"),
        (0, -3, "count must be a whole number >= 0, not -3"),
        (0, 2.5, "count must be a whole number >= 0, not 2.5"),
    ])
    def test_rejects_bad_seed_and_count(self, uniform1, seed, count, message):
        with pytest.raises(ck.ConfigError, match=message):
            ck.sample_signal(uniform1, [0.5], seed=seed, count=count)

    def test_empty_batch(self, twopixel):
        batch = ck.sample_signal(twopixel, [0.4, 0.6], seed=2 ** 64 - 1,
                                 count=0)
        assert batch.outcomes.shape == batch.unique.shape == (0, 2)
        assert batch.inverse.shape == (0,)


class TestMleConstrained:
    def test_zero_counts(self, uniform1):
        assert ck.mle_constrained(uniform1, [0])[0] == 0.0

    def test_interior_root(self, uniform1):
        est = ck.mle_constrained(uniform1, [49])[0]
        assert est == pytest.approx((49.0 / 98.0) ** 0.25, rel=1e-12)
        assert est == pytest.approx(0.8409, abs=1e-4)

    def test_clipped_root(self, uniform1):
        # unconstrained root (100/98)^(1/4) = 1.0051 clips to 1
        assert ck.mle_constrained(uniform1, [100])[0] == 1.0

    @pytest.mark.parametrize("model", [
        ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8),
        ck.SlitArrayModel(N=1e4, M=4, d=0.5),
        ck.BiphotonG2Model(N=1e4, M=3, d=0.5, sigma_c=0.3),
    ], ids=["two-pixel", "slit", "biphoton"])
    def test_zero_counts_give_lower_corner(self, model):
        # with y = 0 the loss is sum(S) >= 0, and S vanishes at the corner
        y = np.zeros(model.signal(np.ones(model.dim)).size)
        assert np.array_equal(ck.mle_constrained(model, y), model.box().lower)

    def test_zero_row_in_mixed_batch_equals_solo_fit(self, twopixel):
        box = twopixel.box()
        ys = np.array([[30.0, 12.0], [0.0, 0.0], [5.0, 40.0]])
        whole = _fit_box(twopixel, ys, box, n_starts=3, poisson=True)
        assert np.array_equal(whole[1], box.lower)
        for y, est in zip(ys, whole):
            assert np.array_equal(
                ck.mle_constrained(twopixel, y, box, n_starts=3), est)

    def test_2d_beats_random_probes(self, twopixel):
        rng = np.random.default_rng(3)
        dom = twopixel.box()
        batch = ck.sample_signal(twopixel, [0.6, 0.7], seed=5, count=5)
        for y in batch.outcomes:
            est = ck.mle_constrained(twopixel, y, dom)
            assert dom.contains(est)
            s_est = twopixel.signal(est)
            ll_est = np.sum(y * np.log(s_est) - s_est)
            for _ in range(100):
                probe = rng.uniform(0, 1, 2)
                s_p = twopixel.signal(probe)
                with np.errstate(divide="ignore"):
                    ll_p = np.sum(np.where(s_p > 0, y * np.log(np.maximum(s_p, 1e-300)), np.where(y > 0, -np.inf, 0.0)) - s_p)
                assert ll_p <= ll_est + 1e-6 * (1 + abs(ll_est))

    def test_matches_dense_grid_oracle_near_faces(self):
        # The scatter study's (0.9, 0.9), N=50 case with its seed (777 plus
        # 104729 per case index): most estimates land on a box face. Oracle:
        # the negative log-likelihood minimized on a 1001^2 grid, then
        # refined by bounded L-BFGS-B.
        m = ck.TwoPixelModel(N=50, eta=0.7, h0=1.0, h1=0.8)
        batch = ck.sample_signal(m, [0.9, 0.9], seed=777 + 104729 * 2,
                                 count=20)
        g = np.linspace(0.0, 1.0, 1001)
        grid = np.stack(np.meshgrid(g, g, indexing="ij"),
                        axis=-1).reshape(-1, 2)
        s_grid = m.signal(grid)
        with np.errstate(divide="ignore"):
            log_grid = np.log(s_grid)

        def nll(x, y):
            s = m.signal(x)
            return (float(np.sum(s - y * np.log(s))),
                    (1.0 - y / s) @ m.jacobian(x))

        on_face = 0
        for y in np.unique(batch.outcomes, axis=0).astype(float):
            with np.errstate(invalid="ignore"):
                f_grid = s_grid.sum(axis=1) - np.where(
                    y > 0, y * log_grid, 0.0).sum(axis=1)
            ref = minimize(nll, grid[np.argmin(f_grid)], args=(y,), jac=True,
                           method="L-BFGS-B", bounds=[(0.0, 1.0)] * 2,
                           options={"ftol": 1e-15, "gtol": 1e-12})
            est = ck.mle_constrained(m, y)
            assert nll(est, y)[0] <= ref.fun + 1e-10 * (1.0 + abs(ref.fun))
            assert np.abs(est - ref.x).max() <= 1e-5, (y, est, ref.x)
            on_face += bool(np.any((est == 0.0) | (est == 1.0)))
        assert on_face >= 10


class TestBayesMean:
    def test_symmetric_likelihood_gives_center(self):
        # Engineered model: signal linear in A around the domain center, so
        # for the observed count equal to S(center) the likelihood is
        # symmetric about 0.5 and the posterior mean sits there.
        class LinearModel:
            dim = 1
            labels = ("a",)

            def box(self):
                return ck.unit_box(1)

            def signal(self, theta):
                theta = np.asarray(theta, dtype=float)
                vals = 50.0 + 10.0 * (theta[..., 0] - 0.5)
                return vals[..., None]

            def jacobian(self, theta):
                theta = np.asarray(theta, dtype=float)
                return np.full(theta.shape[:-1] + (1, 1), 10.0)

        m = LinearModel()
        est = ck.bayes_mean(m, [50], m.box())
        # Poisson likelihood in S is slightly skew; symmetry holds for the
        # Gaussian regime: allow the skew at S=50 but verify near-center.
        assert est[0] == pytest.approx(0.5, abs=2e-2)

    def test_zero_counts_against_trapezoid_oracle(self, uniform1):
        a = np.linspace(0.0, 1.0, 1_000_001)
        w = np.exp(-98.0 * a ** 4)
        oracle = np.trapezoid(w * a, a) / np.trapezoid(w, a)
        est = ck.bayes_mean(uniform1, [0])[0]
        assert est == pytest.approx(oracle, abs=1e-8)

    def test_doubling_convergence(self, uniform1):
        est1 = ck.bayes_mean(uniform1, [30], rel_tol=1e-8)[0]
        est2 = ck.bayes_mean(uniform1, [30], rel_tol=1e-10)[0]
        assert est1 == pytest.approx(est2, abs=1e-8)

    def test_two_pixel_against_dblquad_oracle(self):
        # The scatter study's (0.9, 0.9), N=50 case: its face-heavy outcomes
        # (highest counts, posterior pressed against A = 1) and y = (0, 0).
        # Oracle: scipy's adaptive dblquad over the whole unit box.
        m = ck.TwoPixelModel(N=50, eta=0.7, h0=1.0, h1=0.8)
        batch = ck.sample_signal(m, [0.9, 0.9], seed=777 + 104729 * 2,
                                 count=20)
        ys = np.unique(batch.outcomes, axis=0)
        ys = np.vstack([[0, 0], ys[np.argsort(-ys.max(axis=1),
                                              kind="stable")[:9]]])
        c = m.N * m.eta ** 2

        def loglike(a2, a1, y):
            s1 = c * (m.h0 * a1 * a1 + m.h1 * a2 * a2) ** 2
            s2 = c * (m.h1 * a1 * a1 + m.h0 * a2 * a2) ** 2
            return (y[0] * math.log(s1) if y[0] else 0.0) + \
                (y[1] * math.log(s2) if y[1] else 0.0) - s1 - s2

        g = np.linspace(0.05, 1.0, 20)
        for y in ys:
            ref = max(loglike(a2, a1, y) for a1 in g for a2 in g)
            z, m1, m2 = (dblquad(
                lambda a2, a1: f(a1, a2) * math.exp(loglike(a2, a1, y) - ref),
                0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)[0]
                for f in (lambda a1, a2: 1.0, lambda a1, a2: a1,
                          lambda a1, a2: a2))
            est = ck.bayes_mean(m, y)
            assert np.abs(est - [m1 / z, m2 / z]).max() <= 1e-8, (y, est)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_coarse_scan_matches_objective(self, monkeypatch, uniform1,
                                           twopixel, dim):
        # The coarse scan shares one log S over the call's rows, adds the
        # component terms row by row in a component-major layout and
        # reuses its scratch arrays: its log-likelihood must equal the
        # objective's bit for bit, zero counts against dark corner signals
        # included, and a stack must give the row-by-row estimates.
        model = uniform1 if dim == 1 else twopixel
        rng = np.random.default_rng(14)
        n_comp = model.signal(np.full(dim, 0.5)).size
        ys = rng.poisson(4.0, size=(10, n_comp)).astype(float)
        ys[0] = 0.0
        ys[1, 0] = 0.0
        seen = []
        window = estimators._posterior_window

        def spy(grids, cols, ll, lo, hi, tmp):
            seen.append((cols, ll.copy()))
            return window(grids, cols, ll, lo, hi, tmp)

        monkeypatch.setattr(estimators, "_posterior_window", spy)
        stack = ck.bayes_mean(model, ys)
        assert len(seen) == len(ys)
        for y, (cols, ll) in zip(ys, seen):
            # the scan's grid points, one row each, as a caller lays them out
            s = model.signal(np.ascontiguousarray(cols.T))
            assert np.any(s == 0.0)
            expect = -objective(s, y, poisson=True)
            assert ll.dtype == expect.dtype
            assert ll.tobytes() == expect.tobytes()
        for y, est in zip(ys, stack):
            assert np.array_equal(ck.bayes_mean(model, y), est)

    def test_dimension_limit(self):
        m = ck.SlitArrayModel(N=100, M=3, d=0.5)
        with pytest.raises(ck.DimensionTooLarge):
            ck.bayes_mean(m, [1, 2, 3])


class TestLsEstimate:
    def test_noiseless_recovery(self):
        pattern = np.array([1, 1, 0.9, 0.9, 1, 1, 0.9, 0.9, 1, 1])
        m = ck.SlitArrayModel(N=1e4, M=10, d=0.8, d_R=1.0, reference=pattern)
        y = ck.eval_signal(m, pattern)
        wide = ck.BoxDomain(np.zeros(10), 2.0 * np.ones(10))
        est = ck.ls_estimate(m, y, wide)
        r = ck.eval_signal(m, est) - y
        assert float(r @ r) <= 1e-12
        assert np.abs(est - pattern).max() <= 1e-4

    def test_clipping_lands_on_bounds(self, twopixel):
        # Make a target only reachable outside the box: active coordinates
        # must sit exactly on a bound.
        y = ck.eval_signal(twopixel, [1.0, 1.0]) * 1.5
        est = ck.ls_estimate(twopixel, y, twopixel.box())
        assert np.all((est == 1.0) | (est == 0.0) | ((est > 0) & (est < 1)))
        assert np.any(est == 1.0)

    def test_batch_matches_single(self):
        pattern = np.array([1.0, 0.4, 0.9])
        m = ck.SlitArrayModel(N=3000, M=3, d=0.6, d_R=1.0, reference=pattern)
        batch = ck.sample_signal(m, pattern, seed=9, count=20)
        ests = ls_estimate_batch(m, batch, m.box())
        for k in (0, 7, 19):
            single = ck.ls_estimate(m, batch.outcomes[k], m.box())
            assert np.allclose(ests[k], single, atol=1e-12)


    def test_no_bounded_descent_from_estimates(self):
        # Oracle: bounded trust-region least squares started from each
        # estimate must not find a lower sum of squares. Dark pixels press
        # estimates against the A = 0 face, where the Jacobian column
        # vanishes.
        pattern = np.array([1, 1, 0, 0, 1, 1, 0, 0, 1, 1], dtype=float)
        m = ck.SlitArrayModel(N=1e4, M=10, d=0.5, reference=pattern)
        batch = ck.sample_signal(m, pattern, seed=0, count=20)
        ests = ls_estimate_batch(m, batch, ck.unit_box(10), n_starts=6)
        for est, y in zip(ests, batch.outcomes.astype(float)):
            f_est = float(np.sum((m.signal(est) - y) ** 2))
            ref = least_squares(lambda a: m.signal(a) - y, est,
                                jac=m.jacobian, bounds=(0.0, 1.0),
                                method="trf", xtol=1e-15, ftol=1e-15,
                                gtol=1e-15)
            assert f_est - 2.0 * ref.cost <= 1e-9 * f_est, (est, ref.x)


class TestOutcomeValidation:
    # Every estimator checks its outcomes before any arithmetic: a bad
    # count ends in the error that names it, never in a NaN estimate, a
    # RuntimeWarning or a QuadratureFailure.
    ESTIMATORS = (ck.mle_constrained, ck.bayes_mean, ck.ls_estimate)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("y, error", [
        ([np.nan, 1.0], ck.NonFiniteParameter),
        ([np.inf, 1.0], ck.NonFiniteParameter),
        ([1.0, -np.inf], ck.NonFiniteParameter),
        ([-1.0, 2.0], ck.DomainError),
        ([1.0, 2.0, 3.0], ck.DimensionMismatch),
        ([1.0], ck.DimensionMismatch),
        ([[[1.0, 2.0]]], ck.DimensionMismatch),
        ([[1.0, 2.0], [3.0, np.nan]], ck.NonFiniteParameter),
        ([[1.0, 2.0], [3.0, -0.5]], ck.DomainError),
    ])
    def test_two_pixel(self, twopixel, estimator, y, error):
        with pytest.raises(error):
            estimator(twopixel, y)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("y, error", [
        ([np.nan], ck.NonFiniteParameter),
        ([-2.0], ck.DomainError),
        ([1.0, 2.0], ck.DimensionMismatch),
    ])
    def test_uniform1(self, uniform1, estimator, y, error):
        # Uniform1's MLE is a closed form, outside the engine
        with pytest.raises(error):
            estimator(uniform1, y)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_valid_counts_pass(self, twopixel, estimator):
        est = estimator(twopixel, [[0.0, 0.0], [3.0, 5.0]])
        assert est.shape == (2, 2) and np.all(np.isfinite(est))


@pytest.fixture(scope="module")
def slit4():
    pattern = np.array([1.0, 0.0, 1.0, 0.5])
    return ck.SlitArrayModel(N=3000, M=4, d=0.6, reference=pattern)


def _outcomes(n_comp, high):
    return st.lists(arrays(np.int64, n_comp, elements=st.integers(0, high)),
                    min_size=1, max_size=6).map(np.vstack)


class TestGrouping:
    _rows = st.integers(1, 4).flatmap(lambda n_comp: arrays(
        np.int64, st.tuples(st.integers(0, 40), st.just(n_comp)),
        elements=st.integers(0, 5)))

    @settings(max_examples=60, deadline=None)
    @given(rows=_rows)
    @example(rows=np.zeros((0, 3), dtype=np.int64))
    @example(rows=np.arange(13)[:, None] % 4)
    @example(rows=np.array([[3, 1, 4]]))
    @example(rows=np.full((7, 2), 9))
    def test_matches_np_unique(self, rows):
        batch = SampleBatch(rows)
        unique, inverse = np.unique(rows, axis=0, return_inverse=True)
        assert batch.unique.shape == unique.shape
        assert np.array_equal(batch.unique, unique)
        assert np.array_equal(batch.inverse, inverse.ravel())
        # an injective estimator: each sample gets its own row's estimate
        est = ck.estimate_batch(batch, lambda ys: 2.0 * ys + 1.0)
        assert np.array_equal(est, 2.0 * rows + 1.0)

    @settings(max_examples=100, deadline=None)
    @given(base=st.sampled_from([0, 1, 9, 2 ** 62 - 30, 2 ** 62]),
           offsets=arrays(np.int64, st.integers(1, 60),
                          elements=st.integers(0, 70)),
           dtype=st.sampled_from([np.int64, np.int32]))
    @example(base=2 ** 62, offsets=np.array([3, 0, 3, 1]), dtype=np.int64)
    @example(base=0, offsets=np.array([5]), dtype=np.int64)
    @example(base=0, offsets=np.array([0, 40]), dtype=np.int64)
    def test_counting_matches_lexsort(self, base, offsets, dtype):
        # a one-column batch spanning fewer counts than samples is grouped
        # by counting; with a column of zeros beside it, the same batch
        # takes the lexsort, and both give the same arrays
        assume(base + 70 <= np.iinfo(dtype).max)
        rows = (base + offsets).astype(dtype)[:, None]
        batch = SampleBatch(rows)
        wide = SampleBatch(np.hstack([rows, np.zeros_like(rows)]))
        assert batch.unique.dtype == rows.dtype
        assert batch.inverse.dtype == wide.inverse.dtype
        assert np.array_equal(batch.unique, wide.unique[:, :1])
        assert np.array_equal(batch.inverse, wide.inverse)


class TestBatchIndependence:
    """Estimates are feasible and depend only on their own counts."""

    @staticmethod
    def _check(model, outcomes, fit_batch, fit_one):
        box = model.box()

        def fit(rows):
            return fit_batch(SampleBatch(rows))

        whole = fit(outcomes)
        assert np.all((whole >= box.lower) & (whole <= box.upper))
        order = np.arange(len(outcomes))[::-1]
        assert np.array_equal(fit(outcomes[order]), whole[order])
        cut = len(outcomes) // 2
        if cut:
            assert np.array_equal(
                np.vstack([fit(outcomes[:cut]), fit(outcomes[cut:])]), whole)
        for y, est in zip(outcomes, whole):
            assert np.array_equal(fit_one(y), est)

    @classmethod
    def _check_ls(cls, model, outcomes):
        box = model.box()
        cls._check(
            model, outcomes,
            lambda batch: ls_estimate_batch(model, batch, box, n_starts=3),
            lambda y: ck.ls_estimate(model, y, box, n_starts=3))

    @classmethod
    def _check_mle(cls, model, outcomes):
        mle = partial(ck.mle_constrained, model, n_starts=3)
        cls._check(model, outcomes,
                   lambda batch: ck.estimate_batch(batch, mle), mle)

    @settings(max_examples=15, deadline=None)
    @given(outcomes=_outcomes(2, 700))
    def test_two_pixel(self, twopixel, outcomes):
        self._check_ls(twopixel, outcomes)
        self._check_mle(twopixel, outcomes)

    def test_mixed_rounds(self, twopixel, monkeypatch):
        # each batch mixes rows whose round-1 fits agree with rows that run
        # the random starts: [0, 0] in least squares (the center's fit stops
        # short of the corner), [160, 250] and [270, 420] in the likelihood
        outcomes = np.array([[0, 0], [160, 250], [270, 420], [30, 12],
                             [500, 350], [5, 40]])
        agreed = []
        agree = estimators._agree

        def spy(*args):
            agreed.append(agree(*args))
            return agreed[-1]

        monkeypatch.setattr(estimators, "_agree", spy)
        for check in (self._check_ls, self._check_mle):
            agreed.clear()
            check(twopixel, outcomes)
            assert 0 < agreed[0].sum() < agreed[0].size, agreed[0]

    def test_uniform1_mle_stack_matches_single(self, uniform1):
        # Oracle: the closed form in scalar float arithmetic. np.power on
        # an array can differ from scalar pow by 1 ulp, on stacks and on
        # one-element arrays alike, so stack-versus-single alone would
        # not catch a vectorized power.
        ys = np.arange(300)[:, None]
        stack = ck.mle_constrained(uniform1, ys)
        assert stack.shape == (300, 1)
        exponent = 1.0 / (2.0 * uniform1.n)
        for y, est in zip(ys, stack):
            single = ck.mle_constrained(uniform1, y)
            assert single.shape == (1,)
            assert np.array_equal(single, est)
            assert est[0] == min((float(y[0]) / uniform1.scale)
                                 ** exponent, 1.0)

    def test_estimate_batch_calls_estimator_once(self, twopixel):
        calls = []

        def identity(ys):
            calls.append(ys.copy())
            return ys.astype(float)

        batch = ck.sample_signal(twopixel, [0.5, 0.5], seed=1, count=50)
        est = ck.estimate_batch(batch, identity)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.unique(batch.outcomes, axis=0))
        assert np.array_equal(est, batch.outcomes)

    @settings(max_examples=15, deadline=None)
    @given(outcomes=_outcomes(2, 700))
    @example(outcomes=np.array([[0, 0], [0, 700], [700, 0], [700, 700]]))
    def test_two_pixel_posterior_mean(self, twopixel, outcomes):
        def bayes(y):
            return ck.bayes_mean(twopixel, y)

        self._check(twopixel, outcomes,
                    lambda batch: ck.estimate_batch(batch, bayes), bayes)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_slit(self, slit4, data):
        n_det = slit4.signal(np.ones(4)).size
        self._check_ls(slit4, data.draw(_outcomes(n_det, 400)))


def _box(model, upper):
    """``[0, upper]^n``: the model's box (1) or the scans' unconstrained
    estimator box (3)."""
    return ck.BoxDomain(np.zeros(model.dim), upper * np.ones(model.dim))


class TestConvexStart:
    """The convex start of the square-law models and the two-round fit."""

    SLIT10 = ck.SlitArrayModel(N=1e4, M=10, d=0.5)
    TWO_PIXEL = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)

    @pytest.mark.parametrize("upper", [1.0, 3.0], ids=["box", "wide"])
    @pytest.mark.parametrize("model, theta", [
        (SLIT10, [1, 1, 0, 0, 1, 1, 0, 0, 1, 1]),
        (SLIT10, [1, 0.8, 0, 0, 0.6, 1, 0, 0.3, 0.9, 0.5]),
        (TWO_PIXEL, [0.6, 0.3]),
        (TWO_PIXEL, [0.0, 0.7]),
    ], ids=["slit-dark", "slit-graded", "two-pixel", "two-pixel-dark"])
    def test_noiseless_outcome_gives_theta(self, model, theta, upper):
        # Oracle: y = S(theta) is fitted exactly by theta, and sqrt(y /
        # scale) by theta^2 in the linear surrogate. At a dark pixel the
        # square root turns round-off of A^2 (a few 1e-16) into a few 1e-8
        # of A, so there the check is on A^2.
        theta = np.asarray(theta, dtype=float)
        y = model.signal(theta)
        box = _box(model, upper)
        lit = theta > 0
        for est in (_convex_start(model.coeffs, model.scale, y[None], box)[0],
                    ck.ls_estimate(model, y, box),
                    ck.mle_constrained(model, y, box)):
            assert np.abs(est[lit] - theta[lit]).max() <= 1e-8, est
            assert np.all(est[~lit] ** 2 <= 1e-15), est

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_never_worse_than_all_starts(self, slit4, data):
        # Oracle: the engine from every start of the same Philox stream,
        # the fit of every row before the convex start. The band is fixed
        # in advance: 1e-9 relative.
        model = data.draw(st.sampled_from([self.TWO_PIXEL, slit4,
                                           self.SLIT10]))
        theta = np.array(data.draw(st.lists(
            st.just(0.0) | st.floats(0.0, 1.0), min_size=model.dim,
            max_size=model.dim)))
        box = _box(model, data.draw(st.sampled_from([1.0, 3.0])))
        poisson = data.draw(st.booleans())
        ys = ck.sample_signal(model, theta, data.draw(st.integers(0, 2 ** 32)),
                              8).unique.astype(float)
        self._check_never_worse(model, ys, box, poisson)

    def test_face_escape_outcomes(self):
        # Likelihood outcomes of the 10-pixel slit whose convex start lands
        # on A = 0 faces it must leave; with a 1e-5 box-extent escape probe
        # they ended 5e-8 to 2e-6 relative above the all-starts oracle
        ys = np.zeros((4, 37))
        ys[0, 5:26] = [1, 0, 0, 1, 2, 4, 21, 64, 173, 187, 135, 48, 13, 4, 7,
                       34, 78, 172, 157, 60, 16]
        ys[1, 8:33] = [1, 13, 83, 119, 62, 14, 0, 0, 1, 0, 0, 0, 1, 5, 21,
                       49, 24, 25, 56, 48, 34, 9, 0, 0, 1]
        ys[2, 4:24] = [1, 0, 2, 0, 16, 42, 157, 222, 147, 102, 135, 179, 96,
                       23, 4, 5, 9, 9, 1, 1]
        ys[3, 11:28] = [16, 79, 118, 69, 15, 1, 1, 1, 3, 22, 70, 138, 173,
                        130, 84, 36, 4]
        self._check_never_worse(self.SLIT10, ys, _box(self.SLIT10, 1.0), True)

    @staticmethod
    def _check_never_worse(model, ys, box, poisson):
        est = _fit_box(model, ys, box, 4, poisson)
        starts = spread_starts(box.lower, box.upper, 4, default_rng(
            Philox(key=np.uint64(0x9E3779B97F4A7C15))))
        _, fs = minimize_box_batch(model, np.tile(starts, (len(ys), 1)),
                                   np.repeat(ys, len(starts), axis=0), box,
                                   poisson)
        oracle = fs.reshape(len(ys), -1).min(axis=1)
        f = objective(model.signal(est), ys, poisson)
        assert np.all(f <= oracle + 1e-9 * (1.0 + np.abs(oracle))), (f, oracle)

    def test_no_starts_means_no_round_two(self, twopixel, monkeypatch):
        # [0, 0] (least squares) and [160, 250] (likelihood) disagree in
        # round 1; with no random starts they keep the better of two fits
        calls = []
        engine = estimators.minimize_box_batch

        def spy(model, x0, *args):
            calls.append(len(x0))
            return engine(model, x0, *args)

        monkeypatch.setattr(estimators, "minimize_box_batch", spy)
        ys = np.array([[0.0, 0.0], [30.0, 12.0], [160.0, 250.0]])
        for poisson, rows in ((False, 3), (True, 2)):
            calls.clear()
            est = _fit_box(twopixel, ys, twopixel.box(), 0, poisson)
            # the surrogate, then round 1 from two starts per fitted row
            assert calls == [rows, 2 * rows]
            assert np.all((est >= 0.0) & (est <= 1.0))


class TestEngine:
    def test_singular_row_leaves_others_alone(self):
        a = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
        b = np.array([[1.0, 2.0], [3.0, 4.0], [2.0, 6.0]])
        x, ok = _solve_rows(a, b)
        assert ok.tolist() == [True, False, True]
        assert np.array_equal(x, [[1.0, 2.0], [0.0, 0.0], [1.0, 3.0]])


class TestMcStats:
    def test_all_identical(self):
        est = np.tile([0.3, 0.7], (5, 1))
        st = ck.mc_stats(est, [0.3, 0.7])
        assert np.all(st.bias == 0)
        assert st.total_variance == 0
        assert st.total_mse == 0

    def test_two_point_cloud(self):
        th = np.array([0.5, 0.5])
        est = np.array([th + [0.1, 0.0], th - [0.1, 0.0]])
        st = ck.mc_stats(est, th)
        assert st.covariance[0, 0] == pytest.approx(0.02, rel=1e-12)
        assert np.all(st.bias == 0)
        assert st.total_mse == pytest.approx(0.01, rel=1e-12)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(4)
        est = rng.normal(0.4, 0.05, size=(500, 3))
        st = ck.mc_stats(est, [0.35, 0.42, 0.4])
        assert st.total_mse == pytest.approx(
            st.total_variance + float(st.bias @ st.bias), rel=1e-10)
        assert st.total_mse >= st.total_variance - 1e-12

    def test_requires_two_samples(self):
        with pytest.raises(ck.InsufficientSamples):
            ck.mc_stats(np.array([[0.5]]), [0.5])

    def test_1d_mle_mse_near_crb(self, uniform1):
        batch = ck.sample_signal(uniform1, [0.6], seed=6, count=10_000)
        est = ck.estimate_batch(
            batch, partial(ck.mle_constrained, uniform1))
        st = ck.mc_stats(est, [0.6])
        crb = 1.0 / np.sqrt(ck.fim_poisson(uniform1, [0.6]).matrix[0, 0])
        assert np.sqrt(st.total_mse) == pytest.approx(crb, rel=0.10)

    def test_stats_deterministic(self, uniform1):
        def run():
            batch = ck.sample_signal(uniform1, [0.7], seed=12, count=400)
            est = ck.estimate_batch(
                batch, partial(ck.mle_constrained, uniform1))
            return ck.mc_stats(est, [0.7])

        s1, s2 = run(), run()
        assert np.array_equal(s1.mean, s2.mean)
        assert np.array_equal(s1.covariance, s2.covariance)
        assert s1.total_mse == s2.total_mse

    def test_constrained_regime_beats_unconstrained_bound(self, uniform1,
                                                          twopixel):
        # active constraints push the actual MSE below 1/F
        batch = ck.sample_signal(uniform1, [1.0], seed=13, count=4000)
        est = ck.estimate_batch(
            batch, partial(ck.mle_constrained, uniform1))
        mse_1d = ck.mc_stats(est, [1.0]).total_mse
        assert mse_1d < ck.total_variance(ck.fim_poisson(uniform1, [1.0]))

        m2 = ck.TwoPixelModel(N=50, eta=0.7, h0=1.0, h1=0.8)
        th = [0.9, 0.9]
        batch2 = ck.sample_signal(m2, th, seed=14, count=300)
        est2 = ck.estimate_batch(
            batch2, partial(ck.mle_constrained, m2))
        mse_2d = ck.mc_stats(est2, th).total_mse
        assert mse_2d < ck.total_variance(ck.fim_poisson(m2, th))


class TestBiasedCrb:
    def test_unbiased_reduction(self):
        fi = np.full(5, 20.0)
        mse = ck.biased_crb_mse(fi, np.zeros(5), 0.1)
        assert np.allclose(mse, 1.0 / 20.0)

    def test_saturated_estimator(self):
        grid = np.linspace(0, 1, 11)
        bias = -grid + 0.4
        fi = np.full(11, 50.0)
        mse = ck.biased_crb_mse(fi, bias, 0.1)
        assert np.allclose(mse, bias ** 2, atol=1e-12)

    def test_grid_too_coarse(self):
        with pytest.raises(ck.GridTooCoarse):
            ck.biased_crb_mse(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 0.1)

    def test_matches_enumerated_mse_for_mle(self, uniform1):
        # Tabulate the exact bias by outcome enumeration, push it through
        # the biased-bound formula, and compare against the exact MSE.
        grid = np.linspace(0.3, 0.9, 61)
        step = grid[1] - grid[0]
        y_max = int(poisson.isf(1e-13, 98.0)) + 2
        y = np.arange(y_max + 1)
        a_hat = np.minimum(1.0, (y / 98.0) ** 0.25)
        bias = np.empty_like(grid)
        mse = np.empty_like(grid)
        fi = np.empty_like(grid)
        for i, a in enumerate(grid):
            pmf = poisson.pmf(y, 98.0 * a ** 4)
            bias[i] = pmf @ (a_hat - a)
            mse[i] = pmf @ (a_hat - a) ** 2
            fi[i] = ck.fim_poisson(uniform1, [a]).matrix[0, 0]
        predicted = ck.biased_crb_mse(fi, bias, step)
        # The formula is a lower-bound-style approximation: never above the
        # exact MSE (up to finite-difference slack), and within 5% once the
        # counts are high enough for the estimator to be near-efficient
        # (A >= 0.55 here; in the few-count region it undershoots by up to
        # ~35%, which the exact enumeration confirms).
        assert np.all(predicted <= mse * 1.02)
        band = (grid >= 0.55) & (grid <= 0.9)
        assert np.abs(predicted[band] / mse[band] - 1.0).max() < 0.05


class TestOptimalBias:
    def test_bayes_dictionary_is_best(self, uniform1):
        report = ck.optimal_bias_check(uniform1, n_perturb=50, seed=0)
        assert report.bayes_msea < report.mle_msea
        assert report.bayes_msea < report.perturbed_msea.min()
        assert report.bayes_msea < report.coordinate_msea
        assert report.bayes_is_best

    def test_rival_jitter_ignores_the_cut_off(self, uniform1, monkeypatch):
        # Rival r's jitter at outcome y comes from the substream (seed, r,
        # y): a cut-off 10 counts higher leaves it unchanged on 0 .. y_max,
        # and the rivals' MSEs move only by the pmf mass above y_max.
        real_bound = estimators.poisson_tail_bound
        real_uniforms = estimators._philox_uniforms

        def run(extra):
            jitters = []

            def uniforms(*args):
                u = real_uniforms(*args)
                jitters.append(0.05 * (2.0 * u[0] - 1.0))
                return u
            monkeypatch.setattr(estimators, "poisson_tail_bound",
                                lambda q, mu: real_bound(q, mu) + extra)
            monkeypatch.setattr(estimators, "_philox_uniforms", uniforms)
            report = ck.optimal_bias_check(uniform1, n_perturb=6, seed=3)
            return jitters, report.perturbed_msea

        (base, base_msea), (wide, wide_msea) = run(0), run(10)
        assert len(base) == len(wide) == 6
        for near, far in zip(base, wide):
            assert far.size == near.size + 10
            assert np.array_equal(far[:near.size], near)
        assert np.allclose(wide_msea, base_msea, rtol=1e-9, atol=0.0)


class TestExport:
    def test_mcstats_json(self, uniform1):
        batch = ck.sample_signal(uniform1, [0.5], seed=3, count=50)
        est = ck.estimate_batch(batch,
                                partial(ck.mle_constrained, uniform1))
        doc = ck.mc_stats(est, [0.5]).to_json()
        assert set(doc) == {"count", "mean", "covariance", "bias",
                            "total_variance", "total_mse"}
        assert doc["count"] == 50
