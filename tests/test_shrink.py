"""Constraint shaping: violation probabilities, shrink steps, correction."""

import functools
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf, ndtr, ndtri

import crbkit as ck
from crbkit.scan import regularize_and_correct


def trunc_var_quadrature(x_cut):
    """Variance of a standard normal conditioned on t <= x_cut (oracle)."""
    pdf = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    mass = quad(pdf, -40, x_cut, epsabs=1e-13)[0]
    mean = quad(lambda t: t * pdf(t), -40, x_cut, epsabs=1e-13)[0] / mass
    return quad(lambda t: (t - mean) ** 2 * pdf(t), -40, x_cut,
                epsabs=1e-13)[0] / mass


def root_solve_erf_inverse(y):
    """Oracle: inverse erf by a bracketed ``brentq`` solve on ``erf``."""
    hi = 1.0
    while erf(hi) < abs(y) and hi <= 64.0:
        hi *= 2.0
    return math.copysign(brentq(lambda t: erf(t) - abs(y), 0.0, hi,
                                xtol=1e-15, rtol=8.9e-16), y)


def whitened_correct_fim(kernel, center, constraints, threshold=0.01,
                         eta=0.1):
    """Oracle: the shrink loop in whitened space, one constraint at a time.

    Each iteration takes the symmetric square root ``T`` of the kernel and
    its inverse from an eigendecomposition, measures every margin along the
    whitened normal ``T^-1 a``, and updates the kernel along ``T d`` and
    the center along ``T^-1 d``. Ties go to the lowest index, as in the
    library.
    Returns the kernel, the center and the shrunk constraint indices.
    """
    kernel = np.asarray(kernel, dtype=float)
    center = np.asarray(center, dtype=float)
    sequence = []
    while True:
        vals, vecs = np.linalg.eigh(0.5 * (kernel + kernel.T))
        root = np.sqrt(vals)
        t = (vecs * root) @ vecs.T
        t_inv = (vecs / root) @ vecs.T
        x0, dirs = [], []
        for c in constraints:
            a_w = t_inv @ c.a
            norm = float(np.linalg.norm(a_w))
            x0.append((c.b - float(c.a @ center)) / norm)
            dirs.append(a_w / norm)
        x0 = np.array(x0)
        if np.max(0.5 * (1.0 - erf(x0 / math.sqrt(2.0)))) <= threshold:
            return kernel, center, sequence
        low = x0.min()
        j = int(np.flatnonzero(x0 <= low + 1e-12 * max(abs(low), 1.0))[0])
        p = 0.5 * (1.0 - erf(x0[j] / math.sqrt(2.0)))
        p_target = max(p / 2.0, p - eta)
        x_new = -float(ndtri(p_target))
        xi = (ck.truncated_variance_V(p_target, x_new)
              / ck.truncated_variance_V(p, x0[j]) - 1.0)
        delta = x_new / math.sqrt(1.0 + xi) - x0[j]
        td = t @ dirs[j]
        kernel = kernel + xi * np.outer(td, td)
        center = center - delta * (t_inv @ dirs[j])
        sequence.append(j)


def step_sequence(report):
    return [s.constraint for s in report.steps]


_TWO_PIXEL = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)

# objects whose shrink meets tied margins: mirror-symmetric 2-pixel objects,
# and dark slits whose zero amplitudes sit on the lower bound
TIED_OBJECTS = {
    "two-pixel-0.05": (_TWO_PIXEL, (0.05, 0.05)),
    "two-pixel-0.2": (_TWO_PIXEL, (0.2, 0.2)),
    "two-pixel-0.9": (_TWO_PIXEL, (0.9, 0.9)),
    "dark-slit-10101": (ck.SlitArrayModel(N=2000, M=5, d=0.5, d_R=1.0,
                                          reference=[1, 0, 1, 0, 1]),
                        (1.0, 0.0, 1.0, 0.0, 1.0)),
    "dark-slit-11001": (ck.SlitArrayModel(N=2000, M=5, d=0.5, d_R=1.0,
                                          reference=[1, 1, 0, 0, 1]),
                        (1.0, 1.0, 0.0, 0.0, 1.0)),
}


# the shrink problems of TestAgainstWhitenedOracle
ORACLE_CASES = {
    "two-pixel-0.2": (ck.TwoPixelModel(N=50, eta=0.7, h0=1.0, h1=0.8),
                      [0.2, 0.2]),
    "two-pixel-0.9": (ck.TwoPixelModel(N=50, eta=0.7, h0=1.0, h1=0.8),
                      [0.9, 0.9]),
    "dark-slit": (ck.SlitArrayModel(N=2000, M=5, d=0.5, d_R=1.0,
                                    reference=[1.0, 1.0, 0.0, 0.0, 1.0]),
                  [1.0, 1.0, 0.0, 0.0, 1.0]),
    "biphoton": (ck.BiphotonG2Model(N=1e4, M=4, d=0.5, d_R=1.0, sigma_c=0.4,
                                    reference=[0.0, 1.0, 1.0, 0.0]),
                 [0.0, 1.0, 1.0, 0.0]),
}

# the criterion-9 object at d/d_R = 0.3
CRITERION_9_PATTERN = [1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0,
                       1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1]
CRITERION_9_POINT = (ck.BiphotonG2Model(N=1e5, M=24, d=0.3, d_R=1.0,
                                        sigma_c=0.4,
                                        reference=CRITERION_9_PATTERN),
                     CRITERION_9_PATTERN)


@functools.lru_cache(maxsize=None)
def tied_object(name):
    """``(F_reg, theta, box constraints)`` of one of ``TIED_OBJECTS``."""
    model, theta = TIED_OBJECTS[name]
    _, f_reg, _, _, _ = regularize_and_correct(model, theta)
    return f_reg.matrix, np.array(theta), ck.box_constraints(model.box())


class TestViolationProbability:
    def test_boundary_through_center(self):
        g = ck.GaussianApprox([0.3, 0.4], np.diag([2.0, 5.0]))
        c = ck.LinearConstraint([1.0, 0.0], 0.3)
        assert ck.violation_probability(g, c) == pytest.approx(0.5, abs=1e-14)

    def test_standardized_tail(self):
        g = ck.GaussianApprox([0.0], [[1.0]])
        c = ck.LinearConstraint([1.0], 1.6449)
        assert ck.violation_probability(g, c) == pytest.approx(0.05, abs=1e-4)

    def test_far_boundary_tends_to_zero(self):
        g = ck.GaussianApprox([0.0], [[1.0]])
        c = ck.LinearConstraint([1.0], 40.0)
        assert ck.violation_probability(g, c) == pytest.approx(0.0, abs=1e-300)

    def test_singular_kernel_raises(self):
        g = ck.GaussianApprox([0.0, 0.0], np.diag([1.0, 0.0]))
        with pytest.raises(ck.SingularKernel):
            ck.violation_probability(g, ck.LinearConstraint([1.0, 0.0], 1.0))


class TestTruncatedVariance:
    def test_untruncated_limit(self):
        assert ck.truncated_variance_V(0.0, 40.0) == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_half_normal(self):
        assert ck.truncated_variance_V(0.5, 0.0) == pytest.approx(
            1.0 - 2.0 / math.pi, abs=1e-10)

    def test_quadrature_consistency(self):
        for p in (0.5, 0.3, 0.1, 0.02, 0.005):
            x = -float(ndtri(p))
            assert ck.truncated_variance_V(p, x) == pytest.approx(
                trunc_var_quadrature(x), abs=1e-8)

    def test_invalid_mass(self):
        with pytest.raises(ck.DomainError):
            ck.truncated_variance_V(1.0, 0.0)


class TestShrinkStep:
    def test_documented_first_step(self):
        g = ck.GaussianApprox([0.0], [[1.0]])
        c = ck.LinearConstraint([1.0], 0.0)
        g2, rec = ck.shrink_step(g, [c], 0.1)
        assert rec.p_before == pytest.approx(0.5, abs=1e-14)
        assert rec.p_target == pytest.approx(0.4, abs=1e-14)
        x_new = -float(ndtri(0.4))
        assert x_new == pytest.approx(0.25335, abs=1e-5)
        assert ck.violation_probability(g2, c) == pytest.approx(0.4, abs=1e-8)

    def test_step_exactness_violation_and_variance(self):
        # Both defining requirements, recomputed on the post-step Gaussian
        # with an independent quadrature oracle: the selected constraint's
        # violation probability hits the target, and the conditional
        # variance of the physical functional a.theta given feasibility is
        # unchanged.
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        kernel = a @ a.T + 0.5 * np.eye(3)
        center = np.array([0.6, 0.9, 0.2])
        cons = [ck.LinearConstraint([1.0, 0.0, 0.0], 0.7),
                ck.LinearConstraint([0.0, 1.0, 0.0], 1.0),
                ck.LinearConstraint([-1.0, 0.0, 1.0], 0.0)]
        g = ck.GaussianApprox(center, kernel)
        g2, rec = ck.shrink_step(g, cons, 0.1)
        c = cons[rec.constraint]
        assert ck.violation_probability(g2, c) == pytest.approx(rec.p_target,
                                                                abs=1e-8)

        def conditional_variance(gauss):
            sigma2 = float(c.a @ np.linalg.inv(gauss.kernel) @ c.a)
            z = (c.b - float(c.a @ gauss.center)) / math.sqrt(sigma2)
            return sigma2 * trunc_var_quadrature(z)

        assert conditional_variance(g2) == pytest.approx(
            conditional_variance(g), rel=1e-8)

    def test_kernel_update_is_rank_one_psd(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))
        kernel = a @ a.T + np.eye(4)
        g = ck.GaussianApprox([0.9, 0.9, 0.5, 0.1], kernel)
        cons = [ck.LinearConstraint(e, 1.0) for e in np.eye(4)]
        g2, rec = ck.shrink_step(g, cons, 0.1)
        diff = g2.kernel - g.kernel
        vals = np.linalg.eigvalsh(diff)
        assert vals.min() >= -1e-10 * max(vals.max(), 1e-300)
        assert (np.abs(vals) > 1e-12 * np.abs(vals).max()).sum() == 1

    def test_orthogonal_direction_untouched(self):
        g = ck.GaussianApprox([0.0, 0.0], np.eye(2))
        c = ck.LinearConstraint([1.0, 0.0], 0.0)
        g2, _ = ck.shrink_step(g, [c], 0.1)
        assert g2.kernel[1, 1] == pytest.approx(1.0, abs=1e-14)
        assert g2.kernel[0, 1] == pytest.approx(0.0, abs=1e-14)
        assert g2.center[1] == 0.0

    def test_no_constraints(self):
        g = ck.GaussianApprox([0.0], [[1.0]])
        with pytest.raises(ck.NoConstraint):
            ck.shrink_step(g, [], 0.1)

    def test_zero_violation_probability(self):
        # the normal tail 40 standard deviations out is 0: no target below
        g = ck.GaussianApprox([0.0], [[1.0]])
        with pytest.raises(ck.DomainError) as err:
            ck.shrink_step(g, [ck.LinearConstraint([1.0], 40.0)], 0.1)
        assert str(err.value) == "constraint 0 has zero violation probability"

    def test_far_tail_takes_a_step(self):
        # 8.5 standard deviations out the tail is 9.5e-18, not 0: the step
        # halves it
        g = ck.GaussianApprox([0.0], [[1.0]])
        c = ck.LinearConstraint([1.0], 8.5)
        g2, rec = ck.shrink_step(g, [c], 0.1)
        assert rec.p_before == pytest.approx(float(ndtr(-8.5)), rel=1e-13)
        assert rec.p_target == rec.p_before / 2.0
        assert rec.delta > 0.0 and g2.center[0] < 0.0
        assert ck.violation_probability(g2, c) == pytest.approx(rec.p_target,
                                                                rel=1e-8)


class TestShrinkParameters:
    @settings(max_examples=500, deadline=None)
    @given(p=st.floats(0.005, 0.5))
    def test_normal_quantile_matches_scipy_ndtri(self, p):
        # the shrink's targets lie in [0.005, 0.5]
        x, ref = -NormalDist().inv_cdf(p), -float(ndtri(p))
        assert abs(x - ref) <= 8.0 * math.ulp(ref), (p, x, ref)

    # the criterion-6 points that take shrink steps; (0.5, 0.5) takes none
    @pytest.mark.parametrize("theta, n_events",
                             [((0.2, 0.2), 1000), ((0.9, 0.9), 50)])
    def test_matches_root_solve_oracle(self, monkeypatch, theta, n_events):
        import crbkit.shrink as shrink
        real = shrink._shrink_parameters
        calls = []
        monkeypatch.setattr(shrink, "_shrink_parameters",
                            lambda *args: calls.append(args) or real(*args))
        model = ck.TwoPixelModel(N=n_events, eta=0.7, h0=1.0, h1=0.8)
        regularize_and_correct(model, np.array(theta))
        assert len(calls) >= 10
        for p, p_target, x0 in calls:
            x0_new = math.sqrt(2.0) * root_solve_erf_inverse(
                1.0 - 2.0 * p_target)
            xi = (ck.truncated_variance_V(p_target, x0_new)
                  / ck.truncated_variance_V(p, x0) - 1.0)
            delta = x0_new / math.sqrt(1.0 + xi) - x0
            assert real(p, p_target, x0) == pytest.approx((xi, delta),
                                                          rel=1e-13)


class TestCorrectFim:
    def test_inactive_constraints_noop(self):
        m = ck.TwoPixelModel(N=1000, eta=0.7, h0=1.0, h1=0.8)
        th = np.array([0.5, 0.5])
        f = ck.fim_poisson(m, th)
        f_c, center, report = ck.correct_fim(f, th,
                                             ck.box_constraints(m.box()))
        assert report.iterations == 0
        assert np.array_equal(f_c.matrix, f.matrix)
        assert np.array_equal(center, th)

    def test_final_probabilities_below_threshold(self):
        pattern = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
        m = ck.SlitArrayModel(N=2000, M=5, d=0.5, d_R=1.0, reference=pattern)
        from crbkit.scan import regularize_and_correct
        _, _, f_c, center, report = regularize_and_correct(m, pattern)
        assert np.all(report.final_violation_probs <= 0.01 + 1e-12)
        assert all(s.xi >= 0.0 for s in report.steps)

    def test_total_variance_never_grows(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            kernel = a @ a.T + 0.2 * np.eye(3)
            center = rng.uniform(0.6, 1.0, 3)
            cons = ck.box_constraints(ck.unit_box(3))
            f_c, _, _ = ck.correct_fim(kernel, center, cons)
            tv_in = np.trace(np.linalg.inv(kernel))
            tv_out = np.trace(np.linalg.inv(f_c.matrix))
            assert tv_out <= tv_in + 1e-10

    def test_closed_form_matches_loop_at_upper_bound(self):
        f = 1568.0
        closed = ck.correct_fim_1d_closed(f, 1.0)
        loop, _, _ = ck.correct_fim(np.array([[f]]), [1.0],
                                    ck.box_constraints(ck.unit_box(1)))
        assert closed == pytest.approx(loop.matrix[0, 0], rel=1e-6)
        assert closed > f
        assert 1.0 / math.sqrt(closed) < 1.0 / math.sqrt(f)

    def test_closed_form_matches_loop_on_regularized_dark_point(self):
        m = ck.Uniform1Model(N=200, eta=0.7, n=2)
        fi = lambda a: ck.fim_poisson(m, [a]).matrix[0, 0]
        f_reg = ck.regularize_1d(fi, 0.0, (0.0, 1.0))
        closed = ck.correct_fim_1d_closed(f_reg, 0.0)
        loop, _, _ = ck.correct_fim(np.array([[f_reg]]), [0.0],
                                    ck.box_constraints(ck.unit_box(1)))
        assert closed == pytest.approx(loop.matrix[0, 0], rel=1e-6)

    def test_closed_form_noop_midrange(self):
        # Both box constraints stay below threshold across the documented
        # activation window (0.242 <= A <= 0.937 for this model).
        assert ck.correct_fim_1d_closed(392.0, 0.5) == 392.0

    def test_two_active_constraints_raises(self):
        with pytest.raises(ck.TwoActiveConstraints):
            ck.correct_fim_1d_closed(1.0, 0.5)

    @pytest.mark.parametrize("f", [0.0, -1.0])
    def test_closed_form_rejects_nonpositive_information(self, f):
        with pytest.raises(ck.SingularKernel):
            ck.correct_fim_1d_closed(f, 0.5)

    def test_closed_form_raises_exactly_where_loop_shrinks_both(self):
        # Uniform1 (eta = 0.7, n = 2) over N x A: the closed form must
        # return the loop's value whenever the loop shrinks one constraint
        # only, and raise whenever it shrinks both (N = 20, A = 0.25 once
        # returned 16.82 where the loop gives 23.64)
        constraints = ck.box_constraints(ck.unit_box(1))
        returned = raised = 0
        for n_events in (2, 5, 10, 20, 50, 200, 2000, 1e5):
            profile = ck.Uniform1Model(N=n_events, eta=0.7, n=2).axis_profile(
                [0.0], [[1.0]])
            fi = lambda a: float(profile(np.array([[a]]))[0, 0])
            for a in np.linspace(0.0, 1.0, 101):
                f_reg = ck.regularize_1d(fi, a, (0.0, 1.0))
                loop, _, report = ck.correct_fim(np.array([[f_reg]]), [a],
                                                 constraints)
                shrunk = {s.constraint for s in report.steps}
                case = f"N={n_events}, A={a:.2f}, steps on {sorted(shrunk)}"
                try:
                    closed = ck.correct_fim_1d_closed(f_reg, a)
                except ck.TwoActiveConstraints:
                    assert shrunk == {0, 1}, case
                    raised += 1
                    continue
                assert len(shrunk) <= 1, case
                assert closed == pytest.approx(loop.matrix[0, 0],
                                               rel=1e-12), case
                returned += 1
        assert (returned, raised) == (548, 260)

    def test_correction_against_truncated_gaussian_oracle(self):
        # 2-parameter illustration: strongly correlated Gaussian near the
        # corner of two upper bounds; the corrected kernel's implied total
        # variance must track the directly truncated distribution.
        cov = np.array([[0.16, 0.06], [0.06, 0.0625]])
        kernel = np.linalg.inv(cov)
        center = np.array([0.85, 0.95])
        cons = [ck.LinearConstraint([1.0, 0.0], 1.0),
                ck.LinearConstraint([0.0, 1.0], 1.0)]
        f_c, c_new, _ = ck.correct_fim(kernel, center, cons)
        tv_in = np.trace(cov)
        tv_out = np.trace(np.linalg.inv(f_c.matrix))
        assert tv_out < tv_in
        rng = np.random.default_rng(8)
        draws = rng.multivariate_normal(center, cov, size=400_000)
        kept = draws[np.all(draws <= 1.0, axis=1)]
        tv_mc = np.trace(np.cov(kept.T))
        assert tv_out == pytest.approx(tv_mc, rel=0.25)

    def test_iteration_budget(self):
        kernel = np.eye(2)
        center = np.array([5.0, 5.0])   # deeply infeasible
        cons = ck.box_constraints(ck.unit_box(2))
        with pytest.raises(ck.IterationBudgetExceeded):
            ck.correct_fim(kernel, center, cons, max_iterations=3)


class TestReportSerialization:
    def test_shrink_report_json(self):
        kernel = np.array([[9.9]])
        f_c, center, report = ck.correct_fim(kernel, [0.0],
                                             ck.box_constraints(ck.unit_box(1)))
        doc = report.to_json()
        assert doc["iterations"] == len(doc["steps"]) == report.iterations
        assert all(s["xi"] >= 0 for s in doc["steps"])
        assert max(doc["final_violation_probs"]) <= 0.01


class TestAgainstWhitenedOracle:
    @pytest.mark.parametrize("model, theta", ORACLE_CASES.values(),
                             ids=ORACLE_CASES)
    def test_same_steps_and_kernel(self, model, theta):
        _, f_reg, f_c, center, report = regularize_and_correct(model, theta)
        kernel, c_oracle, sequence = whitened_correct_fim(
            f_reg.matrix, theta, ck.box_constraints(model.box()))
        assert report.iterations > 0
        assert step_sequence(report) == sequence
        scale = np.abs(kernel).max()
        assert np.abs(f_c.matrix - kernel).max() <= 1e-10 * scale
        assert np.allclose(center, c_oracle, rtol=0, atol=1e-12)

    def test_two_decompositions_per_call(self, request):
        f_reg, theta, cons = tied_object("two-pixel-0.05")
        # count from here on: tied_object runs a whole repair
        calls = request.getfixturevalue("decompositions")
        _, _, report = ck.correct_fim(f_reg, theta, cons)
        assert report.iterations > 0
        # the entry kernel, for its covariance, and the returned
        # FisherMatrix; the steps update the covariance in closed form
        assert len(calls) == 2

    def test_normal_tail_of_two_margins_per_step(self, monkeypatch):
        import crbkit.shrink as shrink
        f_reg, theta, cons = tied_object("two-pixel-0.05")
        real = shrink.normal_upper_tail
        sizes = []
        monkeypatch.setattr(shrink, "normal_upper_tail",
                            lambda x: sizes.append(np.size(x)) or real(x))
        _, _, report = ck.correct_fim(f_reg, theta, cons)
        assert report.iterations > 0
        # one stop test per step and after the last, the shrunk margin of
        # each step, and every margin once for the report
        assert sum(sizes) == 2 * report.iterations + 1 + len(cons)


class TestCarriedCovariance:
    @pytest.mark.parametrize(
        "model, theta", [*ORACLE_CASES.values(), CRITERION_9_POINT],
        ids=[*ORACLE_CASES, "criterion-9-0.3"])
    def test_covariance_inverts_final_kernel(self, monkeypatch, model,
                                             theta):
        # the covariance that the steps update in closed form stays the
        # inverse of the kernel they build
        import crbkit.shrink as shrink
        real = shrink._step
        last = []
        monkeypatch.setattr(shrink, "_step",
                            lambda *args: last.append(real(*args)) or last[-1])
        _, _, f_c, _, report = regularize_and_correct(model, theta)
        g = last[-1][0]
        assert report.iterations == len(last) > 0
        assert np.array_equal(g.kernel, f_c.matrix)
        residual = g.covariance @ f_c.matrix - np.eye(len(theta))
        assert np.linalg.norm(residual, 2) <= 1e-8

    def test_exit_check_covers_every_step(self):
        # the entry kernel meets the floor, but the steps along the first
        # axis lift the largest eigenvalue past 1e12 times the smallest
        kernel = np.diag([1.0, 2e-12])
        cons = [ck.LinearConstraint([1.0, 0.0], 1.0)]
        _, _, report = ck.correct_fim(kernel, [-5.0, 0.0], cons)
        assert report.iterations == 0
        with pytest.raises(ck.SingularKernel, match="near singular"):
            ck.correct_fim(kernel, [0.9, 0.0], cons)


class TestShrinkInputs:
    def test_budget_is_charged_after_the_stop_test(self):
        # a Gaussian that needs no step passes with no budget at all, and a
        # budget of exactly the steps needed suffices
        cons = ck.box_constraints(ck.unit_box(2))
        f_c, _, report = ck.correct_fim(np.diag([1e4, 1e4]), [0.5, 0.5],
                                        cons, max_iterations=0)
        assert report.iterations == 0
        assert np.array_equal(f_c.matrix, np.diag([1e4, 1e4]))
        cons = ck.box_constraints(ck.unit_box(1))
        _, _, full = ck.correct_fim([[9.9]], [0.0], cons)
        _, _, tight = ck.correct_fim([[9.9]], [0.0], cons,
                                     max_iterations=full.iterations)
        assert tight.steps == full.steps
        with pytest.raises(ck.IterationBudgetExceeded,
                           match=f"after {full.iterations - 1} iterations"):
            ck.correct_fim([[9.9]], [0.0], cons,
                           max_iterations=full.iterations - 1)

    @pytest.mark.parametrize("budget", [2.5, -1, math.nan, math.inf, True,
                                        "3"])
    def test_budget_must_be_a_whole_number(self, budget):
        with pytest.raises(ck.ConfigError, match="max_iterations"):
            ck.correct_fim(np.eye(2), [0.5, 0.5],
                           ck.box_constraints(ck.unit_box(2)),
                           max_iterations=budget)

    @pytest.mark.parametrize("kernel, center, n_cons, error", [
        (np.eye(2), [math.nan, 0.5], 2, ck.NonFiniteParameter),
        (np.eye(2), [math.inf, 0.5], 2, ck.NonFiniteParameter),
        ([[math.nan, 0.0], [0.0, 1.0]], [0.5, 0.5], 2,
         ck.NonFiniteParameter),
        ([[math.inf, 0.0], [0.0, 1.0]], [0.5, 0.5], 2,
         ck.NonFiniteParameter),
        # K + K^T of this kernel overflows
        ([[1e308, 0.0], [0.0, 1.0]], [0.5, 0.5], 2, ck.NonFiniteParameter),
        (np.eye(2), [0.5, 0.5], 3, ck.DimensionMismatch),
    ], ids=["nan-center", "inf-center", "nan-kernel", "inf-kernel",
            "half-range-kernel", "3-d-constraints"])
    def test_bad_shrink_input_fails_before_any_decomposition(
            self, decompositions, kernel, center, n_cons, error):
        cons = ck.box_constraints(ck.unit_box(n_cons))
        with pytest.raises(error) as err:
            ck.correct_fim(kernel, center, cons)
        assert "\n" not in str(err.value)
        assert decompositions == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kernel_overflow_ends_at_that_step(self, monkeypatch):
        # a kernel near the float limit, its center three standard
        # deviations below the bound 0: each step moves the center and
        # grows the kernel by 1 + xi, until the next would leave the float
        # range
        import crbkit.shrink as shrink
        kernel = 2e307
        kernels, centers = [], []
        real = shrink._step

        def step(g, *args):
            kernels.append(g.kernel)
            centers.append(float(g.center[0]))
            return real(g, *args)

        monkeypatch.setattr(shrink, "_step", step)
        with pytest.raises(ck.KernelOverflow) as err:
            ck.correct_fim([[kernel]], [-3.0 / math.sqrt(kernel)],
                           ck.box_constraints(ck.unit_box(1)))
        assert "\n" not in str(err.value)
        assert 1 < len(kernels) < 1000
        assert len(set(centers)) == len(centers)
        assert all(np.all(np.isfinite(k)) for k in kernels)
        assert 1e307 < kernels[-1].max() <= np.finfo(float).max / 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exit_kernel_stays_within_half_range(self):
        # the shrink of [[5e307]] at 0 would take its kernel past half the
        # float range, where the exit FisherMatrix's K + K^T overflows
        with pytest.raises(ck.KernelOverflow):
            ck.correct_fim([[5e307]], [0.0],
                           ck.box_constraints(ck.unit_box(1)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_photons", [1e40, 1e300])
    def test_center_stuck_on_bound_ends_at_first_step(self, monkeypatch,
                                                     n_photons):
        # the pair's Gaussian is ~1/sqrt(N) wide: a step cannot move the
        # center off its bound 1 (below an ulp of 1), so the margin stays
        # 0 and each later step would only grow the kernel by 1 + xi. The
        # loop ends at the first such step with the error the growth would
        # reach (4106 steps later at N = 1e40, 119 at N = 1e300)
        import crbkit.shrink as shrink
        model = ck.SlitArrayModel(N=n_photons, M=2, d=0.5,
                                  reference=np.ones(2))
        theta = np.ones(2)
        f_reg = ck.regularize_fim(ck.fim_poisson(model, theta), theta,
                                  model.box(), model.axis_profile)
        steps = []
        real = shrink._step

        def step(g, *args):
            steps.append(g.center.copy())
            return real(g, *args)

        monkeypatch.setattr(shrink, "_step", step)
        with pytest.raises(ck.KernelOverflow) as err:
            ck.correct_fim(f_reg, theta, ck.box_constraints(model.box()))
        assert str(err.value) == ("shrink step overflows the kernel; "
                                  "rescale the model (e.g. a smaller N)")
        assert len(steps) == 1
        assert np.array_equal(steps[0], theta)

    @pytest.mark.parametrize("a, b", [([math.nan, 1.0], 1.0),
                                      ([1.0, 0.0], math.nan)],
                             ids=["nan-normal", "nan-bound"])
    def test_constraint_must_be_finite(self, a, b):
        with pytest.raises(ck.NonFiniteParameter) as err:
            ck.LinearConstraint(a, b)
        assert "\n" not in str(err.value)


class TestTieBreak:
    def test_symmetric_object_shrinks_constraint_zero_first(self):
        _, _, f_c, _, report = regularize_and_correct(_TWO_PIXEL, [0.05, 0.05])
        assert report.steps[0].constraint == 0
        assert f_c.matrix[0, 0] > f_c.matrix[1, 1]

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(TIED_OBJECTS)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_round_off_leaves_step_sequence(self, name, seed):
        f_reg, theta, cons = tied_object(name)
        ulps = np.random.default_rng(seed).integers(-4, 5, f_reg.shape)
        ulps = np.triu(ulps) + np.triu(ulps, 1).T
        perturbed = f_reg + ulps * np.spacing(f_reg)
        _, _, report = ck.correct_fim(f_reg, theta, cons)
        _, _, report_p = ck.correct_fim(perturbed, theta, cons)
        assert step_sequence(report_p) == step_sequence(report)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           log_scale=st.floats(1.0, 4.0))
    def test_shrink_satisfies_constraints_and_never_adds_variance(
            self, n, seed, log_scale):
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1.0, 1.0, (n, n))
        kernel = 10.0 ** log_scale * (b @ b.T + 0.1 * np.eye(n))
        center = rng.uniform(0.0, 1.0, n)
        cons = ck.box_constraints(ck.unit_box(n))
        f_c, c_new, report = ck.correct_fim(kernel, center, cons)
        final = ck.GaussianApprox(c_new, f_c.matrix)
        for c in cons:
            assert ck.violation_probability(final, c) <= 0.01 * (1 + 1e-9)
        # replaying the steps one at a time gives the same result, and the
        # total variance falls at every step
        g = ck.GaussianApprox(center, kernel)
        tv = np.trace(np.linalg.inv(kernel))
        for step in report.steps:
            g, record = ck.shrink_step(g, cons)
            assert record == step
            tv_next = np.trace(np.linalg.inv(g.kernel))
            assert tv_next <= tv * (1 + 1e-12)
            tv = tv_next
        assert np.array_equal(g.kernel, f_c.matrix)
        assert np.array_equal(g.center, c_new)
