"""Estimators and the Monte-Carlo validation harness.

Three reference estimators accompany the error-bound machinery:

* constrained maximum likelihood (closed form for the uniform 1-parameter
  model, multi-start Fisher scoring otherwise);
* Bayesian posterior mean under a flat prior on the box (tensor
  Gauss-Legendre quadrature with doubling node counts, parameter
  dimension <= 2);
* bounded least squares (multi-start, batched over outcomes).

The two box-constrained fits share one path, the projected
Levenberg-Marquardt engine of :mod:`crbkit.optimize` with the estimator's
loss, in two rounds. Round 1 fits every outcome from the box center and,
for the square-law models with a ``coeffs`` table (TwoPixel, SlitArray),
from a convex start: the root of a bounded linear least-squares fit to the
square-root counts, which the same engine solves. An outcome whose two
fits agree is done; the others also run random starts from one fixed
Philox stream. The best fit per outcome must pass a random-probe check,
which raises :class:`OptimizerFailure`.

Every estimator is a deterministic function of the observed counts, so a
whole Monte-Carlo batch can be reduced to its unique outcome vectors. A
:class:`SampleBatch` groups its outcomes once, when it is made, and every
estimator of the batch reuses that grouping. Like ``model.signal``, each
estimator takes one outcome ``(J,)`` or a stack ``(U, J)``, and
:func:`estimate_batch` passes it all unique outcomes in one call.
Sampling uses one counter-based substream per (seed, sample, component):
results are bit-for-bit reproducible and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable

import numpy as np
from numpy.random import Philox, default_rng

from .errors import (ConfigError, DimensionMismatch, DimensionTooLarge,
                     DomainError, GridTooCoarse, InsufficientSamples,
                     NonFiniteParameter, OptimizerFailure, QuadratureFailure)
from .models import (BoxDomain, ModelSpec, Uniform1Model, _row_products,
                     _whole, eval_signal)
from .numerics import (_philox_uniforms, gauss_legendre, poisson_pmf_table,
                       poisson_substreams, poisson_tail_bound)
from .optimize import SIGNAL_FLOOR, minimize_box_batch, objective, spread_starts

__all__ = [
    "SampleBatch",
    "McStats",
    "sample_signal",
    "mle_constrained",
    "bayes_mean",
    "ls_estimate",
    "estimate_batch",
    "mc_stats",
    "biased_crb_mse",
    "OptimalBiasReport",
    "optimal_bias_check",
]

N_STARTS = 20        # random starts of round 2 (see _fit_box)
N_PROBES = 100       # feasible probes that must not beat the optimum
PROBE_SLACK = 1e-7   # relative slack when comparing against probes
# Round-1 agreement (see _agree). The engine stops on a projected gradient
# of PG_TOL = 1e-10 or on a round-off stall, so two fits of one optimum
# differ in objective only at round-off level, while distinct local optima
# differ by far more; AGREE_F also stays three decades inside PROBE_SLACK.
AGREE_F = 1e-10
# Two fits can also tie in objective at different points (mirrored
# amplitudes, a flat valley); the random starts then decide, as they would
# for any multimodal row. 1e-6 box extents lies far above the spread of
# fits of one regular optimum and far below the gap between distinct ones.
AGREE_X = 1e-6
GL_MIN_NODES = 16    # posterior mean: first Gauss-Legendre level per axis
GL_MAX_NODES = 512   # posterior mean: last level before QuadratureFailure
LOG_WEIGHT_RANGE = 600.0  # posterior mean: largest |log weight| of a level
OPTIMAL_BIAS_NODES = 64  # Gauss-Legendre nodes of the optimal-bias average


@dataclass
class SampleBatch:
    """Poisson realizations of a signal: ``outcomes[sample, component]``,
    grouped once into the distinct rows ``unique`` (in lexicographic order)
    and each sample's row ``inverse``, which every estimator run on the
    batch shares."""

    outcomes: np.ndarray
    unique: np.ndarray = field(init=False, repr=False)
    inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = self.outcomes
        if (rows.shape[1:] == (1,) and len(rows)
                and np.issubdtype(rows.dtype, np.signedinteger)
                and int(rows.max()) - int(rows.min()) < len(rows)):
            self.unique, self.inverse = _group_counts(rows[:, 0])
        else:
            self.unique, self.inverse = np.unique(rows, axis=0,
                                                  return_inverse=True)


def _group_counts(counts: np.ndarray):
    """:class:`SampleBatch`'s grouping of a one-column batch whose counts
    span fewer values than it has samples, by counting: the distinct counts
    as a column, and each sample's rank among them."""
    low = counts.min()
    offsets = counts - low
    present = np.bincount(offsets) > 0
    return ((np.flatnonzero(present) + low).astype(counts.dtype)[:, None],
            np.cumsum(present)[offsets] - 1)


def sample_signal(model: ModelSpec, theta, seed: int, count: int) -> SampleBatch:
    """Draw ``count`` independent Poisson signal realizations.

    Sample ``s`` of component ``i`` is the first variate that
    ``Generator.poisson`` draws from the dedicated Philox substream
    ``(key=seed, counter=[0, 0, s, i])``, so the batch is reproducible
    bit-for-bit regardless of evaluation order or worker count, and a
    shorter batch is a prefix of a longer one. ``seed`` is a whole number
    in ``[0, 2**64)`` and ``count`` one ``>= 0``.

    :func:`crbkit.numerics.poisson_substreams` generates every substream of
    the call at once, in array code that reproduces NumPy's sampler.
    """
    seed, count = _whole(seed, "seed", 0), _whole(count, "count", 0)
    if seed >= 2 ** 64:
        raise ConfigError(f"seed must be below 2**64, not {seed}")
    return SampleBatch(poisson_substreams(eval_signal(model, theta), seed,
                                          count))


def _fit_box(model: ModelSpec, y, domain: BoxDomain | None, n_starts: int,
             poisson: bool) -> np.ndarray:
    """Best multi-start engine fit for one outcome ``(J,)``, giving ``(n,)``,
    or for every row of a stack ``(U, J)``, giving ``(U, n)``, on ``domain``
    (the model's box by default).

    Every row is fitted in up to two rounds. Round 1 starts it from the box
    center and, for a model with a ``coeffs`` table, from its convex start
    (:func:`_convex_start`); a row whose two fits agree (:func:`_agree`) is
    done. The other rows, and every row of a model without a table, also
    run round 2 from ``n_starts`` uniform draws of one fixed Philox stream.
    A row keeps its best fit; fits tied with it (:func:`_tied`) go to the
    earliest start, in the order convex start, center, draws. That fit must
    not be beaten by :data:`N_PROBES` random feasible points drawn from the
    same stream after every start. Whether a row runs round 2 depends on
    its own counts alone.

    A Poisson row of zero counts has the loss ``sum(S) >= 0``; where the
    signal vanishes at the lower corner that corner is its exact minimum
    and the row skips the engine.
    """
    ys, single, domain = _stack(model, y, domain)
    out = np.tile(domain.lower, (ys.shape[0], 1))
    fit = np.ones(ys.shape[0], dtype=bool)
    if poisson and not np.any(model.signal(domain.lower)):
        fit = np.any(ys != 0, axis=1)
    if fit.any():
        ys = ys[fit]
        rng = default_rng(Philox(key=np.uint64(0x9E3779B97F4A7C15)))
        try:
            starts = spread_starts(domain.lower, domain.upper, n_starts, rng)
        except (MemoryError, ValueError) as exc:
            raise ConfigError(f"too many starting points: {n_starts}") from exc
        n_rows = ys.shape[0]
        center = np.tile(starts[0], (n_rows, 1))
        table = getattr(model, "coeffs", None)
        first = ([center] if table is None else
                 [_convex_start(table, model.scale, ys, domain), center])
        k = len(first)
        xs = np.zeros((n_rows, k + len(starts) - 1, domain.dim))
        fs = np.full(xs.shape[:2], np.inf)
        xs[:, :k], fs[:, :k] = _fits(model, np.stack(first, axis=1), ys,
                                     domain, poisson)
        redo = (np.ones(n_rows, dtype=bool) if k == 1
                else ~_agree(xs[:, :2], fs[:, :2], domain))
        if len(starts) > 1 and redo.any():
            xs[redo, k:], fs[redo, k:] = _fits(
                model, np.broadcast_to(starts[1:], (int(redo.sum()),)
                                       + starts[1:].shape),
                ys[redo], domain, poisson)
        pick = np.argmax(_tied(fs, fs.min(axis=1, keepdims=True)), axis=1)
        best_x, best_f = (xs[np.arange(n_rows), pick],
                          fs[np.arange(n_rows), pick])
        s_probe = model.signal(rng.uniform(domain.lower, domain.upper,
                                           size=(N_PROBES, domain.dim)))
        # outcome chunks bound the (outcome, probe, component) temporaries
        f_probe = np.concatenate([
            objective(s_probe, ys[lo:lo + 256, None, :], poisson).min(axis=1)
            for lo in range(0, n_rows, 256)])
        bad = f_probe < best_f - PROBE_SLACK * (1.0 + np.abs(best_f))
        if np.any(bad):
            raise OptimizerFailure(
                f"random probes beat the optimizer on {int(bad.sum())} of "
                f"{n_rows} outcomes")
        out[fit] = best_x
    return out[0] if single else out


def _fits(model, x0, ys, domain, poisson):
    """Engine fits of each row of ``ys`` from each of its starts ``x0``
    ``(rows, k, n)``: the points ``(rows, k, n)`` and objectives
    ``(rows, k)``, from one engine call."""
    rows, k, n = x0.shape
    xs, fs = minimize_box_batch(model, x0.reshape(rows * k, n),
                                np.repeat(ys, k, axis=0), domain, poisson)
    return xs.reshape(rows, k, n), fs.reshape(rows, k)


class _Linear:
    """``u -> table u`` row by row, with the Jacobian ``table``: the
    surrogate "model" that :func:`_convex_start` hands to the engine."""

    def __init__(self, table):
        self.table = table

    def signal(self, u):
        return _row_products(u, self.table)

    def jacobian(self, u):
        return np.repeat(self.table[None], len(u), axis=0)


def _convex_start(table, scale, ys, domain):
    """Per row of ``ys``, ``clip(sqrt(u), lower, upper)`` for ``u`` the
    bounded linear least-squares fit of ``table u`` to ``sqrt(y / scale)``.

    A model with ``S = scale (table A^2)^2`` gives ``sqrt(S / scale) = table
    u`` in ``u = A^2``: fitting the square root of the counts (Anscombe's
    variance-stabilizing transform) is then a convex bounded linear problem
    (Stark and Parker 1995) over the range of ``A^2`` on the box. The
    engine starts it from the unconstrained solution ``pinv(table) t``,
    which is exact for noiseless counts and which it clips into that box.
    The root lies in the basin of the full fit's optimum unless noise or
    the box makes the full fit multimodal, which :func:`_agree` detects.
    """
    lo, hi = domain.lower, domain.upper
    u_box = BoxDomain(np.where(lo * hi <= 0.0, 0.0,
                               np.minimum(lo * lo, hi * hi)),
                      np.maximum(lo * lo, hi * hi))
    t = np.sqrt(np.maximum(ys, 0.0) / scale)
    u0 = _row_products(t, np.linalg.pinv(table))
    u, _ = minimize_box_batch(_Linear(table), u0, t, u_box, False)
    return np.clip(np.sqrt(u), lo, hi)


def _tied(f, best):
    """Objectives ``f`` within :data:`AGREE_F` relative of ``best``: their
    differences are round-off, which must not choose between optima."""
    return f - best <= AGREE_F * (1.0 + np.abs(best))


def _agree(xs, fs, domain):
    """Rows whose two fits ``xs`` ``(rows, 2, n)``, with objectives ``fs``
    ``(rows, 2)``, reach one optimum: objectives tied (:func:`_tied`) and
    points within :data:`AGREE_X` box extents."""
    return (_tied(fs.max(axis=1), fs.min(axis=1))
            & (np.abs(xs[:, 0] - xs[:, 1]).max(axis=1)
               <= AGREE_X * domain.extent))


def _stack(model, y, domain):
    """``y`` as float outcome rows, whether it was one outcome, and the
    domain (the model's box by default).

    Every row must hold one finite count ``>= 0`` per signal component of
    ``model``: otherwise :class:`DimensionMismatch`,
    :class:`NonFiniteParameter` or :class:`DomainError`.
    """
    domain = model.box() if domain is None else domain
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n_comp = model.signal(domain.lower).size
    if y.ndim > 2 or y.shape[-1] != n_comp:
        raise DimensionMismatch(f"outcomes must have {n_comp} counts per "
                                f"row, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise NonFiniteParameter("outcome counts must be finite")
    if np.any(y < 0):
        raise DomainError("outcome counts must be >= 0")
    return np.atleast_2d(y), y.ndim == 1, domain


def mle_constrained(model: ModelSpec, y, domain: BoxDomain | None = None,
                    n_starts: int = N_STARTS) -> np.ndarray:
    """Maximum-likelihood estimate restricted to the box domain.

    ``y`` is one outcome ``(J,)``, giving ``(n,)``, or a stack ``(U, J)``,
    giving ``(U, n)``. The uniform 1-parameter model has the closed form
    ``min(1, (Y / (N eta^n))^(1/2n))``; other models minimize the Poisson
    negative log-likelihood by multi-start Fisher scoring in the projected
    Levenberg-Marquardt engine of :mod:`crbkit.optimize`, one call for the
    whole stack. The returned points are feasible and must not be beaten by
    random feasible probes.
    """
    if not isinstance(model, Uniform1Model):
        return _fit_box(model, y, domain, n_starts, poisson=True)
    ys, single, domain = _stack(model, y, domain)
    lo, hi = domain.lower[0], domain.upper[0]
    # scalar pow per row: np.power on an array can differ from it by 1 ulp
    est = np.array([[min(max((v / model.scale) ** (1.0 / (2.0 * model.n)),
                             lo), hi)] for v in ys[:, 0]])
    return est[0] if single else est


def ls_estimate(model: ModelSpec, y, domain: BoxDomain | None = None,
                n_starts: int = N_STARTS) -> np.ndarray:
    """Bounded least squares: ``argmin |Y - S(A)|^2`` over the box.

    ``y`` is one outcome ``(J,)`` or a stack ``(U, J)``, as for
    :func:`mle_constrained`. Projected Levenberg-Marquardt from the starts
    of :func:`_fit_box`, each round one engine call for the whole stack;
    the returned points are feasible and random feasible probes must not
    beat them.
    """
    return _fit_box(model, y, domain, n_starts, poisson=False)


# -- Bayesian posterior mean -------------------------------------------------

def _tensor_grid(axes) -> np.ndarray:
    """Every point of the tensor grid of ``axes``, one row each, the last
    axis fastest (the rows of ``meshgrid(*axes, indexing="ij")``)."""
    pts = np.empty([x.size for x in axes] + [len(axes)])
    for i, x in enumerate(axes):
        pts[..., i] = x.reshape((-1,) + (1,) * (len(axes) - 1 - i))
    return pts.reshape(-1, len(axes))


def _posterior_window(grids, cols, ll, lo, hi, tmp):
    """Locate the posterior bump of the coarse-scan log-likelihood ``ll``
    on the tensor grid whose coordinate ``i`` is the contiguous row
    ``cols[i]``, and return per-axis integration windows.

    ``ll`` is overwritten and ``tmp`` (same shape) is scratch.
    """
    ref = float(ll.max())
    w = np.exp(np.subtract(ll, ref, out=ll), out=ll)
    w_sum = w.sum()
    windows = []
    for grid, coords, a, b in zip(grids, cols, lo, hi):
        mean = float(np.multiply(w, coords, out=tmp).sum() / w_sum)
        np.square(np.subtract(coords, mean, out=tmp), out=tmp)
        var = float(np.multiply(w, tmp, out=tmp).sum() / w_sum)
        spacing = grid[1] - grid[0]
        half = max(12.0 * math.sqrt(max(var, 0.0)), 4.0 * spacing)
        windows.append((max(a, mean - half), min(b, mean + half)))
    return windows, ref


def _window_mean(model, y, windows, ref, rel_tol):
    """Posterior mean of ``y`` over ``windows`` by Gauss-Legendre doubling.

    A level's log weights are taken against ``ref``, the coarse scan's
    peak. A narrow posterior (large N) can put a level's largest log weight
    far from it, where ``exp`` overflows or every weight underflows; past
    :data:`LOG_WEIGHT_RANGE` the reference moves to that level's largest
    one and the doubling compares from that level on.
    """
    def level(n_nodes):
        nodes, weights = gauss_legendre(n_nodes)
        pts = _tensor_grid([0.5 * (b - a) * nodes + 0.5 * (a + b)
                            for a, b in windows])
        wgt = reduce(np.multiply.outer,
                     [0.5 * (b - a) * weights for a, b in windows]).ravel()
        return -objective(model.signal(pts), y, poisson=True) - ref, pts, wgt

    n, prev = GL_MIN_NODES, None
    while n <= GL_MAX_NODES:
        log_dens, pts, wgt = level(n)
        peak = float(log_dens.max())
        if abs(peak) > LOG_WEIGHT_RANGE:
            ref, prev = ref + peak, None
            log_dens -= peak
        dens = np.exp(log_dens) * wgt
        cur = np.concatenate([[dens.sum()], dens @ pts])
        if prev is not None and np.all(
                np.abs(cur - prev) <= rel_tol * np.maximum(np.abs(cur), 1e-300)):
            return cur[1:] / cur[0]
        prev, n = cur, 2 * n
    raise QuadratureFailure("posterior-mean quadrature did not converge")


def bayes_mean(model: ModelSpec, y, domain: BoxDomain | None = None,
               rel_tol: float = 1e-8) -> np.ndarray:
    """Posterior mean under a flat prior on the box (dimension <= 2).

    ``y`` is one outcome ``(J,)``, giving ``(n,)``, or a stack ``(U, J)``,
    giving ``(U, n)``; the coarse scan grid and its signal are built once
    per call. Numerator and denominator integrals are evaluated by tensor
    Gauss-Legendre product rules, doubling the node count per axis from
    :data:`GL_MIN_NODES` until every integral agrees with the previous
    level to ``rel_tol`` relative; past :data:`GL_MAX_NODES` nodes per
    axis the quadrature raises :class:`QuadratureFailure`. The window is
    first narrowed to about 12 posterior standard deviations either side
    of the bump located on a coarse scan. Mass outside it is neglected:
    negligible for a single bump, but a second, much weaker mode of a
    2-pixel posterior (mirrored amplitudes) can leave about 1e-7 of the
    mass outside.
    """
    if model.dim > 2:
        raise DimensionTooLarge("posterior mean supports at most 2 parameters")
    ys, single, domain = _stack(model, y, domain)
    lo, hi = domain.lower, domain.upper
    grids = [np.linspace(lo[i], hi[i], 513 if domain.dim == 1 else 129)
             for i in range(domain.dim)]
    pts = _tensor_grid(grids)
    # component-major, so every operation of the scan loops over the grid
    # points: row j of s holds S_j, and row i of cols coordinate i
    s = np.ascontiguousarray(model.signal(pts).T)
    cols = np.ascontiguousarray(pts.T)
    # each row's scan adds S_j - y_j log S_j over j in order, which for J <=
    # 2 components is -objective(s.T, row, poisson=True) bit for bit; log S
    # is shared by the rows, and the scan and the window search reuse
    # scratch arrays: a row allocates no grid-sized temporary that glibc
    # could return and fault back in
    log_s = np.maximum(s, SIGNAL_FLOOR)
    np.log(log_s, out=log_s)
    ll, tmp = np.empty(len(pts)), np.empty(len(pts))
    est = np.empty((ys.shape[0], domain.dim))
    for k, row in enumerate(ys):
        np.subtract(s[0], np.multiply(row[0], log_s[0], out=ll), out=ll)
        for s_j, log_s_j, y_j in zip(s[1:], log_s[1:], row[1:]):
            ll += np.subtract(s_j, np.multiply(y_j, log_s_j, out=tmp),
                              out=tmp)
        np.negative(ll, out=ll)
        window = _posterior_window(grids, cols, ll, lo, hi, tmp)
        est[k] = _window_mean(model, row, *window, rel_tol)
    return est[0] if single else est


# -- batch reduction ---------------------------------------------------------

def ls_estimate_batch(model: ModelSpec, batch: SampleBatch,
                      domain: BoxDomain | None = None,
                      n_starts: int = N_STARTS) -> np.ndarray:
    """Bounded least squares for every sample of a batch.

    :func:`estimate_batch` on :func:`ls_estimate`: every (unique outcome,
    start) pair advances through the engine as one flat batch, which is what
    makes thousand-sample Monte-Carlo scans affordable.
    """
    return estimate_batch(batch, partial(ls_estimate, model, domain=domain,
                                         n_starts=n_starts))


def estimate_batch(batch: SampleBatch,
                   estimator: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a deterministic estimator to every sample of a batch.

    ``estimator`` maps a stack of outcomes ``(U, J)`` to estimates
    ``(U, n)``, as :func:`mle_constrained`, :func:`bayes_mean` and
    :func:`ls_estimate` do. It is called once, on the batch's unique
    outcome vectors, and the estimates are broadcast back, which is exact
    because estimators are functions of the counts alone.
    """
    return estimator(batch.unique)[batch.inverse]


@dataclass
class McStats:
    """Summary of a Monte-Carlo estimate cloud.

    ``covariance`` is the unbiased (count - 1) estimator, while
    ``total_variance`` uses the population normalization so that the
    decomposition ``total_mse = total_variance + |bias|^2`` is exact.
    """

    mean: np.ndarray
    covariance: np.ndarray
    bias: np.ndarray
    total_variance: float
    total_mse: float
    count: int

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "mean": [float(v) for v in self.mean],
            "covariance": [float(v) for v in self.covariance.ravel()],
            "bias": [float(v) for v in self.bias],
            "total_variance": float(self.total_variance),
            "total_mse": float(self.total_mse),
        }


def mc_stats(estimates, theta_true) -> McStats:
    """Mean, covariance, bias, and aggregate errors of an estimate cloud."""
    est = np.asarray(estimates, dtype=float)
    if est.ndim == 1:
        est = est[:, None]
    n = est.shape[0]
    if n < 2:
        raise InsufficientSamples("need at least 2 estimates")
    theta = np.atleast_1d(np.asarray(theta_true, dtype=float))
    mean = est.mean(axis=0)
    centered = est - mean
    cov = centered.T @ centered / (n - 1)
    bias = mean - theta
    total_var = float(np.einsum("bi,bi->", centered, centered) / n)
    total_mse = float(np.mean(np.sum((est - theta) ** 2, axis=1)))
    return McStats(mean=mean, covariance=cov, bias=bias,
                   total_variance=total_var, total_mse=total_mse, count=n)


def biased_crb_mse(fi, bias, step: float) -> np.ndarray:
    """Bound-style MSE prediction for a biased estimator on a uniform grid.

    ``(1 + dBias/dtheta)^2 / F + Bias^2`` with a central-difference bias
    derivative (one-sided at the grid ends). Where the information vanishes
    the variance term is kept only if the bias slope saturates it exactly.
    """
    fi = np.asarray(fi, dtype=float)
    bias = np.asarray(bias, dtype=float)
    if fi.size < 3 or bias.size != fi.size:
        raise GridTooCoarse("need >= 3 tabulated points with matching shapes")
    slope = np.gradient(bias, step)
    gain = (1.0 + slope) ** 2
    with np.errstate(divide="ignore"):
        var_term = np.where(fi > 0.0, gain / np.where(fi > 0.0, fi, 1.0),
                            np.where(np.abs(1.0 + slope) < 1e-3, 0.0, np.inf))
    return var_term + bias ** 2


# -- domain-averaged MSE optimality ------------------------------------------

@dataclass
class OptimalBiasReport:
    """Domain-averaged MSE of the posterior-mean dictionary vs rivals."""

    bayes_msea: float
    mle_msea: float
    perturbed_msea: np.ndarray
    coordinate_index: int
    coordinate_msea: float

    @property
    def bayes_is_best(self) -> bool:
        return (self.bayes_msea < self.mle_msea
                and self.bayes_msea < float(self.perturbed_msea.min())
                and self.bayes_msea < self.coordinate_msea)


def optimal_bias_check(model: ModelSpec, n_perturb: int = 50,
                       jitter: float = 0.05, seed: int = 0) -> OptimalBiasReport:
    """Verify that the posterior mean minimizes the domain-averaged MSE.

    Builds the outcome dictionaries ``Y -> estimate`` for the posterior
    mean and the constrained MLE of a 1-parameter model, evaluates the MSE
    averaged over the true value across the model's box (a
    ``OPTIMAL_BIAS_NODES``-point Gauss-Legendre rule), and compares against
    randomly jittered dictionaries plus a single-coordinate perturbation.
    """
    if model.dim != 1:
        raise DimensionTooLarge("optimal-bias check is for 1-parameter models")
    lo, hi = model.box().lower[0], model.box().upper[0]
    nodes, weights = gauss_legendre(OPTIMAL_BIAS_NODES)
    grid = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * weights
    s_grid = model.signal(grid[:, None])[:, 0]
    y_max = poisson_tail_bound(1e-12, s_grid.max())
    pmf = poisson_pmf_table(s_grid, y_max)

    def msea(dictionary: np.ndarray) -> float:
        sq = (dictionary[None, :] - grid[:, None]) ** 2
        return float(weights @ np.sum(pmf * sq, axis=1))

    ys = np.arange(y_max + 1)[:, None]
    bayes = bayes_mean(model, ys)[:, 0]
    mle = mle_constrained(model, ys)[:, 0]

    def rival(r):
        # the jitter at outcome y depends on (seed, r, y) alone, so a rival
        # keeps its values when the cut-off y_max moves
        u = _philox_uniforms(seed, r, ys[:, 0], 1)[0]
        return bayes + jitter * (2.0 * u - 1.0)

    base = msea(bayes)
    perturbed = np.array([msea(rival(r)) for r in range(n_perturb)])
    y_star = int(np.argmax(weights @ pmf))
    single = bayes.copy()
    single[y_star] += jitter
    return OptimalBiasReport(
        bayes_msea=base, mle_msea=msea(mle), perturbed_msea=perturbed,
        coordinate_index=y_star, coordinate_msea=msea(single))

