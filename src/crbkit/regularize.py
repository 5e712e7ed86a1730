"""Regularization of ill-defined Fisher information near dark objects.

Coincidence-based signals scale as ``A**(2n)``, so the Fisher information of
a dark pixel vanishes and the plain error bound ``1/sqrt(F)`` diverges. The
repair probes the information at shifted parameter values and charges the
shift against the error budget:

    Delta(theta') = |theta' - theta| + F(theta')**-0.5
    F_reg(theta)  = 1 / min_theta' Delta(theta')^2
                  = max_theta' F(theta') / (1 + |theta' - theta| sqrt(F(theta')))^2

In the multiparameter case the same one-dimensional search runs along each
eigenvector of the matrix at ``theta`` (eigenvectors are frozen; only the
eigenvalues are lifted), so the output commutes with the input. Along an
axis it reads the model's exact profile ``delta -> v^T F(theta + delta v) v``.
All axes and both signs are searched at once, each search stopping at its
own tolerance, so every axis gets the value of a search along it alone.

The module also carries two analytic peak profiles with flat tops whose
half-widths have closed forms. With ``F`` the profile's log-curvature,
``1/sqrt`` of the maximized objective is the half-width, so
:func:`profile_width_numeric` runs the very search that lifts every
eigen-axis, and the closed forms check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConfigError, EmptyDomain, NonSymmetricInput
from .fisher import FisherMatrix
from .models import BoxDomain
from .numerics import golden_section_max

__all__ = [
    "Y1Profile",
    "Y2Profile",
    "ProbeProfile",
    "profile_width_numeric",
    "profile_width_closed",
    "regularize_1d",
    "regularize_fim",
]

GRID_POINTS = 200          # log-grid probes per search direction
GRID_FLOOR = 1e-4          # smallest probe as a fraction of the domain extent
REFINE_TOL = 1e-8          # absolute golden-section tolerance in the shift
PROBE_MARGIN = 1.0         # probes may leave the box by this many extents


@dataclass(frozen=True)
class Y1Profile:
    """Flat-top Gaussian: ``exp(-max(0, |x| - x0)^2 / (2 sigma^2))``."""

    x0: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0 or self.x0 < 0:
            raise ConfigError("Y1 profile needs sigma > 0 and x0 >= 0")

    def log_curvature(self, x):
        """Second derivative of the log profile at ``x`` (elementwise)."""
        return np.where(np.abs(x) >= self.x0, -1.0 / self.sigma ** 2, 0.0)


@dataclass(frozen=True)
class Y2Profile:
    """Super-Gaussian: ``exp(-|x|^k / (2 sigma^k))`` with ``k > 2``."""

    k: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0 or self.k <= 2:
            raise ConfigError("Y2 profile needs sigma > 0 and k > 2")

    def log_curvature(self, x):
        k, sig = self.k, self.sigma
        return -k * (k - 1.0) * abs(x) ** (k - 2.0) / (2.0 * sig ** k)


ProbeProfile = Union[Y1Profile, Y2Profile]


def profile_width_numeric(profile: ProbeProfile) -> float:
    """Half-width ``min_x |x| + |curvature(x)|^-1/2`` over ``x >= 0``, found
    by the axis search of :func:`regularize_fim` with ``F = |curvature|``."""
    sig = profile.sigma
    hi = (profile.x0 + 10.0 * sig) if isinstance(profile, Y1Profile) else 10.0 * sig

    def curvature(x):
        return np.abs(profile.log_curvature(x))

    return 1.0 / math.sqrt(_axis_search(curvature, hi, 0.0, hi,
                                        float(curvature(0.0))))


def profile_width_closed(profile: ProbeProfile) -> float:
    """Closed-form half-width estimate for the two model profiles."""
    if isinstance(profile, Y1Profile):
        return profile.x0 + profile.sigma
    k = profile.k
    factor = ((k - 2.0) ** 2 / (2.0 * k * (k - 1.0))) ** (1.0 / k) * k / (k - 2.0)
    return factor * profile.sigma


def _lift(profile: Callable[[np.ndarray], np.ndarray], travel: np.ndarray,
          extent: float, fi_at_center: np.ndarray) -> np.ndarray:
    """Maximize ``f(d) / (1 + |d| sqrt(f(d)))^2`` over the feasible shifts of
    every axis and both of its signs, all searches together.

    ``profile`` maps an array ``(K, m)`` of signed shifts to the ``K`` axes'
    information values there; ``travel[k]`` holds the feasible shifts
    along ``+v_k`` and ``-v_k``. Each search probes the log-grid clipped at
    its travel, plus the travel itself (a shorter grid is padded with the
    travel, which the first-maximum rule of ``argmax`` never prefers), and
    refines the bracket around the grid maximum by golden section. Returns
    the lifted values, never below ``fi_at_center``.
    """
    n_axes = len(travel)
    ends = travel.reshape(-1, 1)              # one search per (axis, sign)
    signs = np.tile([[1.0], [-1.0]], (n_axes, 1))

    def objective(t: np.ndarray) -> np.ndarray:
        # t >= 0, so |signs * t| is t
        f = np.maximum(profile((signs * t).reshape(n_axes, -1)).reshape(
            t.shape), 0.0)
        return f / (1.0 + t * np.sqrt(f)) ** 2

    grid = np.geomspace(GRID_FLOOR * extent, extent, GRID_POINTS)
    grid = np.concatenate([np.minimum(grid, ends), ends], axis=1)
    vals = objective(grid)
    rows, idx = np.arange(len(grid)), np.argmax(vals, axis=1)
    peak = vals[rows, idx]
    lo = np.where(idx > 0, grid[rows, idx - 1], 0.0)
    hi = grid[rows, np.minimum(idx + 1, GRID_POINTS)]
    refined = golden_section_max(objective, lo[:, None], hi[:, None],
                                 abs_tol=REFINE_TOL)[1][:, 0]
    # NaN marks a side without travel or a bracket of no width; fmax skips it
    searched = ends[:, 0] > 0.0
    offers = np.where([searched, searched & (hi > lo)], [peak, refined],
                      np.nan)
    return np.fmax(fi_at_center, np.fmax.reduce(offers.reshape(2, n_axes, 2),
                                                axis=(0, 2)))


def _axis_search(fi_along: Callable[[np.ndarray], np.ndarray],
                 travel_pos: float, travel_neg: float, extent: float,
                 fi_at_center: float) -> float:
    """:func:`_lift` along one axis.

    ``fi_along`` maps an array of signed shifts to information values.
    Returns the lifted information value (never below ``fi_at_center``).
    """
    return float(_lift(lambda deltas: fi_along(deltas[0])[None],
                       np.array([[travel_pos, travel_neg]], dtype=float),
                       extent, np.array([fi_at_center], dtype=float))[0])


def regularize_1d(fi_of: Callable[[float], float], theta: float,
                  domain: Sequence[float]) -> float:
    """Regularized scalar Fisher information at ``theta``.

    ``fi_of`` must return a nonnegative information value for any probe in
    ``domain`` (an interval containing ``theta``); probes stay inside it.
    The result equals ``fi_of(theta)`` whenever the center already attains
    the maximum, and is never smaller.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not lo <= theta <= hi or hi <= lo:
        raise EmptyDomain(f"domain [{lo}, {hi}] does not contain {theta}")

    probed = {}

    def fi_along(deltas: np.ndarray) -> np.ndarray:
        # the search repeats shifts (a side with no travel, a short grid's
        # padding): each distinct shift costs one call
        for d in deltas.tolist():
            if d not in probed:
                probed[d] = max(float(fi_of(theta + d)), 0.0)
        return np.array([probed[d] for d in deltas.tolist()])

    return _axis_search(fi_along, hi - theta, theta - lo, hi - lo,
                        max(float(fi_of(theta)), 0.0))


def regularize_fim(f: "FisherMatrix | np.ndarray", theta, domain: BoxDomain,
                   axis_profile: Callable) -> FisherMatrix:
    """Regularize the Fisher matrix ``f`` at ``theta`` along its eigen-axes.

    An array ``f`` is built into a :class:`FisherMatrix` first. The
    one-dimensional shifted-probe search runs along every eigenvector of
    ``f.eigh()`` (both signs), all searches together, and the matrix is
    reassembled from the lifted eigenvalues. Eigenvectors are frozen to
    those of the input, so the output commutes with it.

    ``axis_profile(theta, V)`` is a model's exact profile along the columns
    of ``V`` (see :mod:`crbkit.models`). Probes may leave ``domain`` by
    ``PROBE_MARGIN`` extents on every side: the amplitude models are
    polynomials that extend smoothly past the box, and an object on a box
    corner (binary amplitudes) leaves no in-box travel along mixed-sign
    eigenvectors.
    """
    theta = np.asarray(theta, dtype=float)
    if not domain.contains(theta, atol=1e-12):
        raise EmptyDomain("domain does not contain theta")
    probe_domain = domain.inflate(PROBE_MARGIN)
    f = f if isinstance(f, FisherMatrix) else FisherMatrix(f)
    if f.dim != theta.size:
        raise NonSymmetricInput(
            f"FIM shape {f.matrix.shape} does not match theta size {theta.size}")
    vals, vecs = f.eigh()
    # travel[k] along +v_k and -v_k; a subnormal entry of an eigenvector
    # overflows to inf, and the min over the entries cuts it
    directions = np.stack([vecs.T, -vecs.T], axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        step_up = np.where(directions > 0,
                           (probe_domain.upper - theta) / directions, np.inf)
        step_dn = np.where(directions < 0,
                           (probe_domain.lower - theta) / directions, np.inf)
    travel = np.maximum(np.min(np.minimum(step_up, step_dn), axis=2), 0.0)
    lifted = _lift(axis_profile(theta, vecs), travel, domain.extent,
                   np.maximum(vals, 0.0))
    return FisherMatrix((vecs * lifted) @ vecs.T, f.labels)
