"""Constraint-aware correction of Fisher information.

A positive-definite information matrix defines the Gaussian approximation
``p(theta) ~ exp(-0.5 (theta - theta0)^T F (theta - theta0))`` of the
estimate distribution. Physical constraints ``a^T theta <= b`` cut
probability mass away; this module iteratively reshapes the Gaussian until
every constraint's violation probability drops below ``STOP_THRESHOLD``,
while preserving the in-domain variance along each shrink direction. The
final kernel acts as an effective information matrix for the constrained
problem and can be fed to the ordinary error bound ``Tr F^{-1}``.

Each iteration picks the most severely violated constraint and applies a
rank-1 kernel update plus a center shift whose two defining requirements
are solved in closed form:

* the violation probability moves to ``P' = max(P/2, P - ETA_STEP)``;
* the variance of the kept (feasible) part of the marginal along the
  shrink direction is unchanged.

The loop works in covariance form: with the constraints stacked as
``A theta <= b`` and ``Sigma = K^-1``, the margins are
``x0 = (b - A center) / s``, ``s = sqrt(diag(A Sigma A^T))``, and a step
on row ``a`` adds ``xi u u^T`` to the kernel ``K`` with ``u = a / s``
and moves the center by ``-delta w`` with ``w = Sigma u``. Since
``u^T Sigma u = 1``, the Sherman-Morrison formula (J. Sherman and W. J.
Morrison, Ann. Math. Statist. 21, 1950) gives the new covariance exactly
as ``Sigma - xi / (1 + xi) w w^T``, so only the entry kernel is
decomposed. The smallest margin is shrunk first; a margin within
``1e-12 max(|x0_min|, 1)`` of it ties (absolute below one standard
deviation, since a center on a bound gives margins that are zero up to
round-off), and ties go to the lowest constraint index, so round-off
cannot pick the side of a symmetric problem.
Only the entry kernel meets :func:`fisher.symmetric_part`: a step copies
its Gaussian, ``K + xi u u^T`` being symmetric and finite by construction.
Kernels meet the floor of :func:`fisher.require_definite` (else
:class:`SingularKernel`), checked at entry and once at exit. The stop
test reads the normal tail of the smallest margin only, a step that of
the margin it shrinks, and the report that of every margin, once, at exit.

The scalar entry point :func:`correct_fim_1d_closed` runs this same loop on
a 1x1 kernel. The normal tail comes from :mod:`numerics` and its inverse
from ``statistics.NormalDist``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import (DimensionMismatch, DomainError,
                     IterationBudgetExceeded, KernelOverflow, NoConstraint,
                     NonFiniteParameter, NonSymmetricInput, SingularKernel,
                     TwoActiveConstraints)
from .fisher import HALF_RANGE, FisherMatrix, require_definite, symmetric_part
from .models import BoxDomain, _whole, unit_box
from .numerics import normal_upper_tail

__all__ = [
    "LinearConstraint",
    "GaussianApprox",
    "ShrinkStep",
    "ShrinkReport",
    "box_constraints",
    "violation_probability",
    "truncated_variance_V",
    "shrink_step",
    "correct_fim",
    "correct_fim_1d_closed",
]

STOP_THRESHOLD = 0.01    # terminal violation probability per constraint
ETA_STEP = 0.1           # at most this much violation probability per step
ITERATION_BUDGET = 10_000
TIE_TOLERANCE = 1e-12    # margins this close to the smallest tie
_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class LinearConstraint:
    """Half-space constraint ``a^T theta <= b``."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if not (np.all(np.isfinite(a)) and math.isfinite(float(self.b))):
            raise NonFiniteParameter("constraint normal and bound must be "
                                     "finite")
        if not np.any(a != 0.0):
            raise NoConstraint("constraint normal must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))


@dataclass
class GaussianApprox:
    """Gaussian ``exp(-0.5 d^T kernel d)`` centered at ``center``.

    ``covariance`` (``kernel^-1``) and ``min_eig`` (the smallest kernel
    eigenvalue, a lower bound for every shrink successor's) come from the
    first margin evaluation; a shrink step hands both on, updated.
    """

    center: np.ndarray
    kernel: np.ndarray
    covariance: np.ndarray | None = field(default=None, init=False,
                                          repr=False, compare=False)
    min_eig: float = field(default=math.nan, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        k = symmetric_part(getattr(self.kernel, "matrix", self.kernel),
                           "kernel")
        if k.shape != (c.size, c.size):
            raise NonSymmetricInput(
                f"kernel shape {k.shape} does not match center size {c.size}")
        if not np.all(np.isfinite(c)):
            raise NonFiniteParameter("center has non-finite entries")
        self.center = c
        self.kernel = k


@dataclass(frozen=True)
class ShrinkStep:
    """One rank-1 shrink: which constraint, how much, and the targets."""

    constraint: int
    xi: float
    delta: float
    p_before: float
    p_target: float


@dataclass
class ShrinkReport:
    """Iteration log of :func:`correct_fim`."""

    iterations: int
    final_violation_probs: np.ndarray
    steps: list

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_violation_probs": [float(p) for p in
                                      self.final_violation_probs],
            "steps": [asdict(s) for s in self.steps],
        }


def box_constraints(domain: BoxDomain) -> list[LinearConstraint]:
    """Linear constraints equivalent to a box (finite bounds only).

    Per parameter: the lower bound first (``-theta_i <= -lo_i``), then the
    upper (``theta_i <= hi_i``).
    """
    out = []
    n = domain.dim
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        if np.isfinite(domain.lower[i]):
            out.append(LinearConstraint(-e, -float(domain.lower[i])))
        if np.isfinite(domain.upper[i]):
            out.append(LinearConstraint(e, float(domain.upper[i])))
    return out


def _stack(constraints, dim: int):
    """Constraint normals as the rows of ``A`` and their bounds as ``b``;
    each normal must have ``dim`` entries."""
    constraints = list(constraints)
    if not constraints:
        raise NoConstraint("at least one constraint is required")
    shapes = {c.a.shape for c in constraints}
    if shapes != {(dim,)}:
        raise DimensionMismatch(f"constraint normals of shapes "
                                f"{sorted(shapes)} on {dim} parameters")
    return (np.array([c.a for c in constraints]),
            np.array([c.b for c in constraints]))


def _margins(g: GaussianApprox, a: np.ndarray, b: np.ndarray):
    """``(a sigma, s, x0)`` for the stacked constraints ``a theta <= b``.

    ``s_k`` is the standard deviation of ``a_k^T theta`` under ``g`` and
    ``x0_k`` the margin of constraint ``k`` in units of ``s_k``. The first
    call on ``g`` decomposes its kernel for ``g.covariance``.
    """
    if g.covariance is None:
        vals, vecs = np.linalg.eigh(g.kernel)
        require_definite(vals, SingularKernel,
                         "kernel is not positive definite")
        g.covariance = (vecs / vals) @ vecs.T
        g.min_eig = float(vals[0])
    a_sigma = a @ g.covariance
    s = np.sqrt(np.einsum("ij,ij->i", a_sigma, a))
    return a_sigma, s, (b - a @ g.center) / s


def violation_probability(g: GaussianApprox, c: LinearConstraint) -> float:
    """Gaussian mass on the infeasible side of ``a^T theta <= b``."""
    return normal_upper_tail(
        float(_margins(g, *_stack([c], g.center.size))[2][0]))


def truncated_variance_V(p: float, x: float) -> float:
    """Variance of a standard normal truncated to ``t <= x``.

    ``p`` is the truncated-away upper-tail mass; when the pair is consistent
    (``x = sqrt(2) erfinv(1 - 2p)``) this equals the exact conditional
    variance of the kept part.
    """
    if not 0.0 <= p < 1.0:
        raise DomainError(f"tail mass must lie in [0, 1), got {p}")
    q = 1.0 - p
    return (1.0 - x * math.exp(-0.5 * x * x) / (math.sqrt(2.0 * math.pi) * q)
            - math.exp(-x * x) / (2.0 * math.pi * q * q))


def _shrink_parameters(p: float, p_target: float, x0: float):
    """Closed-form (xi, delta) taking violation ``p`` at ``x0`` to target."""
    x0_new = -_STANDARD_NORMAL.inv_cdf(p_target)
    ratio = truncated_variance_V(p_target, x0_new) / truncated_variance_V(p, x0)
    xi = ratio - 1.0
    delta = x0_new / math.sqrt(1.0 + xi) - x0
    return xi, delta


def _most_violated(x0: np.ndarray) -> int:
    """The smallest margin; among near-ties, the lowest constraint index."""
    low = float(x0.min())
    return int(np.flatnonzero(x0 <= low + TIE_TOLERANCE * max(abs(low), 1.0))[0])


def _step(g: GaussianApprox, a, a_sigma, s, x0):
    """Shrink ``g`` against the most violated of the stacked constraints.

    Only that constraint's violation probability is computed. The returned
    Gaussian carries its covariance, updated in closed form.
    """
    j = _most_violated(x0)
    p = float(normal_upper_tail(x0[j]))
    if p == 0.0:
        raise DomainError(f"constraint {j} has zero violation probability")
    p_target = max(p / 2.0, p - ETA_STEP)
    xi, delta = _shrink_parameters(p, p_target, float(x0[j]))
    u = a[j] / s[j]
    w = a_sigma[j] / s[j]           # Sigma u, and u^T Sigma u = 1
    center = g.center - delta * w
    # the largest entry of a positive definite kernel lies on its diagonal,
    # so this bounds every entry of K + xi u u^T (a Python float overflows
    # to inf without a warning) by the range symmetric_part accepts; the
    # covariance only decreases. A center on the bound that the shift
    # leaves unchanged stays there: its margin stays 0, and every later step
    # only grows the kernel by 1 + xi until it overflows.
    top = float(np.abs(u).max())
    if (not float(g.kernel.diagonal().max()) + xi * top * top <= HALF_RANGE
            or (x0[j] == 0.0 and np.array_equal(center, g.center))):
        raise KernelOverflow("shrink step overflows the kernel; "
                             "rescale the model (e.g. a smaller N)")
    # copied, not constructed: K + xi u u^T is symmetric, finite by the
    # test above, and min_eig carries over
    out = copy.copy(g)
    out.center = center
    out.kernel = g.kernel + xi * np.outer(u, u)
    out.covariance = g.covariance - (xi / (1.0 + xi)) * np.outer(w, w)
    return out, ShrinkStep(j, xi, delta, p, p_target)


def shrink_step(g: GaussianApprox, constraints: Sequence[LinearConstraint]):
    """One iteration against the most severely violated constraint.

    Returns ``(GaussianApprox, ShrinkStep)``. After the step, the selected
    constraint's violation probability equals ``max(P/2, P - ETA_STEP)`` and
    the in-domain variance along the shrink direction is preserved (both in
    closed form, reproducible to quadrature accuracy). A most violated
    constraint of zero violation probability is a :class:`DomainError`.
    """
    a, b = _stack(constraints, g.center.size)
    a_sigma, s, x0 = _margins(g, a, b)
    return _step(g, a, a_sigma, s, x0)


def correct_fim(f: "FisherMatrix | np.ndarray", theta,
                constraints: Sequence[LinearConstraint],
                max_iterations: int = ITERATION_BUDGET):
    """Iterate :func:`shrink_step` until every violation probability is at
    most :data:`STOP_THRESHOLD`, with steps of :data:`ETA_STEP`.

    ``f`` must be positive definite (regularize first if needed) and
    ``theta`` feasible or near-feasible. Returns the corrected kernel
    (interpreted as the effective information matrix of the constrained
    problem), the shifted center, and a :class:`ShrinkReport`. The stop
    test, on the smallest margin, runs before each of at most
    ``max_iterations`` steps and once after the last.

    A call takes two eigendecompositions, of the entry kernel and of the
    returned :class:`FisherMatrix`. A step adds a PSD term, so every kernel
    on the way meets the floor if the entry kernel's smallest eigenvalue
    exceeds ``1e-12`` times the final kernel's largest; one check at exit
    tests that (else :class:`SingularKernel`). A step that would take the
    kernel past half the float range raises :class:`KernelOverflow`, and so
    does one that leaves a center on its bound unchanged, since every later
    step would only grow the kernel toward that overflow.
    """
    max_iterations = _whole(max_iterations, "max_iterations", 0)
    labels = getattr(f, "labels", None)
    g = GaussianApprox(theta, f)
    a, b = _stack(constraints, g.center.size)
    steps: list[ShrinkStep] = []
    while True:
        margins = _margins(g, a, b)
        if normal_upper_tail(margins[2].min()) <= STOP_THRESHOLD:
            break
        if len(steps) >= max_iterations:
            raise IterationBudgetExceeded(
                f"constraint violation still above {STOP_THRESHOLD} after "
                f"{len(steps)} iterations")
        g, record = _step(g, a, *margins)
        steps.append(record)
    f_corr = FisherMatrix(g.kernel, labels)
    require_definite(np.array([g.min_eig, f_corr.eigh()[0].max()]),
                     SingularKernel, "shrink kernels are near singular")
    return f_corr, g.center, ShrinkReport(
        len(steps), normal_upper_tail(margins[2]), steps)


def correct_fim_1d_closed(f: float, a: float) -> float:
    """:func:`correct_fim` for a scalar information value ``f`` at ``a``.

    Runs the loop on the 1x1 problem over ``[0, 1]`` and returns the
    corrected value. Raises :class:`TwoActiveConstraints` when the loop
    shrinks both ends of the interval, and :class:`SingularKernel` for
    ``f <= 0``.
    """
    f_corr, _, report = correct_fim(np.array([[f]]), [a],
                                    box_constraints(unit_box(1)))
    if len({s.constraint for s in report.steps}) == 2:
        raise TwoActiveConstraints(
            f"both box constraints need shrinking at a = {a:.3g}")
    return float(f_corr.matrix[0, 0])
