"""Fisher information matrices for Poisson-count signal models.

The production path (:func:`fim_poisson`) uses the shot-noise form
``sum_i (1 / S_i) dS_i dS_i^T``. For a square-law model ``S_i = scale
Psi_i^2`` the ``1 / S_i`` cancels, exactly also at dark components:

    F_mu_nu = 4 scale sum_i dPsi_i/dtheta_mu dPsi_i/dtheta_nu

while :func:`fim_bruteforce` re-derives the same matrix from first
principles (expectation of the score outer product by explicit summation
over integer outcomes) and serves as an independent oracle in tests.
:func:`fim_gaussian_noise` carries the continuous-Gaussian comparison whose
small-signal asymptotics differ from the Poisson case.

The module owns the package's matrix rules, :func:`symmetric_part` and the
eigenvalue floor :func:`require_definite` that every inverse meets. A
:class:`FisherMatrix` is decomposed once, when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NonFiniteParameter, NonSymmetricInput, SingularFIM,
                     SingularTermError, TruncationBudgetExceeded)
from .models import ModelSpec, _validated, eval_jacobian, eval_signal
from .numerics import poisson_isf, poisson_pmf_table

__all__ = [
    "FisherMatrix",
    "fim_poisson",
    "fim_bruteforce",
    "fim_gaussian_noise",
    "fim_axis_lambda",
    "total_variance",
]

# In the Gaussian-noise form and the brute-force oracle, signal components
# below this mean are "dark": they carry no events in any realistic sample
# and their information contribution is taken in the limit.
DARK_EPS = 1e-30
# A dark component whose gradient does not also vanish signals a genuinely
# divergent information term (inconsistent model), not a removable limit.
DARK_GRAD_FACTOR = 1e6

EIG_FLOOR = 1e-12        # smallest eigenvalue, relative to the largest


def symmetric_part(matrix, what: str) -> np.ndarray:
    """``(m + m^T) / 2`` of a finite square ``matrix`` symmetric to 1e-12 of
    its largest entry; a non-finite entry is a :class:`NonFiniteParameter`,
    any other input a :class:`NonSymmetricInput`."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSymmetricInput(f"{what} must be square, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteParameter(f"{what} has non-finite entries")
    scale = float(np.abs(m).max(initial=0.0))
    if scale > 0 and np.abs(m - m.T).max() > 1e-12 * scale:
        raise NonSymmetricInput(f"{what} is not symmetric to 1e-12 relative")
    return 0.5 * (m + m.T)


def require_definite(vals: np.ndarray, error, what: str):
    """Raise ``error`` unless the smallest of the eigenvalues ``vals``
    exceeds :data:`EIG_FLOOR` times the largest, which must be positive."""
    vmax = float(vals.max(initial=0.0))
    if vmax <= 0.0 or vals.min() <= EIG_FLOOR * vmax:
        raise error(f"{what} (eigenvalues from {vals.min():.3g} to "
                    f"{vmax:.3g}, floor {EIG_FLOOR:g} of the largest)")


def _eigendecompose_with_zero_rows(matrix: np.ndarray):
    """Eigen-pairs with coordinate vectors assigned to exactly-zero rows.

    A dark pixel produces an exactly zero row/column, and its coordinate
    axis is then an exact eigenvector. Using it directly (instead of an
    arbitrary solver basis of the degenerate null space) keeps the probe
    directions feasible from a box corner.
    """
    n = matrix.shape[0]
    row_norm = np.abs(matrix).sum(axis=1)
    zero = np.flatnonzero(row_norm == 0.0)
    live = np.flatnonzero(row_norm > 0.0)
    vals = np.zeros(n)
    vecs = np.zeros((n, n))
    vecs[zero, np.arange(zero.size)] = 1.0
    if live.size:
        sub_vals, sub_vecs = np.linalg.eigh(matrix[np.ix_(live, live)])
        vals[zero.size:] = sub_vals
        vecs[np.ix_(live, np.arange(zero.size, n))] = sub_vecs
    return vals, vecs


@dataclass
class FisherMatrix:
    """Information matrix with labels: the :func:`symmetric_part` of its
    input, PSD up to round-off, and decomposed once, when built."""

    matrix: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        m = symmetric_part(self.matrix, "matrix")
        vals, vecs = _eigendecompose_with_zero_rows(m)
        vmax = float(vals.max(initial=0.0))
        if vals.min(initial=0.0) < -1e-10 * max(vmax, 1e-300):
            raise NonSymmetricInput(
                f"matrix is not PSD up to round-off: eigenvalues from "
                f"{vals.min():.3g} to {vals.max():.3g}")
        self.matrix = m
        if self.labels is not None:
            self.labels = tuple(self.labels)
            if len(self.labels) != m.shape[0]:
                raise NonSymmetricInput("label count does not match dimension")
        self._eig = (vals, vecs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigh(self):
        """``(values, vectors)`` from construction: exactly-zero rows first,
        as coordinate axes with value 0, then the rest ascending."""
        return self._eig

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "labels": list(self.labels) if self.labels else None,
            "matrix": [float(x) for x in self.matrix.ravel(order="C")],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FisherMatrix":
        n = int(doc["dim"])
        m = np.asarray(doc["matrix"], dtype=float).reshape(n, n)
        labels = doc.get("labels")
        return cls(m, tuple(labels) if labels else None)


def _dark_mask(s: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Boolean mask of components kept in the information sum.

    Components with S_i < DARK_EPS contribute zero iff their gradient row
    also vanishes (||row||^2 <= S_i * DARK_GRAD_FACTOR); otherwise the model
    is inconsistent and :class:`SingularTermError` is raised.
    """
    dark = s < DARK_EPS
    if np.any(dark):
        row_sq = np.einsum("...im,...im->...i", jac, jac)
        bad = dark & (row_sq > s * DARK_GRAD_FACTOR)
        if np.any(bad):
            raise SingularTermError(
                "signal component vanishes while its gradient does not")
    return ~dark


def fim_poisson(model: ModelSpec, theta) -> FisherMatrix:
    """Shot-noise Fisher matrix ``4 scale grad Psi^T grad Psi`` at theta."""
    _, grad = model.psi_grad(_validated(model, theta)[None, :])
    return FisherMatrix(4.0 * model.scale * (grad[0].T @ grad[0]),
                        model.labels)


def fim_gaussian_noise(model: ModelSpec, theta) -> FisherMatrix:
    """Fisher matrix for the continuous-Gaussian noise approximation.

    Per-component weight ``1/S + 1/(2 S^2)``; agrees with the Poisson form
    for bright components but diverges for genuinely dark ones, so a signal
    component that is exactly zero raises :class:`SingularTermError`.
    """
    s = eval_signal(model, theta)
    if np.any(s == 0.0):
        raise SingularTermError(
            "Gaussian-noise information diverges for a zero signal component")
    jac = eval_jacobian(model, theta)
    keep = _dark_mask(s, jac)
    s = s[keep]
    rows = jac[keep] * np.sqrt(1.0 / s + 0.5 / s ** 2)[:, None]
    return FisherMatrix(rows.T @ rows, model.labels)


def fim_bruteforce(model: ModelSpec, theta, tail_mass: float = 1e-12,
                   outcome_budget: int = 2_000_000) -> FisherMatrix:
    """Oracle Fisher matrix by explicit expectation of the score product.

    For each signal component the score is evaluated as a central finite
    difference of the Poisson log-likelihood (using only ``eval_signal``),
    and E[s_mu s_nu] is summed over integer outcomes until the truncated
    tail mass drops below ``tail_mass``. Independent components add.
    """
    theta = np.asarray(theta, dtype=float)
    s = eval_signal(model, theta)
    jac = eval_jacobian(model, theta)
    keep = _dark_mask(s, jac)
    dim = theta.size

    h = np.maximum(1e-6, 1e-4 * np.abs(theta))
    s_plus = np.empty((dim, s.size))
    s_minus = np.empty((dim, s.size))
    for mu in range(dim):
        step = np.zeros(dim)
        step[mu] = h[mu]
        s_plus[mu] = eval_signal(model, theta + step)
        s_minus[mu] = eval_signal(model, theta - step)

    f = np.zeros((dim, dim))
    for i in np.flatnonzero(keep):
        if np.any(s_plus[:, i] <= 0.0) or np.any(s_minus[:, i] <= 0.0):
            raise SingularTermError(
                "signal component vanishes inside the finite-difference stencil")
        y_max = poisson_isf(tail_mass, s[i]) + 2
        if y_max + 1 > outcome_budget:
            raise TruncationBudgetExceeded(
                f"component {i} needs {y_max + 1} outcomes (budget {outcome_budget})")
        y = np.arange(y_max + 1, dtype=float)
        pmf = poisson_pmf_table(s[i], y_max)
        # score_mu(y) = d/dtheta_mu [y log S_i - S_i], central difference
        alpha = (np.log(s_plus[:, i]) - np.log(s_minus[:, i])) / (2.0 * h)
        beta = (s_plus[:, i] - s_minus[:, i]) / (2.0 * h)
        scores = y[:, None] * alpha[None, :] - beta[None, :]
        f += (scores * pmf[:, None]).T @ scores
    return FisherMatrix(f, model.labels)


def fim_axis_lambda(model: ModelSpec, theta, v, deltas) -> np.ndarray:
    """Quadratic form ``v^T F(theta + v * delta) v`` over an array of deltas.

    Evaluated by the model's exact axis profile (``model.axis_profile``),
    which equals projecting :func:`fim_poisson` on the direction ``v``,
    dark signal components included.
    """
    return model.axis_profile(theta, v)(deltas)


def total_variance(f: FisherMatrix) -> float:
    """Aggregate error bound ``Tr F^{-1}`` from the eigenvalues of ``f``.

    Raises :class:`SingularFIM` at the :func:`require_definite` floor: the
    inverse is then meaningless and the caller should regularize first.
    """
    vals, _ = f.eigh()
    require_definite(vals, SingularFIM, "Fisher matrix is numerically singular")
    return float(np.sum(1.0 / vals))
