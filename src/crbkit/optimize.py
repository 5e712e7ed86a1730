"""Box-constrained fitting: one projected Levenberg-Marquardt engine.

:func:`minimize_box_batch` fits a model's signal ``S(x)`` to observed
counts ``y`` inside a box, over a flat batch of rows (one per outcome and
starting point). Both box-constrained estimators run on it; the caller
picks the loss:

* least squares, ``sum (S - y)^2``, with weights ``W = 1``;
* the Poisson negative log-likelihood ``sum (S - y log S)`` (``S`` floored
  at 1e-300), with ``W = 1 / S``: Fisher scoring makes its step a weighted
  least-squares step (Osborne 1992).

Each iteration solves ``(J^T W J + lam * scale * I) delta = -J^T W r`` with
``r = S - y`` and ``scale`` the largest diagonal entry of ``J^T W J``. A
coordinate on a bound whose gradient points out of the box keeps its value
and leaves the damped system (projected Newton, Bertsekas 1982); without
this face rule the step presses into the face and the row stalls short of
the optimum. Before a row finishes, coordinates on a face where their
Jacobian column vanishes are probed just inside it (:func:`_escape`). The
objective alone decides whether a trial point is accepted, and trials
evaluate only the signal, not the Jacobian.

Rows finish on a small projected gradient, the iteration cap, or a
round-off stall. Rows never interact (a failed solve raises the damping of
its own row only): a row's result depends only on its start and counts.
"""

from __future__ import annotations

import numpy as np

__all__ = ["minimize_box_batch", "objective", "spread_starts"]

SIGNAL_FLOOR = 1e-300   # Poisson loss: log S and 1 / S use max(S, floor)
MAX_ITERATIONS = 200    # iterations per row
PG_TOL = 1e-10          # projected-gradient convergence floor
MAX_TRIALS = 25         # damped solves per iteration before a row stalls
ESCAPE_STEP = 1e-5      # inward probe off a blind face, in box extents


def spread_starts(lower, upper, n_random: int, rng: np.random.Generator):
    """Box center plus ``n_random`` uniform feasible starting points."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    center = 0.5 * (lower + upper)
    if n_random <= 0:
        return center[None, :]
    rand = rng.uniform(lower, upper, size=(n_random, lower.size))
    return np.vstack([center[None, :], rand])


def objective(s, y, poisson: bool) -> np.ndarray:
    """Loss of signals ``s`` against counts ``y``, summed over the last axis.

    The Poisson negative log-likelihood (up to the ``log y!`` term) when
    ``poisson`` is true, the sum of squared residuals otherwise.
    """
    if poisson:
        return np.sum(s - y * np.log(np.maximum(s, SIGNAL_FLOOR)), axis=-1)
    r = s - y
    return np.einsum("...i,...i->...", r, r)


def _solve_rows(a: np.ndarray, b: np.ndarray):
    """Solve the stacked systems ``a[k] x = b[k]``; flag the singular ones.

    Returns ``(x, ok)``. A singular system leaves its row of ``x`` at zero
    with ``ok`` false and does not disturb the others.
    """
    ok = np.ones(len(a), dtype=bool)
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], ok
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
    for k in range(len(a)):
        try:
            x[k] = np.linalg.solve(a[k], b[k])
        except np.linalg.LinAlgError:
            ok[k] = False
    return x, ok


def minimize_box_batch(model, x0: np.ndarray, y: np.ndarray, domain,
                       poisson: bool):
    """Fit ``model.signal`` to per-row counts over a box, row by row.

    ``x0`` holds one starting point per row ``(B, n)`` and ``y`` the counts
    each row is fitted to ``(B, J)``; ``domain`` is a ``BoxDomain``.
    ``poisson`` selects the Poisson negative log-likelihood, otherwise the
    sum of squares. Returns the final points ``(B, n)`` and objective values
    ``(B,)``. Fully deterministic.
    """
    lower, upper = domain.lower, domain.upper
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    y = np.asarray(y, dtype=float)
    n_batch, n_dim = x.shape
    s = model.signal(x)
    f = objective(s, y, poisson)
    jac = model.jacobian(x)
    lam = np.full(n_batch, 1e-3)
    active = np.ones(n_batch, dtype=bool)
    eye = np.eye(n_dim)

    for _ in range(MAX_ITERATIONS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        xa, fa, sa, ya, ja = x[idx], f[idx], s[idx], y[idx], jac[idx]

        jwt = ja.transpose(0, 2, 1)
        if poisson:
            jwt = jwt / np.maximum(sa, SIGNAL_FLOOR)[:, None, :]
        rhs = -(jwt @ (sa - ya)[:, :, None])[:, :, 0]
        grad = -rhs if poisson else -2.0 * rhs
        pg = np.abs(np.clip(xa - grad, lower, upper) - xa).max(axis=1)
        conv = pg <= np.maximum(PG_TOL,
                                1e-14 * (1.0 + np.abs(grad).max(axis=1)))

        # face rule: bound-active coordinates keep their value
        pinned = (((xa <= lower) & (grad > 0.0))
                  | ((xa >= upper) & (grad < 0.0)))
        free = ~pinned
        h = (jwt @ ja) * (free[:, :, None] & free[:, None, :])
        rhs = rhs * free
        scale = np.maximum(np.einsum("bmm->bm", h).max(axis=1), 1e-300)
        h = h + pinned[:, :, None] * eye

        new_x, new_f, new_s = xa.copy(), fa.copy(), sa.copy()
        accepted = np.zeros(idx.size, dtype=bool)
        stalled = np.zeros(idx.size, dtype=bool)
        trial_lam = lam[idx]
        for _trial in range(MAX_TRIALS):
            rows = np.flatnonzero(~(accepted | stalled | conv))
            if rows.size == 0:
                break
            damp = (trial_lam[rows] * scale[rows])[:, None, None] * eye
            step, ok = _solve_rows(h[rows] + damp, rhs[rows])
            trial_lam[rows[~ok]] *= 10.0
            rows, step = rows[ok], step[ok]
            if rows.size == 0:
                continue
            cand = np.clip(xa[rows] + step, lower, upper)
            sc = model.signal(cand)
            fc = objective(sc, ya[rows], poisson)
            better = fc < fa[rows]
            won, lost = rows[better], rows[~better]
            new_x[won], new_f[won], new_s[won] = \
                cand[better], fc[better], sc[better]
            accepted[won] = True
            trial_lam[won] = np.maximum(trial_lam[won] / 3.0, 1e-12)
            trial_lam[lost] *= 8.0
            # more damping only shrinks a step whose predicted decrease is
            # already below the objective's round-off
            st = step[~better]
            pred = np.einsum("bm,bm->b", rhs[lost], st) - 0.5 * np.einsum(
                "bm,bmk,bk->b", st, h[lost], st)
            stalled[lost] = pred * (1.0 if poisson else 2.0) \
                <= 1e-15 * (1.0 + np.abs(fa[lost]))

        lam[idx] = trial_lam
        moved = accepted & (np.abs(new_x - xa).max(axis=1)
                            > 1e-14 * (1.0 + np.abs(xa).max(axis=1)))
        improved = (fa - new_f) > 1e-15 * (1.0 + np.abs(fa))
        x[idx], f[idx], s[idx] = new_x, new_f, new_s
        finished = conv | ~accepted | ~(moved | improved)
        active[idx[finished]] = False
        active[_escape(model, idx[finished], x, y, f, s, jac, domain,
                       poisson)] = True
        going = idx[~finished]
        if going.size:
            jac[going] = model.jacobian(x[going])

    return x, f


def _escape(model, rows, x, y, f, s, jac, domain, poisson: bool):
    """Move finished rows off faces the Gauss-Newton model cannot see.

    A coordinate on a bound whose Jacobian column vanishes (an amplitude
    model at ``A = 0``: ``S`` depends on ``A^2``) has zero gradient and zero
    curvature in ``J^T W J``, so the engine can neither confirm nor leave
    that face. Each such coordinate is tried ``ESCAPE_STEP`` box extents
    inside, one at a time; a row whose objective then falls by more than
    round-off takes its best such point (``x``, ``f``, ``s``, ``jac`` are
    updated in place). Returns those rows, to be iterated further.
    """
    lower, upper = domain.lower, domain.upper
    xr = x[rows]
    blind = ((xr == lower) | (xr == upper)) \
        & ~np.any(model.jacobian(xr), axis=1)
    if not blind.any():
        return rows[:0]
    inward = np.where(xr == lower, ESCAPE_STEP, -ESCAPE_STEP) * (upper - lower)
    pair_row, coord = np.nonzero(blind)
    cand = xr[pair_row]
    cand[np.arange(coord.size), coord] += inward[pair_row, coord]
    fc = np.full(blind.shape, np.inf)
    fc[pair_row, coord] = objective(model.signal(cand), y[rows[pair_row]],
                                    poisson)
    k = np.argmin(fc, axis=1)
    f_new = fc[np.arange(rows.size), k]
    won = f_new < f[rows] - 1e-13 * (1.0 + np.abs(f[rows]))
    rows, k = rows[won], k[won]
    x[rows, k] += inward[won, k]
    f[rows], s[rows], jac[rows] = \
        f_new[won], model.signal(x[rows]), model.jacobian(x[rows])
    return rows
