"""Batch analyses: error curves, scatter studies, resolution scans, reports.

Each ``run_*`` function takes a plain configuration dict (parsed from JSON
by the CLI; schemas are documented in README.md), optionally writes CSV /
JSON / SVG artifacts into an output directory, and returns the computed
tables so tests and notebook-style scripts can assert on them directly.

Outputs are deterministic given the config seed: float cells are written
with ``repr`` (shortest round-trip form), infinities as ``inf``, and rows
always follow grid order regardless of the worker count.
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, SingularFIM, SingularKernel
from .estimators import (bayes_mean, biased_crb_mse, estimate_batch,
                         ls_estimate_batch, mc_stats, mle_constrained,
                         sample_signal)
# Not called here: perfbench/tracer.py rebinds ``scan.fim_axis_lambda``,
# ``scan.regularize_1d`` and ``scan.correct_fim_1d_closed``.
from .fisher import (FisherMatrix, fim_axis_lambda, fim_poisson,  # noqa: F401
                     require_definite, symmetric_part, total_variance)
from .models import (BoxDomain, ModelSpec, _finite_real, _known_keys, _whole,
                     model_from_json, model_to_json)
from .regularize import regularize_1d, regularize_fim  # noqa: F401
from .shrink import (box_constraints, correct_fim,  # noqa: F401
                     correct_fim_1d_closed)
from .svg import SvgPlot

__all__ = [
    "EllipseSpec",
    "ellipse_from_quadratic_form",
    "regularize_and_correct",
    "run_error_curve",
    "run_scatter_2d",
    "run_resolution_scan",
    "run_fim_report",
    "run_ellipse",
    "write_csv",
]

HALF_MASS_LEVEL = 2.0 * math.log(2.0)


@dataclass(frozen=True)
class EllipseSpec:
    """Half-mass ellipse of a 2-D Gaussian quadratic form."""

    center: np.ndarray
    semi_axes: np.ndarray
    directions: np.ndarray   # rows are unit axis directions

    def boundary(self) -> np.ndarray:
        """Polyline of the ellipse boundary, shape (181, 2)."""
        t = np.linspace(0.0, 2.0 * np.pi, 181)
        circle = np.column_stack([np.cos(t), np.sin(t)])
        return self.center + (circle * self.semi_axes) @ self.directions

    def to_json(self) -> dict:
        return {
            "center": [float(v) for v in self.center],
            "semi_axes": [float(v) for v in self.semi_axes],
            "directions": [[float(v) for v in row] for row in self.directions],
        }


def ellipse_from_quadratic_form(kernel, center) -> EllipseSpec:
    """Level set ``d^T kernel d = 2 log 2`` of a 2-D Gaussian.

    On average the returned ellipse contains half of the samples drawn from
    the Gaussian whose quadratic-form kernel is given. Semi-axis ``i`` is
    ``sqrt(2 log 2 / lambda_i)`` along eigenvector ``i``.
    """
    kernel = np.asarray(getattr(kernel, "matrix", kernel), dtype=float)
    center = np.asarray(center, dtype=float)
    if kernel.shape != (2, 2) or center.shape != (2,):
        raise ConfigError("ellipse construction expects a 2x2 kernel")
    vals, vecs = np.linalg.eigh(0.5 * (kernel + kernel.T))
    require_definite(vals, SingularKernel, "kernel is not positive definite")
    semi = np.sqrt(HALF_MASS_LEVEL / vals)
    return EllipseSpec(center=center, semi_axes=semi, directions=vecs.T.copy())


def write_csv(path, columns, rows):
    """Deterministic CSV: header row, repr-formatted floats, 'inf' sentinel."""
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(repr(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _dump_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text


def _require(doc: dict, key: str, where: str = "config"):
    """``doc[key]``, or a :class:`ConfigError` naming the missing key."""
    try:
        return doc[key]
    except (KeyError, TypeError):
        raise ConfigError(f"{where} is missing required key {key!r}") from None


def _object(value, name: str) -> dict:
    """A copy of ``value``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    return dict(value)


def _scalar(doc: dict, key: str, default, count: bool = False,
            minimum: int = 0, where: str | None = None):
    """``doc[key]`` (``default`` when absent) as a finite number.

    With ``count`` the value must be a whole number ``>= minimum`` and is
    returned as an ``int``; otherwise it is returned as a ``float``.
    Anything else is a :class:`ConfigError` naming the key, prefixed by
    ``where`` for a nested document.
    """
    value = doc.get(key, default)
    name = f"{where}: {key}" if where else key
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, not {value!r}")
    if not _finite_real(value):
        raise ConfigError(f"{name} must be finite, not {value!r}")
    return _whole(value, name, minimum) if count else float(value)


def _vector(doc: dict, key: str, default=None, ndim: int = 1,
            where: str | None = None) -> np.ndarray:
    """``doc[key]`` (required when ``default`` is None) as finite floats.

    The value must be a list of numbers (``ndim`` 1) or a list of such
    lists (``ndim`` 2); anything else is a :class:`ConfigError` naming the
    key, prefixed by ``where`` for a nested document.
    """
    raw = _require(doc, key, where or "config") if default is None \
        else doc.get(key, default)
    name = f"{where}: {key}" if where else key
    try:
        arr = np.asarray(raw)
    except ValueError:                  # ragged nesting
        arr = None
    if arr is None or arr.ndim != ndim or arr.dtype.kind not in "iuf":
        kind = "list of numbers" if ndim == 1 else "list of number lists"
        raise ConfigError(f"{name} must be a {kind}")
    # NaN fails every comparison, so it would pass an ordering check
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must hold only finite values")
    return arr.astype(float)


def _grid(config: dict, key: str) -> np.ndarray:
    """The finite, strictly increasing grid ``config[key]``."""
    grid = _vector(config, key)
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(f"{key} must be strictly increasing")
    return grid


def _seed(config: dict) -> int:
    """The config seed: a whole number in ``[0, 2**63)``."""
    seed = _scalar(config, "seed", 0, count=True)
    if seed >= 2 ** 63:
        raise ConfigError(f"seed must be below 2**63, not {seed}")
    return seed


def _in_box(values, box: BoxDomain, name: str):
    """Reject true values outside ``box`` by more than the 1e-12 slack of
    ``regularize_fim``, with a :class:`ConfigError` naming their key."""
    if not box.contains(values, atol=1e-12):
        raise ConfigError(f"{name} must lie in the model's box "
                          f"[{box.lower.min():g}, {box.upper.max():g}]")


def _out_path(out_dir, name):
    if out_dir is None:
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def regularize_and_correct(model: ModelSpec, theta):
    """Repair on ``model.box()``: eigen-axis regularization, then shrinking.

    Returns ``(F, F_reg, F_corr, center, report)`` where ``F`` is the plain
    information matrix at ``theta``. The eigen-axis search reads the
    model's exact axis profile, so ``F`` is the only matrix evaluated.
    """
    theta = np.asarray(theta, dtype=float)
    domain = model.box()
    f = fim_poisson(model, theta)
    f_reg = regularize_fim(f, theta, domain, model.axis_profile)
    f_corr, center, report = correct_fim(f_reg, theta, box_constraints(domain))
    return f, f_reg, f_corr, center, report


# -- error curve (1-parameter model) ----------------------------------------

ERROR_CURVE_COLUMNS = [
    "A", "F", "F_reg", "F_corr", "Delta_std", "Delta_reg", "Delta_corr",
    "Delta_MLE_mc", "Delta_Bayes_mc", "bias_MLE", "bias_Bayes",
    "Delta_MLE_biasedCRB", "Delta_Bayes_biasedCRB",
]


def run_error_curve(config: dict, out_dir=None) -> dict:
    """Bias/error curves of a 1-parameter model across its domain.

    Per grid value: the plain, regularized, and regularized-plus-corrected
    information values with their error bounds; Monte-Carlo root-MSE and
    bias of the constrained MLE and the posterior mean; and the biased-CRB
    predictions rebuilt from the tabulated Monte-Carlo bias.

    Every grid point shares one model, and an estimate depends only on its
    own counts, so each distinct outcome row is estimated once per curve:
    a memo maps it to its (MLE, posterior mean) pair, and a grid point
    passes only the unique rows of its batch not yet seen to each
    estimator, in one call. Only the memo and the current batch are held.
    """
    _known_keys(config, {"model", "a_grid", "mc_samples", "seed"})
    model = model_from_json(_object(_require(config, "model"), "model"))
    if model.dim != 1:
        raise ConfigError("error-curve requires a 1-parameter model")
    a_grid = _grid(config, "a_grid")
    if a_grid.size < 3:
        raise ConfigError("a_grid must hold at least 3 values")
    steps = np.diff(a_grid)
    step = float(steps.mean())
    if np.abs(steps - step).max() > 1e-9 * step:
        raise ConfigError("a_grid must be uniformly spaced")
    _in_box(a_grid, model.box(), "a_grid")
    mc_samples = _scalar(config, "mc_samples", 10_000, count=True, minimum=2)
    seed = _seed(config)
    mle = partial(mle_constrained, model)
    bayes = partial(bayes_mean, model)

    n = a_grid.size
    cols = {name: np.empty(n) for name in ERROR_CURVE_COLUMNS}
    cols["A"] = a_grid.copy()
    memo = {}       # outcome row (bytes) -> (MLE, posterior mean)
    for i, a in enumerate(a_grid):
        f_val, f_reg, f_corr = (fm.matrix[0, 0] for fm in
                                regularize_and_correct(model, [a])[:3])
        cols["F"][i] = f_val
        cols["F_reg"][i] = f_reg
        cols["F_corr"][i] = f_corr
        cols["Delta_std"][i] = 1.0 / math.sqrt(f_val) if f_val > 0 else math.inf
        cols["Delta_reg"][i] = 1.0 / math.sqrt(f_reg)
        cols["Delta_corr"][i] = 1.0 / math.sqrt(f_corr)

        batch = sample_signal(model, [a], seed=seed + 7919 * i, count=mc_samples)
        keys = [row.tobytes() for row in batch.unique]
        new = [k for k, key in enumerate(keys) if key not in memo]
        if new:
            rows = batch.unique[new]
            for k, pair in zip(new, zip(mle(rows)[:, 0], bayes(rows)[:, 0])):
                memo[keys[k]] = pair
        # the unique rows' (MLE, posterior mean), spread to the samples as
        # estimate_batch does: one (count, 1) column per estimator
        est = np.array([memo[key] for key in keys])
        st_mle = mc_stats(est[batch.inverse, 0:1], [a])
        st_bayes = mc_stats(est[batch.inverse, 1:2], [a])
        cols["Delta_MLE_mc"][i] = math.sqrt(st_mle.total_mse)
        cols["Delta_Bayes_mc"][i] = math.sqrt(st_bayes.total_mse)
        cols["bias_MLE"][i] = st_mle.bias[0]
        cols["bias_Bayes"][i] = st_bayes.bias[0]

    for est in ("MLE", "Bayes"):
        mse = biased_crb_mse(cols["F"], cols[f"bias_{est}"], step)
        cols[f"Delta_{est}_biasedCRB"] = np.sqrt(mse)

    rows = [[cols[name][i] for name in ERROR_CURVE_COLUMNS] for i in range(n)]
    csv_text = write_csv(_out_path(out_dir, "error_curve.csv"),
                         ERROR_CURVE_COLUMNS, rows)
    if out_dir is not None:
        plot = SvgPlot(title="1-parameter estimation error",
                       xlabel="A", ylabel="Delta", ylog=True)
        plot.add_line(a_grid, cols["Delta_std"], "standard CRB", "#000000")
        plot.add_line(a_grid, cols["Delta_reg"], "regularized", "#444444", dash="5,3")
        plot.add_line(a_grid, cols["Delta_corr"], "reg+corrected", "#888888",
                      dash="2,2")
        plot.add_line(a_grid, cols["Delta_MLE_mc"], "MLE MC", "#1f77b4")
        plot.add_line(a_grid, cols["Delta_Bayes_mc"], "Bayes MC", "#ff7f0e")
        plot.add_line(a_grid, cols["Delta_MLE_biasedCRB"], "MLE biased CRB",
                      "#1f77b4", dash="6,3")
        plot.add_line(a_grid, cols["Delta_Bayes_biasedCRB"], "Bayes biased CRB",
                      "#ff7f0e", dash="6,3")
        plot.save(_out_path(out_dir, "error_curve.svg"))
    return {"columns": ERROR_CURVE_COLUMNS, "table": cols, "csv": csv_text}


# -- 2-parameter scatter study ----------------------------------------------

def run_scatter_2d(config: dict, out_dir=None) -> dict:
    """Sampled estimate clouds vs prediction ellipses for a 2-pixel model.

    For every case: draws signal realizations, runs the constrained MLE and
    the posterior mean, and emits the sample clouds, their covariance
    ellipses, and the two prediction ellipses (plain information matrix at
    the true value; regularized-plus-corrected matrix at the shifted
    center).
    """
    _known_keys(config, {"model", "cases", "mc_samples", "seed"})
    base = _object(_require(config, "model"), "model")
    base_params = _require(base, "params", "model document")
    seed = _seed(config)
    default_count = _scalar(config, "mc_samples", 1000, count=True, minimum=2)
    cases = _require(config, "cases")
    if not isinstance(cases, list) or not cases:
        raise ConfigError("cases must be a non-empty list")
    # every case is checked before any is sampled
    plans = []
    for case_idx, case in enumerate(cases):
        where = f"case {case_idx}"
        case = _object(case, where)
        _known_keys(case, {"a", "N", "mc_samples"}, where)
        params = _object(base_params, "model params")
        if "N" in case:
            params["N"] = _scalar(case, "N", None, where=where)
        count = _scalar(case, "mc_samples", default_count, count=True,
                        minimum=2, where=where)
        theta = _vector(case, "a", where=where)
        model = model_from_json(dict(base, params=params))
        if model.dim != 2:
            raise ConfigError("scatter-2d requires a 2-parameter model")
        if theta.size != 2:
            raise ConfigError(f"{where}: a must hold 2 numbers")
        _in_box(theta, model.box(), f"{where}: a")
        plans.append((model, theta, count))

    results = []
    for case_idx, (model, theta, count) in enumerate(plans):
        f, f_reg, f_corr, center, report = regularize_and_correct(model, theta)
        ell_std = ellipse_from_quadratic_form(f.matrix, theta)
        ell_corr = ellipse_from_quadratic_form(f_corr.matrix, center)

        batch = sample_signal(model, theta, seed=seed + 104729 * case_idx,
                              count=count)
        clouds, cloud_ellipses, stats = {}, {}, {}
        for name, estimator in (("mle", mle_constrained),
                                ("bayes", bayes_mean)):
            est = estimate_batch(batch, partial(estimator, model))
            st = mc_stats(est, theta)
            clouds[name] = est
            stats[name] = st
            require_definite(np.linalg.eigvalsh(st.covariance), SingularKernel,
                             f"case {case_idx}: the {name} estimate cloud "
                             "has a singular covariance")
            cloud_ellipses[name] = ellipse_from_quadratic_form(
                np.linalg.inv(st.covariance), st.mean)

        tag = f"case{case_idx}"
        if out_dir is not None:
            rows = [[i, clouds["mle"][i, 0], clouds["mle"][i, 1],
                     clouds["bayes"][i, 0], clouds["bayes"][i, 1]]
                    for i in range(count)]
            write_csv(_out_path(out_dir, f"scatter_{tag}.csv"),
                      ["sample", "mle_A1", "mle_A2", "bayes_A1", "bayes_A2"],
                      rows)
            payload = {
                "true_value": [float(v) for v in theta],
                "fim_standard": f.to_json(),
                "fim_corrected": f_corr.to_json(),
                "corrected_center": [float(v) for v in center],
                "shrink_report": report.to_json(),
                "ellipse_standard": ell_std.to_json(),
                "ellipse_corrected": ell_corr.to_json(),
                "ellipse_mle_cloud": cloud_ellipses["mle"].to_json(),
                "ellipse_bayes_cloud": cloud_ellipses["bayes"].to_json(),
                "stats_mle": stats["mle"].to_json(),
                "stats_bayes": stats["bayes"].to_json(),
            }
            _dump_json(_out_path(out_dir, f"scatter_{tag}.json"), payload)
            plot = SvgPlot(title=f"estimates around A = {theta.tolist()}",
                           xlabel="A1", ylabel="A2")
            plot.add_points(clouds["mle"][:, 0], clouds["mle"][:, 1],
                            "MLE", "#1f77b4")
            plot.add_points(clouds["bayes"][:, 0], clouds["bayes"][:, 1],
                            "Bayes", "#ff7f0e")
            for label, ell, color, dash in (
                    ("standard CRB", ell_std, "#000000", "5,3"),
                    ("corrected", ell_corr, "#000000", ""),
                    ("MLE cloud", cloud_ellipses["mle"], "#1f77b4", "2,2"),
                    ("Bayes cloud", cloud_ellipses["bayes"], "#ff7f0e", "2,2")):
                b = ell.boundary()
                plot.add_line(b[:, 0], b[:, 1], label, color, dash=dash)
            plot.save(_out_path(out_dir, f"scatter_{tag}.svg"))

        results.append({
            "theta": theta, "fim": f, "fim_reg": f_reg, "fim_corr": f_corr,
            "center": center, "report": report, "stats": stats,
            "clouds": clouds, "ellipses": {
                "standard": ell_std, "corrected": ell_corr,
                "mle_cloud": cloud_ellipses["mle"],
                "bayes_cloud": cloud_ellipses["bayes"],
            },
        })
    return {"cases": results}


# -- resolution scan ---------------------------------------------------------

SCAN_COLUMNS = ["d_over_dR", "delta2_std", "delta2_corr",
                "delta2_var_mc", "delta2_mse_mc"]


def _tv_or_inf(f: FisherMatrix) -> float:
    """:func:`total_variance`, or ``inf`` for a numerically singular ``f``."""
    try:
        return total_variance(f)
    except SingularFIM:
        return math.inf


def _point_model(model_doc, amplitudes, d_over_dr) -> ModelSpec:
    """The scan model at ``d = d_over_dr * d_R``, referenced to the object."""
    params = _object(_require(model_doc, "params", "model document"),
                     "model params")
    params["d"] = d_over_dr * _scalar(params, "d_R", 1.0, where="model")
    params["reference"] = list(amplitudes)
    return model_from_json(dict(model_doc, params=params))


def _scan_point(model_doc, amplitudes, d_over_dr, mc_samples, seed,
                estimator_domain, n_starts):
    model = _point_model(model_doc, amplitudes, d_over_dr)
    theta = np.asarray(amplitudes, dtype=float)
    box = model.box()

    f = fim_poisson(model, theta)
    delta2_std = _tv_or_inf(f)
    try:
        f_reg = regularize_fim(f, theta, box, model.axis_profile)
        f_corr, _, _ = correct_fim(f_reg, theta, box_constraints(box))
        delta2_corr = total_variance(f_corr)
    except (SingularFIM, SingularKernel):
        # even the repaired matrix can stay numerically singular far past
        # the resolution limit; record a sentinel and keep scanning
        delta2_corr = math.inf

    delta2_var = math.nan
    delta2_mse = math.nan
    if mc_samples > 0:
        if estimator_domain == "unconstrained":
            est_box = BoxDomain(np.zeros(model.dim), 3.0 * np.ones(model.dim))
        else:
            est_box = box
        batch = sample_signal(model, theta, seed=seed, count=mc_samples)
        est = ls_estimate_batch(model, batch, est_box, n_starts=n_starts)
        st = mc_stats(est, theta)
        delta2_var = float(np.trace(st.covariance))
        delta2_mse = st.total_mse
    return [d_over_dr, delta2_std, delta2_corr, delta2_var, delta2_mse]


def run_resolution_scan(config: dict, out_dir=None, threads: int = 1) -> dict:
    """Total-error scan over the problem scale d/d_R with threshold crossing.

    Emits one row per grid point with the plain and corrected error bounds
    and (optionally) Monte-Carlo variance/MSE of bounded least squares, then
    reports ``d_min`` per curve: the smallest grid scale whose error stays
    within the configured threshold (grid resolution only, no
    interpolation). ``threads`` grid points run at once; it must be at
    least 1.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, not {threads}")
    _known_keys(config, {"model", "amplitudes", "d_grid", "threshold", "seed",
                         "mc_samples", "ls_starts", "estimator_domain",
                         "annotations"})
    model_doc = _object(_require(config, "model"), "model")
    amplitudes = _vector(config, "amplitudes").tolist()
    d_grid = _grid(config, "d_grid")
    threshold = _scalar(config, "threshold", 0.1)
    if threshold <= 0:
        raise ConfigError("threshold must be positive")
    mc_samples = _scalar(config, "mc_samples", 0, count=True)
    if mc_samples == 1:
        raise ConfigError("mc_samples must be 0 (off) or a whole number "
                          ">= 2, not 1")
    seed = _seed(config)
    estimator_domain = config.get("estimator_domain", "box")
    if estimator_domain not in ("box", "unconstrained"):
        raise ConfigError("estimator_domain must be 'box' or "
                          f"'unconstrained', not {estimator_domain!r}")
    n_starts = _scalar(config, "ls_starts", 20, count=True)
    annotations = _object(config.get("annotations", {}), "annotations")
    # a bad model ends the scan before any point runs; tables are lazy,
    # so this costs no coefficient table
    _in_box(amplitudes, _point_model(model_doc, amplitudes,
                                     float(d_grid[0])).box(), "amplitudes")

    worker = partial(_scan_point, model_doc, amplitudes,
                     mc_samples=mc_samples, estimator_domain=estimator_domain,
                     n_starts=n_starts)
    jobs = [(float(d), seed + 15485863 * i) for i, d in enumerate(d_grid)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(lambda job: worker(job[0], seed=job[1]), jobs))

    table = np.asarray(rows, dtype=float)

    def d_min(col):
        ok = np.flatnonzero(np.nan_to_num(table[:, col], nan=math.inf)
                            <= threshold)
        return float(table[ok[0], 0]) if ok.size else math.inf

    summary = {
        "threshold": threshold,
        "d_min_std": d_min(1),
        "d_min_corr": d_min(2),
        "grid_step": float(np.min(np.diff(d_grid))) if d_grid.size > 1 else 0.0,
        "annotations": annotations,
        "mc_samples": mc_samples,
        "estimator_domain": estimator_domain,
        "ls_starts": n_starts,
    }
    if mc_samples > 0:
        summary["d_min_mse_mc"] = d_min(4)

    csv_text = write_csv(_out_path(out_dir, "resolution_scan.csv"),
                         SCAN_COLUMNS, rows)
    if out_dir is not None:
        _dump_json(_out_path(out_dir, "resolution_scan.json"), summary)
        plot = SvgPlot(title="resolution scan", xlabel="d / d_R",
                       ylabel="Delta^2", ylog=True)
        plot.add_line(table[:, 0], table[:, 1], "standard", "#1f77b4", dash="6,3")
        plot.add_line(table[:, 0], table[:, 2], "reg+corrected", "#ff7f0e")
        if mc_samples > 0:
            plot.add_points(table[:, 0], table[:, 3], "MC variance", "#2ca02c")
            plot.add_points(table[:, 0], table[:, 4], "MC MSE", "#9467bd")
        plot.add_hline(threshold, "threshold")
        for label, val in (("d_min corrected", summary["d_min_corr"]),
                           ("d_min standard", summary["d_min_std"])):
            if math.isfinite(val):
                plot.add_vline(val, label)
        for key, val in summary["annotations"].items():
            if _finite_real(val):
                plot.add_vline(float(val), key, color="#999999")
        plot.save(_out_path(out_dir, "resolution_scan.svg"))
    return {"columns": SCAN_COLUMNS, "table": table, "summary": summary,
            "csv": csv_text}


# -- single-point report ------------------------------------------------------

def run_fim_report(config: dict, out_dir=None) -> dict:
    """Information matrices, eigenspectra and shrink log for one point."""
    _known_keys(config, {"model", "theta", "seed"})
    model = model_from_json(_object(_require(config, "model"), "model"))
    theta = _vector(config, "theta")
    _in_box(theta, model.box(), "theta")
    f, f_reg, f_corr, center, report = regularize_and_correct(model, theta)
    payload = {
        "model": model_to_json(model),
        "theta": [float(v) for v in theta],
        "fim": f.to_json(),
        "eigenvalues": [float(v) for v in f.eigh()[0]],
        "fim_regularized": f_reg.to_json(),
        "fim_corrected": f_corr.to_json(),
        "corrected_center": [float(v) for v in center],
        "shrink_report": report.to_json(),
        "total_variance": _tv_or_inf(f),
        "total_variance_corrected": _tv_or_inf(f_corr),
    }
    text = _dump_json(_out_path(out_dir, "fim_report.json"), payload)
    return {"payload": payload, "json": text}


def run_ellipse(config: dict, out_dir=None) -> dict:
    """Half-mass ellipse of a quadratic form supplied directly in config."""
    _known_keys(config, {"kernel", "center", "seed"})
    kernel = symmetric_part(_vector(config, "kernel", ndim=2), "kernel")
    center = _vector(config, "center", [0.0, 0.0])
    ell = ellipse_from_quadratic_form(kernel, center)
    payload = ell.to_json()
    _dump_json(_out_path(out_dir, "ellipse.json"), payload)
    if out_dir is not None:
        b = ell.boundary()
        plot = SvgPlot(title="half-mass ellipse", xlabel="x1", ylabel="x2")
        plot.add_line(b[:, 0], b[:, 1], "boundary", "#1f77b4")
        plot.save(_out_path(out_dir, "ellipse.svg"))
    return {"ellipse": ell, "payload": payload}
