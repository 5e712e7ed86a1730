"""Workload definitions: generated CLI configs and output checks.

Each workload is one ``crbkit`` CLI verb with a config generated from the
benchmark seed. One invocation produces a fixed number of output rows (scan
points, scatter cases or error-curve grid points); a row is one operation
and fails if the invocation raised a ``CrbkitError`` or the row fails its
check. Bound columns do not depend on the seed and are compared with
``reference.json``; Monte-Carlo columns are checked by properties that hold
for any seed (finite, inside the estimator box, inside a recorded band).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

BIPHOTON_PATTERN = [1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0,
                    1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1]
SLIT_AMPLITUDES = [1, 1, 0, 0, 1, 1, 0, 0, 1, 1]


def sub_seed(seed: int, k: int) -> int:
    """Seed of invocation ``k`` within a run started with ``seed``."""
    return (seed * 1_000_003 + 7919 * k) % 2 ** 31


def biphoton_config(seed: int) -> dict:
    """Criterion-9 biphoton scan, restricted to its two cheapest points."""
    return {
        "model": {"variant": "BiphotonG2",
                  "params": {"N": 1e5, "M": 24, "d": 0.3, "d_R": 1.0,
                             "sigma_c": 0.4}},
        "amplitudes": BIPHOTON_PATTERN,
        "d_grid": [0.8, 1.0],
        "threshold": 0.1,
        "mc_samples": 0,
        "seed": seed,
    }


def slit_config(seed: int) -> dict:
    """Criterion-8 dark-box slit scan at one grid point, fewer samples.

    At 80 samples the batched least squares takes about two thirds of the
    time and the slit coefficient table most of the rest.
    """
    return {
        "model": {"variant": "SlitArray",
                  "params": {"N": 1e4, "M": 10, "d": 0.5, "d_R": 1.0}},
        "amplitudes": SLIT_AMPLITUDES,
        "d_grid": [0.5],
        "threshold": 0.1,
        "mc_samples": 80,
        "ls_starts": 6,
        "estimator_domain": "box",
        "seed": seed,
    }


def scatter_config(seed: int) -> dict:
    """The criterion-6 high-amplitude scatter case, with fewer samples.

    The MLE cost per distinct outcome is heavy-tailed near the box faces:
    at (0.2, 0.2) or (0.6, 0.6) a few outcomes take up to 3 s against a
    median of 0.04 s, so whether the seed draws them set the invocation's
    time (0.7 s to 3.7 s at (0.2, 0.2), N = 300). At (0.9, 0.9) with
    N = 50 no outcome in 600 draws took more than 0.08 s, so the cost
    follows the sample count, not the seed. There, about 1 draw in 110
    needs the 1025 x 1025 posterior-mean grid, which raises the peak
    memory from about 131 MB to about 212 MB; 60 samples per invocation
    make a run of several invocations almost sure to draw one.
    """
    return {
        "model": {"variant": "TwoPixel",
                  "params": {"N": 1000, "eta": 0.7, "h0": 1.0, "h1": 0.8}},
        "cases": [{"a": [0.9, 0.9], "N": 50, "mc_samples": 60}],
        "seed": seed,
    }


def error_curve_config(seed: int) -> dict:
    """The criterion-5 error curve at its full size."""
    return {
        "model": {"variant": "Uniform1",
                  "params": {"N": 200, "eta": 0.7, "n": 2}},
        "a_grid": [round(0.05 * i, 2) for i in range(21)],
        "mc_samples": 10_000,
        "seed": seed,
    }


# -- output reading ------------------------------------------------------------

def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body])
            for i, name in enumerate(header)}


def bound_values(name: str, out: Path) -> list[list[float]]:
    """The seed-independent output columns of one invocation, per row."""
    if name == "mc-scatter":
        vals = []
        for case in range(len(scatter_config(0)["cases"])):
            doc = json.loads((out / f"scatter_case{case}.json").read_text())
            vals.append(doc["fim_standard"]["matrix"]
                        + doc["fim_corrected"]["matrix"]
                        + doc["corrected_center"])
        return vals
    if name == "mc-error-curve":
        cols = read_csv(out / "error_curve.csv")
        keys = ("F", "F_reg", "F_corr", "Delta_std", "Delta_reg",
                "Delta_corr")
        return [[float(cols[k][i]) for k in keys]
                for i in range(cols["A"].size)]
    cols = read_csv(out / "resolution_scan.csv")
    return [[float(cols["delta2_std"][i]), float(cols["delta2_corr"][i])]
            for i in range(cols["d_over_dR"].size)]


def _close(got, want, rtol: float) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    same_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) == np.sign(want))
    finite = np.isfinite(got) & np.isfinite(want)
    with np.errstate(invalid="ignore"):   # inf - inf, masked by `finite`
        near = finite & (np.abs(got - want) <= rtol * np.abs(want))
    return bool(np.all(same_inf | near))


def _in_band(x: float, band) -> bool:
    return band is not None and math.isfinite(x) and band[0] <= x <= band[1]


# -- Monte-Carlo property checks -----------------------------------------------
# Each returns, per output row, whether the seed-free properties hold and the
# ratios (corrected bound over Monte-Carlo error) that must lie in that row's
# band.

def _mc_rows_scan(out: Path, n_params: int):
    cols = read_csv(out / "resolution_scan.csv")
    rows = []
    for i in range(cols["d_over_dR"].size):
        var, mse = cols["delta2_var_mc"][i], cols["delta2_mse_mc"][i]
        # estimates inside the unit box keep each squared error below 1
        fine = (math.isfinite(var) and math.isfinite(mse)
                and 0.0 < var and 0.0 < mse <= n_params)
        rows.append((fine, [cols["delta2_corr"][i] / mse if fine else math.nan]))
    return rows


def _mc_rows_none(out: Path, n_params: int):
    cols = read_csv(out / "resolution_scan.csv")
    return [(bool(np.isnan(cols["delta2_var_mc"][i])
                  and np.isnan(cols["delta2_mse_mc"][i])), [])
            for i in range(cols["d_over_dR"].size)]


def _mc_rows_scatter(out: Path, n_params: int):
    rows = []
    for case in range(len(scatter_config(0)["cases"])):
        est = read_csv(out / f"scatter_case{case}.csv")
        doc = json.loads((out / f"scatter_case{case}.json").read_text())
        cloud = np.column_stack([est[k] for k in ("mle_A1", "mle_A2",
                                                  "bayes_A1", "bayes_A2")])
        inside = bool(np.all(np.isfinite(cloud)) and np.all(cloud >= 0.0)
                      and np.all(cloud <= 1.0))
        kernel = np.asarray(doc["fim_corrected"]["matrix"]).reshape(2, 2)
        bound = float(np.trace(np.linalg.inv(kernel)))
        rows.append((inside, [bound / doc[f"stats_{e}"]["total_mse"]
                              for e in ("mle", "bayes")]))
    return rows


def _mc_rows_error_curve(out: Path, n_params: int):
    cols = read_csv(out / "error_curve.csv")
    rows = []
    for i in range(cols["A"].size):
        vals = [cols[k][i] for k in ("Delta_MLE_mc", "Delta_Bayes_mc",
                                     "bias_MLE", "bias_Bayes")]
        # the biased-CRB prediction is infinite where F = 0 (A = 0)
        crb = [cols[k][i] for k in ("Delta_MLE_biasedCRB",
                                    "Delta_Bayes_biasedCRB")]
        fine = (all(math.isfinite(v) for v in vals)
                and 0.0 <= vals[0] <= 1.0 and 0.0 < vals[1] <= 1.0
                and abs(vals[2]) <= 1.0 and abs(vals[3]) <= 1.0
                and all(v >= 0.0 for v in crb))
        rows.append((fine, [cols["Delta_corr"][i] / vals[1] if fine
                            else math.nan]))
    return rows


def output_rows(config: dict) -> int:
    """Operations in one invocation: scan points, cases or grid points."""
    return len(config.get("d_grid") or config.get("cases")
               or config.get("a_grid"))


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    threads: int
    make_config: Callable[[int], dict]
    n_params: int
    mc_rows: Callable[[Path, int], list]

    def check(self, out: Path, reference: dict) -> list[bool]:
        """One verdict per output row: bounds match and MC properties hold.

        The reference holds one entry per row, in row order; a missing or
        extra output row fails every row.
        """
        ref = reference["workloads"][self.name]
        rtol = reference["tolerances"]["bound_rtol"]
        want = ref["bounds"]
        rows = len(want)
        got = bound_values(self.name, out)
        mc = self.mc_rows(out, self.n_params)
        if len(got) != rows or len(mc) != rows:
            return [False] * rows
        bands = ref["bands"] or [None] * rows
        return [_close(g, w, rtol) and fine
                and all(_in_band(r, band) for r in ratios)
                for g, w, (fine, ratios), band in zip(got, want, mc, bands)]


WORKLOADS = {w.name: w for w in (
    Workload("bounds-biphoton", "resolution-scan", 2, biphoton_config,
             n_params=24, mc_rows=_mc_rows_none),
    Workload("mc-slit", "resolution-scan", 1, slit_config,
             n_params=10, mc_rows=_mc_rows_scan),
    Workload("mc-scatter", "scatter-2d", 1, scatter_config,
             n_params=2, mc_rows=_mc_rows_scatter),
    Workload("mc-error-curve", "error-curve", 1, error_curve_config,
             n_params=1, mc_rows=_mc_rows_error_curve),
)}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
