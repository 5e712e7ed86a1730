"""Regenerate reference.json: bound columns, tolerances and Monte-Carlo bands.

Usage, from the root of a source checkout::

    python3 perfbench/make_reference.py

Runs every workload through ``crbkit.cli.main``. The output columns that do
not depend on the seed are stored from one invocation. For each
Monte-Carlo workload the ratios of corrected bound to Monte-Carlo error
(see ``workloads.py``) are surveyed over ``SURVEY_SEEDS`` config seeds; the
stored band of each output row is the range of its ratios widened by the
factor ``BAND_WIDEN`` on each side.
Regenerate only when a change is meant to alter the outputs, and say so in
that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import crbkit.cli  # noqa: E402
import numpy as np  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOADS, bound_values  # noqa: E402

BOUND_RTOL = 1e-6
BAND_WIDEN = 1.5
SURVEY_SEED = 987654
SURVEY_SEEDS = 40


def invoke(work, seed: int, workdir: Path) -> Path:
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(work.make_config(seed)))
    out = workdir / f"out-{seed}"
    code = crbkit.cli.main([work.verb, "--config", str(cfg_path),
                            "--out", str(out),
                            "--threads", str(work.threads)])
    if code != 0:
        raise SystemExit(f"{work.name}: crbkit exited with {code}")
    return out


def main() -> int:
    workdir = HERE.parent / ".perfbench" / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    doc = {"tolerances": {"bound_rtol": BOUND_RTOL, "band_widen": BAND_WIDEN,
                          "band_seeds": SURVEY_SEEDS},
           "workloads": {}}
    try:
        for name, work in WORKLOADS.items():
            out = invoke(work, 0, workdir)
            entry = {"bounds": bound_values(name, out), "bands": None}
            ratios = []
            for k in range(SURVEY_SEEDS):
                out = invoke(work, SURVEY_SEED + k, workdir)
                rows = work.mc_rows(out, work.n_params)
                shutil.rmtree(out)
                if not any(r for _, r in rows):
                    break
                if not all(fine for fine, _ in rows):
                    raise SystemExit(f"{name}: a row fails its properties")
                ratios.append([r for _, r in rows])
            if ratios:
                per_row = np.asarray(ratios, dtype=float)  # seed, row, ratio
                entry["bands"] = [[float(per_row[:, i].min()) / BAND_WIDEN,
                                   float(per_row[:, i].max()) * BAND_WIDEN]
                                  for i in range(per_row.shape[1])]
            doc["workloads"][name] = entry
            print(f"{name}: bands {entry['bands']}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
