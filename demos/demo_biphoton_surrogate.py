#!/usr/bin/env python3
"""Finite biphoton correlations and the large-pixel breakdown (region D).

With ideally correlated photon pairs both photons cross the same pixel
and dark pixels make the information matrix singular. A finite transverse
correlation length sigma_c lets partners cross distinct pixels: the
pair coupling table Dsym[p, m, l] gains off-diagonal (m != l) entries
that keep the matrix regular -- until the pixels grow well past sigma_c
and the coupling dies off again.

The script prints the pixel-coupling profile at two pixel sizes and scans
the error bounds over d for a striped 8-pixel object. Watch the plain
bound collapse back towards singularity at large d while the corrected
bound degrades gently. Artifacts land in demos/out/biphoton/.
"""

import pathlib

import numpy as np

import crbkit as ck
from crbkit.scan import run_resolution_scan

OUT = pathlib.Path(__file__).parent / "out" / "biphoton"


def main():
    for d in (0.3, 0.9):
        model = ck.BiphotonG2Model(N=1e4, M=8, d=d, d_R=1.0, sigma_c=0.3)
        table = ck.biphoton_g2_coeffs(model)
        # the pair (j, j) of the middle detector j
        iu, ju = np.triu_indices(model.detectors.size)
        block = table[np.flatnonzero(iu == ju)[model.detectors.size // 2]]
        diag = np.abs(block).diagonal()
        couple = [np.abs(np.diagonal(block, offset=k)).max()
                  / diag.max() for k in range(4)]
        print(f"d/d_R = {d}: pixel coupling vs offset "
              + ", ".join(f"{k}: {c:.3g}" for k, c in enumerate(couple)))

    pattern = [1, 0, 1, 0, 1, 0, 1, 1]
    cfg = {
        "model": {"variant": "BiphotonG2",
                  "params": {"N": 1e4, "M": 8, "d": 0.4, "d_R": 1.0,
                             "sigma_c": 0.3}},
        "amplitudes": pattern,
        "d_grid": [0.3, 0.45, 0.6, 0.8, 1.0, 1.25],
        "threshold": 0.1,
        "mc_samples": 0,
        "seed": 2,
    }
    res = run_resolution_scan(cfg, OUT)
    print("\n  d/d_R   Delta2_std    Delta2_corr")
    for row in res["table"]:
        print(f"  {row[0]:5.2f}  {row[1]:12.5g}  {row[2]:12.5g}")
    print(f"\nartifacts in {OUT}")


if __name__ == "__main__":
    main()
