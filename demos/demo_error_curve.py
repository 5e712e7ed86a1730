#!/usr/bin/env python3
"""Walk through the 1-parameter uniform-object study end to end.

A uniform object with transmission amplitude A in [0, 1] is probed by
photon pairs; the detected coincidence count is Poisson with mean
S(A) = N eta^2 A^4. The script shows the three layers of the error
analysis:

1. the plain information value F(A) and its bound 1/sqrt(F), which
   diverges for the dark object A = 0;
2. the shifted-probe regularization, which replaces the useless local
   curvature at A = 0 by the best curvature seen from nearby probes;
3. the constraint correction, which shrinks the estimate distribution
   against 0 <= A <= 1 and tightens the bound near both edges.

A Monte-Carlo run with the constrained MLE and the posterior mean shows
how the corrected bound tracks the actual estimator errors. Artifacts
(CSV table + SVG overlay) land in demos/out/error_curve/.
"""

import pathlib

import numpy as np

import crbkit as ck
from crbkit.scan import regularize_and_correct, run_error_curve

OUT = pathlib.Path(__file__).parent / "out" / "error_curve"


def main():
    model = ck.Uniform1Model(N=200, eta=0.7, n=2)
    fi = lambda a: ck.fim_poisson(model, [a]).matrix[0, 0]

    print("plain information:   F(0.5) =", fi(0.5))
    print("dark object:         F(0)   =", fi(0.0), "(bound diverges)")

    # the repair every CLI verb runs: regularization, then shrinking
    _, f_reg, f_corr, _, _ = regularize_and_correct(model, [0.0])
    f_reg, f_corr = f_reg.matrix[0, 0], f_corr.matrix[0, 0]
    print(f"regularized at A=0:  F_reg = {f_reg:.4f} "
          f"-> Delta = {1 / np.sqrt(f_reg):.4f}")
    print(f"plus constraints:    F_corr = {f_corr:.4f} "
          f"-> Delta = {1 / np.sqrt(f_corr):.4f}")

    cfg = {
        "model": ck.model_to_json(model),
        "a_grid": [round(0.05 * i, 2) for i in range(21)],
        "mc_samples": 2000,
        "seed": 1,
    }
    res = run_error_curve(cfg, OUT)
    t = res["table"]
    print("\n  A    Delta_std  Delta_corr  MLE-MC   Bayes-MC")
    for i in range(0, 21, 4):
        print(f"  {t['A'][i]:.2f}  {t['Delta_std'][i]:9.4f}  "
              f"{t['Delta_corr'][i]:9.4f}  {t['Delta_MLE_mc'][i]:7.4f}  "
              f"{t['Delta_Bayes_mc'][i]:7.4f}")
    print(f"\nartifacts in {OUT}")


if __name__ == "__main__":
    main()
