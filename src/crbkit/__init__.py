"""Error bounds for constrained Poisson-count imaging models.

The package computes Fisher-information error bounds, repairs them when
dark objects make the information matrix singular (eigen-axis shifted-probe
regularization) or when box constraints bias the estimates (iterative
Gaussian shrinking), and validates the predictions with a deterministic
Monte-Carlo harness. See README.md for the CLI and configuration formats.
"""

from .errors import *  # noqa: F401,F403
from .models import (BiphotonG2Model, BoxDomain, ModelSpec, SlitArrayModel,
                     TwoPixelModel, Uniform1Model, biphoton_g2_coeffs,
                     eval_jacobian, eval_signal, model_from_json,
                     model_to_json, slit_kernel_coeff, unit_box)
from .fisher import (FisherMatrix, fim_axis_lambda, fim_bruteforce,
                     fim_gaussian_noise, fim_poisson, total_variance)
from .regularize import (ProbeProfile, Y1Profile, Y2Profile,
                         profile_width_closed, profile_width_numeric,
                         regularize_1d, regularize_fim)
from .shrink import (GaussianApprox, LinearConstraint, ShrinkReport,
                     ShrinkStep, box_constraints, correct_fim,
                     correct_fim_1d_closed, shrink_step,
                     truncated_variance_V, violation_probability)
from .estimators import (McStats, OptimalBiasReport, SampleBatch, bayes_mean,
                         biased_crb_mse, estimate_batch, ls_estimate,
                         mc_stats, mle_constrained, optimal_bias_check,
                         sample_signal)

__version__ = "0.1.0"
