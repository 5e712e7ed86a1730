"""Exception types raised across the package.

Every failure mode that callers are expected to catch gets its own class so
that batch drivers (scans, Monte-Carlo loops) can tell recoverable conditions
(e.g. a singular Fisher matrix that merely needs regularization) apart without
string matching.
"""


class CrbkitError(Exception):
    """Base class for all package-specific errors."""


# -- model evaluation ------------------------------------------------------

class DimensionMismatch(CrbkitError):
    """Parameter vector length does not match the model."""


class NonFiniteParameter(CrbkitError):
    """Parameter vector contains NaN or infinity."""


class ConfigError(CrbkitError):
    """Invalid model or scan configuration."""


class QuadratureFailure(CrbkitError):
    """Adaptive quadrature did not reach the requested tolerance."""


# -- Fisher information ----------------------------------------------------

class SingularTermError(CrbkitError):
    """A signal component vanishes while its gradient does not."""


class TruncationBudgetExceeded(CrbkitError):
    """Brute-force Poisson enumeration would need too many outcomes."""


class SingularFIM(CrbkitError):
    """Fisher matrix is numerically singular; regularization required."""


# -- regularization and correction -----------------------------------------

class EmptyDomain(CrbkitError):
    """Search domain does not contain the expansion point."""


class NonSymmetricInput(CrbkitError):
    """Matrix argument is not symmetric within tolerance."""


class SingularKernel(CrbkitError):
    """Gaussian kernel is not positive definite."""


class NoConstraint(CrbkitError):
    """Constraint list is empty."""


class DomainError(CrbkitError):
    """Scalar argument outside its mathematical domain."""


class KernelOverflow(CrbkitError):
    """A shrink step would take the kernel past half the float range."""


class IterationBudgetExceeded(CrbkitError):
    """Shrinking iterations did not converge within the budget."""


class TwoActiveConstraints(CrbkitError):
    """One-step closed-form correction requires a single active constraint."""


# -- estimation ------------------------------------------------------------

class OptimizerFailure(CrbkitError):
    """Random feasible probes beat the optimizer's returned point."""


class DimensionTooLarge(CrbkitError):
    """Operation only supports low-dimensional parameter vectors."""


class InsufficientSamples(CrbkitError):
    """Not enough estimates to form statistics."""


class GridTooCoarse(CrbkitError):
    """Tabulated curve has too few points for finite differences."""
