"""Exception types shared across the package."""


class PhaseBoundsError(Exception):
    """Base class for all errors raised by this package."""


class CoefficientDomainError(PhaseBoundsError, ValueError):
    """Branch coefficient outside the range where the state can be normalized."""


class NormalizationError(PhaseBoundsError, ValueError):
    """State coefficients do not satisfy the normalization constraint."""


class DegenerateInputError(PhaseBoundsError, ValueError):
    """Input for which the requested quantity is undefined or uninformative
    (vacuum probe, zero sensing weight, ...)."""


class DoubleOverflowError(PhaseBoundsError, OverflowError):
    """A quantity the package forms exceeds the double range; the message names it."""


class SingularMatrixError(PhaseBoundsError, ValueError):
    """Structured information matrix is singular where an inverse is needed."""


class RegionError(PhaseBoundsError, ValueError):
    """Closed-form optimum requested outside its validity region."""


class CutoffError(PhaseBoundsError, ValueError):
    """Photon-number cutoff too small for the requested tail tolerance."""


class SizeLimitError(PhaseBoundsError, ValueError):
    """Dense tensor would exceed the enforced size limit."""
