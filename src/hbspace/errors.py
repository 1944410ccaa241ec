"""Exception hierarchy for hbspace.

Every failure mode that callers are expected to branch on gets its own
class; generic numpy/scipy exceptions are never allowed to escape the
public API for anticipated conditions.
"""


class HbError(Exception):
    """Base class for all hbspace errors."""


class ConfigurationError(HbError):
    """Invalid resolution/size configuration (e.g. grid size not a power of two)."""


class DomainError(HbError):
    """Input outside the mathematical domain of an operation."""


class NotNonnegativeError(DomainError):
    """Trigonometric polynomial handed to the spectral factorizer dips below zero."""


class NumericalFactorizationError(HbError):
    """Root finding or factorization failed to meet its residual target."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class LogIntegrabilityError(DomainError):
    """log of the given boundary data is not integrable (divergence rule fired)."""


class ExtremeDegenerateError(LogIntegrabilityError):
    """1 - |b|^2 is not log-integrable: b is inner or |b| = 1 on a set of positive measure."""


class ConvergenceError(HbError):
    """An iterative refinement hit its cap without stabilizing."""

    def __init__(self, message, last_values=None):
        super().__init__(message)
        self.last_values = last_values


class TruncationOverflowError(ConfigurationError):
    """A bandwidth request exceeded the maximum configured transform size."""

    def __init__(self, message, requested):
        super().__init__(message)
        self.requested = requested


class UnsupportedError(HbError):
    """Operation outside the supported hypotheses (e.g. extreme symbol norms)."""


class DiagnosticsError(HbError):
    """Two routes that must agree disagreed beyond tolerance; flags a discretization failure."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class AdmissibilityError(HbError):
    """Boundary-carried measure used with a function lacking declared boundary values."""


class AlphaResonanceError(HbError):
    """No admissible unimodular alpha found: 1 - conj(alpha)*b nearly vanishes."""


class DegenerateMeasureError(HbError):
    """The measure gives zero mass to every object the analysis needs."""


class WeightingError(DomainError):
    """Weight function unbounded (or undefined) on a component's carrier."""


class ResolutionError(HbError):
    """Requested evaluation finer than the configured resolution can support."""
