"""Exception types and warning categories used across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class MalformedModel(ToolkitError):
    """Structurally invalid input: wrong shapes, NaNs, broken invariants."""


class InvalidRate(ToolkitError):
    """A negative off-diagonal entry was supplied as a transition rate."""


class InvalidTime(ToolkitError):
    """A negative time was passed where t >= 0 is required."""


class InvalidParameter(ToolkitError):
    """A scalar parameter is outside its admissible range."""


class DegenerateModel(ToolkitError):
    """The model has no dynamics at all (every exit rate is zero)."""


class InfeasibleSpeed(ToolkitError):
    """A speed vector does not conserve mass (entries do not sum to zero)."""


class NumericalFailure(ToolkitError):
    """An iterative solver stopped without converging."""


class InfeasibleBridge(ToolkitError):
    """The requested endpoint pair has an infinite connection cost."""


class InsufficientSampling(ToolkitError):
    """A Monte Carlo estimate had zero hits at some sample size.

    The ``partial`` attribute holds whatever per-size results were
    collected before the failure.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class BoundaryBridgeWarning(UserWarning):
    """The bridge optimizer is only attained in a limit; a capped tilt is used."""
