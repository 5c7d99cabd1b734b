"""Exception types shared across the package."""


class MatchctlError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(MatchctlError):
    """A field was queried outside its usable domain or returned non-finite values."""


class SingularMetricError(MatchctlError):
    """The kinetic-energy matrix is not invertible at working precision."""


class SingularTargetError(MatchctlError):
    """The shaped kinetic-energy matrix is singular where it must be inverted."""


class IndefiniteTargetError(MatchctlError):
    """A shaped kinetic-energy matrix failed a positivity check on the given domain."""


class UnsolvableDataError(MatchctlError):
    """The supplied overlap data does not satisfy the solvability conditions."""


class TransversalityError(MatchctlError):
    """The transport direction is tangent (or too close to tangent) to the seed surface."""


class SingularFieldError(MatchctlError):
    """A flow field vanished along an integration path."""


class BlowUpError(MatchctlError):
    """A simulated state left the guard ball; carries the last good time and state."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class NotAnEquilibriumError(MatchctlError):
    """The queried point is not a rest point of the closed loop."""


class ScopeError(MatchctlError):
    """The operation is only defined for a restricted class of systems."""


class SingularLocusError(MatchctlError):
    """Evaluation was requested within guard distance of a known singular locus."""


class AsymmetryError(MatchctlError):
    """A reconstruction that must produce a symmetric matrix did not."""


class ConfigError(MatchctlError):
    """A run configuration failed schema validation; message carries the key path."""
