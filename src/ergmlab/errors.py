"""Exception types shared across the package."""


class ErgmLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ErgmLabError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InstanceTooLargeError(ErgmLabError):
    """A size guard tripped; the message names the violated bound."""


class FormatError(ErgmLabError, ValueError):
    """A text-format input (graph, graphon, or model file) is malformed."""


class ConvergenceError(ErgmLabError):
    """An iterative solver hit its iteration cap before converging.

    Carries the last iterate and its residual so callers can inspect or
    restart from it.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class EstimatorCollapseError(ErgmLabError):
    """A ratio estimator (MCMLE or the acceptance ratio) met a log weight
    beyond double range, so a sample mean of its weights collapsed to zero or
    overflowed."""


class OverflowGuardError(ErgmLabError):
    """A value exceeds double range: a closed form (use the log-domain output
    mode where one exists) or a +inf or nan log weight of the exact or
    importance sum."""
