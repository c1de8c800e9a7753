"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Arguments fall outside an operation's domain."""


class CatalysisWindowError(InvalidInputError):
    """Copy count lies outside the window where a catalyst can help."""


class ResourceLimitError(RuntimeError):
    """A constructed spectrum would exceed the dimension cap ``catalysis.DIM_CAP``."""


class NumericFailureError(RuntimeError):
    """A numeric search or verification step failed.

    ``best`` carries the best point found so far, when one exists.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
