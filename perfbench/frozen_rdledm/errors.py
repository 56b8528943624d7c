"""Exception types shared across the package.

The CLI maps these onto exit codes, so the hierarchy is deliberately
flat and explicit: validation problems are ValueErrors, numerical
problems are RuntimeErrors, and file-format problems get their own
branch so callers can distinguish a corrupt file from a bad argument.
"""


class RdledmError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(RdledmError, ValueError):
    """An array has the wrong rank, shape, or non-finite entries."""


class FileFormatError(RdledmError, ValueError):
    """An on-disk sequence or mask file violates its format."""


class BadMagicError(FileFormatError):
    """The file does not start with the expected magic string."""


class HeaderError(FileFormatError):
    """The dimension header line is malformed or out of range."""


class PayloadSizeError(FileFormatError):
    """The payload is truncated or has trailing bytes."""


class InfeasibleRatioError(RdledmError, ValueError):
    """The requested sampling ratio cannot be realized by the pattern."""


class InvalidSpecError(RdledmError, ValueError):
    """A phantom specification leaves the grid or the [0, 1] value range."""


class ConfigError(RdledmError, ValueError):
    """An experiment configuration has missing, unknown, or bad keys."""


class NumericalError(RdledmError, RuntimeError):
    """A numerical kernel (e.g. an SVD) failed to converge."""


class DivergenceError(RdledmError, RuntimeError):
    """Solver state became non-finite."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class CallbackError(RdledmError, RuntimeError):
    """A user-supplied iteration callback raised; the solve was aborted."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration
