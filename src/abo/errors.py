"""Exception types shared across the package."""


class AboError(Exception):
    """Base class for all library errors."""


class InvalidSpecError(AboError, ValueError):
    """A kernel or objective specification violates its invariants."""


class DimensionMismatchError(AboError, ValueError):
    """Input dimensionality does not match the specification."""


class InvalidObservationError(AboError, ValueError):
    """An input point or observed value is not finite."""


class NumericalError(AboError, ArithmeticError):
    """A quadratic form or factorization left the numerically valid range."""


class SingularModelError(AboError, ArithmeticError):
    """Cholesky factorization failed even after jitter escalation."""


class ConfigError(AboError, ValueError):
    """An experiment configuration is malformed or out of range.

    ``section`` names the config section at fault where the raiser knows it
    better than the caller that reads the file.
    """

    def __init__(self, message: str, section: str | None = None):
        super().__init__(message)
        self.section = section
