"""Exception hierarchy shared by all sofsyn modules."""


class SofsynError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SofsynError, ValueError):
    """A matrix has a shape inconsistent with the plant dimensions."""


class NonFiniteEntryError(SofsynError, ValueError):
    """A matrix or vector contains NaN or infinite entries."""


class ProblemFileError(SofsynError, ValueError):
    """A plant file could not be parsed; the message carries line/field context."""


class EigenSolveError(SofsynError, RuntimeError):
    """The underlying eigenvalue routine failed to converge."""


class SingularResolventError(SofsynError, ValueError):
    """jw*I - A is singular at the requested frequency, or the gain there is not a number."""


class InstabilityError(SofsynError, ValueError):
    """An operation requiring a Hurwitz state matrix was called on an unstable one."""


class BracketError(SofsynError, RuntimeError):
    """The level-set iteration for the H-infinity norm did not stop within its round cap."""


class ConfigError(SofsynError, ValueError):
    """A solver or campaign configuration is inconsistent."""
