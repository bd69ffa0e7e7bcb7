"""Exception types shared across the package."""


class IsoprofError(Exception):
    """Base class for all package errors."""


class MixedGroupError(IsoprofError, TypeError):
    """An element does not belong to the marked group operating on it."""


class RadiusExceededError(IsoprofError):
    """A word-norm or ball query went past the configured max radius."""


class BudgetError(IsoprofError):
    """A search or memory budget was exhausted before completion."""


class WindowTooSmallError(IsoprofError):
    """The supplied window cannot contain the requested computation."""


class EmptySetError(IsoprofError, ValueError):
    """The boundary ratio of an empty set is undefined."""


class ConfigError(IsoprofError, ValueError):
    """Invalid configuration, schema, or serialized input."""


class UnsupportedError(IsoprofError):
    """The requested combination is outside the implemented families."""


class ParameterError(IsoprofError, ValueError):
    """A numeric parameter is outside its valid range."""


def integer_parameter(name, x, least):
    """x, refused unless its type is int and it is at least least: a float, a
    bool or a string is a mistake, not a count to truncate."""
    if type(x) is not int or x < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {x!r}")
    return x


class NormalizationError(IsoprofError, ValueError):
    """Weights do not sum to one; nothing is rescaled silently."""


class StationarityError(IsoprofError):
    """The measure is not stationary for the given step distribution."""


class NotApplicableError(IsoprofError):
    """The hypotheses of the requested check do not hold for this input."""


class WindowExceededError(IsoprofError):
    """The query needs a radius beyond the graphing's free window."""


class CoverageError(IsoprofError):
    """Tower construction fell short of the requested coverage."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved
