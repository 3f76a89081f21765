"""Exception types shared across the simulator, and its integer check."""

import operator


class MlosimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(MlosimError):
    """A parameter or configuration value violates its preconditions."""


class GeometryError(MlosimError):
    """Placement sampling could not satisfy the geometric constraints."""


class DomainError(MlosimError):
    """An RF arithmetic input is outside the function's domain (e.g. d <= 0)."""


class EmptyInputError(MlosimError):
    """An aggregation was asked to operate on an empty collection."""


def integer(value) -> int:
    """`value` as a Python int if it is an int or a numpy integer; a bool,
    float, string or None raises TypeError."""
    if isinstance(value, bool):  # operator.index(True) is 1
        raise TypeError(f"{value!r} is a bool, not an integer")
    return operator.index(value)
