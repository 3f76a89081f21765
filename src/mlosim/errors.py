"""Exception types shared across the simulator, and the rules by which
every entry point reads its arguments: `integer` and `number` for numbers,
`items` for collections."""

import math
import numbers


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


def integer(value, name: str, least: int | None = None) -> int:
    """`value` as a Python int if it is a Python or numpy integer (not a bool)
    of at least `least`; else a `ConfigError` that names it `name`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and int(value) < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return int(value)


def number(value, name: str) -> float:
    """`value` as a Python float if it is a real number (numpy's too, not a
    bool) that is finite as a float; else a `ConfigError` that names it `name`."""
    real = isinstance(value, (float, numbers.Real)) and not isinstance(value, bool)
    try:
        if real and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def items(value, name: str) -> tuple:
    """`value` as a tuple if it is iterable and not a str or bytes; else a
    `ConfigError` that names it `name`."""
    if isinstance(value, str | bytes):
        raise ConfigError(f"{name} must be a list, not a string, got {value!r}")
    try:
        return tuple(value)
    except TypeError:
        raise ConfigError(f"{name} must be iterable, got {value!r}") from None
