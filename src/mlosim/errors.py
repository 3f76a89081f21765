"""Exception types shared across the simulator."""


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
