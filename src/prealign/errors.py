"""Exception types shared across the package, and the integer check."""

from numbers import Integral


class PrealignError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PrealignError):
    """Array shapes or dimensions are inconsistent with the operation."""


class ConfigError(PrealignError):
    """A configuration value is invalid or out of its allowed range."""


class DataError(PrealignError):
    """Data content is inconsistent (label out of range, count mismatch)."""


class FormatError(PrealignError):
    """A file could not be parsed (bad magic, malformed record or line)."""


class NumericError(PrealignError):
    """A non-finite value (NaN/Inf) appeared where finiteness is required."""


def require_int(name: str, value, minimum: int | None = None) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an integer (``bool``
    is not) and, when ``minimum`` is given, at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
