"""Exception types shared across the package, and what a number is.

What a numeric setting is (_number, a ConfigError otherwise) and what a
class index is (dataset._class_indices, a DataError otherwise) are each
written once. Each parameter's range (a positive radius, m > 1, p != 0, a
seed of at least 0, ...) stays on the parameter's own type.
"""
import numbers
import operator


class DataError(Exception):
    """Malformed, missing, or dimensionally inconsistent data."""


class ConfigError(Exception):
    """A parameter violates its documented constraints."""


def _number(name: str, value, integer: bool = False):
    """``value`` if it is a real number (numpy's scalars included) and, with
    ``integer``, an integer (operator.index); otherwise a ConfigError naming
    ``name``. A bool is refused, since True would pass as 1, and so is a
    value past the float range (10**400); that holds for an integer too, so
    a seed of 2**1024 or more is refused though numpy could take it."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            float(operator.index(value) if integer else value)  # OverflowError past the range
            return value
    except (TypeError, OverflowError):
        pass
    raise ConfigError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
