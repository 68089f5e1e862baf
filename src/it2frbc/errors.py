"""Exception types shared across the package."""


class DataError(Exception):
    """Malformed, missing, or dimensionally inconsistent data."""


class ConfigError(Exception):
    """A parameter violates its documented constraints."""
