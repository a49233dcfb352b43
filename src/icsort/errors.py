"""Exception types shared across the toolkit.

Each kind carries the exit code the CLI returns for it: ``ConfigError``
exits 1 (as usage problems do), ``DataError`` 2, ``NumericError`` 3.
"""


class IcsortError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(IcsortError):
    """Invalid configuration, flags, or run setup."""
    exit_code = 1


class DataError(IcsortError):
    """Malformed, inconsistent, or insufficient input data."""
    exit_code = 2


class NumericError(IcsortError):
    """Numeric failure: non-finite values, divergence, degenerate systems."""
    exit_code = 3
