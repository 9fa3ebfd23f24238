"""Exception hierarchy shared across the package, and the one upper bound
every configured count shares.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError (and subclasses) -> 3, NumericalError -> 4.
"""

import sys


class TamperscanError(Exception):
    """Base class for all package errors."""


class ConfigError(TamperscanError):
    """Invalid configuration or violated operation precondition."""


class DataError(TamperscanError):
    """Malformed, inconsistent, or empty input data."""


class SchemaError(DataError):
    """Column/feature-name mismatch between two artifacts."""


class NumericalError(TamperscanError):
    """Degenerate or non-finite numerical state."""


class ConvergenceWarning(UserWarning):
    """Solver hit its iteration cap before reaching tolerance."""


def check_count(name: str, value: int) -> None:
    """ConfigError if the count `value` is above sys.maxsize: numpy cannot
    size an array by it, and ctypes would wrap it passing it to C."""
    if value > sys.maxsize:
        raise ConfigError(f"{name} must be at most {sys.maxsize}, got {value}")
