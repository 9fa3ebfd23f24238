"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError (and subclasses) -> 3, NumericalError -> 4.
"""


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
