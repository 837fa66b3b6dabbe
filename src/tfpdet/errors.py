"""Exception hierarchy shared across the package.

Each kind has the exit code that a command-line front end should give it
(the package has none yet): ConfigError -> 2, DataError -> 3,
ContractError -> 4.
"""


class TfpdetError(Exception):
    """Base class for all package errors."""


class ConfigError(TfpdetError):
    """Invalid configuration value or combination."""


class DataError(TfpdetError):
    """Malformed input file or dataset (schema or binary format)."""


class ContractError(TfpdetError):
    """An operation was called outside its contract at runtime."""
