"""Exception hierarchy shared across the package, and the checks of a number.

Each kind has the exit code that a command-line front end should give it
(the package has none yet): ConfigError -> 2, DataError -> 3,
ContractError -> 4.  Every config and record constructor checks its numbers
with ``check_int`` and ``check_real``, so a config that constructs also saves and loads.
``is_label`` is the one rule for a class label, which may be a numpy integer.
Every message shows a value that a caller passed, and that is not yet
checked, through ``_shown``, so building the message cannot itself raise.
"""

import sys

import numpy as np

_FLOAT_MAX = sys.float_info.max
_INT64_MAX = 2 ** 63 - 1


class TfpdetError(Exception):
    """Base class for all package errors."""


class ConfigError(TfpdetError):
    """Invalid configuration value or combination."""


class DataError(TfpdetError):
    """Malformed input file or dataset (schema or binary format)."""


class ContractError(TfpdetError):
    """An operation was called outside its contract at runtime."""


def _shown(value) -> str:
    """``repr(value)``, or the bit length of an int too wide to write in decimal (over 4,300
    digits), or the type of any other value whose ``repr`` raises, such as a tuple holding that int."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an int of {value.bit_length()} bits"
    try:
        return repr(value)
    except Exception:  # any __repr__ may raise; the message it is for must still be built
        return f"a {type(value).__name__} that cannot be written out"


def check_int(name: str, value, lo: int, error=ConfigError) -> int:
    """``value`` if it is an ``int`` (not a bool or numpy integer) in [lo, 2**63 - 1], else raise ``error``."""
    if type(value) is not int or not lo <= value <= _INT64_MAX:
        raise error(f"{name} must be an int >= {lo} and <= 2**63 - 1, got {_shown(value)}")
    return value


def is_label(value) -> bool:
    """Whether ``value`` is a class label, never background: an ``int`` or numpy integer (not a
    bool) in [1, 2**63 - 1].  ``heads.Detection`` and a scoring pass's ground truth hold such labels."""
    return isinstance(value, (int, np.integer)) and type(value) is not bool and 1 <= value <= _INT64_MAX


class _Intervals(dict):
    """Each interval text, such as ``"(0, 1]"``, parsed once into (lo, hi, lo_open, hi_open); a
    dict lookup costs half an ``lru_cache`` call, and every config check pays it."""

    def __missing__(self, text: str) -> tuple:
        lo, hi = text[1:-1].split(",")
        bounds = self[text] = float(lo), float(hi), text[0] == "(", text[-1] == ")"
        return bounds


_INTERVALS = _Intervals()


def check_real(name: str, value, interval: str, error=ConfigError) -> float:
    """``value`` as a float if it is an int or float (not a bool or numpy float32) of finite
    magnitude inside ``interval``, written like ``"(0, 1]"``; else raise ``error``."""
    lo, hi, lo_open, hi_open = _INTERVALS[interval]
    if (type(value) is bool or not isinstance(value, (int, float)) or not -_FLOAT_MAX <= value <= _FLOAT_MAX
            or (value <= lo if lo_open else value < lo) or (value >= hi if hi_open else value > hi)):
        raise error(f"{name} must lie in {interval}, got {_shown(value)}")
    return float(value)
