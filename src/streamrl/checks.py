"""The argument rules the public constructors and the config walk share. An
integer may need a lower bound, and a count is an integer >= 1; a finite
number is a real that is neither NaN nor infinite. None is a bool. Each
check names the argument it refuses (the config walk names its key path)
and raises the caller's error class, so a module keeps its own ValueError
subclass."""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import ClassVar

_FLOAT_MAX = sys.float_info.max


def integer(value, what: str, error: type[ValueError] = ValueError, low: int | None = None):
    """`value` if it is an integer, not a bool, and >= `low` when `low` is
    given; else raises `error`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{what} must be >= {low}, got {value!r}")
    return value


def count(value, what: str, error: type[ValueError] = ValueError):
    """`value` if it is an integer >= 1 and not a bool; else raises `error`."""
    # a plain int skips the ABC isinstance, which costs about 0.5 us
    return value if type(value) is int and value >= 1 else integer(value, what, error, 1)


def finite(value, what: str, error: type[ValueError] = ValueError):
    """`value` if it is a real number within the float range (so not NaN or
    +-inf, nor an int beyond it) and not a bool; else raises `error`."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not abs(value) <= _FLOAT_MAX:
        raise error(f"{what} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class Count:
    """A count n >= 1; a subclass says what it counts and may set `error`."""

    n: int
    error: ClassVar[type[ValueError]] = ValueError

    def __post_init__(self) -> None:
        count(self.n, f"{type(self).__name__}(n)", self.error)
