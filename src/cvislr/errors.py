"""Exception taxonomy shared across the package, its shared argument checks (each
returns the value the package stores: a Python int, float or tuple of ints) and ``shown``."""

import math
import numbers
import reprlib


class CvislrError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CvislrError, ValueError):
    """Tensor extents do not satisfy an operation's requirements."""


class NumericError(CvislrError, ValueError):
    """Numeric input outside an operation's valid domain (NaN, +inf)."""


class GeometryError(CvislrError, ValueError):
    """Clip or token-grid geometry incompatible with the model layout."""


class FormatError(CvislrError, ValueError):
    """A binary or text file does not match its declared format."""


class AlignmentError(CvislrError, ValueError):
    """Sample identifiers disagree between inputs that must be joined."""


class ContractError(CvislrError, ValueError):
    """An argument violates a documented precondition."""


class _Shown(reprlib.Repr):
    def repr_int(self, x, level):  # repr refuses an int of more than 4,300 digits
        return f"<int of {x.bit_length()} bits>" if x.bit_length() > 256 else repr(x)


_SHOWN = _Shown()
_SHOWN.maxstring = _SHOWN.maxother = 80
#: A refused value's ``repr`` for an error message, bounded, and it never raises.
shown = _SHOWN.repr


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_real(name: str, value) -> float:
    """``value`` as a float; ContractError, naming ``name``, unless a finite real, no bool."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        ok = real and math.isfinite(value)
    except OverflowError:  # an int beyond the float range is not finite as a float
        ok = False
    if not ok:
        raise ContractError(f"{name} must be a finite number, got {shown(value)}")
    return float(value)


def check_seed(seed, name: str = "seed") -> int:
    """``seed`` as an int; ContractError, naming ``name``, unless it is a nonnegative integer."""
    if not _is_integer(seed) or seed < 0:
        raise ContractError(f"{name} must be a nonnegative integer, got {shown(seed)}")
    return int(seed)


def check_positive_int(name: str, value) -> int:
    """``value`` as an int; ContractError, naming ``name``, unless it is an integer >= 1."""
    if not _is_integer(value) or value < 1:
        raise ContractError(f"{name} must be a positive integer, got {shown(value)}")
    return int(value)


def check_int_range(name: str, value, low: int, high: int) -> int:
    """``value`` as an int; ContractError, naming ``name``, unless an integer in [low, high]."""
    if not (_is_integer(value) and low <= value <= high):
        raise ContractError(f"{name} must be an integer in [{low}, {high}], got {shown(value)}")
    return int(value)


def check_extents(name: str, extents) -> tuple[int, int, int]:
    """``extents`` as ints; ContractError, naming ``name``, unless three integers (T, H, W)."""
    try:
        ok = len(extents) == 3 and all(map(_is_integer, extents))
    except TypeError:  # no length or no items
        ok = False
    if not ok:
        raise ContractError(f"{name} must be three integer extents (T, H, W), "
                            f"got {shown(extents)}")
    return tuple(map(int, extents))
