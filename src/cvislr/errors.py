"""Exception taxonomy shared across the package, and its shared argument checks."""

import numbers


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


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a real number; a bool or a str is none."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_seed(seed, name: str = "seed") -> None:
    """Raise ContractError, naming ``name``, unless ``seed`` is a nonnegative integer."""
    if not _is_integer(seed) or seed < 0:
        raise ContractError(f"{name} must be a nonnegative integer, got {seed!r}")


def check_positive_int(name: str, value) -> None:
    """Raise ContractError, naming ``name``, unless ``value`` is an integer >= 1."""
    if not _is_integer(value) or value < 1:
        raise ContractError(f"{name} must be a positive integer, got {value!r}")


def check_extents(name: str, extents) -> None:
    """Raise ContractError, naming ``name``, unless ``extents`` is three integers (T, H, W)."""
    try:
        ok = len(extents) == 3 and all(map(_is_integer, extents))
    except TypeError:  # no length or no items
        ok = False
    if not ok:
        raise ContractError(f"{name} must be three integer extents (T, H, W), got {extents!r}")
