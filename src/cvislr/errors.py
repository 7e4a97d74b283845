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


def check_seed(seed) -> None:
    """Raise ContractError unless ``seed`` is a nonnegative integer."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ContractError(f"seed must be a nonnegative integer, got {seed!r}")
