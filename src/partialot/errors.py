"""Error types shared across the package."""

import math
import sys
from fractions import Fraction

_FLOAT_MAX = sys.float_info.max


class PartialOTError(ValueError):
    """Base class for all input/validation errors raised by this package."""


class InvalidPointError(PartialOTError):
    """A point does not belong to the metric pair it was used with."""


class PairMismatchError(PartialOTError):
    """Two objects built over different metric pairs were combined."""


class UnsupportedPairError(PartialOTError):
    """A geodesic operation was requested on a non-geodesic pair."""


class AtomOnBoundaryError(PartialOTError):
    """A measure atom sits on the boundary set A."""


class NonPositiveMassError(PartialOTError):
    """A mass or flow value must be strictly positive and finite."""


class MarginalMismatchError(PartialOTError):
    """Measures or plan marginals that should agree do not."""


class InadmissiblePlanError(PartialOTError):
    """A plan's marginals do not match the prescribed measures."""


class MissingPotentialError(PartialOTError):
    """Dual potentials do not cover an atom of the plan's marginals."""


class OracleSizeError(PartialOTError):
    """An instance exceeds the oracle's size bound."""


class MalformedFileError(PartialOTError):
    """An input file could not be parsed; message carries path and position."""


class FloatRangeError(PartialOTError, OverflowError):
    """A cost, the optimum or a potential lies beyond the float range."""


def shown(value) -> str:
    """``repr(value)`` for a refusal message, or a stand-in where repr fails."""
    # repr raises ValueError on an int past Python's digit limit, such as 10**5000.
    try:
        return repr(value)
    except Exception:
        return f"<{type(value).__name__} that repr cannot print>"


def _is_rational(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for floats, and for int and Fraction values within the float range.

    Bools and strings are not numbers, nor is an int such as 10**400 that
    ``float`` cannot convert.
    """
    return isinstance(value, float) or (_is_rational(value) and -_FLOAT_MAX <= value <= _FLOAT_MAX)


def as_number(value) -> float:
    """``value`` as a float: an int or Fraction past the float range reads as +-inf.

    Every caller refuses an infinite value.  TypeError for a bool, a string
    or any other non-number.
    """
    if is_number(value):
        return float(value)
    if _is_rational(value):
        return math.inf if value > 0 else -math.inf
    raise TypeError(f"expected a number, got {shown(value)}")


def check_exponent(p) -> float:
    """Validate the transport exponent: a finite real number with p >= 1."""
    if not (is_number(p) and 1.0 <= float(p) < math.inf):
        raise PartialOTError(f"exponent p must be a finite real >= 1, got {shown(p)}")
    return float(p)


def check_tol(tol, what: str) -> float:
    """``tol`` as a float, or ValueError unless it is a finite number >= 0.

    A tolerance decides a comparison: NaN would fail every one and an
    infinite tolerance pass every one.  ``what`` names it in the message.
    """
    if not (is_number(tol) and 0.0 <= float(tol) < math.inf):
        raise ValueError(f"{what} must be finite and >= 0, got {shown(tol)}")
    return float(tol)
