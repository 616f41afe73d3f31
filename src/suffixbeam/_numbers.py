"""The one rule for a numeric setting, and the plain number it is stored as.

An int setting takes any integer (numpy ones too) that is not a bool, and a
real one any real number (numpy ones and fractions too) that is not a bool
and that a float can hold. Each returns the plain ``int`` or ``float`` the
code computes with, so a setting never carries a numpy or fraction type
into arithmetic, a packed marking or a JSON file.
"""

from numbers import Integral, Real


def as_int(name: str, v, low: int) -> int:
    """``v`` as an int, or ValueError unless it is an integer, not a bool, of at least ``low``.

    A plain int skips the class check, as a plain float does in :func:`as_real`.
    """
    if type(v) is not int and (isinstance(v, bool) or not isinstance(v, Integral)):
        raise ValueError(f"{name} must be an int, not {v!r}")
    if v < low:
        raise ValueError(f"{name} must be >= {low}, not {v!r}")
    return int(v)


def as_real(name: str, v) -> float:
    """``v`` as a float, or ValueError unless it is a real number, not a bool, that a float can hold."""
    if type(v) is float:
        return v
    if isinstance(v, bool) or not isinstance(v, Real):
        raise ValueError(f"{name} must be a real number, not {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{name} must be a real number a float can hold, not {v!r}") from None
