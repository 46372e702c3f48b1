"""Exact rational scalars and their wire format.

Scalars enter and leave the package as ``fractions.Fraction``: always
reduced, arbitrary precision, never rounded.  Inside, elements of a
division algebra are integer numerators over one denominator (see
``algebra``); their Fraction coordinates are the view at this boundary.
Floats are rejected here so no inexact value can leak in.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ValidationError

# the wire grammar after strip(): an integer, or an integer over a natural number
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def to_fraction(value, path: str | None = None) -> Fraction:
    """Coerce an int or a ``"p"`` / ``"p/q"`` string to a Fraction.

    Floats are refused on purpose; exact input must be written exactly.  A
    string must match ``[+-]?digits`` or ``[+-]?digits/digits`` once stripped,
    so exponents, decimals and underscores (which Fraction itself would take,
    "1e10000000" at great cost) are refused before any arithmetic.
    """
    if isinstance(value, bool):
        raise ValidationError(f"expected a rational, got boolean {value!r}", path)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL.fullmatch(text):
            raise ValidationError(f"malformed rational {value!r}: expected 'p' or 'p/q' in digits", path)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed rational {value!r}: {exc}", path) from None
    raise ValidationError(f"expected a rational (int or 'p/q' string), got {type(value).__name__}", path)


def rat_str(q: Fraction) -> str:
    """Canonical wire form: ``"p"`` for integers, ``"p/q"`` otherwise."""
    return str(q)
