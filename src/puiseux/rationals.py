"""Exact nonnegative rational arithmetic helpers.

Values are ordinary fractions.Fraction instances (arbitrary-precision,
always in lowest terms with positive denominator), so the invariants
gcd(numerator, denominator) = 1 and denominator >= 1 hold for free and
zero is canonically 0/1.  Literals are read by parse_rational(),
which admits no sign, so no negative value is built from text; no
floating point is used anywhere.  A literal or a result too long for
Python's int/str conversion limit is a DomainError.  format_ratio
renders a pair of ints n/d the same way without building a Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


class _Infinity:
    """Positive-infinity marker; INFINITY is its one instance, told
    apart by identity."""

    def __repr__(self):
        return "inf"


INFINITY = _Infinity()


def parse_rational(text: str) -> Fraction:
    """Parse the literal syntax "a/b", or "a" meaning a/1.

    Only ASCII digits and a single slash are admitted, so negative
    values, whitespace padding inside the token, floats and exponents
    are all rejected.
    """
    if not isinstance(text, str):
        raise DomainError(f"expected a rational literal, got {text!r}")
    s = text.strip()
    head, slash, tail = s.partition("/")
    if not head.isascii() or not head.isdigit():
        raise DomainError(f"malformed rational literal {text!r}")
    if slash and (not tail.isascii() or not tail.isdigit()):
        raise DomainError(f"malformed rational literal {text!r}")
    try:
        numer, denom = int(head), int(tail) if slash else 1
    except ValueError:  # past Python's int/str digit limit
        raise DomainError(f"rational literal of {len(s)} characters has too "
                          "many digits") from None
    if denom == 0:
        raise DomainError("zero denominator")
    return Fraction(numer, denom)


def format_rational(value, denominator: int = 1) -> str:
    """Render as "a/b", bare "a" when the denominator is 1, or "inf".

    value is INFINITY, a Fraction, or an int read as value/denominator,
    which must then be in lowest terms with denominator > 0;
    format_ratio reduces any pair of ints first.
    """
    if value is INFINITY:
        return "inf"
    # int first: a miss on Fraction, an ABC, costs an __instancecheck__
    if not isinstance(value, int):
        if not isinstance(value, Fraction):
            raise DomainError(f"cannot format {value!r} as a rational")
        value, denominator = value.numerator, value.denominator
    try:
        return str(value) if denominator == 1 else f"{value}/{denominator}"
    except ValueError:  # past Python's int/str digit limit
        raise DomainError("result has too many digits to print") from None


def format_ratio(n: int, d: int) -> str:
    """Render n/d, for ints n and d > 0, as format_rational renders
    Fraction(n, d): reduced by one gcd, with no Fraction built."""
    g = math.gcd(n, d)
    return format_rational(n // g, d // g)
