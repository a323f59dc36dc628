"""Exact nonnegative rational arithmetic helpers.

Values are ordinary fractions.Fraction instances (arbitrary-precision,
always in lowest terms with positive denominator), so the invariants
gcd(numerator, denominator) = 1 and denominator >= 1 hold for free and
zero is canonically 0/1.  Literals are read by parse_rational(),
which admits no sign, so no negative value is built from text; no
floating point is used anywhere.  A literal or a result too long for
Python's int/str conversion limit is a DomainError.
"""

from __future__ import annotations

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


def format_rational(value) -> str:
    """Render as "a/b", bare "a" when the denominator is 1, or "inf"."""
    if value is INFINITY:
        return "inf"
    try:
        if isinstance(value, int):
            return str(value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return str(value.numerator)
            return f"{value.numerator}/{value.denominator}"
    except ValueError:  # past Python's int/str digit limit
        raise DomainError("result has too many digits to print") from None
    raise DomainError(f"cannot format {value!r} as a rational")
