"""Exact nonnegative rational arithmetic helpers.

Values are ordinary fractions.Fraction instances (arbitrary-precision,
always in lowest terms with positive denominator), so the invariants
gcd(numerator, denominator) = 1 and denominator >= 1 hold for free and
zero is canonically 0/1.  Construction funnels through canonical() /
parse_rational(), which reject negative values; no floating point is
used anywhere.  A literal or a result too long for Python's int/str
conversion limit is a DomainError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


class _Infinity:
    """Positive-infinity marker; compares above every int and Fraction."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("puiseux-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INFINITY = _Infinity()

def canonical(numer: int, denom: int) -> Fraction:
    """Reduced nonnegative fraction numer/denom.

    canonical(4, 6) == 2/3, canonical(0, 7) == 0/1.  Rejects a zero
    denominator and any negative input.
    """
    if not isinstance(numer, int) or not isinstance(denom, int):
        raise DomainError("canonical() needs integer numerator and denominator")
    if denom == 0:
        raise DomainError("zero denominator")
    if numer < 0 or denom < 0:
        raise DomainError("negative rationals are not representable here")
    return Fraction(numer, denom)


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
        return canonical(int(head), int(tail) if slash else 1)
    except ValueError:  # past Python's int/str digit limit
        raise DomainError(f"rational literal of {len(s)} characters has too "
                          "many digits") from None


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
