"""Exact nonnegative rational arithmetic helpers.

Values are ordinary fractions.Fraction instances (arbitrary-precision,
always in lowest terms with positive denominator), so the invariants
gcd(numerator, denominator) = 1 and denominator >= 1 hold for free and
zero is canonically 0/1.  Construction funnels through canonical() /
parse_rational(), which reject negative values; no floating point is
used anywhere.

PosRational is exported as an alias so signatures can say what they
mean.  padic_val returns an int, or the INFINITY marker exactly when
the input is zero.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .primes import is_prime

PosRational = Fraction


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


def num_den(r: Fraction) -> tuple[int, int]:
    """Canonical (numerator, denominator) pair of a positive rational."""
    if r <= 0:
        raise DomainError("num_den() is defined for positive rationals only")
    return r.numerator, r.denominator


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
    if slash:
        if not tail.isascii() or not tail.isdigit():
            raise DomainError(f"malformed rational literal {text!r}")
        return canonical(int(head), int(tail))
    return canonical(int(head), 1)


def format_rational(value) -> str:
    """Render as "a/b", bare "a" when the denominator is 1, or "inf"."""
    if value is INFINITY:
        return "inf"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    raise DomainError(f"cannot format {value!r} as a rational")


def padic_val(p: int, r: Fraction):
    """p-adic valuation of a nonnegative rational; INFINITY iff r = 0.

    For r = a/b in lowest terms this is (exponent of p in a) minus
    (exponent of p in b); at most one term is nonzero.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if not isinstance(r, Fraction):
        if isinstance(r, int):
            r = Fraction(r)
        else:
            raise DomainError(f"padic_val() needs an exact rational, got {r!r}")
    if r < 0:
        raise DomainError("negative rationals are outside this domain")
    if r == 0:
        return INFINITY
    count = 0
    n = r.numerator
    while n % p == 0:
        n //= p
        count += 1
    if count:
        return count
    d = r.denominator
    while d % p == 0:
        d //= p
        count -= 1
    return count
