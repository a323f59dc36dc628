"""Primality testing and filtered prime sequences.

Every prime this package uses comes from one ascending stream,
_primes_from(n): the primes of a fixed table below _TABLE_TOP, sieved
once on first use; then windows of _TABLE_TOP integers, each sieved by
the table's primes up to its square root, up to _TABLE_TOP squared;
then candidates tested one at a time by is_prime.  prime_seq filters
that stream and next_prime_at_least takes its first prime, so memory
stays flat however large the floor.

is_prime is a Miller-Rabin test.  Below _DETERMINISTIC_LIMIT the fixed
witness set is known to be exhaustive, so answers, and with them every
prime the stream yields, are deterministic and exact; above it (far
beyond anything this package enumerates) extra random rounds run and
the witness certificate is logged.
"""

from __future__ import annotations

import logging
import random
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache
from itertools import compress, islice
from math import gcd, isqrt, prod

from .errors import DomainError, SpecValidationError

log = logging.getLogger(__name__)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_PRODUCT = prod(_MR_WITNESSES)
# the first thirteen primes as witnesses decide primality exactly below
# this bound; the first twelve pass the composite
# 318_665_857_834_031_151_167_461 (Sorenson and Webster, Math. Comp. 2017)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_EXTRA_ROUNDS = 16


def _mr_round(n: int, d: int, s: int, a: int) -> bool:
    """True when witness a is consistent with n being prime."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    if not isinstance(n, int):
        raise DomainError(f"primality is defined for integers, got {n!r}")
    if n < 2:
        return False
    if n in _MR_WITNESSES:
        return True
    if gcd(n, _WITNESS_PRODUCT) != 1:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = list(_MR_WITNESSES)
    if n >= _DETERMINISTIC_LIMIT:
        rng = random.Random(n)
        extra = [rng.randrange(2, n - 1) for _ in range(_EXTRA_ROUNDS)]
        log.debug("probabilistic primality certificate for %d: witnesses %s",
                  n, witnesses + extra)
        witnesses += extra
    return all(_mr_round(n, d, s, a) for a in witnesses)


_TABLE_TOP = 1 << 16  # 6,542 primes lie below it


@cache
def _table() -> tuple[int, ...]:
    """Every prime below _TABLE_TOP, increasing, by a sieve of Eratosthenes."""
    flags = bytearray([1]) * _TABLE_TOP
    flags[:2] = b"\0\0"
    for i in range(2, isqrt(_TABLE_TOP - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, _TABLE_TOP, i)))
    return tuple(i for i, f in enumerate(flags) if f)


def _window(lo: int) -> Iterator[int]:
    """The primes in [lo, lo + _TABLE_TOP), for _TABLE_TOP <= lo and
    lo + _TABLE_TOP <= _TABLE_TOP**2, by a sieve of Eratosthenes whose
    primes are the table's up to the square root of the window top."""
    table, hi = _table(), lo + _TABLE_TOP
    flags = bytearray([1]) * _TABLE_TOP
    for p in islice(table, bisect_right(table, isqrt(hi - 1))):
        first = -lo % p  # offset of the window's first multiple of p
        flags[first::p] = bytes(len(range(first, _TABLE_TOP, p)))
    return compress(range(lo, hi), flags)


def _primes_from(n: int) -> Iterator[int]:
    """Every prime >= n, increasing, without end."""
    table = _table()
    yield from islice(table, bisect_left(table, n), None)
    # windows aligned to multiples of _TABLE_TOP, while the table's
    # primes reach their square roots
    lo = max(n, _TABLE_TOP) // _TABLE_TOP * _TABLE_TOP
    while lo < _TABLE_TOP ** 2:
        yield from (q for q in _window(lo) if q >= n)
        lo += _TABLE_TOP
    candidate = max(n, lo) | 1  # past the windows only odd numbers
    while True:
        if is_prime(candidate):
            yield candidate
        candidate += 2


def _filter_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past Python's int/str digit limit
        raise SpecValidationError(f"integer of {len(digits)} digits is too "
                                  "long in prime filter") from None


@dataclass(frozen=True)
class PrimeFilter:
    """Which primes a symbolic family may use.

    kind is one of "all", "odd", "exclude", "min"; exclude carries the
    finite drop set, min the lower bound.  The filtered sequence is
    always infinite.
    """

    kind: str = "all"
    exclude: frozenset[int] = field(default_factory=frozenset)
    min_bound: int = 0

    _KINDS = ("all", "odd", "exclude", "min")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise SpecValidationError(f"unknown prime filter kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "PrimeFilter":
        """Parse "all", "odd", "exclude:[3,5]" or "min:13"."""
        if isinstance(text, PrimeFilter):
            return text
        if not isinstance(text, str):
            raise SpecValidationError(f"prime filter must be a string, got {text!r}")
        s = text.strip()
        if s == "all":
            return cls("all")
        if s == "odd":
            return cls("odd")
        if s.startswith("exclude:"):
            body = s[len("exclude:"):].strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise SpecValidationError(f"malformed exclude filter {text!r}")
            inner = body[1:-1].strip()
            items = [t.strip() for t in inner.split(",")] if inner else []
            if not all(t.isdecimal() for t in items):
                raise SpecValidationError(f"malformed exclude filter {text!r}")
            dropped = frozenset(_filter_int(t) for t in items)
            if not all(is_prime(p) for p in dropped):
                raise SpecValidationError(f"exclude filter lists a non-prime in {text!r}")
            return cls("exclude", exclude=dropped)
        if s.startswith("min:"):
            body = s[len("min:"):].strip()
            if not body.isdecimal():
                raise SpecValidationError(f"malformed min filter {text!r}")
            return cls("min", min_bound=_filter_int(body))
        raise SpecValidationError(f"unknown prime filter {text!r}")

    def render(self) -> str:
        if self.kind == "all":
            return "all"
        if self.kind == "odd":
            return "odd"
        if self.kind == "exclude":
            return "exclude:[" + ",".join(str(p) for p in sorted(self.exclude)) + "]"
        return f"min:{self.min_bound}"

    def admits(self, p: int) -> bool:
        if self.kind == "odd":
            return p != 2
        if self.kind == "exclude":
            return p not in self.exclude
        if self.kind == "min":
            return p >= self.min_bound
        return True


def prime_seq(filt, count: int, skip: int = 0) -> list[int]:
    """The first count admitted primes, less the first skip, ascending."""
    f = PrimeFilter.parse(filt)
    if count < 0 or skip < 0:
        raise DomainError("count and skip must be nonnegative")
    if count > sys.maxsize:
        raise DomainError(f"cannot list {count} primes: the count is past {sys.maxsize}")
    return list(islice(filter(f.admits, _primes_from(f.min_bound)), skip, count))


def next_prime_at_least(n: int) -> int:
    """Smallest prime >= n."""
    return next(_primes_from(n))
