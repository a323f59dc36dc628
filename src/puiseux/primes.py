"""Primality testing and filtered prime sequences.

Prime sequences are read from one per-process table, filled by a sieve
of Eratosthenes whose range doubles whenever a request runs past its
top; prime_seq is the only producer of a filter's admitted primes.

is_prime is a Miller-Rabin test for single integers (spec denominators,
exclude lists, next_prime_at_least).  Below _DETERMINISTIC_LIMIT the
fixed witness set is known to be exhaustive, so answers are
deterministic and exact; above it (far beyond anything this package
enumerates) extra random rounds run and the witness certificate is
logged.
"""

from __future__ import annotations

import logging
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from math import isqrt

from .errors import DomainError, SpecValidationError

log = logging.getLogger(__name__)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# first twelve prime witnesses decide primality exactly below this bound
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
    if any(n % p == 0 for p in _MR_WITNESSES):
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


_PRIMES: list[int] = []  # every prime up to _sieved_to, increasing
_sieved_to = 0


def _grow_table() -> None:
    """Double the sieved range, re-sieving it from scratch."""
    global _sieved_to
    top = max(2 * _sieved_to, 1024)
    flags = bytearray([1]) * (top + 1)
    flags[:2] = b"\0\0"
    for i in range(2, isqrt(top) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, top + 1, i)))
    _PRIMES[:] = [i for i, f in enumerate(flags) if f]
    _sieved_to = top


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
            if not all(t.isdigit() for t in items):
                raise SpecValidationError(f"malformed exclude filter {text!r}")
            dropped = frozenset(int(t) for t in items)
            if not all(is_prime(p) for p in dropped):
                raise SpecValidationError(f"exclude filter lists a non-prime in {text!r}")
            return cls("exclude", exclude=dropped)
        if s.startswith("min:"):
            body = s[len("min:"):].strip()
            if not body.isdigit():
                raise SpecValidationError(f"malformed min filter {text!r}")
            return cls("min", min_bound=int(body))
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

    def nth(self, n: int) -> int:
        """1-indexed n-th admitted prime."""
        if n < 1:
            raise DomainError(f"prime index must be >= 1, got {n}")
        return prime_seq(self, n)[-1]


FILTER_ALL = PrimeFilter("all")


def prime_seq(filt, count: int) -> list[int]:
    """First count primes admitted by the filter, in increasing order."""
    f = PrimeFilter.parse(filt)
    if count < 0:
        raise DomainError("count must be nonnegative")
    while True:
        # from the min bound on, a filter drops only its excluded primes or 2
        start = bisect_left(_PRIMES, f.min_bound)
        stop = start + count + len(f.exclude) + 1
        if stop <= len(_PRIMES):
            return [p for p in _PRIMES[start:stop] if f.admits(p)][:count]
        _grow_table()


def next_prime_at_least(n: int, used=()) -> int:
    """Smallest prime >= n that is not in used."""
    used = set(used)
    candidate = max(2, n)
    while not is_prime(candidate) or candidate in used:
        candidate += 1
    return candidate
