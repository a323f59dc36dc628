"""Complete factorization enumeration over a truncated monoid.

A factorization of x is a multiset of atoms summing to x exactly; the
enumerator walks atoms in descending order choosing multiplicities, on
an explicit stack so that any number of atoms fits, and prunes any
residual the feasibility oracle rejects, so every node of the search
either extends to a solution or dies at the oracle.  The number of
factorizations reported is capped (PUISEUX_CAP or the cap argument;
default 10**6) and the cap aborts with a resource error rather than
returning silently truncated sets.

length_extremes_up_to reads the shortest and longest factorization of
every element below a bound off the coin-change table of
monoid.sweep, without listing any factorization; elasticity scans are
built on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NotAMemberError, ResourceCapError
from .monoid import Feasibility, TruncatedMonoid, WorkBudget, is_primary, sweep
from .rationals import format_rational

DEFAULT_CAP = 1_000_000


def default_cap() -> int:
    raw = os.environ.get("PUISEUX_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"PUISEUX_CAP must be an integer, got {raw!r}") from exc
    if value < 1:
        raise DomainError("PUISEUX_CAP must be positive")
    return value


@dataclass(frozen=True)
class Factorization:
    """Formal sum of atoms with positive multiplicities; terms are kept
    ascending by atom, so equal factorizations compare equal."""

    terms: tuple[tuple[Fraction, int], ...]

    @property
    def length(self) -> int:
        return sum(m for (_a, m) in self.terms)

    @property
    def value(self) -> Fraction:
        return sum((a * m for (a, m) in self.terms), Fraction(0))

    def multiplicity(self, atom: Fraction) -> int:
        for a, m in self.terms:
            if a == atom:
                return m
        return 0

    def term_strings(self) -> list[str]:
        return [f"{m} x {format_rational(a)}" for (a, m) in self.terms]

    def render(self) -> str:
        """"m x a/b + ..." with atoms ascending; the empty sum is "0"."""
        return " + ".join(self.term_strings()) or "0"


def _coins_desc(tm: TruncatedMonoid) -> tuple[tuple[int, Fraction], ...]:
    pairs = sorted(zip(tm.scaled_gens, tm.atoms), reverse=True)
    return tuple(pairs)


def factorizations(tm: TruncatedMonoid, x, cap: int | None = None,
                   ) -> tuple[Factorization, ...]:
    """All factorizations of x, sorted by their rendered form.

    Raises NotAMemberError when x is not in the monoid; x = 0 yields
    exactly the empty factorization.
    """
    f = x if isinstance(x, Fraction) else Fraction(x)
    if f < 0:
        raise DomainError("factorizations are defined for nonnegative elements")
    if f == 0:
        return (Factorization(terms=()),)
    limit = cap if cap is not None else default_cap()
    target = tm.scale(f)
    if target is None:
        raise NotAMemberError(f"{format_rational(f)} is not in the monoid")
    pairs = _coins_desc(tm)
    coins = tuple(s for (s, _a) in pairs)
    oracle = Feasibility(coins, WorkBudget(max(limit * 50, 10_000_000)))
    found: list[Factorization] = []
    path: list[tuple[Fraction, int]] = []  # (atom, multiplicity) chosen so far
    frames: list[list[int]] = []  # level, residual, next multiplicity, len(path)
    last = len(pairs) - 1

    def enter(i: int, t: int):
        s, atom = pairs[i]
        if i < last:
            frames.append([i, t, t // s, len(path)])
        elif t % s == 0:
            terms = path + ([(atom, t // s)] if t else [])
            if len(found) >= limit:
                raise ResourceCapError(
                    f"more than {limit} factorizations of "
                    f"{format_rational(f)}; raise the cap to enumerate")
            found.append(Factorization(terms=tuple(sorted(terms))))

    enter(0, target)
    while frames:
        frame = frames[-1]
        i, t, c, base = frame
        if c < 0:
            frames.pop()
            continue
        frame[2] = c - 1
        s, atom = pairs[i]
        r = t - c * s
        if oracle.check(i + 1, r):
            del path[base:]
            if c:
                path.append((atom, c))
            enter(i + 1, r)
    if not found:
        raise NotAMemberError(f"{format_rational(f)} is not in the monoid")
    return tuple(sorted(found, key=Factorization.render))


def length_set(tm: TruncatedMonoid, x, cap: int | None = None) -> tuple[int, ...]:
    """Sorted factorization lengths of x; (0,) for x = 0."""
    return tuple(sorted({z.length for z in factorizations(tm, x, cap=cap)}))


def element_elasticity(tm: TruncatedMonoid, x, cap: int | None = None) -> Fraction:
    """max length / min length; undefined (a domain error) at 0."""
    f = x if isinstance(x, Fraction) else Fraction(x)
    if f == 0:
        raise DomainError("elasticity is undefined at 0")
    lengths = length_set(tm, f, cap=cap)
    return Fraction(lengths[-1], lengths[0])


def length_extremes_up_to(tm: TruncatedMonoid, bound, budget=None,
                          ) -> dict[Fraction, tuple[int, int]]:
    """Minimum and maximum factorization length for every element up to
    bound, ascending, read off one sweep table.

    The budget (a WorkBudget) caps the sweep; the
    per-element results agree with length_set by construction.
    """
    return {tm.unscale(v): (lo, hi)
            for v, (lo, hi, _n) in sweep(tm, bound, budget).items()}


@dataclass(frozen=True)
class ValuationCheck:
    """Per-atom divisibility report: for an integer element of a primary
    monoid, each atom's prime must divide that atom's multiplicity."""

    applicable: bool
    reason: str | None
    entries: tuple[tuple[Fraction, int, int, bool], ...]  # atom, mult, prime, ok
    passed: bool | None


def valuation_coefficient_check(tm: TruncatedMonoid, x, z: Factorization,
                                ) -> ValuationCheck:
    """Check p | multiplicity for every atom n(a)/p appearing in z.

    Applicable when the monoid is primary and x is a nonnegative
    integer; outside those preconditions the report says so instead of
    failing.  z must actually be a factorization of x.
    """
    f = x if isinstance(x, Fraction) else Fraction(x)
    if z.value != f:
        raise DomainError(
            f"the given factorization sums to {format_rational(z.value)}, "
            f"not {format_rational(f)}")
    report = is_primary(tm)
    if not report.is_primary:
        return ValuationCheck(False, f"monoid is not primary: {report.reason}",
                              (), None)
    if f.denominator != 1:
        return ValuationCheck(False, f"{format_rational(f)} is not an integer",
                              (), None)
    entries = []
    ok_all = True
    for atom, mult in z.terms:
        p = atom.denominator
        ok = mult % p == 0
        ok_all = ok_all and ok
        entries.append((atom, mult, p, ok))
    return ValuationCheck(True, None, tuple(entries), ok_all)
