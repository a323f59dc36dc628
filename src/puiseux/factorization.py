"""Factorization counts, length sets and enumeration over a truncated
monoid.

A factorization of x is a multiset of atoms summing to x exactly.
FactorizationCounts walks the atoms grouped by denominator (the
denominators ascending, each group by descending value) choosing
multiplicities, on an explicit stack so that any number of atoms fits,
and memoizes on (level, residual) the number of factorizations and a
bitmask of their lengths; one budget step is one memo miss.  Only the
residue class of multiplicities that the gcd of the later atoms allows
is visited (ResidueSteps), and the grouping lets that gcd prune as
soon as a denominator's atoms are all placed.
length_set and element_elasticity read the mask, and the shift law and
the stable/unstable decomposition in invariants read counts and masks,
so none of them lists a factorization.  factorizations counts first,
then lists only along states with a nonzero count, so every node of the
listing extends to a factorization.  The number of factorizations is
capped (PUISEUX_CAP or the cap argument; default 10**6): the count
raises a resource error as soon as it passes the cap, rather than
returning silently truncated sets.

length_extremes_up_to reads the shortest and longest factorization of
every element below a bound off the coin-change table of
monoid.sweep, without listing any factorization; the elasticity
scans of invariants read that table, or its integer form, directly.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError, NotAMemberError, ResourceCapError
from .monoid import (TruncatedMonoid, WorkBudget, _as_budget, _suffix_gcds,
                     is_primary, sweep)
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

    @cached_property
    def _text(self) -> str:
        return " + ".join(f"{m} x {format_rational(a)}" for (a, m) in self.terms) or "0"

    def render(self) -> str:
        """"m x a/b + ..." with atoms ascending; the empty sum is "0".
        Built once per factorization: the sort and the output share it."""
        return self._text


_DEAD = (0, 0)   # no factorization
_EMPTY = (1, 1)  # the empty factorization, of length 0


class ResidueSteps:
    """Residue-class multiplicity stepping over a fixed coin list.

    Level i holds coins[i], and gcds[i] is the gcd of coins[i:].  A rest
    t - c*coins[i] can be reached by the coins after level i only when
    their gcd gcds[i + 1] divides it, which fixes c modulo
    steps[i] = gcds[i + 1]/gcds[i]; first gives the largest such c, the
    others follow every steps[i].  FactorizationCounts walks its atoms
    this way, and decompose walks the stable atoms followed by the gcd
    of the unstable ones.
    """

    def __init__(self, coins: tuple[int, ...]):
        self.coins = coins
        self.gcds = gcds = _suffix_gcds(coins)
        # per level below the last: the multiplicity step and the inverse
        # of coins[i]/g modulo it
        self.steps = tuple(gcds[i + 1] // gcds[i] for i in range(len(coins) - 1))
        self.invs = tuple(pow(coins[i] // gcds[i], -1, k) if k > 1 else 0
                          for i, k in enumerate(self.steps))

    def first(self, i: int, t: int) -> int:
        """The largest multiplicity of coins[i] in t whose rest the coins
        after it can reach modulo their gcd; the others follow every
        steps[i].  Needs gcds[i] | t and i below the last level."""
        q = t // self.coins[i]
        k = self.steps[i]
        if k == 1:
            return q
        return q - (q - t // self.gcds[i] % k * self.invs[i]) % k


class FactorizationCounts(ResidueSteps):
    """Number of factorizations and bitmask of their lengths for each
    (level, residual) state of one truncation, memoized across targets.

    The levels hold the atoms grouped by denominator, the denominators
    ascending and each group by descending value.  State (i, t) stands
    for the combinations of the scaled integer t over coins[i:]; its
    value is (count, mask), where bit L of mask is set iff some
    combination has L atoms.  A state sums its children
    (i + 1, t - c*coins[i]) over the multiplicities c, each child's mask
    shifted by c: the length recurrence
    L(x) = union over atoms a of (L(x - a) + 1) of Barron, O'Neill and
    Pelayo (Math. Comp. 2017), run one atom at a time.

    The search is depth-first, largest multiplicity first, on an
    explicit stack, and visits only the residue class of multiplicities
    that ResidueSteps allows.  Atoms sharing a denominator sit next to
    each other, so the gcd gains that denominator's prime as soon as
    its group is past and the step fixes the group's last multiplicity
    modulo it: in a primary monoid that is the p-adic rule that fixes
    each multiplicity of an integer modulo the atom's prime.  Zero
    residuals, residuals below the least coin from their level on and
    the last coin are settled without a search; one budget step is one
    memo miss, a state searched for the first time.
    """

    def __init__(self, tm: TruncatedMonoid, cap: int | None = None):
        self.tm = tm
        self.cap = cap
        self.pairs = tuple(sorted(zip(tm.scaled_gens, tm.atoms),
                                  key=lambda p: (p[1].denominator, -p[0])))
        super().__init__(tuple(s for (s, _a) in self.pairs))
        # the least coin from each level on
        self.mins = tuple(accumulate(reversed(self.coins), min))[::-1]
        self.memo: dict = {}

    def value(self, i: int, t: int):
        """(count, mask) of (i, t) when settled or memoized, else None."""
        coins = self.coins
        if t == 0:
            return _EMPTY
        if i == len(coins) or t < self.mins[i] or t % self.gcds[i]:
            return _DEAD
        if i == len(coins) - 1:
            return (1, 1 << t // coins[i])
        return self.memo.get((i, t))

    def count(self, x, budget: WorkBudget | None = None) -> tuple[int, int]:
        """(number of factorizations, length mask) of x.

        Raises NotAMemberError when x is not in the monoid, and a
        ResourceCapError as soon as more than the cap (the cap argument,
        else PUISEUX_CAP or the default) factorizations of x are
        counted, and a DomainError when x might have a factorization of
        more than sys.maxsize atoms, which no length mask can hold.
        Without a budget each call gets its own of max(cap*50, 10**7)
        steps.
        """
        f = x if isinstance(x, Fraction) else Fraction(x)
        if f < 0:
            raise DomainError("factorizations are defined for nonnegative elements")
        if f == 0:
            return _EMPTY
        limit = self.cap if self.cap is not None else default_cap()
        t = self.tm.scale(f)
        if t is None:
            raise NotAMemberError(f"{format_rational(f)} is not in the monoid")
        if t // self.mins[0] > sys.maxsize:  # a longest length no shift can reach
            raise DomainError(f"{format_rational(f)} may have factorizations of more "
                              f"than {sys.maxsize} atoms, past any length mask")
        found = self._search(t, limit, _as_budget(budget, limit * 50))
        if not found[0]:
            raise NotAMemberError(f"{format_rational(f)} is not in the monoid")
        return found

    def lengths(self, x) -> tuple[int, ...]:
        """The sorted length set of x, read off its mask; (0,) for x = 0."""
        mask = self.count(x)[1]
        return tuple(i for i, bit in enumerate(reversed(bin(mask))) if bit == "1")

    def _search(self, t: int, limit: int, budget: WorkBudget) -> tuple[int, int]:
        """(count, mask) of (0, t); found counts the factorizations of t
        the search has passed, so it raises at the first that exceeds
        limit."""
        root = self.value(0, t)
        if root is not None:
            if root[0] > limit:
                self._over(t, limit)
            return root
        coins, steps, memo, first = self.coins, self.steps, self.memo, self.first
        mins = self.mins
        last = len(coins) - 1
        budget.spend()
        found = 0
        stack = [[0, t, first(0, t), 0, 0]]  # level, residual, next mult, count, mask
        while True:
            frame = stack[-1]
            i, res, c, n, m = frame
            if c < 0:
                memo[i, res] = done = (n, m) if n else _DEAD  # most states are dead
                stack.pop()
                if not stack:
                    return done
                parent = stack[-1]
                parent[3] += n
                parent[4] |= m << parent[2] + steps[parent[0]]
                continue
            frame[2] = c - steps[i]
            r = res - c * coins[i]
            if r == 0:
                child = _EMPTY
            elif r < mins[i + 1]:
                continue
            elif i + 1 == last:  # the gcd there is the last coin itself
                child = (1, 1 << r // coins[last])
            else:
                child = memo.get((i + 1, r))
                if child is None:
                    budget.spend()
                    stack.append([i + 1, r, first(i + 1, r), 0, 0])
                    continue
            if child[0]:
                frame[3] = n + child[0]
                frame[4] = m | child[1] << c
                found += child[0]
                if found > limit:
                    self._over(t, limit)

    def _over(self, t: int, limit: int):
        raise ResourceCapError(
            f"more than {limit} factorizations of "
            f"{format_rational(self.tm.unscale(t))}; raise the cap to enumerate")


def factorizations(tm: TruncatedMonoid, x, cap: int | None = None,
                   ) -> tuple[Factorization, ...]:
    """All factorizations of x, sorted by their rendered form.

    Raises NotAMemberError when x is not in the monoid; x = 0 yields
    exactly the empty factorization.  The count comes first, so a cap
    stops the run before anything is listed.
    """
    f = x if isinstance(x, Fraction) else Fraction(x)
    table = FactorizationCounts(tm, cap)
    table.count(f)
    if f == 0:
        return (Factorization(terms=()),)
    pairs, value, first, steps = table.pairs, table.value, table.first, table.steps
    last = len(pairs) - 1
    t = tm.scale(f)
    if not last:
        return (Factorization(terms=((pairs[0][1], t // pairs[0][0]),)),)
    found: list[Factorization] = []
    path: list[tuple[int, Fraction, int]] = []  # (coin, atom, multiplicity)
    frames = [[0, t, first(0, t), 0]]  # level, residual, next mult, len(path)
    while frames:
        frame = frames[-1]
        i, res, c, base = frame
        if c < 0:
            frames.pop()
            continue
        frame[2] = c - steps[i]
        s, atom = pairs[i]
        r = res - c * s
        if r and not value(i + 1, r)[0]:
            continue
        del path[base:]
        if c:
            path.append((s, atom, c))
        if r and i + 1 < last:
            frames.append([i + 1, r, first(i + 1, r), len(path)])
            continue
        terms = path[:]
        if r:  # the last coin takes the rest
            terms.append((*pairs[last], r // pairs[last][0]))
        # the levels are not in atom order; the distinct integer coins
        # sort the terms as their atoms do, without comparing fractions
        terms.sort()
        found.append(Factorization(terms=tuple((a, m) for _s, a, m in terms)))
    return tuple(sorted(found, key=Factorization.render))


def length_set(tm: TruncatedMonoid, x, cap: int | None = None) -> tuple[int, ...]:
    """Sorted factorization lengths of x; (0,) for x = 0.  Read off the
    count's length mask: no factorization is listed."""
    return FactorizationCounts(tm, cap).lengths(x)


def element_elasticity(tm: TruncatedMonoid, x, cap: int | None = None) -> Fraction:
    """max length / min length; undefined (a domain error) at 0."""
    f = x if isinstance(x, Fraction) else Fraction(x)
    if f == 0:
        raise DomainError("elasticity is undefined at 0")
    mask = FactorizationCounts(tm, cap).count(f)[1]
    return Fraction(mask.bit_length() - 1, (mask & -mask).bit_length() - 1)


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
