"""Finite truncations of Puiseux monoids and their atom structure.

A TruncatedMonoid is the additive submonoid of the nonnegative
rationals generated by finitely many atoms.  All computations scale by
the lcm D of the atom denominators, turning every question into exact
integer knapsack work: x belongs to the monoid iff x*D is a
nonnegative-integer combination of the scaled atoms.

Membership uses a depth-first search over multiplicities with gcd and
smallest-coin pruning (lengths are bounded by x / min-atom, so the
search is finite).  Atom reduction is one pass of that search: a
generator is dropped when it is a combination of the generators below
it, and all the queries share one memo.  Everything below a bound
comes from one sweep: a sparse coin-change table, grown one atom at a
time, that holds the shortest and longest factorization length and
the number of factorizations of every element up to the bound.  The
table is keyed by the elements themselves, so it stays desk-scale
even when D is astronomically large.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceCapError, SpecValidationError
from .primes import is_prime
from .rationals import INFINITY, format_rational

_DEFAULT_BUDGET = 10_000_000


class WorkBudget:
    """Shared countdown of search steps; raises when exhausted."""

    __slots__ = ("limit", "left")

    def __init__(self, limit: int):
        self.limit = limit
        self.left = limit

    def spend(self, k: int = 1):
        self.left -= k
        if self.left < 0:
            raise ResourceCapError(
                f"enumeration exceeded its work budget of {self.limit} steps")


def _as_budget(budget) -> WorkBudget:
    if budget is None:
        return WorkBudget(_DEFAULT_BUDGET)
    return budget


@dataclass(frozen=True)
class TruncatedMonoid:
    atoms: tuple[Fraction, ...]      # ascending, pairwise distinct
    denom_lcm: int
    scaled_gens: tuple[int, ...]     # atom * denom_lcm, parallel to atoms
    origin: tuple | None = None      # (MonoidSpec, depth) when truncated

    @property
    def min_atom(self) -> Fraction:
        return self.atoms[0]

    @property
    def max_atom(self) -> Fraction:
        return self.atoms[-1]

    def scale(self, x: Fraction) -> int | None:
        """x * denom_lcm when that is a nonnegative integer, else None."""
        t = x * self.denom_lcm
        if t.denominator != 1 or t < 0:
            return None
        return t.numerator

    def unscale(self, t: int) -> Fraction:
        return Fraction(t, self.denom_lcm)


def _suffix_gcds(coins: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(coins)
    g = 0
    for i in range(len(coins) - 1, -1, -1):
        g = math.gcd(g, coins[i])
        out[i] = g
    return tuple(out)


class Feasibility:
    """Decides whether an integer is a nonnegative combination of a
    fixed descending coin list, memoized on (level, residual).

    check(i, t) answers for the suffix coins[i:], so a factorization
    enumerator can prune dead residuals level by level.  The search is
    depth-first over multiplicities, largest first, on an explicit
    stack, so any number of coins fits; each memo miss costs one
    budget step.
    """

    def __init__(self, coins_desc: tuple[int, ...], budget: WorkBudget):
        self.coins = coins_desc
        self.gcds = _suffix_gcds(coins_desc)
        self.memo: dict = {}
        self.budget = budget

    def _settled(self, i: int, t: int):
        """The answer for (i, t) when no search is needed, else None."""
        coins = self.coins
        if t == 0:
            return True
        if i == len(coins) or t < coins[-1] or t % self.gcds[i]:
            return False
        if i == len(coins) - 1:
            return t % coins[i] == 0
        return self.memo.get((i, t))

    def check(self, i: int, t: int) -> bool:
        ok = self._settled(i, t)
        if ok is not None:
            return ok
        coins, memo, settled = self.coins, self.memo, self._settled
        self.budget.spend()
        stack = [[i, t, t // coins[i]]]  # level, residual, next multiplicity
        while stack:
            frame = stack[-1]
            level, res, c = frame
            if c < 0:
                memo[level, res] = False
                stack.pop()
                continue
            frame[2] = c - 1
            r = res - c * coins[level]
            ok = settled(level + 1, r)
            if ok is None:
                self.budget.spend()
                stack.append([level + 1, r, r // coins[level + 1]])
            elif ok:
                for level, res, _c in stack:
                    memo[level, res] = True
                return True
        return False


def _reduce_to_atoms(values: list[Fraction], budget: WorkBudget) -> list[Fraction]:
    """The values that are not a sum of two nonzero elements of the
    monoid they generate, ascending and deduplicated.

    A generator g splits exactly when it is a nonnegative combination
    of the generators strictly below it, so with the scaled generators
    in descending order this is one feasibility query per generator on
    the coins after it, all sharing one memo.
    """
    gens = sorted(set(values), reverse=True)
    D = math.lcm(*(v.denominator for v in gens))
    coins = tuple(int(v * D) for v in gens)
    oracle = Feasibility(coins, budget)
    least_sum = 2 * coins[-1]  # nothing below the sum of two generators splits
    atoms = [g for k, g in enumerate(gens)
             if coins[k] < least_sum or not oracle.check(k + 1, coins[k])]
    atoms.reverse()
    return atoms


def from_generators(generators, origin=None, budget=None) -> TruncatedMonoid:
    """Monoid generated by the given positive rationals, reduced so the
    stored generating set is exactly its atom set."""
    budget = _as_budget(budget)
    gens = []
    for g in generators:
        f = g if isinstance(g, Fraction) else Fraction(g)
        if f <= 0:
            raise DomainError(f"generator {format_rational(f)} is not positive")
        gens.append(f)
    if not gens:
        raise DomainError("a monoid truncation needs at least one generator")
    atoms = _reduce_to_atoms(gens, budget)
    D = math.lcm(*(a.denominator for a in atoms))
    scaled = tuple(int(a * D) for a in atoms)
    return TruncatedMonoid(atoms=tuple(atoms), denom_lcm=D, scaled_gens=scaled,
                           origin=origin)


def _instantiate(spec, depth: int) -> list[tuple[Fraction, int]]:
    """(value, family index) pairs for all families at this depth."""
    out = []
    for fi, fam in enumerate(spec.families):
        if fam.kind == "explicit":
            out.extend((g, fi) for g in fam.generators)
        else:
            out.extend((v, fi) for (_n, _p, v) in fam.instantiate(depth))
    return out


def truncate(spec, depth: int, budget=None) -> TruncatedMonoid:
    """Instantiate each symbolic family at its first depth indices,
    union with the explicit generators, and reduce to atoms."""
    if any(f.kind == "symbolic" for f in spec.families):
        if not isinstance(depth, int) or depth < 1:
            raise DomainError(f"depth must be a positive integer, got {depth!r}")
    values = [v for (v, _fi) in _instantiate(spec, depth)]
    tm = from_generators(values, origin=(spec, depth), budget=budget)
    meta = spec.metadata
    if meta.atom_inf is not None and tm.min_atom < meta.atom_inf:
        raise SpecValidationError(
            f"atom {format_rational(tm.min_atom)} lies below the declared "
            f"bound atom_inf = {format_rational(meta.atom_inf)}")
    if (meta.atom_sup is not None and meta.atom_sup is not INFINITY
            and tm.max_atom > meta.atom_sup):
        raise SpecValidationError(
            f"atom {format_rational(tm.max_atom)} exceeds the declared "
            f"bound atom_sup = {format_rational(meta.atom_sup)}")
    return tm


def contains(tm: TruncatedMonoid, x, budget=None) -> bool:
    """Membership of x in the truncated monoid (0 always belongs)."""
    f = x if isinstance(x, Fraction) else Fraction(x)
    if f < 0:
        raise DomainError("membership is defined for nonnegative rationals")
    if f == 0:
        return True
    t = tm.scale(f)
    if t is None:
        return False
    coins = tuple(sorted(tm.scaled_gens, reverse=True))
    return Feasibility(coins, _as_budget(budget)).check(0, t)


def sweep(tm: TruncatedMonoid, bound, budget=None) -> dict[int, tuple[int, int, int]]:
    """(min length, max length, factorization count) of every element
    up to bound, keyed by the scaled element x*D in ascending order; 0
    maps to (0, 0, 1).

    The length recurrence L(x) = union over atoms a of (L(x - a) + 1)
    (Barron, O'Neill and Pelayo, Math. Comp. 2017) is run as a
    coin-change table, one coin at a time, largest first: each coin s
    extends a copy of the table by every multiple of s that stays
    within the bound.  One budget step is one multiplicity combination
    of value <= bound, as if every combination were listed; the budget
    is charged before a table entry is extended, so no table outgrows
    it.
    """
    f = bound if isinstance(bound, Fraction) else Fraction(bound)
    if f < 0:
        raise DomainError("bound must be nonnegative")
    budget = _as_budget(budget)
    limit = math.floor(f * tm.denom_lcm)
    table = {0: (0, 0, 1)}
    keys = [0]
    steps = 1  # the empty combination
    for s in sorted(tm.scaled_gens, reverse=True):
        if s > limit:
            continue
        grown = table.copy()
        fresh = []
        for v in keys[:bisect_right(keys, limit - s)]:
            lo, hi, cnt = table[v]
            top = (limit - v) // s
            steps += cnt * top
            if steps > budget.left:
                budget.spend(steps)  # raises
            for _ in range(top):
                v += s
                lo += 1
                hi += 1
                old = grown.get(v)
                if old is None:
                    grown[v] = (lo, hi, cnt)
                    fresh.append(v)
                else:
                    a, b, n = old
                    grown[v] = (a if a < lo else lo, b if b > hi else hi, n + cnt)
        table = grown
        keys += fresh
        keys.sort()  # merges the sorted runs
    budget.spend(steps)
    return {v: table[v] for v in keys}


def elements_up_to(tm: TruncatedMonoid, bound, budget=None) -> list[Fraction]:
    """Every monoid element <= bound, ascending, 0 included."""
    return [tm.unscale(v) for v in sweep(tm, bound, budget)]


@dataclass(frozen=True)
class PrimaryReport:
    is_primary: bool
    reason: str | None = None


def is_primary(tm: TruncatedMonoid) -> PrimaryReport:
    """Primary means: every atom has a prime denominator not dividing
    its numerator, and distinct atoms use distinct primes."""
    primes = set()
    for a in tm.atoms:
        p = a.denominator
        if not is_prime(p):
            return PrimaryReport(False, f"denominator of {format_rational(a)} "
                                        "is not prime")
        if a.numerator % p == 0:
            return PrimaryReport(False, f"numerator of {format_rational(a)} "
                                        f"is divisible by {p}")
        if p in primes:
            other = next(format_rational(b) for b in tm.atoms if b.denominator == p)
            return PrimaryReport(False, f"{format_rational(a)} and {other} "
                                        f"share the prime {p}")
        primes.add(p)
    return PrimaryReport(True)


def classify_stability(spec, depth: int, budget=None) -> dict[Fraction, str]:
    """Label each truncation atom 'stable' or 'unstable'.

    Stability is decided from the symbolic description, never from the
    finite truncation: an atom is stable iff some originating family
    has an unbounded index range and a constant numerator (infinitely
    many family members then share its numerator).  Explicit and
    bounded families yield unstable atoms.
    """
    pairs = _instantiate(spec, depth)
    tm = truncate(spec, depth, budget=budget)
    stable_values = {v for (v, fi) in pairs if spec.families[fi].is_stable()}
    return {a: ("stable" if a in stable_values else "unstable") for a in tm.atoms}
