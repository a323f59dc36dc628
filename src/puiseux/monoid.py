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
it, and all the queries share one memo.

Everything below a bound comes from one sweep: a sparse coin-change
table, grown in place one atom at a time, that holds the shortest and
longest factorization length and the number of factorizations of
every element up to the bound.  The table is keyed by the elements
themselves, so it stays desk-scale even when D is astronomically
large.  The same kernel, with a length per coin, builds the residue
table that rset and plot read (see invariants), smaller than the
sweep's when some denominator holds a higher power of some prime than
all the others do.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
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


def _as_budget(budget: WorkBudget | None = None, steps: int = 0) -> WorkBudget:
    """budget itself, else a fresh one of max(steps, 10**7) steps; every
    default budget is made here, by the kernel that spends it."""
    if budget is None:
        return WorkBudget(max(steps, _DEFAULT_BUDGET))
    return budget


@dataclass(frozen=True)
class TruncatedMonoid:
    atoms: tuple[Fraction, ...]      # ascending, pairwise distinct
    denom_lcm: int
    scaled_gens: tuple[int, ...]     # atom * denom_lcm, parallel to atoms
    # parallel to atoms: whether a stable family generates the atom;
    # None unless truncated
    stable: tuple[bool, ...] | None = None

    @property
    def min_atom(self) -> Fraction:
        return self.atoms[0]

    @property
    def max_atom(self) -> Fraction:
        return self.atoms[-1]

    def scale(self, x: Fraction) -> int | None:
        """x * denom_lcm when that is a nonnegative integer, else None."""
        q, r = divmod(self.denom_lcm, x.denominator)
        if r or x.numerator < 0:
            return None
        return x.numerator * q

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

    check(i, t) answers for the suffix coins[i:]: atom reduction asks
    whether a generator is a combination of the coins below it, and
    membership asks at level 0.  The search is depth-first over
    multiplicities, largest first, on an explicit stack, so any number
    of coins fits; each memo miss costs one step of the budget the
    query is given.
    """

    def __init__(self, coins_desc: tuple[int, ...]):
        self.coins = coins_desc
        self.gcds = _suffix_gcds(coins_desc)
        self.memo: dict = {}

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

    def check(self, i: int, t: int, budget: WorkBudget) -> bool:
        ok = self._settled(i, t)
        return self._search(i, t, budget) if ok is None else ok

    def _search(self, i: int, t: int, budget: WorkBudget) -> bool:
        """check for an (i, t) that _settled leaves open."""
        coins, memo, settled = self.coins, self.memo, self._settled
        budget.spend()
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
                budget.spend()
                stack.append([level + 1, r, r // coins[level + 1]])
            elif ok:
                for level, res, _c in stack:
                    memo[level, res] = True
                return True
        return False


def _reduce_to_atoms(scaled) -> list[int]:
    """The distinct scaled generators in scaled that are not a sum of
    two nonzero elements of the monoid they generate, ascending.

    A generator g splits exactly when it is a nonnegative combination
    of the generators strictly below it, so this is one feasibility
    query per generator on the coins after it, all sharing one memo and
    one default budget.
    """
    coins = sorted(scaled, reverse=True)
    oracle, budget = Feasibility(tuple(coins)), _as_budget()
    least_sum = 2 * coins[-1]  # nothing below the sum of two generators splits
    atoms = [s for k, s in enumerate(coins)
             if s < least_sum or not oracle.check(k + 1, s, budget)]
    atoms.reverse()
    return atoms


def from_generators(generators) -> TruncatedMonoid:
    """Monoid generated by the given positive rationals, reduced so the
    stored generating set is exactly its atom set.

    Every generator is scaled by the lcm D of all their denominators
    before anything is compared.  A generator that is not an atom is a
    sum of atoms, so its denominator divides the lcm of theirs, and D
    is the atoms' own lcm.
    """
    gens = []
    for g in generators:
        f = g if isinstance(g, Fraction) else Fraction(g)
        if f.numerator <= 0:
            raise DomainError(f"generator {format_rational(f)} is not positive")
        gens.append(f)
    if not gens:
        raise DomainError("a monoid truncation needs at least one generator")
    D = math.lcm(*(g.denominator for g in gens))
    by_scaled = {g.numerator * (D // g.denominator): g for g in gens}
    scaled = _reduce_to_atoms(by_scaled)
    return TruncatedMonoid(atoms=tuple(by_scaled[s] for s in scaled), denom_lcm=D,
                           scaled_gens=tuple(scaled))


def truncate(spec, depth: int) -> TruncatedMonoid:
    """Instantiate each symbolic family at its first depth indices,
    union with the explicit generators, and reduce to atoms, marking
    in stable the atoms that a stable family generates.

    Stability is decided from the description, never from the finite
    truncation: an atom is stable iff some family that generates it has
    an unbounded index range and a constant numerator (infinitely many
    family members then share its numerator).  Explicit and bounded
    families yield unstable atoms.
    """
    if any(f.kind == "symbolic" for f in spec.families):
        if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
            raise DomainError(f"depth must be a positive integer, got {depth!r}")
    gens, stable = [], []
    for fam in spec.families:
        values = (fam.generators if fam.kind == "explicit"
                  else [v for (_n, _p, v) in fam.instantiate(depth)])
        gens.extend(values)
        if fam.is_stable():
            stable.extend(values)
    tm = from_generators(gens)
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
    # matched on the integer scale, where hashing is cheap; every
    # generator's denominator divides D
    D = tm.denom_lcm
    marked = {v.numerator * (D // v.denominator) for v in stable}
    return replace(tm, stable=tuple(s in marked for s in tm.scaled_gens))


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
    return Feasibility(coins).check(0, t, _as_budget(budget))


def sweep(tm: TruncatedMonoid, bound, budget=None) -> dict[int, tuple[int, int, int]]:
    """(min length, max length, factorization count) of every element
    up to bound, keyed by the scaled element x*D in ascending order; 0
    maps to (0, 0, 1).

    The length recurrence L(x) = union over atoms a of (L(x - a) + 1)
    (Barron, O'Neill and Pelayo, Math. Comp. 2017) runs as a
    coin-change table grown in place, one coin s at a time, largest
    first: new(w) = old(w) (+) (new(w - s) + length), (+) taking the
    min and max lengths and the sum of the counts.  Skip rule: each old
    key v <= limit - s, ascending, starts a chain up its residue class
    to the limit, unless v - s is a key by then, and so on a chain (a
    new key was written by one; an old one came first and started one
    or lay on one), which has run on past v.  So a class has one chain
    at most, starting at a v with v - s in neither table, where
    new(v) = old(v).  Carry rule: the chain carries new(w - s); at each
    w it shifts the carry, folds in the untouched old(w) and writes the
    result back as new(w).  One budget step is one multiplicity
    combination of value <= bound; each coin is charged, before it
    touches the table, each old entry's count times the multiples of s
    that fit above it, so no table outgrows the budget.
    """
    f = bound if isinstance(bound, Fraction) else Fraction(bound)
    if f < 0:
        raise DomainError("bound must be nonnegative")
    budget = _as_budget(budget)
    if _past_volume(tm, f, budget.left):
        budget.spend(budget.left + 1)  # the error, before any table is built
    coins = [(s, 1) for s in sorted(tm.scaled_gens, reverse=True)]
    return _coin_table(coins, math.floor(f * tm.denom_lcm), budget)


def _past_volume(tm: TruncatedMonoid, f: Fraction, room: int) -> bool:
    """Whether the sweep up to f >= 0 must take more than room steps
    by the lower volume bound V = max over m of
    f^m / (m! * a_1 * ... * a_m), the atoms ascending (invariants
    docstring).  Its factors f/(i*a_i) fall as i grows, so V is their
    running product up to the first factor <= 1; a factor > 1 at m puts
    a_1, ..., a_m below f/m, so V_m > m^m/m!, and the product passes
    room within a few dozen factors however many and large the atoms."""
    p, q = f.numerator * tm.denom_lcm, f.denominator  # f/a_i = p/(q*s_i)
    num = den = 1
    for i, s in enumerate(tm.scaled_gens, start=1):
        if p <= q * i * s:
            return False
        num, den = num * p, den * q * i * s
        if num > room * den:
            return True
    return False


def _coin_table(coins, limit: int, budget: WorkBudget) -> dict[int, tuple[int, int, int]]:
    """The table of sweep for (value, length) coins, largest value
    first, up to the integer limit: the min and max length and the
    number of combinations of every sum, where a combination's length
    is the sum of its coins' lengths.  sweep gives every coin length
    1; the elasticity scans weight each coin r_i*a_i by its modulus r_i
    (see invariants)."""
    table = {0: (0, 0, 1)}
    keys = [0]
    budget.spend(1)  # the empty combination
    for s, length in coins:
        sources = keys[:bisect_right(keys, limit - s)]
        budget.spend(sum(table[v][2] * ((limit - v) // s) for v in sources))
        for v in sources:
            if v - s in table:
                continue  # the chain through v - s has passed v
            lo, hi, cnt = table[v]
            for w in range(v + s, limit + 1, s):
                lo += length
                hi += length
                old = table.get(w)
                if old is None:
                    keys.append(w)
                else:
                    a, b, n = old
                    lo, hi, cnt = (a if a < lo else lo, b if b > hi else hi, n + cnt)
                table[w] = (lo, hi, cnt)
        keys.sort()
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


def classify_stability(spec, depth: int) -> dict[Fraction, str]:
    """Label each truncation atom 'stable' or 'unstable', as truncate
    marks them."""
    tm = truncate(spec, depth)
    return {a: ("stable" if st else "unstable") for a, st in zip(tm.atoms, tm.stable)}
