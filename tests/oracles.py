"""Independent brute-force reference implementations.

Everything here recomputes results from first principles with none of
the library's machinery (no scaling to a common denominator, no
feasibility memoization, no pruning), so agreement is meaningful.
Only usable at toy sizes.
"""

import math
from fractions import Fraction


def brute_factorizations(atoms, x):
    """All multiplicity tuples over `atoms` (sorted ascending) summing
    to x, by plain nested enumeration."""
    ordered = sorted(atoms)
    found = []

    def rec(i, rest, mults):
        if i == len(ordered):
            if rest == 0:
                found.append(tuple(mults))
            return
        a = ordered[i]
        m = 0
        while m * a <= rest:
            rec(i + 1, rest - m * a, mults + [m])
            m += 1

    rec(0, Fraction(x), [])
    return sorted(found)


def brute_lengths(atoms, x):
    return sorted({sum(m) for m in brute_factorizations(atoms, x)})


def brute_elements(generators, bound):
    """All sums of generators up to bound, by breadth-first closure."""
    bound = Fraction(bound)
    seen = {Fraction(0)}
    frontier = [Fraction(0)]
    while frontier:
        nxt = []
        for v in frontier:
            for g in generators:
                w = v + g
                if w <= bound and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def brute_coin_table(coins, limit):
    """{sum: (min length, max length, number of combinations)} over
    every multiplicity combination of the (value, length) coins whose
    sum is at most limit, empty combination included, by plain nested
    enumeration; coins of equal value count as distinct coins."""
    table = {}

    def rec(i, total, length):
        if i == len(coins):
            lo, hi, n = table.get(total, (length, length, 0))
            table[total] = (min(lo, length), max(hi, length), n + 1)
            return
        value, weight = coins[i]
        m = 0
        while total + m * value <= limit:
            rec(i + 1, total + m * value, length + m * weight)
            m += 1

    rec(0, 0, 0)
    return table


def brute_atoms(generators):
    """Generators admitting no representation of total multiplicity >= 2."""
    gens = sorted(set(Fraction(g) for g in generators))
    out = []
    for g in gens:
        if not any(sum(m) >= 2 for m in brute_factorizations(gens, g)):
            out.append(g)
    return out


def sieve(limit):
    """Primes up to limit inclusive, by Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i:: i] = bytearray(len(flags[i * i:: i]))
    return [i for i, f in enumerate(flags) if f]


def primes_at_least(n, count):
    """The first count primes >= n, trying every integer from n up by
    trial division."""
    found = []
    while len(found) < count:
        if n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)):
            found.append(n)
        n += 1
    return found


def first_primes(count, skip=()):
    """The first `count` primes, optionally skipping some, by sieve."""
    limit = 100
    while True:
        ps = [p for p in sieve(limit) if p not in skip]
        if len(ps) >= count:
            return ps[:count]
        limit *= 2


def partition_length_extremes(total, primes):
    """Min and max of sum(p_i * t_i) over t_i >= 0 with sum(i * t_i) = total.

    This is the factorization-length range of the integer `total` in a
    monoid with one atom i/p_i per index, where any factorization must
    use each atom a multiple of p_i times: an unbounded knapsack over
    part sizes i with weights p_i.
    """
    neg = float("-inf")
    pos = float("inf")
    lo = [pos] * (total + 1)
    hi = [neg] * (total + 1)
    lo[0] = hi[0] = 0
    for i, p in enumerate(primes, start=1):
        if i > total:
            break
        for s in range(i, total + 1):
            if lo[s - i] + p < lo[s]:
                lo[s] = lo[s - i] + p
            if hi[s - i] + p > hi[s]:
                hi[s] = hi[s - i] + p
    if lo[total] is pos or hi[total] == neg:
        return None
    return lo[total], hi[total]


def brute_density_search(a_seq, b_seq, target, eps, budget_n, budget_k):
    """The density search restated in Fraction arithmetic: for each
    n <= budget_n with c = a_n - b_n > 0, b_n >= 1 and 1/c < eps (any
    c when target is 1), try the integers next to the real solution k*
    of (a_n + k)/(b_n + k) = target, clamped into [1, budget_k]; for
    target 1 try the least k past c/eps - b_n, if within budget_k.
    Returns (n, k, ratio, error) of the first hit or None, and the
    number of (n, k) pairs tried."""
    target, eps = Fraction(target), Fraction(eps)
    tried = 0
    for n in range(1, budget_n + 1):
        a, b = a_seq(n), b_seq(n)
        c = a - b
        if c <= 0 or b < 1:
            continue
        if target == 1:
            ks = [k for k in [max(1, math.floor(c / eps - b) + 1)] if k <= budget_k]
        elif Fraction(1, c) >= eps:
            continue
        else:
            k_star = math.floor(c / (target - 1) - b)
            ks = sorted({min(max(k, 1), budget_k) for k in (k_star, k_star + 1)})
        for k in ks:
            tried += 1
            ratio = Fraction(a + k, b + k)
            if abs(ratio - target) < eps:
                return (n, k, ratio, abs(ratio - target)), tried
    return None, tried
