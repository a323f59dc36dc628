"""Elasticity and structure invariants.

Two computation modes coexist.  Truncated-exact mode works on a finite
truncation, where the monoid elasticity is exactly max-atom/min-atom
and is attained precisely at common integer multiples of the smallest
and largest atom.  Symbolic mode reasons about the full monoid from
declared metadata: when 0 is a limit point of the monoid the
elasticity is infinite, otherwise it is sup/inf of the atoms, accepted
iff both are attained.

The stable/unstable machinery applies to primary monoids (one atom per
prime): stable atoms share their numerator with infinitely many other
family members, unstable ones do not, and elements split as stable +
unstable parts with a uniquely factorable stable part.

elasticity_set and plot (plot_points) read one coin table, of the
residue lemma below; elasticity_witnesses reads none, as its witnesses
have a closed form.  For a truncation with k >= 2 atoms a_i = n_i/d_i,
in lowest terms, let L_i be the lcm of the other atoms' denominators,
r_i = d_i/gcd(d_i, L_i), g_i = d_i/r_i, D' = lcm g_i and D the lcm of
all d_i.  Primary truncations (d_i = p_i distinct primes) and pairwise
coprime denominators have r_i = d_i and D' = 1.

    Residue lemma.  Let c be a factorization of x, so x = sum c_j*a_j.
    Each d_j with j != i divides L_i, so x*L_i = c_i*n_i*(L_i/g_i)/r_i
    modulo the integers.  A prime q dividing r_i has
    v_q(d_i) > v_q(L_i), so v_q(g_i) = v_q(L_i) and q divides neither
    L_i/g_i nor n_i: n_i*L_i/g_i is prime to r_i, and x fixes the
    residue rho_i of c_i mod r_i.  Writing c_i = rho_i + r_i*t_i,
    x = R + M with R = sum rho_i*a_i and M = sum t_i*r_i*a_i
    = sum t_i*n_i/g_i, which every factorization of x shares; and each
    t >= 0 with that sum M gives back the factorization rho + r*t of
    x.  So with |rho| = sum rho_i, x has lengths |rho| + sum r_i*t_i
    over those t: its shortest is |rho| + m(M), its longest
    |rho| + X(M) and its count N(M), where m, X and N are the min, max
    and count of sum r_i*t_i over sum t_i*n_i*D'/g_i = M*D', the table
    of the coins n_i*D'/g_i of length r_i.  As rho is read off x,
    distinct (rho, M) with 0 <= rho_i < r_i and M in <n_i/g_i> are
    distinct elements, and every such R + M is one.

    Greedy lemma.  For W >= 0 the |rho| attained by some rho with
    0 <= rho_i < r_i and R <= W are 0, 1, ..., rhomax(W): lowering a
    positive rho_i by one keeps R <= W, and rho uses |rho| of the items
    (r_i - 1 copies of each a_i), which weigh at least the |rho|
    lightest items, so |rho| is attained iff the |rho| lightest items
    weigh at most W.  Taking the atoms ascending, each as often as fits
    up to r_i - 1 times, takes the lightest items in order.  An atom
    with r_i = 1 has no item and is passed over; the walk ends at the
    first atom of which no copy fits, as no copy of a later, larger
    atom fits either.  So the elasticities of the nonzero elements up
    to B are (|rho| + X(M))/(|rho| + m(M)) for M <= B in <n_i/g_i> and
    0 <= |rho| <= rhomax(B - M), without |rho| = M = 0.

    Volume bound.  The sweep takes one step per c >= 0 with
    sum c_i*a_i <= B.  The unit cubes c + [0, 1)^k are disjoint and lie
    in the simplex y >= 0, sum y_i*a_i <= B + sum a_i, of volume
    U = (B + sum a)^k / (k! * prod a).  So when U is at most the
    default sweep budget the sweep could not have raised, and the
    residue table, whose combinations t are the sweep's c = r*t,
    cannot raise either.

    Plot lemmas.  Let D' = 1 and every r_i >= 2, so M is an integer
    and d_i = r_i.  Rows: plot lists the x with two lengths or more,
    that is, the (rho, M) with X(M) != m(M), from |rho| + m(M) to
    |rho| + X(M); M = 0 has the one length 0, so M > 0 on every row.
    Cap: x has N(M) factorizations.  With M* the least M with
    N(M) > cap, the element M* (rho = 0) is over the cap, and any
    x = R + M with N(M) > cap is at least M >= M*: M* is the first
    element over the cap, and the rows are the x < M*.  Markers: as
    the gcd of the L_i is 1, a rational y of denominator dividing D is
    an integer iff every y*L_i is.  By the residue lemma,
    (x - a_j)*L_i is (c_i - [i = j])*n_i*L_i/d_i modulo the integers,
    so x - a_j is an integer iff rho_i = [i = j] mod d_i for every i,
    iff rho = e_j, as d_j >= 2.  Then x - a_j = M, a positive element.
    Likewise x is an integer iff rho = 0.  So integer-element is
    |rho| = 0, shifted-element is |rho| = 1, and other the rest.

One decision, _moduli, gives (r, D'): the moduli above when k >= 2 and
the bound passes the volume bound, else r = (1, ..., 1) and D' = D,
whose table is the sweep's own, error included.  elasticity_set reads
it by the greedy lemma; plot reads it within the scope of its lemmas
and without --all, and the sweep otherwise.  So every answer and every
error is the sweep's.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress

from .errors import (DomainError, InsufficientMetadataError, NotAMemberError,
                     SpecValidationError)
from .monoid import (Feasibility, TruncatedMonoid, WorkBudget, _as_budget,
                     _coin_table, is_primary, sweep)
from .factorization import FactorizationCounts, ResidueSteps
from .primes import is_prime
from .rationals import INFINITY, format_rational

WITNESS_RULE_TRUNCATED = ("elasticity is attained exactly at the common integer "
                          "multiples of the smallest and largest atom")
WITNESS_RULE_ZERO_LIMIT = ("atoms accumulate at 0, so elasticities grow without "
                           "bound and no single element attains the supremum")
WITNESS_RULE_SYMBOLIC = ("elasticity equals sup(atoms)/inf(atoms); it is attained "
                         "iff both bounds are attained by atoms")


@dataclass(frozen=True)
class ElasticityReport:
    mode: str                 # "truncated-exact" | "symbolic"
    value: object             # Fraction | INFINITY
    accepted: bool | None     # None = unknown / not applicable
    witness_rule: str
    metadata_used: tuple[str, ...] = ()


def monoid_elasticity(spec=None, tm: TruncatedMonoid | None = None,
                      mode: str = "truncated") -> ElasticityReport:
    """Monoid elasticity, either of a truncation or declared-symbolic."""
    if mode == "truncated":
        if tm is None:
            raise DomainError("truncated mode needs a truncation")
        value = tm.max_atom / tm.min_atom
        return ElasticityReport(mode="truncated-exact", value=value, accepted=True,
                                witness_rule=WITNESS_RULE_TRUNCATED)
    if mode != "symbolic":
        raise DomainError(f"unknown elasticity mode {mode!r}")
    if spec is None:
        raise DomainError("symbolic mode needs a monoid description")
    meta = spec.metadata
    if meta.zero_limit_point is None:
        raise InsufficientMetadataError(
            "symbolic elasticity needs metadata.zero_limit_point")
    if meta.zero_limit_point:
        return ElasticityReport(mode="symbolic", value=INFINITY, accepted=None,
                                witness_rule=WITNESS_RULE_ZERO_LIMIT,
                                metadata_used=("zero_limit_point",))
    if meta.atom_inf is None or meta.atom_inf == 0 or meta.atom_sup is None:
        raise InsufficientMetadataError(
            "symbolic elasticity needs a positive atom_inf and an atom_sup")
    used = ["zero_limit_point", "atom_inf", "atom_sup"]
    if meta.atom_sup is INFINITY:
        return ElasticityReport(mode="symbolic", value=INFINITY, accepted=None,
                                witness_rule=WITNESS_RULE_SYMBOLIC,
                                metadata_used=tuple(used))
    value = meta.atom_sup / meta.atom_inf
    accepted = None
    if meta.inf_attained is not None and meta.sup_attained is not None:
        accepted = meta.inf_attained and meta.sup_attained
        used += ["inf_attained", "sup_attained"]
    return ElasticityReport(mode="symbolic", value=value, accepted=accepted,
                            witness_rule=WITNESS_RULE_SYMBOLIC,
                            metadata_used=tuple(used))


def is_accepted(spec) -> bool | None:
    """Is the monoid elasticity attained by some element?

    True/False only when decidable from the description: any finite
    explicit monoid accepts; otherwise declared attainment of both
    atom bounds decides, provided the elasticity is finite.  None
    means unknown (or an infinite elasticity, where the attainment
    criterion does not apply).
    """
    if spec.is_explicit():
        return True
    meta = spec.metadata
    if meta.zero_limit_point is None or meta.zero_limit_point:
        return None
    if meta.atom_sup is INFINITY:
        return None
    if meta.inf_attained is None or meta.sup_attained is None:
        return None
    return meta.inf_attained and meta.sup_attained


def _private_moduli(values: list[int]) -> list[int]:
    """For each i, r_i = values[i] // gcd(values[i], L_i), with L_i the
    lcm of every other entry (1 for a single entry).  L_i is never
    built: gcd(d, lcm(P, S)) = lcm(gcd(d, P), gcd(d, S)) for the prefix
    and suffix lcms P and S, so only a small d meets the large ones."""
    prefix = list(accumulate(values[:-1], math.lcm, initial=1))
    suffix = list(accumulate(reversed(values[1:]), math.lcm, initial=1))[::-1]
    return [d // math.lcm(math.gcd(d, p), math.gcd(d, s))
            for d, p, s in zip(values, prefix, suffix)]


def _sweep_fits(tm: TruncatedMonoid, f: Fraction) -> bool:
    """Whether f >= 0 passes the volume bound of the module docstring,
    U <= the default budget, so that the sweep up to f cannot raise."""
    # on integers: f = p/q, and a_i = s_i/D for the scaled atoms s_i,
    # so D^k cancels
    k, p, q = len(tm.atoms), f.numerator, f.denominator
    return f >= 0 and ((p * tm.denom_lcm + sum(tm.scaled_gens) * q) ** k
                       <= _as_budget().limit * math.factorial(k)
                       * math.prod(tm.scaled_gens) * q ** k)


def _moduli(tm: TruncatedMonoid, f: Fraction) -> tuple[list[int], int]:
    """(r, D'): the moduli r_i, parallel to tm.atoms, and the scale D'
    of the residue lemma when tm has two or more atoms and f passes the
    volume bound; else r = (1, ..., 1) and D' = D, whose table is the
    sweep's.  A negative f raises the sweep's error."""
    if f < 0:
        raise DomainError("bound must be nonnegative")
    k = len(tm.atoms)
    if k < 2 or not _sweep_fits(tm, f):
        return [1] * k, tm.denom_lcm
    dens = [a.denominator for a in tm.atoms]
    r = _private_moduli(dens)
    return r, math.lcm(*(d // m for d, m in zip(dens, r)))


def _residue_table(tm: TruncatedMonoid, f: Fraction, r: list[int], Dp: int) -> dict:
    """The (m(M), X(M), N(M)) table of the module docstring, keyed by
    M*D' for every M <= f in <r_i*a_i>, ascending."""
    coins = sorted(((a.numerator * Dp // (a.denominator // m), m)
                    for a, m in zip(tm.atoms, r)), reverse=True)
    return _coin_table(coins, math.floor(f * Dp), _as_budget())


def _rho_max(items: list[tuple[int, int]], room: int) -> int:
    """rhomax of the module docstring for W = room/D, by the greedy
    lemma, from the (s_i, r_i - 1) of the atoms with r_i > 1."""
    rho = 0
    for s, most in items:
        if room < s:
            break
        c = min(most, room // s)
        rho += c
        room -= c * s
    return rho


def elasticity_set(tm: TruncatedMonoid, bound) -> list[Fraction]:
    """Sorted distinct elasticities of the nonzero elements up to bound."""
    f = bound if isinstance(bound, Fraction) else Fraction(bound)
    r, Dp = _moduli(tm, f)
    table = _residue_table(tm, f, r, Dp)
    # |rho| = 0 gives M's own lengths; each |rho| up to rhomax(B - M)
    # adds to both, and only an atom with r_i > 1 has items
    pairs = {(m, X) for m, X, _n in table.values() if m}
    items = [(s, m - 1) for s, m in zip(tm.scaled_gens, r) if m > 1]
    if items:
        q, top = tm.denom_lcm // Dp, math.floor(f * tm.denom_lcm)
        pairs.update((m + rho, X + rho) for M, (m, X, _n) in table.items()
                     for rho in range(1, _rho_max(items, top - M * q) + 1))
    return sorted({Fraction(hi, lo) for lo, hi in pairs})


def elasticity_witnesses(tm: TruncatedMonoid, bound) -> list[Fraction]:
    """All nonzero x <= bound with elasticity equal to the monoid's,
    ascending: the positive multiples of lcm(a_min, a_max)
    = lcm(n_min, n_max)/gcd(d_min, d_max).  A length l of x has
    l*a_min <= x <= l*a_max, so x reaches a_max/a_min exactly when
    x/a_min and x/a_max are lengths of x, that is, when a_min alone and
    a_max alone factor x.  Past the volume bound (module docstring) the
    sweep runs first, so it raises where the sweep raises."""
    f = bound if isinstance(bound, Fraction) else Fraction(bound)
    if not _sweep_fits(tm, f):
        sweep(tm, f)
    lo, hi = tm.min_atom, tm.max_atom
    step = Fraction(math.lcm(lo.numerator, hi.numerator),
                    math.gcd(lo.denominator, hi.denominator))
    return [step * i for i in range(1, f // step + 1)]


def _swept_marker(tm: TruncatedMonoid, v: int, table: dict) -> str:
    D = tm.denom_lcm
    if v % D == 0:
        return "integer-element"
    for s in tm.scaled_gens:
        r = v - s
        if r > 0 and r % D == 0 and r in table:
            return "shifted-element"
    return "other"


def plot_points(tm: TruncatedMonoid, bound, cap, every: bool = False):
    """The points of plot: (x*D, shortest length, longest length,
    marker) of every nonzero element x <= bound with two lengths or
    more (every one with every), ascending, up to the first element
    with more than cap() factorizations, and that element scaled, or
    None.  cap() >= 1 is called once, at the first nonzero element.
    The marker is integer-element, shifted-element (x - a is a nonzero
    integer in the monoid for an atom a) or other.

    Within the scope of the plot lemmas (module docstring), and
    without every, the points come from the residue table; otherwise
    from the sweep, whose budget error they raise."""
    f = bound if isinstance(bound, Fraction) else Fraction(bound)
    r, Dp = _moduli(tm, f)
    if every or Dp > 1 or min(r) == 1:
        table, points, limit = sweep(tm, f), [], None
        for v, (lo, hi, n) in table.items():
            if not v:
                continue
            if limit is None:
                limit = cap()
            if n > limit:
                return points, v
            if lo != hi or every:
                points.append((v, lo, hi, _swept_marker(tm, v, table)))
        return points, None
    table = _residue_table(tm, f, r, Dp)
    D = tm.denom_lcm
    top, capped = math.floor(f * D), None
    if f >= tm.min_atom:
        limit = cap()
        capped = next((M * D for M, (_m, _X, n) in table.items() if n > limit), None)
        if capped is not None:
            top = capped - 1
    ints = [(M * D, m, X) for M, (m, X, _n) in table.items() if m != X and M * D <= top]
    if not ints:
        return [], capped
    # (R*D, |rho|) of the residue vectors that fit below top with some M
    room, sums = top - ints[0][0], [(0, 0)]
    for s, m in zip(tm.scaled_gens, r):
        sums = [(R + c * s, n + c) for R, n in sums
                for c in range(min(m, (room - R) // s + 1))]
    sums.sort()
    ends = [R for R, _rho in sums]
    points = [(R + v, rho + m, rho + X, "integer-element" if not rho else
               "shifted-element" if rho == 1 else "other")
              for v, m, X in ints for R, rho in sums[:bisect_right(ends, top - v)]]
    points.sort()
    return points, capped


@dataclass(frozen=True)
class Decomposition:
    stable_part: Fraction
    unstable_part: Fraction
    unique: bool
    stable_uniquely_factorable: bool = True


def _stable_parts(coins: tuple[int, ...], g: int, F: int,
                  budget: WorkBudget) -> list[int]:
    """The distinct S <= F that are sums of the stable coins with g
    dividing F - S, ascending; g is the gcd of the unstable coins, 0
    when there are none.

    With g = 0 the only part is F, unchecked.  Otherwise the coins,
    descending, and then g form the levels of a ResidueSteps walk, one
    level at a time: the rests F - (multiplicities of the first i coins)
    that the later coins and g can still reach modulo their gcd.  So in
    a primary monoid each stable multiplicity is fixed modulo its atom's
    prime, and the rests past the last coin are the multiples of g that
    leave the parts.  Each distinct rest costs one step of the budget.
    """
    if not g:
        return [F]
    levels = ResidueSteps(tuple(sorted(coins, reverse=True)) + (g,))
    rests = {F}
    budget.spend()
    for i, s in enumerate(levels.coins[:-1]):
        step, fresh = levels.steps[i], set()
        for t in rests:
            for c in range(levels.first(i, t), -1, -step):
                r = t - c * s
                if r not in fresh:
                    budget.spend()
                    fresh.add(r)
        rests = fresh
    return sorted(F - t for t in rests)


def decompose_stable_unstable(tm: TruncatedMonoid, x, cap=None) -> Decomposition:
    """Split x = s + u with s from the stable atoms, u from the unstable
    ones, preferring splittings whose stable part has exactly one
    factorization; flags non-uniqueness when several qualify.

    The stable atoms are those truncate marked in tm.stable.
    Everything is on tm's scale.  The candidate stable parts are those
    of _stable_parts: the sums of stable atoms whose rest lies in the
    residue class the unstable atoms can reach, and only x itself when
    every atom is stable.  One feasibility oracle on the unstable atoms
    tests every rest u.  x is a member exactly when some splitting
    exists, since the stable atoms of any factorization of x sum to a
    part whose rest the unstable ones reach; when every atom is stable,
    the factorization count of x decides it.  Uniqueness is a
    factorization count, read from one memo of counts shared by all
    splittings, so no factorization is listed; the cap still counts the
    factorizations of each stable part and stops the run with the same
    error.
    """
    report = is_primary(tm)
    if not report.is_primary:
        raise DomainError(f"decomposition needs a primary monoid: {report.reason}")
    if tm.stable is None:
        raise DomainError("no stability labels and no originating description")
    f = x if isinstance(x, Fraction) else Fraction(x)
    if f < 0:
        raise DomainError("membership is defined for nonnegative rationals")
    F = tm.scale(f)
    if F is None:
        raise NotAMemberError(f"{format_rational(f)} is not in the monoid")
    unstable = sorted((s for s, st in zip(tm.scaled_gens, tm.stable) if not st),
                      reverse=True)
    oracle, g = Feasibility(tuple(unstable)), math.gcd(*unstable)

    def in_unstable(U: int) -> bool:
        # g divides every rest the parts leave; a fresh budget per test,
        # as contains gives
        return U == 0 or oracle.check(0, U, _as_budget())

    parts = _stable_parts(tuple(compress(tm.scaled_gens, tm.stable)), g, F, _as_budget())
    splittings = [S for S in parts if in_unstable(F - S)]
    if not splittings:
        raise NotAMemberError(f"{format_rational(f)} is not in the monoid")
    counts = FactorizationCounts(tm, cap)
    qualifying = [S for S in splittings if counts.count(tm.unscale(S))[0] == 1]
    unique = len(qualifying) == 1
    S = (qualifying or splittings)[0]
    s = tm.unscale(S)
    return Decomposition(s, f - s, unique=unique,
                         stable_uniquely_factorable=bool(qualifying))


@dataclass(frozen=True)
class ShiftReport:
    """Outcome of the fresh-atom shift law L(x + a) = L(x) + 1."""

    applicable: bool
    reason: str | None
    base_lengths: tuple[int, ...] = ()
    shifted: tuple[int, ...] = ()
    ok: bool | None = None


def shifted_lengths(tm: TruncatedMonoid, x, atom, cap=None) -> ShiftReport:
    """Check that adding atom a = q/p shifts every length of x by one.

    Applicable when a is an atom with a prime denominator p dividing no
    other atom's denominator and not dividing d(x), and x belongs to
    the monoid; every factorization of x + a must then spend exactly
    one more atom than the matching factorization of x.  Both length
    sets are read off one memo of factorization counts, so no
    factorization is listed; the cap still counts the factorizations
    of x and of x + a, each on its own.
    """
    f = x if isinstance(x, Fraction) else Fraction(x)
    a = atom if isinstance(atom, Fraction) else Fraction(atom)
    if a not in tm.atoms:
        return ShiftReport(False, f"{format_rational(a)} is not an atom here")
    p = a.denominator
    if not is_prime(p):
        return ShiftReport(False, f"denominator {p} of the shift atom is not prime")
    for b in tm.atoms:
        if b != a and b.denominator % p == 0:
            return ShiftReport(False, f"prime {p} also divides the denominator "
                                      f"of atom {format_rational(b)}")
    if f.denominator % p == 0:
        return ShiftReport(False, f"prime {p} divides the denominator of "
                                  f"{format_rational(f)}")
    if f < 0:
        raise DomainError("membership is defined for nonnegative rationals")
    counts = FactorizationCounts(tm, cap)
    try:
        base = counts.lengths(f)
    except NotAMemberError:
        return ShiftReport(False, f"{format_rational(f)} is not in the monoid")
    shifted = counts.lengths(f + a)
    ok = shifted == tuple(l + 1 for l in base)
    return ShiftReport(True, None, base, shifted, ok)


def predicted_elasticities(base_lengths, k_max: int) -> list[Fraction]:
    """Elasticities (max+k)/(min+k), k = 1..k_max, from seed length
    ranges given as (min_length, max_length) pairs; sorted, deduplicated.

    This is the shape the elasticity set takes when only finitely many
    unstable seeds exist and fresh stable atoms shift lengths by one.
    """
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    out = set()
    for lo, hi in base_lengths:
        if not (isinstance(lo, int) and isinstance(hi, int)) or lo < 1 or hi < lo:
            raise DomainError(f"bad length range ({lo}, {hi})")
        for k in range(1, k_max + 1):
            out.add(Fraction(hi + k, lo + k))
    return sorted(out)


@dataclass(frozen=True)
class DensityWitness:
    found: bool
    n: int | None = None
    k: int | None = None
    ratio: Fraction | None = None
    error: Fraction | None = None
    diagnostics: str | None = None


def density_witness(a_seq, b_seq, target, epsilon, budget_n: int = 10_000,
                    budget_k: int = 10_000_000) -> DensityWitness:
    """Find (n, k) with |(a_n + k)/(b_n + k) - target| < epsilon.

    `a_seq` and `b_seq` are iterables of the integers a_1, a_2, ... and
    b_1, b_2, ...; the search reads them in step, n = 1, 2, ....
    Two-stage search: walk n until the gap c_n = a_n - b_n is positive
    and fine enough (1/c_n < epsilon), then test the integers
    bracketing the exact solution k* = c_n/(target-1) - b_n, clamped
    into [1, budget_k] (targets at the supremum of a_n/b_n push k*
    below 1; k = 1 then gives the closest approach from below).  With
    target = Q/R and epsilon = E/F every test is on integers: the gap
    test is F < c_n*E, and, as b_n + k > 0, a candidate is accepted
    when |(a_n+k)*R - Q*(b_n+k)|*F < E*R*(b_n+k).  Only the returned
    witness builds its ratio and error as fractions.  Not-found happens
    only when the budgets run out or a sequence ends: a finite
    sequence ends the search at its last term.
    """
    q = target if isinstance(target, Fraction) else Fraction(target)
    eps = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)
    if q < 1:
        raise DomainError("target must be at least 1")
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    if budget_k < 1:
        raise DomainError("budget_k must be at least 1")
    Q, R = q.numerator, q.denominator
    E, F = eps.numerator, eps.denominator
    T = Q - R
    tried = 0
    for n, a, b in zip(range(1, budget_n + 1), a_seq, b_seq):
        if a <= b or b < 1:
            continue
        c = a - b
        if T == 0:
            # ratio = 1 + c/(b+k): any k beyond c/eps - b lands inside
            k = max(1, (c * F) // E - b + 1)
            candidates = (k,) if k <= budget_k else ()
        else:
            if F >= c * E:
                continue
            # lo and lo + 1 clamped into [1, budget_k]
            lo = (c * R) // T - b
            if lo < 1:
                candidates = (1,)
            elif lo < budget_k:
                candidates = (lo, lo + 1)
            else:
                candidates = (budget_k,)
        for k in candidates:
            tried += 1
            if abs((a + k) * R - Q * (b + k)) * F < E * R * (b + k):
                ratio = Fraction(a + k, b + k)
                return DensityWitness(True, n=n, k=k, ratio=ratio,
                                      error=abs(ratio - q))
    return DensityWitness(
        False,
        diagnostics=f"no witness within budgets n <= {budget_n}, k <= {budget_k} "
                    f"({tried} candidate pairs checked) for target "
                    f"{format_rational(q)} within {format_rational(eps)}")


@dataclass(frozen=True)
class StatusReport:
    status: str   # "FF" | "BF-not-FF" | "not-BF" | "unknown"
    reason: str


_PRIMARY_SAMPLE = 25


def _spec_is_primary(spec) -> tuple[bool, str]:
    """Structural primarity: prime denominators everywhere, each prime
    used by exactly one generator.  Exact for this filter algebra, with
    numerator positivity/coprimality sample-checked on a prefix."""
    finite_sets = []   # (list of primes) for explicit + bounded families
    unbounded = []     # (family, its first prime): symbolic, open ranges
    for fam in spec.families:
        if fam.kind == "explicit":
            primes = []
            for g in fam.generators:
                if not is_prime(g.denominator):
                    return False, (f"generator {format_rational(g)} has a "
                                   "non-prime denominator")
                primes.append(g.denominator)
            finite_sets.append(primes)
        elif fam.index_end is not None:
            try:
                triples = fam.instantiate(fam.index_end - fam.index_start + 1)
            except SpecValidationError as exc:
                return False, str(exc)
            finite_sets.append([p for _, p, _ in triples])
        else:
            try:
                triples = fam.instantiate(_PRIMARY_SAMPLE)
            except SpecValidationError as exc:
                return False, str(exc)
            unbounded.append((fam, triples[0][1]))
    # unbounded families pairwise: admitted prime sets are cofinite in the
    # primes, so two open families only avoid collision when they share a
    # filter and use disjoint index ranges
    for i in range(len(unbounded)):
        for j in range(i + 1, len(unbounded)):
            f1, f2 = unbounded[i][0], unbounded[j][0]
            if f1.prime_filter != f2.prime_filter:
                return False, "two open families draw from overlapping prime pools"
            if not (f1.index_end is not None and f1.index_end < f2.index_start
                    or f2.index_end is not None and f2.index_end < f1.index_start):
                return False, "two open families overlap in indices"
    flat = [p for ps in finite_sets for p in ps]
    if len(flat) != len(set(flat)):
        return False, "a prime carries two generators"
    # every p here is prime, so an open family uses it exactly when its
    # filter admits p and p is at or past the family's first prime
    for p in flat:
        for fam, first in unbounded:
            if fam.prime_filter.admits(p) and p >= first:
                return False, f"prime {p} carries two generators"
    return True, "one generator per prime, all denominators prime"


def bf_ff_status(spec) -> StatusReport:
    """Coarse finiteness classification from the description alone.

    Primary monoids: finite factorization sets iff every atom is
    unstable; any stable atom already destroys bounded factorization
    lengths.  Otherwise: atoms bounded away from 0 give bounded
    lengths, refined to BF-not-FF when the description supplies an
    element with infinitely many factorizations; anything else is
    reported unknown rather than guessed.
    """
    primary, why = _spec_is_primary(spec)
    stable = [f for f in spec.families if f.is_stable()]
    if primary:
        if stable:
            return StatusReport(
                "not-BF", "primary with a stable atom family: some element has "
                          "arbitrarily long factorizations")
        return StatusReport(
            "FF", f"primary ({why}) and every atom family is unstable")
    meta = spec.metadata
    if meta.zero_limit_point is False:
        if meta.not_ff_witness is not None:
            return StatusReport(
                "BF-not-FF",
                "atoms are bounded away from 0, so lengths are bounded, but "
                f"{format_rational(meta.not_ff_witness)} has infinitely many "
                "factorizations")
        return StatusReport(
            "unknown", "atoms bounded away from 0 bound the lengths, but "
                       "finiteness of the factorization sets is undetermined")
    return StatusReport("unknown", "not primary and 0 may be a limit point; "
                                   "no criterion applies")
