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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (DomainError, InsufficientMetadataError, NotAMemberError,
                     NotDecomposableError)
from .monoid import (TruncatedMonoid, classify_stability, contains, elements_up_to,
                     from_generators, is_primary, sweep)
from .factorization import factorizations, length_set
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

    def value_str(self) -> str:
        return format_rational(self.value)


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


def elasticity_set(tm: TruncatedMonoid, bound, budget=None) -> list[Fraction]:
    """Sorted distinct elasticities of the nonzero elements up to bound."""
    pairs = {(lo, hi) for lo, hi, _n in sweep(tm, bound, budget).values() if lo}
    return sorted({Fraction(hi, lo) for lo, hi in pairs})


def elasticity_witnesses(tm: TruncatedMonoid, bound, budget=None) -> list[Fraction]:
    """All nonzero x <= bound with elasticity equal to the monoid's.

    Machine-checks on the way out that every witness is an integer
    multiple of both the smallest and the largest atom.
    """
    rho = tm.max_atom / tm.min_atom
    num, den = rho.numerator, rho.denominator
    out = [tm.unscale(v) for v, (lo, hi, _n) in sweep(tm, bound, budget).items()
           if lo and hi * den == lo * num]
    for x in out:
        assert (x / tm.min_atom).denominator == 1, \
            f"witness {x} is not an integer multiple of the min atom"
        assert (x / tm.max_atom).denominator == 1, \
            f"witness {x} is not an integer multiple of the max atom"
    return out


@dataclass(frozen=True)
class Decomposition:
    stable_part: Fraction
    unstable_part: Fraction
    unique: bool
    stable_uniquely_factorable: bool = True


def decompose_stable_unstable(tm: TruncatedMonoid, x, labels=None, cap=None,
                              budget=None) -> Decomposition:
    """Split x = s + u with s from the stable atoms, u from the unstable
    ones, preferring splittings whose stable part has exactly one
    factorization; flags non-uniqueness when several qualify.
    """
    report = is_primary(tm)
    if not report.is_primary:
        raise DomainError(f"decomposition needs a primary monoid: {report.reason}")
    if labels is None:
        if tm.origin is None:
            raise DomainError("no stability labels and no originating description")
        spec, depth = tm.origin
        labels = classify_stability(spec, depth, budget=budget)
    f = x if isinstance(x, Fraction) else Fraction(x)
    if not contains(tm, f, budget=budget):
        raise NotAMemberError(f"{format_rational(f)} is not in the monoid")
    stable_atoms = [a for a in tm.atoms if labels.get(a) == "stable"]
    unstable_atoms = [a for a in tm.atoms if labels.get(a) != "stable"]
    if stable_atoms:
        s_candidates = elements_up_to(from_generators(stable_atoms), f, budget=budget)
    else:
        s_candidates = [Fraction(0)]
    u_monoid = from_generators(unstable_atoms) if unstable_atoms else None

    def in_unstable(u):
        if u == 0:
            return True
        return u_monoid is not None and contains(u_monoid, u, budget=budget)

    splittings = [(s, f - s) for s in s_candidates if in_unstable(f - s)]
    if not splittings:
        raise NotDecomposableError(
            f"{format_rational(f)} has no stable + unstable splitting")
    qualifying = [(s, u) for (s, u) in splittings
                  if len(factorizations(tm, s, cap=cap)) == 1]
    if qualifying:
        s, u = qualifying[0]
        return Decomposition(s, u, unique=(len(qualifying) == 1),
                             stable_uniquely_factorable=True)
    s, u = splittings[0]
    return Decomposition(s, u, unique=False, stable_uniquely_factorable=False)


@dataclass(frozen=True)
class ShiftReport:
    """Outcome of the fresh-atom shift law L(x + a) = L(x) + 1."""

    applicable: bool
    reason: str | None
    base_lengths: tuple[int, ...] = ()
    shifted: tuple[int, ...] = ()
    ok: bool | None = None


def shifted_lengths(tm: TruncatedMonoid, x, atom, cap=None, budget=None) -> ShiftReport:
    """Check that adding atom a = q/p shifts every length of x by one.

    Applicable when a is an atom with a prime denominator p dividing no
    other atom's denominator and not dividing d(x), and x belongs to
    the monoid; every factorization of x + a must then spend exactly
    one more atom than the matching factorization of x.
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
    if not contains(tm, f, budget=budget):
        return ShiftReport(False, f"{format_rational(f)} is not in the monoid")
    base = length_set(tm, f, cap=cap)
    shifted = length_set(tm, f + a, cap=cap)
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

    `a_seq` and `b_seq` map n to integers.  Two-stage search: walk n
    until the gap c_n = a_n - b_n is positive and fine enough
    (1/c_n < epsilon), then test the integers bracketing the exact
    solution k* = c_n/(target-1) - b_n, clamped into [1, budget_k]
    (targets at the supremum of a_n/b_n push k* below 1; k = 1 then
    gives the closest approach from below).  With target = Q/R and
    epsilon = E/F every test is on integers: the gap test is
    F < c_n*E, and, as b_n + k > 0, a candidate is accepted when
    |(a_n+k)*R - Q*(b_n+k)|*F < E*R*(b_n+k).  Only the returned witness
    builds its ratio and error as fractions.  Not-found happens only
    when the budgets run out.
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
    for n in range(1, budget_n + 1):
        a, b = a_seq(n), b_seq(n)
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
    unbounded = []     # symbolic families with open ranges
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
            except Exception as exc:
                return False, str(exc)
            finite_sets.append([p for _, p, _ in triples])
        else:
            try:
                fam.instantiate(_PRIMARY_SAMPLE)
            except Exception as exc:
                return False, str(exc)
            unbounded.append(fam)
    # unbounded families pairwise: admitted prime sets are cofinite in the
    # primes, so two open families only avoid collision when they share a
    # filter and use disjoint index ranges
    for i in range(len(unbounded)):
        for j in range(i + 1, len(unbounded)):
            f1, f2 = unbounded[i], unbounded[j]
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
    firsts = [(f.prime_filter, f.prime_filter.nth(f.index_start)) for f in unbounded]
    for p in flat:
        for filt, first in firsts:
            if filt.admits(p) and p >= first:
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
