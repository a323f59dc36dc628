"""Named example monoids and the staged bifurcus construction.

catalog() hands out ready-made descriptions of the monoids this
package uses for demonstrations and golden tests, with their prime
filters, numerator expressions, stability flags, and declared limit
metadata filled in.

The staged construction grows a monoid from <1/2, 1/3> so that, in the
limit, every nonzero nonunit is a sum of two atoms: each stage finds
the reducible elements (up to a value bound) that still lack a
length-2 factorization and, per such element a, adjoins the pair
a/2 - 1/p and a/2 + 1/p for a fresh prime p.  The build keeps the
reducibles it reads off its one sweep of each stage, on that stage's
integer scale, so verification checks the claimed invariants on the
finite stages actually built without sweeping again.

Each stage is the last one with its pairs adjoined, not a fresh
reduction of every generator so far, by this certificate:

    Let M be a truncation with atoms A and denominator lcm D, and
    adjoin pairs l_i = a_i/2 - 1/p_i, h_i = a_i/2 + 1/p_i, where each
    a_i is an element of M that is a sum of at least two atoms, the
    p_i are distinct odd primes that do not divide D, and, with T the
    largest of the top atom of M and every h_k,
    (p_i - 1)*l_i > T.  Then A and every l_i, h_i are the atoms of
    the monoid they generate.  Write v_i for the p_i-adic valuation.
    Every atom of A and every l_k, h_k with k != i has v_i >= 0, as
    its denominator divides 2*D*p_k; a_i/2 has v_i >= 0 too, and
    x*l_i + y*h_i = (x + y)*a_i/2 + (y - x)/p_i, so a sum with x
    copies of l_i and y of h_i has v_i >= 0 iff p_i | y - x.
    Suppose a generator g is a sum of two or more generators, so not
    of g itself.
    - g = l_i: x = 0, and y = 0 as h_i > l_i, so v_i of the sum is
      >= 0, but v_i(l_i) = -1.
    - g = h_i: y = 0, and h_i - x*l_i = (1 - x)*a_i/2 + (x + 1)/p_i
      is the rest of the sum, so p_i | x + 1, and
      g >= (p_i - 1)*l_i > T >= h_i.
    - g in A: for every i, x != y would put max(x, y) >= p_i copies
      of l_i or h_i in the sum, so g >= p_i*l_i > T; hence x = y, the
      pair adds x*a_i, and g is a sum of two or more atoms of M,
      which an atom of M is not.
    The pair elements have v_i = -1, so none equals an old atom, and
    the new denominator lcm is lcm(D, the pair denominators).
    When a condition fails the stage is reduced from its generators
    instead (_adjoin).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .errors import DomainError, SpecValidationError
from .monoid import TruncatedMonoid, from_generators, sweep
from .primes import PrimeFilter, next_prime_at_least
from .rationals import format_rational, parse_rational
from .specfile import GeneratorFamily, Metadata, MonoidSpec, NumeratorExpr, read_text

CATALOG_NAMES = ("bfplot", "factorial", "bfnotff", "unstablenotbf",
                 "primarydense", "primarystable", "infiniteunstable")


def _symbolic(numerator: str, prime_filter: str = "all", start: int = 1,
              end: int | None = None, stable: bool = False) -> GeneratorFamily:
    return GeneratorFamily(kind="symbolic",
                           numerator=NumeratorExpr.parse(numerator),
                           prime_filter=PrimeFilter.parse(prime_filter),
                           index_start=start, index_end=end,
                           declared_stable=stable)


def catalog(name: str, depth: int = 5) -> MonoidSpec:
    """Description of a named example monoid.

    Most entries ignore depth (truncation picks it up later); the
    "unstablenotbf" entry uses it to choose a prime floor B with
    B > (n+1)^2 for every index n the truncation will touch.
    """
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
        raise DomainError(f"depth must be a positive integer, got {depth!r}")
    if name == "bfplot":
        # 1/2 together with (p+1)/p over the primes from 3 up: atoms
        # cluster at 1 from above, so the elasticity (4/3)/(1/2) = 8/3
        # is attained.
        return MonoidSpec(
            families=(GeneratorFamily(kind="explicit",
                                      generators=(Fraction(1, 2),)),
                      _symbolic("p+1", "all", start=2)),
            metadata=Metadata(zero_limit_point=False,
                              atom_inf=Fraction(1, 2), inf_attained=True,
                              atom_sup=Fraction(4, 3), sup_attained=True))
    if name == "factorial":
        # all prime reciprocals; the single numerator 1 recurs forever,
        # so the lone atom family is stable and lengths are unbounded
        return MonoidSpec(
            families=(_symbolic("1", "all", stable=True),),
            metadata=Metadata(zero_limit_point=True, atom_inf=Fraction(0),
                              inf_attained=False, atom_sup=Fraction(1, 2),
                              sup_attained=True))
    if name == "bfnotff":
        # floor(p/2)/p and its complement over odd primes: atoms live in
        # [1/3, 2/3], but 1 is a two-atom sum in every single prime, so
        # factorization sets are infinite while lengths stay bounded
        return MonoidSpec(
            families=(_symbolic("p//2", "odd"),
                      _symbolic("p - p//2", "odd")),
            metadata=Metadata(zero_limit_point=False,
                              atom_inf=Fraction(1, 3), inf_attained=True,
                              atom_sup=Fraction(2, 3), sup_attained=True,
                              not_ff_witness=Fraction(1)))
    if name == "unstablenotbf":
        # n/p_n and (n+1)/p_n with every prime beyond (n+1)^2; the floor
        # depends on how deep we will truncate
        floor = next_prime_at_least((depth + 1) ** 2 + 1)
        return MonoidSpec(
            families=(_symbolic("n", f"min:{floor}"),
                      _symbolic("n+1", f"min:{floor}")),
            metadata=Metadata(zero_limit_point=True, atom_inf=Fraction(0),
                              inf_attained=False))
    if name == "primarydense":
        # n over the n-th prime; atoms sink to 0 while hitting 2/3 once
        return MonoidSpec(
            families=(_symbolic("n", "all"),),
            metadata=Metadata(zero_limit_point=True, atom_inf=Fraction(0),
                              inf_attained=False, atom_sup=Fraction(2, 3),
                              sup_attained=True))
    if name == "primarystable":
        # n/p_n for n <= 12, then the constant numerator 30 forever
        return MonoidSpec(
            families=(_symbolic("n", "all", start=1, end=12),
                      _symbolic("30", "all", start=13, stable=True)),
            metadata=Metadata(zero_limit_point=True, atom_inf=Fraction(0),
                              inf_attained=False, atom_sup=Fraction(30, 41),
                              sup_attained=True))
    if name == "infiniteunstable":
        # n over the n-th prime, skipping 3: 1/2, 2/5, 3/7, 4/11, ...
        return MonoidSpec(
            families=(_symbolic("n", "exclude:[3]"),),
            metadata=Metadata(zero_limit_point=True, atom_inf=Fraction(0),
                              inf_attained=False, atom_sup=Fraction(1, 2),
                              sup_attained=True))
    raise DomainError(f"unknown catalog name {name!r}; "
                      f"known names: {', '.join(CATALOG_NAMES)}")


# ---------------------------------------------------------------------------
# staged bifurcus construction


BASE_GENERATORS = (Fraction(1, 3), Fraction(1, 2))
PRIME_FLOOR = 13
# 7/6 = 1/3 + 1/3 + 1/2 is the least element that is not a two-atom sum
MIN_VALUE_BOUND = Fraction(7, 6)


@dataclass(frozen=True)
class AtomPair:
    """One adjunction: reducible = low + high with low/high = reducible/2 -/+ 1/prime."""

    reducible: Fraction
    prime: int
    low: Fraction
    high: Fraction

    def __post_init__(self):
        # cross-multiplied: every denominator is positive
        (n, d), (m, e), (a, b) = (self.low.as_integer_ratio(),
                                  self.high.as_integer_ratio(),
                                  self.reducible.as_integer_ratio())
        if (n * e + m * d) * b != a * d * e:
            raise DomainError(
                f"atom pair {format_rational(self.low)} + {format_rational(self.high)} "
                f"does not sum to {format_rational(self.reducible)}")
        if n <= 0 or n * e >= m * d:
            raise DomainError("atom pair must satisfy 0 < low < high")


@dataclass(frozen=True)
class StageRecord:
    index: int
    added: tuple[AtomPair, ...]


@dataclass(frozen=True)
class StagedMonoid:
    """Chain of truncations stages[0] <= stages[1] <= ... with the
    per-stage adjunction records that produced them.  reducibles[j]
    lists, ascending, the non-atom nonzero elements <= value_bound of
    stages[j], for every stage but the last, scaled by stages[j]'s
    denom_lcm."""

    stages: tuple[TruncatedMonoid, ...]
    records: tuple[StageRecord, ...]
    value_bound: Fraction
    reducibles: tuple[tuple[int, ...], ...]

    @property
    def final(self) -> TruncatedMonoid:
        return self.stages[-1]


def _adjoin(prev: TruncatedMonoid, pairs) -> TruncatedMonoid:
    """prev with the atom pairs adjoined, each pair's reducible a sum of
    two or more atoms of prev and each prime a prime: on the new scale,
    prev's atoms and the pairs, by the certificate of the module
    docstring, else the reduction of all of them."""
    new = [g for pair in pairs for g in (pair.low, pair.high)]
    D = prev.denom_lcm
    D2 = math.lcm(D, *(g.denominator for g in new))
    m = D2 // D
    scaled = [g.numerator * (D2 // g.denominator) for g in new]
    top = max(prev.scaled_gens[-1] * m, *scaled[1::2])
    primes = [pair.prime for pair in pairs]
    if len(set(primes)) < len(primes) or not all(
            p > 2 and D % p and (p - 1) * low > top
            for p, low in zip(primes, scaled[::2])):
        return from_generators((*prev.atoms, *new))
    by_scaled = dict(zip(scaled, new))
    by_scaled.update((s * m, a) for s, a in zip(prev.scaled_gens, prev.atoms))
    order = sorted(by_scaled)
    return TruncatedMonoid(atoms=tuple(by_scaled[s] for s in order), denom_lcm=D2,
                           scaled_gens=tuple(order))


def _grow(base: TruncatedMonoid, bound: Fraction):
    """Yield (record, reducibles of the stage before, stage) for stages
    1, 2, ... of bifurcus_build from base, building each stage only
    when it is asked for."""
    prev = base
    last = 0
    for j in count(1):
        # reducibles are the elements whose shortest factorization has
        # two or more atoms; one has a length-2 factorization iff its
        # shortest has length 2
        table = sweep(prev, bound)
        reducibles = tuple(v for v, (lo, _hi, _n) in table.items() if lo >= 2)
        missing = [prev.unscale(v) for v, (lo, _hi, _n) in table.items() if lo >= 3]
        added = []
        # floors never decrease, so every prime in [floor, last] is used
        floor = max(PRIME_FLOOR, 2 ** j)
        for a in missing:
            p = last = next_prime_at_least(max(floor, last + 1))
            # a/2 -/+ 1/p = (u*p -/+ 2*v) / (2*v*p) for a = u/v
            u, v = a.as_integer_ratio()
            added.append(AtomPair(reducible=a, prime=p, low=Fraction(u * p - 2 * v, 2 * v * p),
                                  high=Fraction(u * p + 2 * v, 2 * v * p)))
        if not added:
            # the monoid stays as it is, so every later stage is this one
            for i in count(j):
                yield StageRecord(index=i, added=()), reducibles, prev
        prev = _adjoin(prev, added)
        yield StageRecord(index=j, added=tuple(added)), reducibles, prev


def _staged(base: TruncatedMonoid, bound: Fraction, grown) -> StagedMonoid:
    """The staged monoid of base and the (record, reducibles, stage)
    triples _grow yielded for it."""
    records, reducibles, stages = zip(*grown)
    return StagedMonoid(stages=(base, *stages), records=records,
                        value_bound=bound, reducibles=reducibles)


def bifurcus_build(num_stages: int, value_bound) -> StagedMonoid:
    """Run the staged construction for num_stages rounds.

    Per stage j: the reducible elements <= value_bound of the previous
    stage that have no length-2 factorization get, in increasing order,
    the smallest never-used prime p >= max(13, 2^j) and contribute the
    atom pair a/2 -/+ 1/p.  A stage that finds nothing adds nothing.
    """
    if not isinstance(num_stages, int) or isinstance(num_stages, bool) or num_stages < 1:
        raise DomainError("num_stages must be a positive integer")
    if num_stages > sys.maxsize:
        raise DomainError(f"num_stages {num_stages} is past {sys.maxsize}")
    bound = value_bound if isinstance(value_bound, Fraction) else Fraction(value_bound)
    if bound < MIN_VALUE_BOUND:
        raise DomainError("value_bound below 7/6 leaves the first stage empty")
    base = from_generators(BASE_GENERATORS)
    return _staged(base, bound, islice(_grow(base, bound), num_stages))


@dataclass(frozen=True)
class BifurcusVerification:
    """Desk-scale checks of the construction's advertised properties."""

    bound: Fraction
    min_element: Fraction | None
    min_ok: bool                      # smallest nonzero element is 1/3
    atoms_persist_ok: bool            # every stage atom is a final-stage atom
    lost_atoms: tuple[Fraction, ...]
    coverage_ok: bool                 # stage j gives stage j-1 reducibles length 2
    uncovered: tuple[tuple[int, Fraction], ...]

    @property
    def passed(self) -> bool:
        return self.min_ok and self.atoms_persist_ok and self.coverage_ok

    def summary_lines(self) -> list[str]:
        out = [f"min nonzero element up to {format_rational(self.bound)}: "
               f"{format_rational(self.min_element) if self.min_element is not None else 'none'}"
               f" ({'ok' if self.min_ok else 'FAIL'})",
               f"atoms persist into the final stage: "
               f"{'ok' if self.atoms_persist_ok else 'FAIL: lost ' + ', '.join(map(format_rational, self.lost_atoms))}"]
        if self.coverage_ok:
            out.append("length-2 coverage of previous-stage reducibles: ok")
        else:
            misses = ", ".join(f"stage {j}: {format_rational(x)}"
                               for j, x in self.uncovered)
            out.append(f"length-2 coverage of previous-stage reducibles: FAIL ({misses})")
        return out


def bifurcus_verify(sm: StagedMonoid, bound) -> BifurcusVerification:
    """Check, up to bound: the final stage's least nonzero element is
    1/3; atoms of every built stage stay atoms in the final stage; and
    each stage gives every reducible of its predecessor a length-2
    factorization.

    Nothing is swept: the least nonzero element of a monoid is its
    least atom, and the reducibles are those the build recorded, struck
    off by one walk of each stage's two-atom sums on the previous
    stage's scale, independently of the sweep.
    """
    b = bound if isinstance(bound, Fraction) else Fraction(bound)
    if b.numerator < 0:
        raise DomainError("bound must be nonnegative")
    if b > sm.value_bound:
        raise DomainError(
            f"verification bound {format_rational(b)} exceeds the build bound "
            f"{format_rational(sm.value_bound)}; reducibles beyond the build "
            "bound were never processed")
    final = sm.final
    min_element = final.min_atom if final.min_atom <= b else None
    min_ok = min_element == Fraction(1, 3)

    # matched on the final stage's integer scale
    final_atoms = set(final.scaled_gens)
    lost = sorted({a for stage in sm.stages for a in stage.atoms
                   if final.scale(a) not in final_atoms})
    atoms_persist_ok = not lost

    # on stage j - 1's scale an atom s of stage j is q + r/num, with
    # (q, r) = divmod(s * den, num): two atoms sum to an integer there
    # iff their r are both 0 or sum to num
    uncovered = []
    for j in range(1, len(sm.stages)):
        prev, stage = sm.stages[j - 1], sm.stages[j]
        g = math.gcd(prev.denom_lcm, stage.denom_lcm)
        num, den = stage.denom_lcm // g, prev.denom_lcm // g
        classes: dict[int, list[int]] = {}
        for s in stage.scaled_gens:  # ascending, so each class is too
            q, r = divmod(s * den, num)
            classes.setdefault(r, []).append(q)
        top = math.floor(b * prev.denom_lcm)
        left = {x for x in sm.reducibles[j - 1] if x <= top}
        for r, us in classes.items():
            ws, carry = classes.get(-r % num, ()), r > 0
            for i, u in enumerate(us):
                for w in islice(ws, i if ws is us else 0, None):
                    if u + w + carry > top:
                        break
                    left.discard(u + w + carry)
        uncovered.extend((j, prev.unscale(x)) for x in sorted(left))
    return BifurcusVerification(bound=b, min_element=min_element, min_ok=min_ok,
                                atoms_persist_ok=atoms_persist_ok,
                                lost_atoms=tuple(lost),
                                coverage_ok=not uncovered,
                                uncovered=tuple(uncovered))


# --- serialization ---------------------------------------------------------

STAGED_SCHEMA = 1


def staged_to_dict(sm: StagedMonoid) -> dict:
    return {
        "schema": STAGED_SCHEMA,
        "value_bound": format_rational(sm.value_bound),
        "base_generators": [format_rational(g) for g in BASE_GENERATORS],
        "stages": [
            {"stage": rec.index,
             "added": [{"reducible": format_rational(pair.reducible),
                        "prime": pair.prime,
                        "low": format_rational(pair.low),
                        "high": format_rational(pair.high)}
                       for pair in rec.added]}
            for rec in sm.records
        ],
    }


def staged_to_json(sm: StagedMonoid) -> str:
    return json.dumps(staged_to_dict(sm), indent=2, sort_keys=True) + "\n"


_PAIR_FIELDS = ("reducible", "prime", "low", "high")


def _adjunction(entry, pos: int) -> AtomPair:
    """One serialized adjunction record, shape-checked."""
    if not isinstance(entry, dict) or any(k not in entry for k in _PAIR_FIELDS):
        raise SpecValidationError(
            f"stage {pos}: every added entry must be an object with the "
            f"fields {', '.join(_PAIR_FIELDS)}")
    prime = entry["prime"]
    if not isinstance(prime, int) or isinstance(prime, bool):
        raise SpecValidationError(f"stage {pos}: prime {prime!r} is not an integer")
    return AtomPair(reducible=parse_rational(entry["reducible"]), prime=prime,
                    low=parse_rational(entry["low"]),
                    high=parse_rational(entry["high"]))


def staged_from_dict(doc: dict) -> StagedMonoid:
    """Rebuild a staged monoid from its serialized adjunction records.

    The document's shape, the pair identities and the prime
    constraints are checked first.  The build is deterministic, so the
    value bound then replays it one stage at a time, and every record
    must equal the replayed one: the replay stops at the first record
    that differs.  The replayed stages are returned.
    """
    # integers are compared by type too: True and 1.0 equal 1
    if (not isinstance(doc, dict) or type(doc.get("schema")) is not int
            or doc["schema"] != STAGED_SCHEMA):
        raise SpecValidationError(
            f"staged-monoid document must declare schema {STAGED_SCHEMA}")
    raw_base = doc.get("base_generators", [])
    base = ([parse_rational(g) for g in raw_base] if isinstance(raw_base, list)
            else None)
    if base != list(BASE_GENERATORS):
        raise SpecValidationError(
            "staged-monoid document lists unexpected base generators")
    if "value_bound" not in doc:
        raise SpecValidationError("staged-monoid document needs a value_bound")
    bound = parse_rational(doc["value_bound"])
    records = []
    seen_primes: set[int] = set()
    raw_stages = doc.get("stages")
    if not isinstance(raw_stages, list):
        raise SpecValidationError("staged-monoid document needs a stages list")
    for pos, raw in enumerate(raw_stages, start=1):
        if not isinstance(raw, dict) or not isinstance(raw.get("added", []), list):
            raise SpecValidationError(
                f"stage record {pos} must be an object with an added list")
        if type(raw.get("stage")) is not int or raw["stage"] != pos:
            raise SpecValidationError(f"stage records out of order at {pos}")
        added = []
        for entry in raw.get("added", ()):
            pair = _adjunction(entry, pos)
            if pair.prime < max(PRIME_FLOOR, 2 ** pos):
                raise SpecValidationError(
                    f"stage {pos} uses prime {pair.prime} below the stage floor")
            if pair.prime in seen_primes:
                raise SpecValidationError(f"prime {pair.prime} is used twice")
            seen_primes.add(pair.prime)
            added.append(pair)
        records.append(StageRecord(index=pos, added=tuple(added)))
    if not records:
        raise SpecValidationError("staged-monoid document has no stages")
    if bound < MIN_VALUE_BOUND:
        raise SpecValidationError(
            f"value_bound {format_rational(bound)} is below "
            f"{format_rational(MIN_VALUE_BOUND)}")
    base = from_generators(BASE_GENERATORS)
    grown = []
    for rec, step in zip(records, _grow(base, bound)):
        if rec != step[0]:
            raise SpecValidationError(
                f"stage {rec.index} differs from the replayed build")
        grown.append(step)
    return _staged(base, bound, grown)


def staged_from_json(text: str) -> StagedMonoid:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"staged-monoid document is not valid JSON: "
                                  f"{exc.msg} (line {exc.lineno})") from exc
    except RecursionError as exc:
        raise SpecValidationError("staged-monoid document nests too deeply "
                                  "to parse") from exc
    except ValueError as exc:  # past Python's int/str digit limit
        raise SpecValidationError("staged-monoid document holds an integer "
                                  "with too many digits") from exc
    return staged_from_dict(doc)


def load_staged(path) -> StagedMonoid:
    return staged_from_json(read_text(path))
