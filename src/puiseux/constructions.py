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
reducibles it reads off its one sweep of each stage, so verification
checks the claimed invariants on the finite stages actually built
without sweeping again.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction

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
        if self.low + self.high != self.reducible:
            raise DomainError(
                f"atom pair {format_rational(self.low)} + {format_rational(self.high)} "
                f"does not sum to {format_rational(self.reducible)}")
        if self.low <= 0 or self.low >= self.high:
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
    stages[j], for every stage but the last."""

    stages: tuple[TruncatedMonoid, ...]
    records: tuple[StageRecord, ...]
    value_bound: Fraction
    reducibles: tuple[tuple[Fraction, ...], ...]

    @property
    def final(self) -> TruncatedMonoid:
        return self.stages[-1]

    def all_primes(self) -> list[int]:
        return [pair.prime for rec in self.records for pair in rec.added]


def _not_split_in_two(tm: TruncatedMonoid, xs) -> list[Fraction]:
    """The x in xs that are not a sum of two atoms of tm, tested on
    scaled integers against one set of scaled atoms."""
    gens = tm.scaled_gens
    gen_set = set(gens)
    out = []
    for x in xs:
        X = tm.scale(x)
        if X is None or not any(X - A in gen_set for A in gens):
            out.append(x)
    return out


def bifurcus_build(num_stages: int, value_bound, budget=None) -> StagedMonoid:
    """Run the staged construction for num_stages rounds.

    Per stage j: the reducible elements <= value_bound of the previous
    stage that have no length-2 factorization get, in increasing order,
    the smallest never-used prime p >= max(13, 2^j) and contribute the
    atom pair a/2 -/+ 1/p.  A stage that finds nothing emits a warning
    and adds nothing.
    """
    if not isinstance(num_stages, int) or isinstance(num_stages, bool) or num_stages < 1:
        raise DomainError("num_stages must be a positive integer")
    bound = value_bound if isinstance(value_bound, Fraction) else Fraction(value_bound)
    if bound < MIN_VALUE_BOUND:
        raise DomainError("value_bound below 7/6 leaves the first stage empty")
    gens: list[Fraction] = list(BASE_GENERATORS)
    stages = [from_generators(gens, budget=budget)]
    records: list[StageRecord] = []
    reducibles: list[tuple[Fraction, ...]] = []
    last = 0
    for j in range(1, num_stages + 1):
        prev = stages[-1]
        # reducibles are the elements whose shortest factorization has
        # two or more atoms; one has a length-2 factorization iff its
        # shortest has length 2
        shortest = [(prev.unscale(v), lo) for v, (lo, _hi, _n)
                    in sweep(prev, bound, budget).items() if lo >= 2]
        reducibles.append(tuple(a for a, _lo in shortest))
        missing = [a for a, lo in shortest if lo >= 3]
        if not missing:
            warnings.warn(f"stage {j}: every reducible element up to "
                          f"{format_rational(bound)} already splits into two atoms; "
                          "nothing to add")
        added = []
        # floors never decrease, so every prime in [floor, last] is used
        floor = max(PRIME_FLOOR, 2 ** j)
        for a in missing:
            p = last = next_prime_at_least(max(floor, last + 1))
            half = a / 2
            pair = AtomPair(reducible=a, prime=p,
                            low=half - Fraction(1, p), high=half + Fraction(1, p))
            added.append(pair)
            gens.extend((pair.low, pair.high))
        records.append(StageRecord(index=j, added=tuple(added)))
        stages.append(from_generators(gens, budget=budget))
    return StagedMonoid(stages=tuple(stages), records=tuple(records),
                        value_bound=bound, reducibles=tuple(reducibles))


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
    least atom, and the reducibles are those the build recorded, each
    tested for a two-atom split independently of the sweep.
    """
    b = bound if isinstance(bound, Fraction) else Fraction(bound)
    if b < 0:
        raise DomainError("bound must be nonnegative")
    if b > sm.value_bound:
        raise DomainError(
            f"verification bound {format_rational(b)} exceeds the build bound "
            f"{format_rational(sm.value_bound)}; reducibles beyond the build "
            "bound were never processed")
    final = sm.final
    min_element = final.min_atom if final.min_atom <= b else None
    min_ok = min_element == Fraction(1, 3)

    final_atoms = set(final.atoms)
    lost = sorted({a for stage in sm.stages for a in stage.atoms} - final_atoms)
    atoms_persist_ok = not lost

    uncovered = []
    for j in range(1, len(sm.stages)):
        uncovered.extend((j, x) for x in _not_split_in_two(
            sm.stages[j], [x for x in sm.reducibles[j - 1] if x <= b]))
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


def staged_from_dict(doc: dict, budget=None) -> StagedMonoid:
    """Rebuild a staged monoid from its serialized adjunction records.

    The document's shape, the pair identities and the prime
    constraints are checked first.  The build is deterministic, so the
    stage count and value bound then replay it, and every record must
    equal the replayed one; the replayed stages are returned.
    """
    if not isinstance(doc, dict) or doc.get("schema") != STAGED_SCHEMA:
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
        if raw.get("stage") != pos:
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sm = bifurcus_build(len(records), bound, budget=budget)
    for rec, replayed in zip(records, sm.records):
        if rec != replayed:
            raise SpecValidationError(
                f"stage {rec.index} differs from the replayed build")
    return sm


def staged_from_json(text: str, budget=None) -> StagedMonoid:
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
    return staged_from_dict(doc, budget=budget)


def load_staged(path, budget=None) -> StagedMonoid:
    return staged_from_json(read_text(path), budget=budget)
