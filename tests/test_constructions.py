import hashlib
import math
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sieve, two_atom_sums
from puiseux import constructions, monoid
from puiseux.constructions import (BASE_GENERATORS, CATALOG_NAMES, AtomPair,
                                   StagedMonoid, StageRecord, bifurcus_build,
                                   bifurcus_verify, catalog, load_staged,
                                   staged_from_dict, staged_from_json,
                                   staged_to_dict, staged_to_json)
from puiseux.errors import DomainError, SpecValidationError
from puiseux.monoid import from_generators, sweep, truncate

DATA = Path(__file__).parent / "data"


class TestCatalog:
    def test_every_name_parses_and_truncates(self):
        for name in CATALOG_NAMES:
            tm = truncate(catalog(name, 4), 4)
            assert len(tm.atoms) >= 1

    def test_bfplot_family_values(self):
        spec = catalog("bfplot", 4)
        explicit, tail = spec.families
        assert explicit.generators == (Fraction(1, 2),)
        assert [v for (_, _, v) in tail.instantiate(3)] == [
            Fraction(4, 3), Fraction(6, 5), Fraction(8, 7)]
        assert spec.metadata.atom_sup == Fraction(4, 3)
        assert spec.metadata.sup_attained and spec.metadata.inf_attained

    def test_factorial_is_a_stable_family(self):
        spec = catalog("factorial", 6)
        (fam,) = spec.families
        assert fam.declared_stable and fam.numerator.is_constant()
        assert [v for (_, _, v) in fam.instantiate(3)] == [
            Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
        assert spec.metadata.zero_limit_point

    def test_bfnotff_complementary_numerators(self):
        spec = catalog("bfnotff", 2)
        lows, highs = spec.families
        assert [v for (_, _, v) in lows.instantiate(2)] == [
            Fraction(1, 3), Fraction(2, 5)]
        assert [v for (_, _, v) in highs.instantiate(2)] == [
            Fraction(2, 3), Fraction(3, 5)]
        assert spec.metadata.not_ff_witness == Fraction(1)

    def test_unstablenotbf_floor_scales_with_depth(self):
        assert catalog("unstablenotbf", 3).families[0].prime_filter.render() == "min:17"
        assert catalog("unstablenotbf", 5).families[0].prime_filter.render() == "min:37"
        spec = catalog("unstablenotbf", 3)
        assert [v for (_, _, v) in spec.families[0].instantiate(3)] == [
            Fraction(1, 17), Fraction(2, 19), Fraction(3, 23)]

    def test_primarystable_switches_to_constant_numerator(self):
        spec = catalog("primarystable", 14)
        finite, stable = spec.families
        assert finite.index_end == 12 and not finite.declared_stable
        assert stable.index_start == 13 and stable.declared_stable
        # the family's first two indices are 13 and 14, landing on the
        # 13th and 14th primes
        assert [v for (_, _, v) in stable.instantiate(2)] == [
            Fraction(30, 41), Fraction(30, 43)]

    def test_infiniteunstable_skips_three(self):
        spec = catalog("infiniteunstable", 4)
        assert [v for (_, _, v) in spec.families[0].instantiate(4)] == [
            Fraction(1, 2), Fraction(2, 5), Fraction(3, 7), Fraction(4, 11)]

    def test_rejects(self):
        with pytest.raises(DomainError, match="unknown catalog name"):
            catalog("nope")
        with pytest.raises(DomainError, match="depth"):
            catalog("bfplot", 0)
        with pytest.raises(DomainError, match="depth"):
            catalog("bfplot", True)


STAGE1_GOLDEN = (
    AtomPair(Fraction(7, 6), 13, Fraction(79, 156), Fraction(103, 156)),
    AtomPair(Fraction(4, 3), 17, Fraction(31, 51), Fraction(37, 51)),
    AtomPair(Fraction(3, 2), 19, Fraction(53, 76), Fraction(61, 76)),
)


class TestBifurcusBuild:
    def test_first_stage_golden(self):
        sm = bifurcus_build(1, Fraction(3, 2))
        assert sm.records[0].added == STAGE1_GOLDEN
        assert set(BASE_GENERATORS) <= set(sm.final.atoms)

    def test_second_stage_prime_discipline(self):
        sm = bifurcus_build(2, Fraction(3, 2))
        first = [p.prime for p in sm.records[0].added]
        second = [p.prime for p in sm.records[1].added]
        assert second == sorted(second) and min(second) >= 23
        assert not set(first) & set(second)
        assert len(set(first + second)) == len(first) + len(second)

    def test_pair_geometry(self):
        sm = bifurcus_build(2, Fraction(3, 2))
        for rec in sm.records:
            for pair in rec.added:
                assert pair.low + pair.high == pair.reducible
                assert pair.high - pair.low == Fraction(2, pair.prime)
                assert pair.reducible <= Fraction(3, 2)

    def test_deterministic(self):
        a = bifurcus_build(2, Fraction(3, 2))
        b = bifurcus_build(2, Fraction(3, 2))
        assert staged_to_json(a) == staged_to_json(b)

    def test_empty_stage_adds_nothing(self):
        sm = bifurcus_build(2, Fraction(7, 6))
        assert len(sm.records[0].added) == 1
        assert sm.records[1].added == ()

    # six stages at 3/2 adjoin 996 pairs and take several seconds
    @pytest.mark.parametrize("bound, most_stages", [(Fraction(6, 5), 6),
                                                    (Fraction(3, 2), 5)])
    def test_primes_are_least_unused_above_the_stage_floor(self, bound,
                                                           most_stages):
        for num_stages in range(1, most_stages + 1):
            sm = bifurcus_build(num_stages, bound)
            primes = [pair.prime for rec in sm.records for pair in rec.added]
            assert all(p < q for p, q in zip(primes, primes[1:]))
            table = sieve(max(primes) if primes else 2)
            used = set()
            for rec in sm.records:
                floor = max(13, 2 ** rec.index)
                for pair in rec.added:
                    assert pair.prime == next(q for q in table
                                              if q >= floor and q not in used)
                    used.add(pair.prime)

    @pytest.mark.parametrize("num_stages, bound", [
        (3, Fraction(7, 5)), (2, Fraction(9, 5)), (2, Fraction(7, 4)),
        (4, Fraction(3, 2))])
    def test_recorded_reducibles_are_the_sweeps(self, num_stages, bound):
        sm = bifurcus_build(num_stages, bound)
        assert len(sm.reducibles) == num_stages
        for stage, recorded in zip(sm.stages, sm.reducibles):
            assert recorded == tuple(v for v, (lo, _hi, _n)
                                     in sweep(stage, bound).items() if lo >= 2)

    def test_records_match_fixture(self):
        # captured from the build before atom reduction and the prime
        # search were reworked
        fixture = (DATA / "bifurcus_stages2_bound2.json").read_text(encoding="utf-8")
        assert staged_to_json(bifurcus_build(2, Fraction(2))) == fixture

    def test_rejects(self):
        with pytest.raises(DomainError, match="7/6"):
            bifurcus_build(1, Fraction(9, 8))
        with pytest.raises(DomainError, match="num_stages"):
            bifurcus_build(0, Fraction(3, 2))

    def test_atom_pair_validation(self):
        with pytest.raises(DomainError, match="does not sum"):
            AtomPair(Fraction(7, 6), 13, Fraction(1, 3), Fraction(1, 2))
        with pytest.raises(DomainError, match="low < high"):
            AtomPair(Fraction(7, 6), 13, Fraction(7, 12), Fraction(7, 12))


def _pair(a, p):
    return AtomPair(a, p, a / 2 - Fraction(1, p), a / 2 + Fraction(1, p))


@pytest.fixture
def reductions(monkeypatch):
    """The generator lists constructions hands to from_generators."""
    seen = []
    monkeypatch.setattr(constructions, "from_generators",
                        lambda gens: seen.append(gens) or from_generators(gens))
    return seen


class TestStageCertificate:
    """_grow adjoins each stage's pairs to the last stage by the module
    docstring's certificate instead of reducing every generator so far."""

    @pytest.mark.parametrize("most_stages, bound", [
        *((4, Fraction(b)) for b in ("7/6", "6/5", "5/4", "4/3", "7/5", "3/2")),
        (3, Fraction(8, 5)), (3, Fraction(5, 3)),
        (2, Fraction(7, 4)), (2, Fraction(9, 5)), (2, Fraction(2))])
    def test_every_stage_is_the_reduction_of_its_generators(self, reductions,
                                                            most_stages, bound):
        base = from_generators(BASE_GENERATORS)
        gens = list(BASE_GENERATORS)
        for rec, _reducibles, stage in islice(constructions._grow(base, bound),
                                              most_stages):
            gens.extend(g for pair in rec.added for g in (pair.low, pair.high))
            assert stage == from_generators(gens)
        assert reductions == []  # the certificate held on every stage

    @pytest.mark.parametrize("gens, pairs", [
        # 13 * 10/39 < 17/5
        ((Fraction(1, 3), Fraction(1, 2), Fraction(17, 5)), [_pair(Fraction(2, 3), 13)]),
        # 79/12 = 13 * 79/156 is no longer an atom
        ((Fraction(1, 3), Fraction(1, 2), Fraction(79, 12)), [_pair(Fraction(7, 6), 13)]),
        # 13 divides the denominator lcm 78: 16/39 = 1/13 + 1/3
        ((Fraction(1, 13), Fraction(1, 3), Fraction(1, 2)), [_pair(Fraction(2, 3), 13)]),
        # 13 * 2/143 > 24/143, yet 24/143 = 12 * 2/143: the bound is
        # (p - 1) * low
        ((Fraction(1, 11),), [_pair(Fraction(2, 11), 13)]),
        # one prime for two pairs
        (BASE_GENERATORS, [_pair(Fraction(7, 6), 13), _pair(Fraction(4, 3), 13)]),
    ])
    def test_fallback_reduces_when_a_condition_fails(self, reductions, gens, pairs):
        grown = constructions._adjoin(from_generators(gens), pairs)
        assert grown == from_generators(
            (*gens, *(g for pair in pairs for g in (pair.low, pair.high))))
        assert len(reductions) == 1

    def test_build_searches_nothing(self, monkeypatch):
        def no_search(*_args):
            raise AssertionError("atom reduction searched")

        monkeypatch.setattr(monoid.Feasibility, "_search", no_search)
        assert len(bifurcus_build(3, Fraction(7, 4)).records) == 3

    # sha256 of staged_to_json, pinned before stages were grown from
    # the last one
    @pytest.mark.parametrize("num_stages, bound, digest", [
        (3, Fraction(7, 4), "d015f77c8c502b6033135d6985ead614c3586c35844d6a8034a1c8a43263b914"),
        (2, Fraction(5, 2), "17ca34d7de48a1049267c0493c27c82f227fc5c8f68569a894b5bbd702d82ae6"),
        (4, Fraction(3, 2), "fc2e690046673c113949fa29d917d2c38c6d533cf6b83b2ca58caaa16df5c32f"),
    ])
    def test_towers_pinned(self, num_stages, bound, digest):
        text = staged_to_json(bifurcus_build(num_stages, bound))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@st.composite
def hand_built_towers(draw):
    """(StagedMonoid, bound) that no build makes.  Stage i holds an atom
    m/q_i for a prime q_i of its own, and pairs a/2 -/+ 1/p with a a sum
    of the other atoms of stage i - 1, so q_{i-1} divides no denominator
    of stage i, and no denominator lcm divides the next one's.  The pair
    parts mostly lie in complementary nonzero classes on the previous
    scale.  The reducibles are some two-atom sums of the next stage and
    some integers."""
    small = st.builds(Fraction, st.integers(1, 9), st.integers(1, 8))
    stages = []
    primes = (11, 13, 17)[:draw(st.integers(2, 3))]
    for i, q in enumerate(primes):
        gens = {Fraction(draw(st.integers(1, q - 1)), q), *draw(st.lists(small, max_size=3))}
        base = [x for x in stages[-1].atoms if x.denominator % primes[i - 1]] if i else []
        for _ in range(draw(st.integers(0, 3)) if base else 0):
            a = sum(draw(st.lists(st.sampled_from(base), min_size=1, max_size=3)))
            p = draw(st.sampled_from([19, 23, 29]))
            if a / 2 > Fraction(1, p):
                gens |= {a / 2 - Fraction(1, p), a / 2 + Fraction(1, p)}
        stages.append(from_generators(gens))
    value_bound = draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 3)))
    reducibles = []
    for prev, stage in zip(stages, stages[1:]):
        D = prev.denom_lcm
        top = math.floor(value_bound * D)
        sums = sorted(x * D for x in two_atom_sums(stage.atoms, value_bound)
                      if (x * D).denominator == 1)
        xs = draw(st.lists(st.sampled_from(sums))) if sums else []
        xs += draw(st.lists(st.integers(1, top))) if top else []
        reducibles.append(tuple(sorted({int(x) for x in xs})))
    sm = StagedMonoid(stages=tuple(stages),
                      records=tuple(StageRecord(j, ()) for j in range(1, len(stages))),
                      value_bound=value_bound, reducibles=tuple(reducibles))
    return sm, value_bound * Fraction(draw(st.integers(0, 4)), 4)


class TestBifurcusVerify:
    @given(hand_built_towers())
    @settings(max_examples=200, deadline=None)
    def test_uncovered_against_two_atom_sums(self, tower):
        sm, bound = tower
        want = []
        for j, (prev, stage) in enumerate(zip(sm.stages, sm.stages[1:]), start=1):
            sums = two_atom_sums(stage.atoms, bound)
            want += [(j, x) for x in (Fraction(v, prev.denom_lcm) for v in sm.reducibles[j - 1])
                     if x <= bound and x not in sums]
        assert bifurcus_verify(sm, bound).uncovered == tuple(want)

    def test_two_stage_build_verifies(self, monkeypatch):
        sm = bifurcus_build(2, Fraction(3, 2))

        def no_sweep(*_args, **_kwargs):
            raise AssertionError("verification swept a stage")

        monkeypatch.setattr(constructions, "sweep", no_sweep)
        v = bifurcus_verify(sm, Fraction(3, 2))
        assert v.passed
        assert v.min_element == Fraction(1, 3) and v.min_ok
        assert v.atoms_persist_ok and v.lost_atoms == ()
        assert v.coverage_ok and v.uncovered == ()
        assert all(isinstance(line, str) for line in v.summary_lines())

    def test_lost_atoms_are_reported(self):
        # 1/6 makes 1/3 and 1/2 reducible, and 1/5's denominator does not
        # divide the final stage's 6
        stages = (from_generators([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)]),
                  from_generators([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]))
        sm = StagedMonoid(stages=stages, records=(StageRecord(1, ()),),
                          value_bound=Fraction(3, 2), reducibles=((),))
        v = bifurcus_verify(sm, Fraction(3, 2))
        assert not v.atoms_persist_ok and not v.passed
        assert v.lost_atoms == (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2))

    def test_reducibles_are_moved_to_the_next_scale(self):
        # on stage 0's scale 10: 4 is 2/5, off stage 1's scale 6, and 10
        # is 1 = 1/2 + 1/2
        stages = (from_generators([Fraction(1, 5), Fraction(1, 2)]),
                  from_generators([Fraction(1, 3), Fraction(1, 2)]))
        sm = StagedMonoid(stages=stages, records=(StageRecord(1, ()),),
                          value_bound=Fraction(3, 2), reducibles=((4, 10),))
        assert bifurcus_verify(sm, Fraction(3, 2)).uncovered == ((1, Fraction(2, 5)),)
        assert bifurcus_verify(sm, Fraction(1, 3)).uncovered == ()

    def test_lower_bound_also_verifies(self):
        sm = bifurcus_build(2, Fraction(3, 2))
        assert bifurcus_verify(sm, Fraction(7, 6)).passed

    @pytest.mark.parametrize("bound", [Fraction(1, 4), 0])
    def test_bound_below_the_least_atom_fails(self, bound):
        v = bifurcus_verify(bifurcus_build(2, Fraction(3, 2)), bound)
        assert v.min_element is None and not v.min_ok
        assert v.coverage_ok and not v.passed

    def test_bound_above_build_bound_rejected(self):
        sm = bifurcus_build(1, Fraction(3, 2))
        with pytest.raises(DomainError, match="exceeds the build bound"):
            bifurcus_verify(sm, Fraction(2))
        with pytest.raises(DomainError, match="bound must be nonnegative"):
            bifurcus_verify(sm, Fraction(-1, 3))


class TestStagedSerialization:
    def test_round_trip(self):
        sm = bifurcus_build(2, Fraction(3, 2))
        assert staged_from_json(staged_to_json(sm)) == sm

    def test_file_round_trip(self, tmp_path):
        sm = bifurcus_build(1, Fraction(3, 2))
        path = tmp_path / "staged.json"
        path.write_text(staged_to_json(sm), encoding="utf-8")
        assert load_staged(path) == sm

    def test_rejects_wrong_schema(self):
        doc = staged_to_dict(bifurcus_build(1, Fraction(3, 2)))
        doc["schema"] = 99
        with pytest.raises(SpecValidationError, match="schema"):
            staged_from_dict(doc)

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_rejects_schema_that_only_equals_one(self, schema):
        doc = staged_to_dict(bifurcus_build(1, Fraction(3, 2)))
        doc["schema"] = schema
        with pytest.raises(SpecValidationError, match="must declare schema 1"):
            staged_from_dict(doc)

    @pytest.mark.parametrize("stage", [True, 1.0])
    def test_rejects_stage_that_only_equals_one(self, stage):
        doc = staged_to_dict(bifurcus_build(1, Fraction(3, 2)))
        doc["stages"][0]["stage"] = stage
        with pytest.raises(SpecValidationError, match="out of order at 1"):
            staged_from_dict(doc)

    def test_rejects_foreign_base(self):
        doc = staged_to_dict(bifurcus_build(1, Fraction(3, 2)))
        doc["base_generators"] = ["1/2", "1/5"]
        with pytest.raises(SpecValidationError, match="base generators"):
            staged_from_dict(doc)

    def test_rejects_out_of_order_stages(self):
        doc = staged_to_dict(bifurcus_build(2, Fraction(3, 2)))
        doc["stages"] = doc["stages"][::-1]
        with pytest.raises(SpecValidationError, match="out of order"):
            staged_from_dict(doc)

    def test_rejects_prime_below_stage_floor(self):
        doc = staged_to_dict(bifurcus_build(1, Fraction(3, 2)))
        doc["stages"][0]["added"][0] = {
            "reducible": "7/6", "prime": 11, "low": "65/132", "high": "89/132"}
        with pytest.raises(SpecValidationError, match="below the stage floor"):
            staged_from_dict(doc)

    def test_rejects_reused_prime(self):
        doc = staged_to_dict(bifurcus_build(1, Fraction(3, 2)))
        doc["stages"][0]["added"].append(doc["stages"][0]["added"][0])
        with pytest.raises(SpecValidationError, match="used twice"):
            staged_from_dict(doc)

    def test_rejects_records_the_build_does_not_make(self):
        # swapped primes pass the floor and reuse checks
        doc = staged_to_dict(bifurcus_build(2, Fraction(3, 2)))
        first, second = doc["stages"][1]["added"][:2]
        first["prime"], second["prime"] = second["prime"], first["prime"]
        with pytest.raises(SpecValidationError, match="stage 2 differs"):
            staged_from_dict(doc)

    def test_replay_stops_at_the_first_stage_that_differs(self, monkeypatch):
        # seven empty stages at 3/2: replaying them all ran past 30 s,
        # though stage 1 already adds three pairs
        doc = {"schema": 1, "value_bound": "3/2", "base_generators": ["1/3", "1/2"],
               "stages": [{"stage": j, "added": []} for j in range(1, 8)]}
        built = []
        from_generators = constructions.from_generators
        monkeypatch.setattr(constructions, "from_generators",
                            lambda gens: built.append(gens) or from_generators(gens))
        with pytest.raises(SpecValidationError,
                           match="^stage 1 differs from the replayed build$"):
            staged_from_dict(doc)
        assert len(built) <= 2

    def test_rejects_malformed_json(self):
        with pytest.raises(SpecValidationError, match="not valid JSON"):
            staged_from_json("{nope")
