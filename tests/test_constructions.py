from fractions import Fraction
from pathlib import Path

import pytest

from oracles import sieve
from puiseux import constructions
from puiseux.constructions import (BASE_GENERATORS, CATALOG_NAMES, AtomPair,
                                   bifurcus_build, bifurcus_verify, catalog,
                                   load_staged, staged_from_dict,
                                   staged_from_json, staged_to_dict,
                                   staged_to_json)
from puiseux.errors import DomainError, SpecValidationError
from puiseux.monoid import sweep, truncate

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

    def test_empty_stage_warns(self):
        with pytest.warns(UserWarning, match="nothing to add"):
            sm = bifurcus_build(2, Fraction(7, 6))
        assert len(sm.records[0].added) == 1
        assert sm.records[1].added == ()

    # six stages at 3/2 reduce 1,992 generators and take ~40 s
    @pytest.mark.filterwarnings("ignore:stage")
    @pytest.mark.parametrize("bound, most_stages", [(Fraction(6, 5), 6),
                                                    (Fraction(3, 2), 5)])
    def test_primes_are_least_unused_above_the_stage_floor(self, bound,
                                                           most_stages):
        for num_stages in range(1, most_stages + 1):
            sm = bifurcus_build(num_stages, bound)
            primes = sm.all_primes()
            assert all(p < q for p, q in zip(primes, primes[1:]))
            table = sieve(max(primes) if primes else 2)
            used = set()
            for rec in sm.records:
                floor = max(13, 2 ** rec.index)
                for pair in rec.added:
                    assert pair.prime == next(q for q in table
                                              if q >= floor and q not in used)
                    used.add(pair.prime)

    @pytest.mark.filterwarnings("ignore:stage")
    @pytest.mark.parametrize("num_stages, bound", [
        (3, Fraction(7, 5)), (2, Fraction(9, 5)), (2, Fraction(7, 4)),
        (4, Fraction(3, 2))])
    def test_recorded_reducibles_are_the_sweeps(self, num_stages, bound):
        sm = bifurcus_build(num_stages, bound)
        assert len(sm.reducibles) == num_stages
        for stage, recorded in zip(sm.stages, sm.reducibles):
            assert recorded == tuple(
                stage.unscale(v) for v, (lo, _hi, _n)
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


class TestBifurcusVerify:
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

    def test_rejects_malformed_json(self):
        with pytest.raises(SpecValidationError, match="not valid JSON"):
            staged_from_json("{nope")
