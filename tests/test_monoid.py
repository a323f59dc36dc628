from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_atoms, brute_elements, brute_factorizations
from puiseux.constructions import catalog
from puiseux.errors import (DomainError, ResourceCapError, SpecValidationError)
from puiseux.monoid import (TruncatedMonoid, WorkBudget, classify_stability,
                            contains, elements_up_to, from_generators,
                            is_primary, sweep, truncate)
from puiseux.specfile import parse_spec

small_gens = st.lists(
    st.builds(Fraction, st.integers(1, 10), st.integers(1, 10)),
    min_size=1, max_size=4, unique=True)


class TestFromGenerators:
    def test_atoms_sorted_and_deduplicated(self):
        tm = from_generators([Fraction(1, 2), Fraction(2, 4), Fraction(1, 3)])
        assert tm.atoms == (Fraction(1, 3), Fraction(1, 2))

    def test_reducible_generators_dropped(self):
        # 5/6 = 1/2 + 1/3 and 1 = 2 * (1/2), so neither is an atom
        tm = from_generators([Fraction(1, 2), Fraction(1, 3), Fraction(5, 6),
                              Fraction(1)])
        assert tm.atoms == (Fraction(1, 3), Fraction(1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            from_generators([Fraction(0), Fraction(1, 2)])
        with pytest.raises(DomainError):
            from_generators([])

    def test_denominator_lcm(self):
        tm = from_generators([Fraction(1, 4), Fraction(5, 6)])
        assert tm.denom_lcm == 12
        assert tm.scaled_gens == (3, 10)

    @given(small_gens)
    @settings(max_examples=80, deadline=None)
    def test_atoms_match_brute_force(self, gens):
        assert list(from_generators(gens).atoms) == brute_atoms(gens)


class TestContains:
    def test_examples(self):
        tm = from_generators([Fraction(1, 2), Fraction(1, 3)])
        assert contains(tm, Fraction(7, 6))
        assert contains(tm, Fraction(0))
        assert not contains(tm, Fraction(1, 6))
        assert not contains(tm, Fraction(1, 5))

    def test_negative_rejected(self):
        tm = from_generators([Fraction(1, 2)])
        with pytest.raises(DomainError):
            contains(tm, Fraction(-1, 2))

    # step counts recorded from the recursive search this one replaced
    @pytest.mark.parametrize("name, depth, x, member, steps", [
        ("primarydense", 8, Fraction(115, 19), True, 29),
        ("bfnotff", 6, Fraction(226, 39), True, 81),
        ("bfnotff", 6, Fraction(507137, 85085), False, 4755),
    ])
    def test_budget_steps_pinned(self, name, depth, x, member, steps):
        tm = truncate(catalog(name, depth), depth)
        budget = WorkBudget(steps)
        assert contains(tm, x, budget) is member
        assert budget.left == 0
        with pytest.raises(ResourceCapError,
                           match=f"work budget of {steps - 1} steps"):
            contains(tm, x, WorkBudget(steps - 1))

    @given(small_gens, st.builds(Fraction, st.integers(0, 30), st.integers(1, 8)))
    @settings(max_examples=80, deadline=None)
    def test_against_brute_closure(self, gens, x):
        tm = from_generators(gens)
        members = set(brute_elements(gens, x))
        assert contains(tm, x) == (x in members)


class TestElementsUpTo:
    def test_small_example(self):
        tm = from_generators([Fraction(1, 2), Fraction(1, 3)])
        assert elements_up_to(tm, Fraction(7, 6)) == [
            Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
            Fraction(5, 6), Fraction(1), Fraction(7, 6)]

    @given(small_gens)
    @settings(max_examples=60, deadline=None)
    def test_against_brute_closure(self, gens):
        tm = from_generators(gens)
        bound = Fraction(2)
        assert elements_up_to(tm, bound) == brute_elements(gens, bound)

    def test_budget_cap(self):
        tm = from_generators([Fraction(1, 97), Fraction(1, 89)])
        with pytest.raises(ResourceCapError):
            elements_up_to(tm, Fraction(50), budget=WorkBudget(100))


class TestSweep:
    @given(st.lists(st.builds(Fraction, st.integers(1, 8), st.integers(1, 6)),
                    min_size=2, max_size=5, unique=True),
           st.builds(Fraction, st.integers(0, 12), st.integers(1, 4)))
    @settings(max_examples=60, deadline=None)
    def test_against_brute_factorizations(self, gens, bound):
        tm = from_generators(gens)
        table = sweep(tm, bound)
        members = brute_elements(gens, bound)
        assert [tm.unscale(v) for v in table] == members
        for v, (lo, hi, count) in table.items():
            zs = brute_factorizations(tm.atoms, tm.unscale(v))
            lengths = [sum(z) for z in zs]
            assert (lo, hi, count) == (min(lengths), max(lengths), len(zs))

    def test_budget_is_the_leaf_count(self):
        # 2 x 3/5 == 3 x 2/5, so the last coin extends entries of count 2
        gens = [Fraction(1, 7), Fraction(2, 5), Fraction(3, 5)]
        tm = from_generators(gens)
        bound = Fraction(3)
        leaves = sum(len(brute_factorizations(gens, x))
                     for x in brute_elements(gens, bound))
        budget = WorkBudget(leaves)
        sweep(tm, bound, budget)
        assert budget.left == 0
        with pytest.raises(ResourceCapError,
                           match=f"exceeded its work budget of {leaves - 1} steps"):
            sweep(tm, bound, WorkBudget(leaves - 1))


class TestTruncate:
    def test_catalog_atom_values(self):
        tm = truncate(catalog("primarydense", 5), 5)
        assert set(tm.atoms) == {Fraction(1, 2), Fraction(2, 3), Fraction(3, 5),
                                 Fraction(4, 7), Fraction(5, 11)}
        assert list(tm.atoms) == sorted(tm.atoms)

    def test_origin_recorded(self):
        spec = catalog("primarydense", 5)
        tm = truncate(spec, 5)
        assert tm.origin == (spec, 5)

    def test_depth_validation(self):
        spec = catalog("primarydense", 5)
        with pytest.raises(DomainError):
            truncate(spec, 0)

    def test_cross_family_reduction(self):
        # the numerator-n-plus-one family member 2/p_1 collapses onto
        # 2 * (1/p_1), so depth 3 leaves five atoms, not six
        tm = truncate(catalog("unstablenotbf", 3), 3)
        assert len(tm.atoms) == 5
        p1 = min(a.denominator for a in tm.atoms)
        assert Fraction(1, p1) in tm.atoms
        assert Fraction(2, p1) not in tm.atoms

    def test_metadata_bounds_enforced(self):
        spec = parse_spec("""
        {"schema": 1,
         "families": [{"kind": "explicit", "generators": ["1/2", "1/3"]}],
         "metadata": {"atom_inf": "1/2", "inf_attained": true,
                      "zero_limit_point": false}}
        """)
        with pytest.raises(SpecValidationError, match="atom_inf"):
            truncate(spec, 1)

    def test_metadata_sup_enforced(self):
        spec = parse_spec("""
        {"schema": 1,
         "families": [{"kind": "explicit", "generators": ["1/2", "2/3"]}],
         "metadata": {"atom_sup": "1/2", "sup_attained": true,
                      "zero_limit_point": false}}
        """)
        with pytest.raises(SpecValidationError, match="atom_sup"):
            truncate(spec, 1)


class TestIsPrimary:
    def test_primary_catalog(self):
        tm = truncate(catalog("primarydense", 6), 6)
        report = is_primary(tm)
        assert report.is_primary

    def test_shared_prime_not_primary(self):
        tm = from_generators([Fraction(2, 5), Fraction(3, 5)])
        assert len(tm.atoms) == 2
        assert not is_primary(tm).is_primary

    def test_composite_denominator_not_primary(self):
        tm = from_generators([Fraction(1, 4)])
        assert not is_primary(tm).is_primary


class TestClassifyStability:
    def test_primarystable_labels(self):
        spec = catalog("primarystable", 15)
        labels = classify_stability(spec, 15)
        assert labels[Fraction(30, 41)] == "stable"
        assert labels[Fraction(30, 43)] == "stable"
        assert labels[Fraction(1, 2)] == "unstable"
        assert labels[Fraction(12, 37)] == "unstable"

    def test_all_unstable_without_declared_family(self):
        spec = catalog("primarydense", 5)
        labels = classify_stability(spec, 5)
        assert set(labels.values()) == {"unstable"}

    def test_keys_are_truncation_atoms(self):
        spec = catalog("primarystable", 14)
        labels = classify_stability(spec, 14)
        assert set(labels) == set(truncate(spec, 14).atoms)
