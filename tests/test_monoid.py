from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (brute_atoms, brute_coin_table, brute_elements,
                     brute_factorizations)
from puiseux.constructions import catalog
from puiseux.errors import (DomainError, ResourceCapError, SpecValidationError)
from puiseux.monoid import (TruncatedMonoid, WorkBudget, _coin_table,
                            classify_stability, contains, elements_up_to,
                            from_generators, is_primary, sweep, truncate)
from puiseux.specfile import parse_spec

small_gens = st.lists(
    st.builds(Fraction, st.integers(1, 10), st.integers(1, 10)),
    min_size=1, max_size=4, unique=True)


@st.composite
def pair_shaped_gens(draw):
    """1/3 and 1/2 with pairs a/2 -/+ 1/p adjoined, as the bifurcus
    construction makes them: few small primes, so that pairs share
    denominators, and lows of at least 1/6, so that brute force stays
    quick; then up to two multiples of them of at most 2."""
    gens = {Fraction(1, 3), Fraction(1, 2)}
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.builds(Fraction, st.integers(1, 8), st.integers(2, 4)))
        p = draw(st.sampled_from([5, 7, 11]))
        if a / 2 - Fraction(1, p) >= Fraction(1, 6):
            gens |= {a / 2 - Fraction(1, p), a / 2 + Fraction(1, p)}
    ordered = sorted(gens)
    for _ in range(draw(st.integers(0, 2))):
        m = draw(st.sampled_from(ordered)) * draw(st.integers(2, 3))
        if m <= 2:
            gens.add(m)
    return sorted(gens)


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

    # generators two of which share a denominator
    @pytest.mark.parametrize("gens, atoms", [
        # 4/7 is no combination of 3/7 and 1/3 (or 1/2): 4/7 = c*(3/7) + rest
        # with rest's denominator dividing 6 needs c = 6 (mod 7)
        (["1/3", "3/7", "4/7"], ["1/3", "3/7", "4/7"]),  # no coin between
        (["3/7", "1/2", "4/7"], ["3/7", "1/2", "4/7"]),  # 1/2 between
        # 5/7 = 2 * (1/7) + 2 * (3/14)
        (["1/7", "3/14", "5/7"], ["1/7", "3/14"]),
        # 2/7 = 2 * (1/7)
        (["1/7", "2/7", "1/2"], ["1/7", "1/2"]),
        # 5/7 = 2/7 + 3/7
        (["2/7", "3/7", "5/7"], ["2/7", "3/7"]),
    ])
    def test_shared_denominators(self, gens, atoms):
        assert from_generators([Fraction(g) for g in gens]).atoms == tuple(
            Fraction(a) for a in atoms)

    @given(pair_shaped_gens())
    # 2/3 = 2 * (1/3), below the pair 57/104 and 73/104
    @example([Fraction(g) for g in ("1/3", "1/2", "57/104", "2/3", "73/104")])
    # two pairs of denominator 52: 35/52 = 2 * (9/52) + 17/52
    @example([Fraction(g) for g in ("9/52", "17/52", "1/3", "1/2", "35/52", "43/52")])
    @settings(max_examples=200, deadline=None)
    def test_pair_shaped_atoms_match_brute_force(self, gens):
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

    # criterion 1's first, seventh and 23rd accepted draws, each swept up to
    # the product of its extreme atoms' numerators under its 600,000 steps
    @pytest.mark.parametrize("gens, left", [
        (["5/4", "17/24", "1/6", "27/17"], 477077),
        (["9/19", "5/3", "6/7", "25/28"], 265377),
        (["4", "5", "7/6", "23/8", "11/30"], 300192),
    ])
    def test_criterion_one_steps_pinned(self, gens, left):
        tm = from_generators([Fraction(g) for g in gens])
        budget = WorkBudget(600_000)
        sweep(tm, tm.min_atom.numerator * tm.max_atom.numerator, budget)
        assert budget.left == left

    # lengths other than 1, as the integer tables of the primary scans
    # use, and coins of equal value, as atoms of equal numerator give
    @given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 7)),
                    min_size=1, max_size=4),
           st.integers(0, 30))
    @settings(max_examples=150, deadline=None)
    def test_weighted_coins_against_brute_table(self, coins, limit):
        coins = sorted(coins, reverse=True)
        expected = brute_coin_table(coins, limit)
        combinations = sum(n for _lo, _hi, n in expected.values())
        budget = WorkBudget(10 ** 6)
        table = _coin_table(coins, limit, budget)
        assert table == expected and list(table) == sorted(expected)
        assert budget.left == 10 ** 6 - combinations
        with pytest.raises(ResourceCapError):
            _coin_table(coins, limit, WorkBudget(combinations - 1))


class TestTruncate:
    def test_catalog_atom_values(self):
        tm = truncate(catalog("primarydense", 5), 5)
        assert set(tm.atoms) == {Fraction(1, 2), Fraction(2, 3), Fraction(3, 5),
                                 Fraction(4, 7), Fraction(5, 11)}
        assert list(tm.atoms) == sorted(tm.atoms)

    def test_stable_atoms_recorded(self):
        tm = truncate(catalog("primarystable", 14), 14)
        # the family 30/p_n, n >= 13, is the stable one
        assert tm.stable == tuple(a.numerator == 30 for a in tm.atoms)
        assert sum(tm.stable) == 14 and tm.stable[tm.atoms.index(Fraction(30, 41))]
        assert truncate(catalog("primarydense", 5), 5).stable == (False,) * 5
        assert from_generators(tm.atoms).stable is None

    def test_atom_of_a_stable_and_an_explicit_family_is_stable(self):
        # 1/2 is both an explicit generator and the first prime
        # reciprocal, so it is stable; the explicit 2/3 = 1/3 + 1/3 is
        # no atom
        spec = parse_spec("""
        {"schema": 1,
         "families": [{"kind": "explicit", "generators": ["1/2", "2/3"]},
                      {"kind": "symbolic", "numerator": "1", "prime_filter": "all"}]}
        """)
        tm = truncate(spec, 3)
        assert tm.atoms == (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2))
        assert tm.stable == (True, True, True)

    def test_depth_validation(self):
        spec = catalog("primarydense", 5)
        with pytest.raises(DomainError):
            truncate(spec, 0)
        with pytest.raises(DomainError,
                           match="depth must be a positive integer, got True"):
            truncate(spec, True)

    @pytest.mark.parametrize("depth", [3, 8, 60, 400])
    def test_cross_family_reduction(self, depth):
        # the numerator-n-plus-one family member 2/p_1 collapses onto
        # 2 * (1/p_1), so depth d leaves 2d - 1 atoms, not 2d (five at
        # depth 3); d of the 2d generators are left to the search
        tm = truncate(catalog("unstablenotbf", depth), depth)
        assert len(tm.atoms) == 2 * depth - 1
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
