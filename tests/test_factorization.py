from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_atoms, brute_elements, brute_factorizations,
                     brute_lengths)
from puiseux.constructions import catalog
from puiseux.errors import DomainError, NotAMemberError, ResourceCapError
from puiseux.factorization import (Factorization, FactorizationCounts,
                                   default_cap, element_elasticity,
                                   factorizations,
                                   length_extremes_up_to, length_set,
                                   valuation_coefficient_check)
from puiseux.monoid import WorkBudget, from_generators, truncate

small_gens = st.lists(
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
    min_size=1, max_size=3, unique=True)


def _mult_tuple(z: Factorization, atoms) -> tuple[int, ...]:
    terms = dict(z.terms)
    return tuple(terms.get(a, 0) for a in atoms)


class TestFactorizations:
    def test_two_atom_example(self):
        tm = from_generators([Fraction(1, 2), Fraction(1, 3)])
        zs = factorizations(tm, Fraction(2))
        assert [z.render() for z in zs] == [
            "3 x 1/3 + 2 x 1/2", "4 x 1/2", "6 x 1/3"]
        assert all(z.value == 2 for z in zs)

    def test_zero_has_exactly_the_empty_factorization(self):
        tm = from_generators([Fraction(1, 2)])
        zs = factorizations(tm, Fraction(0))
        assert zs == (Factorization(terms=()),)
        assert zs[0].length == 0 and zs[0].render() == "0"

    def test_non_member(self):
        tm = from_generators([Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(NotAMemberError):
            factorizations(tm, Fraction(1, 5))
        with pytest.raises(NotAMemberError):
            factorizations(tm, Fraction(1, 6))

    def test_negative_rejected(self):
        tm = from_generators([Fraction(1, 2)])
        with pytest.raises(DomainError):
            factorizations(tm, Fraction(-1))

    def test_cap_raises_instead_of_truncating(self):
        tm = truncate(catalog("factorial", 6), 6)
        with pytest.raises(ResourceCapError):
            factorizations(tm, Fraction(1), cap=5)
        assert len(factorizations(tm, Fraction(1), cap=6)) == 6

    def test_default_cap_env(self, monkeypatch):
        monkeypatch.setenv("PUISEUX_CAP", "17")
        assert default_cap() == 17
        monkeypatch.setenv("PUISEUX_CAP", "zero")
        with pytest.raises(DomainError):
            default_cap()
        monkeypatch.setenv("PUISEUX_CAP", "0")
        with pytest.raises(DomainError):
            default_cap()
        monkeypatch.delenv("PUISEUX_CAP")
        assert default_cap() == 1_000_000

    @given(small_gens, st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_against_brute_force(self, gens, idx):
        atoms = brute_atoms(gens)
        members = brute_elements(gens, Fraction(3))
        x = members[idx % len(members)]
        tm = from_generators(gens)
        if x == 0:
            assert factorizations(tm, x) == (Factorization(terms=()),)
            return
        zs = factorizations(tm, x)
        assert sorted(_mult_tuple(z, atoms) for z in zs) == \
            brute_factorizations(atoms, x)

    @given(small_gens, st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_terms_are_canonical(self, gens, idx):
        members = brute_elements(gens, Fraction(3))
        x = members[idx % len(members)]
        tm = from_generators(gens)
        if x == 0:
            return
        for z in factorizations(tm, x):
            assert z.value == x
            assert all(m >= 1 for (_a, m) in z.terms)
            assert [a for (a, _m) in z.terms] == sorted(a for (a, _m) in z.terms)


# denominators up to 12 give the multiplicity steps of the count kernel
# more to do than small_gens does
count_gens = st.lists(
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)),
    min_size=1, max_size=4, unique=True)


@st.composite
def shared_denominator_gens(draw):
    """One or two pairs k/p and (p - k)/p over odd primes p <= 11, the
    shape of bfnotff, and up to two more generators."""
    gens = set()
    for p in draw(st.lists(st.sampled_from((3, 5, 7, 11)), min_size=1,
                           max_size=2, unique=True)):
        k = draw(st.integers(1, p - 1))
        gens |= {Fraction(k, p), Fraction(p - k, p)}
    gens |= set(draw(st.lists(st.builds(Fraction, st.integers(1, 12),
                                        st.integers(1, 12)), max_size=2)))
    return sorted(gens)


def _check_counts_against_brute_force(gens, idx):
    """Count, mask, length set and listed factorizations of one member
    below 2 against the oracle; the cap message one below the count."""
    atoms = brute_atoms(gens)
    members = brute_elements(gens, Fraction(2))
    x = members[idx % len(members)]
    tm = from_generators(gens)
    zs = brute_factorizations(atoms, x)
    count, mask = FactorizationCounts(tm).count(x)
    assert count == len(zs)
    assert [l for l in range(mask.bit_length()) if mask >> l & 1] == \
        brute_lengths(atoms, x)
    assert list(length_set(tm, x)) == brute_lengths(atoms, x)
    listed = factorizations(tm, x, cap=count)
    assert sorted(_mult_tuple(z, atoms) for z in listed) == zs
    # the levels are not in atom order, so this checks the terms' sort
    for z in listed:
        assert [a for (a, _m) in z.terms] == sorted(a for (a, _m) in z.terms)
    if count > 1:
        message = (f"more than {count - 1} factorizations of {x}; "
                   "raise the cap to enumerate")
        with pytest.raises(ResourceCapError, match=message):
            FactorizationCounts(tm, count - 1).count(x)
        with pytest.raises(ResourceCapError, match=message):
            factorizations(tm, x, cap=count - 1)


class TestFactorizationCounts:
    @given(count_gens, st.integers(0, 60))
    @settings(max_examples=120, deadline=None)
    def test_against_brute_force(self, gens, idx):
        _check_counts_against_brute_force(gens, idx)

    @given(shared_denominator_gens(), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_shared_denominators_against_brute_force(self, gens, idx):
        _check_counts_against_brute_force(gens, idx)

    @given(count_gens, st.builds(Fraction, st.integers(1, 24), st.integers(1, 12)))
    @settings(max_examples=60, deadline=None)
    def test_non_members(self, gens, x):
        if x in brute_elements(gens, x):
            return
        tm = from_generators(gens)
        with pytest.raises(NotAMemberError, match="is not in the monoid"):
            FactorizationCounts(tm, 1).count(x)
        with pytest.raises(NotAMemberError, match="is not in the monoid"):
            length_set(tm, x, cap=1)

    def test_memo_serves_several_targets(self):
        tm = truncate(catalog("bfnotff", 8), 8)
        shared = FactorizationCounts(tm)
        for x in (Fraction(3), Fraction(10, 3), Fraction(2)):
            assert shared.count(x) == FactorizationCounts(tm).count(x)

    @pytest.mark.parametrize("name,depth,x,count,lengths,steps", [
        ("bfnotff", 8, Fraction(3), 130, (5, 6, 7, 8, 9), 82),
        ("bfnotff", 8, Fraction(10, 3), 130, (6, 7, 8, 9, 10), 82),
        ("primarystable", 8, Fraction(3), 3, (5, 6), 20),
        ("factorial", 6, Fraction(1), 6, (2, 3, 5, 7, 11, 13), 5),
    ])
    def test_budget_steps_pinned(self, name, depth, x, count, lengths, steps):
        # one step per memo miss; a change to the step count shows here
        tm = truncate(catalog(name, depth), depth)
        budget = WorkBudget(steps)
        n, mask = FactorizationCounts(tm).count(x, budget)
        assert budget.left == 0
        assert n == count and length_set(tm, x) == lengths
        assert mask.bit_length() - 1 == lengths[-1]
        with pytest.raises(ResourceCapError,
                           match=f"work budget of {steps - 1} steps"):
            FactorizationCounts(tm).count(x, WorkBudget(steps - 1))


class TestLengthSet:
    def test_example(self):
        tm = from_generators([Fraction(1, 2), Fraction(1, 3)])
        assert length_set(tm, Fraction(2)) == (4, 5, 6)

    def test_zero(self):
        tm = from_generators([Fraction(1, 2)])
        assert length_set(tm, Fraction(0)) == (0,)

    @given(small_gens, st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_against_brute_force(self, gens, idx):
        members = brute_elements(gens, Fraction(3))
        x = members[idx % len(members)]
        if x == 0:
            return
        tm = from_generators(gens)
        assert list(length_set(tm, x)) == brute_lengths(brute_atoms(gens), x)


class TestElementElasticity:
    def test_bfplot_element_four(self):
        tm = truncate(catalog("bfplot", 3), 3)
        zs = factorizations(tm, Fraction(4))
        assert {z.length for z in zs} == {3, 8}
        assert element_elasticity(tm, Fraction(4)) == Fraction(8, 3)

    def test_single_atom_monoid_is_rigid(self):
        tm = from_generators([Fraction(1, 2)])
        assert element_elasticity(tm, Fraction(3, 2)) == 1

    def test_undefined_at_zero(self):
        tm = from_generators([Fraction(1, 2)])
        with pytest.raises(DomainError):
            element_elasticity(tm, Fraction(0))


class TestLengthExtremes:
    @given(small_gens)
    @settings(max_examples=40, deadline=None)
    def test_against_per_element_brute_force(self, gens):
        tm = from_generators(gens)
        bound = Fraction(2)
        extremes = length_extremes_up_to(tm, bound)
        members = brute_elements(gens, bound)
        assert sorted(extremes) == members
        atoms = brute_atoms(gens)
        for x in members:
            ls = brute_lengths(atoms, x)
            assert extremes[x] == (ls[0], ls[-1])

    def test_budget(self):
        tm = from_generators([Fraction(1, 30), Fraction(1, 29)])
        from puiseux.monoid import WorkBudget
        with pytest.raises(ResourceCapError):
            length_extremes_up_to(tm, Fraction(30), budget=WorkBudget(50))


class TestValuationCheck:
    def test_integer_elements_pass(self):
        tm = truncate(catalog("primarydense", 5), 5)
        for z in factorizations(tm, Fraction(3)):
            report = valuation_coefficient_check(tm, Fraction(3), z)
            assert report.applicable and report.passed
            for atom, mult, p, ok in report.entries:
                assert atom.denominator == p and mult % p == 0 and ok

    def test_non_integer_inapplicable(self):
        tm = truncate(catalog("primarydense", 5), 5)
        z = factorizations(tm, Fraction(1, 2))[0]
        report = valuation_coefficient_check(tm, Fraction(1, 2), z)
        assert not report.applicable and report.passed is None
        assert "integer" in report.reason

    def test_non_primary_inapplicable(self):
        tm = from_generators([Fraction(1, 4), Fraction(3, 4)])
        z = factorizations(tm, Fraction(1))[0]
        report = valuation_coefficient_check(tm, Fraction(1), z)
        assert not report.applicable and "primary" in report.reason

    def test_mismatched_factorization_rejected(self):
        tm = truncate(catalog("primarydense", 5), 5)
        z = factorizations(tm, Fraction(1))[0]
        with pytest.raises(DomainError):
            valuation_coefficient_check(tm, Fraction(2), z)
