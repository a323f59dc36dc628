import contextlib
import dataclasses
import io
import json
import math
import os
import re
from fractions import Fraction
from itertools import count
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puiseux import cli, invariants, monoid
from puiseux.constructions import catalog
from puiseux.errors import (DomainError, InsufficientMetadataError,
                            NotAMemberError, ResourceCapError)
from puiseux.factorization import DEFAULT_CAP, factorizations, length_set
from puiseux.invariants import (bf_ff_status, decompose_stable_unstable,
                                density_witness, elasticity_set,
                                elasticity_witnesses, is_accepted,
                                monoid_elasticity, plot_points,
                                predicted_elasticities, shifted_lengths,
                                StatusReport, _moduli, _private_moduli,
                                _residue_table, _spec_is_primary, _stable_parts)
from puiseux.monoid import (TruncatedMonoid, WorkBudget, contains,
                            from_generators, sweep, truncate)
from puiseux.rationals import INFINITY, format_rational
from puiseux.specfile import parse_spec

from oracles import brute_density_search, brute_elements, brute_factorizations

small_gens = st.lists(
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
    min_size=1, max_size=3, unique=True)

BARE_SYMBOLIC = '{"schema": 1, "families": [{"kind": "symbolic", "numerator": "n"}]}'


class TestMonoidElasticity:
    def test_truncated_exact(self):
        tm = from_generators([Fraction(1, 2), Fraction(1, 3)])
        report = monoid_elasticity(tm=tm, mode="truncated")
        assert report.value == Fraction(3, 2)
        assert report.mode == "truncated-exact" and report.accepted is True

    def test_symbolic_zero_limit_point_is_infinite(self):
        report = monoid_elasticity(spec=catalog("primarydense", 5),
                                   mode="symbolic")
        assert report.value is INFINITY and report.accepted is None
        assert report.metadata_used == ("zero_limit_point",)

    def test_symbolic_ratio_of_declared_bounds(self):
        report = monoid_elasticity(spec=catalog("bfplot", 5), mode="symbolic")
        assert report.value == Fraction(8, 3) and report.accepted is True
        assert "atom_sup" in report.metadata_used

    def test_symbolic_unbounded_atoms(self):
        spec = parse_spec("""
        {"schema": 1, "families": [{"kind": "symbolic", "numerator": "p+1"}],
         "metadata": {"zero_limit_point": false, "atom_inf": "1",
                      "inf_attained": false, "atom_sup": "inf"}}
        """)
        report = monoid_elasticity(spec=spec, mode="symbolic")
        assert report.value is INFINITY and report.accepted is None

    def test_symbolic_needs_metadata(self):
        with pytest.raises(InsufficientMetadataError):
            monoid_elasticity(spec=parse_spec(BARE_SYMBOLIC), mode="symbolic")

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            monoid_elasticity(mode="truncated")
        with pytest.raises(DomainError):
            monoid_elasticity(mode="symbolic")
        with pytest.raises(DomainError):
            monoid_elasticity(tm=from_generators([Fraction(1, 2)]), mode="wat")


class TestIsAccepted:
    def test_explicit_is_always_accepted(self):
        spec = parse_spec('{"schema": 1, "families": '
                          '[{"kind": "explicit", "generators": ["1/2", "5/7"]}]}')
        assert is_accepted(spec) is True

    def test_declared_attained_bounds(self):
        assert is_accepted(catalog("bfplot", 5)) is True

    def test_unattained_inf_rejects(self):
        spec = parse_spec("""
        {"schema": 1,
         "families": [{"kind": "symbolic", "numerator": "p+1", "index_start": 2}],
         "metadata": {"zero_limit_point": false, "atom_inf": "1",
                      "inf_attained": false, "atom_sup": "3/2",
                      "sup_attained": true}}
        """)
        assert is_accepted(spec) is False

    def test_unknown_cases(self):
        assert is_accepted(parse_spec(BARE_SYMBOLIC)) is None
        assert is_accepted(catalog("factorial", 5)) is None  # infinite elasticity


def _fraction_lcm(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.lcm(a.numerator, b.numerator),
                    math.gcd(a.denominator, b.denominator))


class TestElasticityWitnesses:
    def test_bfplot(self):
        tm = truncate(catalog("bfplot", 3), 3)
        assert elasticity_witnesses(tm, Fraction(13)) == [4, 8, 12]

    def test_two_atoms(self):
        tm = from_generators([Fraction(1, 2), Fraction(1, 3)])
        assert elasticity_witnesses(tm, Fraction(2)) == [1, 2]

    def test_single_atom_every_element_attains(self):
        tm = from_generators([Fraction(1, 2)])
        assert elasticity_witnesses(tm, Fraction(2)) == [
            Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]

    @given(st.lists(st.builds(Fraction, st.integers(1, 6), st.integers(1, 6)),
                    min_size=1, max_size=2, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_exactly_the_common_multiples(self, gens):
        # both directions: witnesses are the common integer multiples of
        # the smallest and largest atom, and all of them up to the bound
        tm = from_generators(gens)
        step = _fraction_lcm(tm.min_atom, tm.max_atom)
        bound = 3 * step
        expected = [step, 2 * step, 3 * step]
        assert elasticity_witnesses(tm, bound) == expected


class TestElasticitySet:
    def test_two_atoms(self):
        tm = from_generators([Fraction(1, 2), Fraction(1, 3)])
        assert elasticity_set(tm, Fraction(2)) == [
            Fraction(1), Fraction(5, 4), Fraction(4, 3), Fraction(3, 2)]

    def test_single_atom(self):
        tm = from_generators([Fraction(1, 2)])
        assert elasticity_set(tm, Fraction(5)) == [Fraction(1)]

    @given(small_gens)
    @settings(max_examples=40, deadline=None)
    def test_contained_in_unit_to_rho(self, gens):
        tm = from_generators(gens)
        rho = tm.max_atom / tm.min_atom
        values = elasticity_set(tm, Fraction(3))
        assert all(1 <= r <= rho for r in values)


PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@st.composite
def primary_atoms(draw, max_size=6, max_numerator=40, primes=PRIMES_TO_31):
    """1 to max_size atoms n/p over distinct primes p with p not
    dividing n <= max_numerator; with distinct primes each is an atom."""
    primes = draw(st.lists(st.sampled_from(primes), min_size=1,
                           max_size=max_size, unique=True))
    return [Fraction(draw(st.integers(1, max_numerator).filter(lambda n, p=p: n % p)), p)
            for p in primes]


@st.composite
def pairwise_coprime_atoms(draw, max_size=5, max_value=30):
    """1 to max_size fractions n/d, 2 <= d <= max_value, over pairwise
    coprime denominators, each n <= max_value prime to its d."""
    dens = []
    for d in draw(st.lists(st.integers(2, max_value), min_size=1, max_size=max_size)):
        if all(math.gcd(d, e) == 1 for e in dens):
            dens.append(d)
    return [Fraction(draw(st.integers(1, max_value).filter(lambda n, d=d: math.gcd(n, d) == 1)), d)
            for d in dens]


# denominators that share factors: 1 to 5 generators n/d, n and d in 1..30
any_gens = st.lists(st.builds(Fraction, st.integers(1, 30), st.integers(1, 30)),
                    min_size=1, max_size=5)

# r = (5, 1, 1, 2) and D' = 30: 19/30 and 11/15 give no residue item,
# and 5/4 past them still does
NO_ITEM_ATOMS = [Fraction(14, 25), Fraction(19, 30), Fraction(11, 15), Fraction(5, 4)]


def swept_set(tm, bound):
    """elasticity_set read off the sweep: the reference for the residue
    path."""
    pairs = {(lo, hi) for lo, hi, _n in sweep(tm, bound).values() if lo}
    return sorted({Fraction(hi, lo) for lo, hi in pairs})


def swept_witnesses(tm, bound):
    rho = tm.max_atom / tm.min_atom
    return [tm.unscale(v) for v, (lo, hi, _n) in sweep(tm, bound).items()
            if lo and hi * rho.denominator == lo * rho.numerator]


def outcome(scan, tm, bound):
    """scan's answer, or the class and text of the error it raised."""
    try:
        return scan(tm, bound)
    except (DomainError, ResourceCapError) as exc:
        return type(exc), str(exc)


# the monoid 1/2, 1/3 swept up to B has U = 3*(B + 5/6)^2, which is
# this budget exactly at B = 355/6; the sweep then takes 10,680 steps
HALF_THIRD = [Fraction(1, 2), Fraction(1, 3)]
AT_VOLUME_BOUND = Fraction(355, 6)
VOLUME_BUDGET = 10_800


class TestPrimaryScans:
    """elasticity_set from the residue table, and elasticity_witnesses
    in closed form, against the sweep."""

    @given(st.one_of(primary_atoms(), pairwise_coprime_atoms(), any_gens),
           st.builds(Fraction, st.integers(0, 40), st.integers(1, 4)))
    @example([Fraction(3, 7)], Fraction(5))  # a single atom
    @example([Fraction(1, 2), Fraction(2, 3)], Fraction(1, 3))  # below the atoms
    @example(HALF_THIRD, AT_VOLUME_BOUND + Fraction(1, 600))  # U just over
    @example(NO_ITEM_ATOMS, Fraction(12))  # in budget; a walk stopping at r_i = 1 loses one
    @example(NO_ITEM_ATOMS, Fraction(25))  # past it: both sweep
    @example([Fraction(5, 6), Fraction(7, 10), Fraction(11, 15)], Fraction(3))  # r = 1
    @settings(max_examples=200, deadline=None)
    def test_same_answer_as_the_sweep(self, atoms, bound):
        # a small default budget keeps the sweeps short; the path
        # taken may then raise, and both paths must raise alike
        tm = from_generators(atoms)
        with patch.object(monoid, "_DEFAULT_BUDGET", VOLUME_BUDGET):
            assert outcome(elasticity_set, tm, bound) == outcome(swept_set, tm, bound)
            assert (outcome(elasticity_witnesses, tm, bound)
                    == outcome(swept_witnesses, tm, bound))

    @given(primary_atoms(max_size=3, max_numerator=4, primes=(2, 3, 5)),
           st.builds(Fraction, st.integers(0, 4), st.integers(1, 2)))
    @settings(max_examples=40, deadline=None)
    def test_tiny_sets_against_brute_factorizations(self, atoms, bound):
        tm = from_generators(atoms)
        ratios = {}
        for x in brute_elements(tm.atoms, bound)[1:]:
            lengths = [sum(z) for z in brute_factorizations(tm.atoms, x)]
            ratios[x] = Fraction(max(lengths), min(lengths))
        assert elasticity_set(tm, bound) == sorted(set(ratios.values()))
        rho = tm.max_atom / tm.min_atom
        assert elasticity_witnesses(tm, bound) == [x for x, r in ratios.items()
                                                   if r == rho]

    def test_an_atom_without_items_is_skipped(self):
        # the greedy count walks on past 19/30 and 11/15 to 5/4; stopping
        # at them loses 9 of the 158 elasticities
        tm = from_generators(NO_ITEM_ATOMS)
        assert _moduli(tm, Fraction(25)) == ([5, 1, 1, 2], 30)
        values = elasticity_set(tm, 25)
        assert values == swept_set(tm, 25) and len(values) == 158
        assert elasticity_witnesses(tm, 25) == swept_witnesses(tm, 25)

    @given(st.lists(st.integers(1, 10**12), max_size=8))
    @example([12, 18, 5])  # r = [2, 3, 5]: 12 keeps its 4, 18 its 9
    def test_private_moduli(self, values):
        assert _private_moduli(values) == [
            d // math.gcd(d, math.lcm(*values[:i], *values[i + 1:]))
            for i, d in enumerate(values)]

    def test_which_inputs_take_the_residue_table(self):
        # (r, D'), the atoms ascending: 1/3 has r = 3, 1/2 has r = 2; past
        # the volume bound, and with one atom, the sweep's (1, ..., 1) and D
        tm = from_generators(HALF_THIRD)
        with patch.object(monoid, "_DEFAULT_BUDGET", VOLUME_BUDGET):
            assert _moduli(tm, AT_VOLUME_BOUND) == ([3, 2], 1)
            assert _moduli(tm, AT_VOLUME_BOUND + Fraction(1, 600)) == ([1, 1], 6)
            with pytest.raises(DomainError, match="^bound must be nonnegative$"):
                _moduli(tm, Fraction(-1))
        assert _moduli(from_generators([Fraction(3, 7)]), Fraction(5)) == ([1], 7)
        one_atom = from_generators([Fraction(1, 2), Fraction(1, 4)])
        assert _moduli(one_atom, Fraction(1)) == ([1], 4)
        every_r_is_1 = from_generators([Fraction(5, 6), Fraction(7, 10), Fraction(11, 15)])
        assert _moduli(every_r_is_1, Fraction(3)) == ([1, 1, 1], 30)
        assert _residue_table(tm, Fraction(1, 4), [3, 2], 1) == {0: (0, 0, 1)}
        assert _moduli(tm, Fraction(1)) == ([3, 2], 1)
        assert _residue_table(tm, Fraction(1), [3, 2], 1) == {
            0: (0, 0, 1), 1: (2, 3, 2)}
        assert not plot_sweeps(tm, Fraction(1))
        shared = from_generators(NO_ITEM_ATOMS)
        assert _moduli(shared, Fraction(3)) == ([5, 1, 1, 2], 30)
        assert plot_sweeps(shared, Fraction(3))

    @pytest.mark.parametrize("name, depth, bound", [("primarydense", 8, 4),
                                                    ("bfplot", 6, 10)])
    def test_witnesses_build_no_table(self, monkeypatch, tmp_path, capsys,
                                      name, depth, bound):
        # within the volume bound the witnesses are the common multiples
        # of the extreme atoms, read off no table
        spec = str(tmp_path / f"{name}.json")
        assert cli.main(["catalog", "--name", name, "--depth", str(depth),
                         "--out", spec]) == 0
        argv = ["witnesses", "--spec", spec, "--depth", str(depth), "--bound", str(bound)]
        capsys.readouterr()
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out

        def no_table(*_args, **_kwargs):
            raise AssertionError("elasticity_witnesses built a table")
        monkeypatch.setattr(invariants, "_coin_table", no_table)
        monkeypatch.setattr(invariants, "sweep", no_table)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected


def plot_sweeps(tm, bound):
    """Whether plot_points without every reads the sweep, that is,
    whether tm and bound lie outside the scope of the plot lemmas."""
    calls = []

    def counted(*args):
        calls.append(args)
        return sweep(*args)
    with patch.object(invariants, "sweep", counted):
        plot_points(tm, bound, lambda: DEFAULT_CAP)
    return bool(calls)


def swept_plot(tm, bound, cap, decimal):
    """plot's stdout lines and exit code read off the sweep: the
    reference for the rows of the residue table."""
    rows = ["element,elasticity,marker" + (",approx" if decimal else "")]
    try:
        table = sweep(tm, bound)
    except ResourceCapError:
        return rows + ["capped,,element enumeration exhausted the work budget"], 1
    D = tm.denom_lcm
    for v, (lo, hi, count) in table.items():
        if not v:
            continue
        if count > cap:
            return rows + [f"capped,{format_rational(tm.unscale(v))},"
                           "factorization cap exceeded"], 1
        if lo == hi:
            continue
        if v % D == 0:
            marker = "integer-element"
        elif any(v > s and (v - s) % D == 0 and v - s in table for s in tm.scaled_gens):
            marker = "shifted-element"
        else:
            marker = "other"
        rho = Fraction(hi, lo)
        rows.append(f"{format_rational(tm.unscale(v))},{format_rational(rho)},{marker}"
                    + (f",{float(rho)!r}" if decimal else ""))
    return rows, 0


@pytest.fixture(scope="module")
def plot_spec(tmp_path_factory):
    return tmp_path_factory.mktemp("plot") / "spec.json"


class TestPlotRows:
    """plot's rows from the residue table (primary and pairwise coprime
    truncations) against rows built from the sweep."""

    @given(st.one_of(primary_atoms(max_size=4, max_numerator=12, primes=PRIMES_TO_31[:6]),
                     pairwise_coprime_atoms(max_size=4, max_value=12), any_gens),
           st.builds(Fraction, st.integers(0, 24), st.integers(1, 4)),
           st.one_of(st.none(), st.integers(1, 5)), st.booleans())
    @example(HALF_THIRD, Fraction(4), 2, False)
    @example([Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)], Fraction(5), None, True)
    @example(NO_ITEM_ATOMS, Fraction(3), None, False)  # D' = 30
    @example([Fraction(1, 4), Fraction(1, 6)], Fraction(3), None, False)  # D' = 2, r = (3, 2)
    @example([Fraction(3, 7)], Fraction(5), 2, False)  # a single atom
    @example([Fraction(2, 5), Fraction(3)], Fraction(6), None, False)  # an integer atom
    @settings(max_examples=150, deadline=None)
    def test_same_rows_as_the_sweep(self, plot_spec, atoms, bound, cap, decimal):
        plot_spec.write_text(json.dumps({"schema": 1, "families": [
            {"kind": "explicit", "generators": [format_rational(a) for a in atoms]}]}),
            encoding="utf-8")
        argv = (["plot", "--spec", str(plot_spec), "--bound", format_rational(bound)]
                + (["--cap", str(cap)] if cap else []) + (["--decimal"] if decimal else []))
        out = io.StringIO()
        with patch.object(monoid, "_DEFAULT_BUDGET", VOLUME_BUDGET), \
                patch.dict("os.environ"), contextlib.redirect_stdout(out):
            os.environ.pop("PUISEUX_CAP", None)
            code = cli.main(argv)
            expected = swept_plot(from_generators(atoms), bound, cap or DEFAULT_CAP,
                                  decimal)
        assert (out.getvalue().splitlines(), code) == expected


class TestScanBudgetParity:
    """Under a small default budget the residue table answers exactly
    when the volume bound admits the input; otherwise the sweep answers
    or raises, as before."""

    def _both(self, bound):
        tm = from_generators(HALF_THIRD)
        for scan, swept in ((elasticity_set, swept_set),
                            (elasticity_witnesses, swept_witnesses)):
            assert outcome(scan, tm, bound) == outcome(swept, tm, bound)
        return outcome(elasticity_witnesses, tm, bound)

    def test_guard_declines_and_the_sweep_raises(self, monkeypatch):
        monkeypatch.setattr(monoid, "_DEFAULT_BUDGET", 100)
        assert self._both(AT_VOLUME_BOUND) == (
            ResourceCapError, "enumeration exceeded its work budget of 100 steps")

    def test_guard_declines_and_the_sweep_answers(self, monkeypatch):
        monkeypatch.setattr(monoid, "_DEFAULT_BUDGET", VOLUME_BUDGET)
        bound = AT_VOLUME_BOUND + Fraction(1, 600)
        assert _moduli(from_generators(HALF_THIRD), bound) == ([1, 1], 6)
        assert self._both(bound) == list(range(1, 60))

    def test_guard_accepts(self, monkeypatch):
        monkeypatch.setattr(monoid, "_DEFAULT_BUDGET", VOLUME_BUDGET)
        assert _moduli(from_generators(HALF_THIRD), AT_VOLUME_BOUND) == ([3, 2], 1)
        assert self._both(AT_VOLUME_BOUND) == list(range(1, 60))

    def test_negative_bound_keeps_its_error(self, capsys):
        # the library raises the sweep's DomainError; the CLI rejects a
        # negative --bound before anything is swept
        assert self._both(Fraction(-1)) == (DomainError, "bound must be nonnegative")
        with pytest.raises(SystemExit) as exc:
            cli.main(["rset", "--spec", "x.json", "--bound", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "argument --bound: malformed rational literal '-1'\n")


class TestDecompose:
    def test_mixed_element(self):
        tm = truncate(catalog("primarystable", 15), 15)
        d = decompose_stable_unstable(tm, Fraction(1, 2) + Fraction(30, 41))
        assert (d.stable_part, d.unstable_part) == (Fraction(30, 41),
                                                    Fraction(1, 2))
        assert d.unique and d.stable_uniquely_factorable

    def test_pure_unstable(self):
        tm = truncate(catalog("primarystable", 15), 15)
        d = decompose_stable_unstable(tm, Fraction(1, 2))
        assert (d.stable_part, d.unstable_part) == (0, Fraction(1, 2))

    def test_pure_stable(self):
        tm = truncate(catalog("primarystable", 15), 15)
        x = Fraction(30, 41) + Fraction(30, 43)
        d = decompose_stable_unstable(tm, x)
        assert (d.stable_part, d.unstable_part) == (x, 0)
        assert d.unique

    def test_sum_identity_and_membership(self):
        tm = truncate(catalog("primarystable", 14), 14)
        for x in (Fraction(30, 41), Fraction(7, 6), Fraction(7, 6) + Fraction(30, 41)):
            d = decompose_stable_unstable(tm, x)
            assert d.stable_part + d.unstable_part == x
            assert contains(tm, d.stable_part)

    def test_requires_primary(self):
        tm = from_generators([Fraction(1, 4)])
        with pytest.raises(DomainError, match="primary"):
            decompose_stable_unstable(tm, Fraction(1, 4))

    def test_requires_membership(self):
        tm = truncate(catalog("primarystable", 14), 14)
        with pytest.raises(NotAMemberError):
            decompose_stable_unstable(tm, Fraction(1, 999))

    def test_requires_labels_or_origin(self):
        tm = from_generators([Fraction(1, 2), Fraction(2, 3)])
        with pytest.raises(DomainError, match="label"):
            decompose_stable_unstable(tm, Fraction(1, 2))
        d = decompose_stable_unstable(
            dataclasses.replace(tm, stable=(False, False)), Fraction(1, 2))
        assert (d.stable_part, d.unstable_part) == (0, Fraction(1, 2))


@st.composite
def labelled_primary_elements(draw):
    """1-4 atoms n/p over distinct primes p <= 7 with p not dividing n,
    ascending, a random mask of them marked stable, and an element that
    is a sum of at most p copies of each atom n/p."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=1,
                           max_size=4, unique=True))
    atoms = sorted(Fraction(draw(st.integers(1, p + 1).filter(lambda n, p=p: n % p)), p)
                   for p in primes)
    stable = tuple(draw(st.booleans()) for _ in atoms)
    x = sum((draw(st.integers(0, a.denominator)) * a for a in atoms), Fraction(0))
    return atoms, stable, x


class TestDecomposeAgainstBruteForce:
    @given(labelled_primary_elements(),
           st.fractions(0, 1, max_denominator=12))
    @example(([Fraction(1, 2), Fraction(2, 3)], (True, True), Fraction(0)),
             Fraction(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_factorizations(self, case, shift):
        # a nonzero shift mostly makes x a non-member
        atoms, stable, x = case
        x += shift
        tm = dataclasses.replace(from_generators(atoms), stable=stable)
        # the stable part of each factorization of x, atoms ascending
        parts = sorted({sum((m * a for m, a, st in zip(z, tm.atoms, stable)
                             if st), Fraction(0))
                        for z in brute_factorizations(tm.atoms, x)})
        if not parts:
            with pytest.raises(NotAMemberError, match="is not in the monoid"):
                decompose_stable_unstable(tm, x)
            return
        d = decompose_stable_unstable(tm, x)
        qualifying = [s for s in parts
                      if len(brute_factorizations(tm.atoms, s)) == 1]
        assert d.stable_part == (qualifying or parts)[0]
        assert d.unstable_part == x - d.stable_part
        assert d.unique == (len(qualifying) == 1)
        assert d.stable_uniquely_factorable == bool(qualifying)


def _split_coins(tm, stable):
    """The stable scaled coins and the gcd of the unstable ones (0 when
    there are none); stable is a mask parallel to tm.atoms."""
    coins = tuple(s for s, st in zip(tm.scaled_gens, stable) if st)
    return coins, math.gcd(*(s for s, st in zip(tm.scaled_gens, stable) if not st))


class TestStableParts:
    @given(labelled_primary_elements())
    @example(([Fraction(1, 2), Fraction(2, 3)], (False, False), Fraction(5, 3)))
    @example(([Fraction(1, 2), Fraction(2, 3)], (True, True), Fraction(5, 3)))
    @settings(max_examples=80, deadline=None)
    def test_match_the_filtered_sweep(self, case):
        atoms, stable, x = case
        tm = from_generators(atoms)
        coins, g = _split_coins(tm, stable)
        F = tm.scale(x)
        sm = TruncatedMonoid(
            atoms=tuple(a for a, st in zip(tm.atoms, stable) if st),
            denom_lcm=tm.denom_lcm, scaled_gens=coins)
        expected = [S for S in sweep(sm, x)
                    if ((F - S) % g == 0 if g else S == F)]
        assert _stable_parts(coins, g, F, WorkBudget(10**6)) == expected

    def test_tiny_budget_raises(self):
        tm = truncate(catalog("primarystable", 8), 8)
        coins, g = _split_coins(tm, tm.stable)
        assert coins and g
        with pytest.raises(ResourceCapError, match="work budget of 2 steps"):
            _stable_parts(coins, g, tm.scale(Fraction(3)), WorkBudget(2))

    def test_all_stable_answers_without_a_sweep(self, monkeypatch, tmp_path, capsys):
        # this sweep of every stable part up to 2 ran 14 s and 1.6 GiB,
        # then stopped on the work budget
        def no_sweep(*_args, **_kwargs):
            raise AssertionError("decompose swept the stable submonoid")
        monkeypatch.setattr("puiseux.invariants.sweep", no_sweep)
        monkeypatch.setattr("puiseux.monoid.sweep", no_sweep)
        spec = str(tmp_path / "factorial.json")
        assert cli.main(["catalog", "--name", "factorial", "--depth", "14",
                         "--out", spec]) == 0
        capsys.readouterr()
        code = cli.main(["decompose", "--spec", spec, "--depth", "14",
                         "--element", "2"])
        assert code == 0
        assert capsys.readouterr().out == "stable: 2\nunstable: 0\nunique: false\n"


class TestShiftedLengths:
    def test_shift_by_fresh_atom(self):
        tm = truncate(catalog("primarydense", 5), 5)
        rep = shifted_lengths(tm, Fraction(1, 2), Fraction(2, 3))
        assert rep.applicable and rep.ok
        assert rep.base_lengths == (1,) and rep.shifted == (2,)

    def test_shift_from_zero(self):
        tm = truncate(catalog("primarydense", 5), 5)
        rep = shifted_lengths(tm, Fraction(0), Fraction(3, 5))
        assert rep.applicable and rep.ok
        assert rep.base_lengths == (0,) and rep.shifted == (1,)

    def test_shift_integer_element(self):
        tm = truncate(catalog("primarydense", 5), 5)
        rep = shifted_lengths(tm, Fraction(1), Fraction(3, 5))
        assert rep.applicable and rep.ok
        assert rep.base_lengths == (2,) and rep.shifted == (3,)

    def test_inapplicable_non_atom(self):
        tm = truncate(catalog("primarydense", 5), 5)
        rep = shifted_lengths(tm, Fraction(1), Fraction(7, 13))
        assert not rep.applicable and "atom" in rep.reason

    def test_inapplicable_prime_in_element_denominator(self):
        tm = truncate(catalog("primarydense", 5), 5)
        rep = shifted_lengths(tm, Fraction(1, 2), Fraction(1, 2))
        assert not rep.applicable and "divides" in rep.reason

    def test_inapplicable_shared_prime(self):
        tm = from_generators([Fraction(1, 2), Fraction(3, 4)])
        rep = shifted_lengths(tm, Fraction(3, 4), Fraction(1, 2))
        assert not rep.applicable

    def test_inapplicable_composite_denominator(self):
        tm = from_generators([Fraction(1, 4), Fraction(1, 3)])
        rep = shifted_lengths(tm, Fraction(1, 3), Fraction(1, 4))
        assert not rep.applicable and "prime" in rep.reason

    def test_inapplicable_non_member(self):
        tm = truncate(catalog("primarydense", 5), 5)
        rep = shifted_lengths(tm, Fraction(1, 7), Fraction(2, 3))
        assert not rep.applicable and "not in the monoid" in rep.reason

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_law_on_random_elements(self, c1, c2, c3):
        tm = truncate(catalog("primarydense", 4), 4)
        base = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)]
        x = c1 * base[0] + c2 * base[1] + c3 * base[2]
        a = Fraction(4, 7)
        rep = shifted_lengths(tm, x, a)
        assert rep.applicable and rep.ok
        assert rep.shifted == tuple(l + 1 for l in rep.base_lengths)


class TestPredictedElasticities:
    def test_single_seed(self):
        assert predicted_elasticities([(4, 5)], 3) == [
            Fraction(8, 7), Fraction(7, 6), Fraction(6, 5)]

    def test_degenerate_seed(self):
        assert predicted_elasticities([(1, 1)], 7) == [Fraction(1)]

    def test_merging_seeds(self):
        assert predicted_elasticities([(2, 6)], 2) == [Fraction(2), Fraction(7, 3)]

    def test_validation(self):
        with pytest.raises(DomainError):
            predicted_elasticities([(4, 5)], 0)
        with pytest.raises(DomainError):
            predicted_elasticities([(5, 4)], 1)
        with pytest.raises(DomainError):
            predicted_elasticities([(0, 4)], 1)

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(2, 30))
    def test_strictly_decreasing_toward_one(self, lo, span, k_max):
        hi = lo + span
        values = [Fraction(hi + k, lo + k) for k in range(1, k_max + 1)]
        assert predicted_elasticities([(lo, hi)], k_max) == sorted(set(values))
        assert all(values[i] > values[i + 1] > 1 for i in range(len(values) - 1))


class TestDensityWitness:
    def test_exact_hits(self):
        r = density_witness(map(lambda n: 2 * n - 1, count(1)),
                            map(lambda n: n, count(1)),
                            Fraction(3, 2), Fraction(1, 100))
        assert r.found and r.ratio == Fraction(3, 2) and r.error == 0
        r = density_witness(map(lambda n: n * n, count(1)),
                            map(lambda n: n, count(1)),
                            Fraction(2), Fraction(1, 100))
        assert r.found and r.ratio == Fraction(2)

    def test_filtered_prime_sequence(self):
        from puiseux.primes import PrimeFilter, prime_seq
        seq = PrimeFilter.parse("exclude:[3]")
        r = density_witness(map(lambda n: prime_seq(seq, n, n - 1)[0], count(1)),
                            map(lambda n: 2 * n, count(1)),
                            Fraction(5, 4), Fraction(1, 100), budget_n=100)
        assert r.found and abs(r.ratio - Fraction(5, 4)) < Fraction(1, 100)

    @given(st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_never_misses_by_epsilon(self, i):
        target = 1 + Fraction(i, 99)
        eps = Fraction(1, 100)
        r = density_witness(map(lambda n: 2 * n - 1, count(1)),
                            map(lambda n: n, count(1)), target, eps)
        assert r.found and abs(r.ratio - target) < eps
        assert r.n >= 1 and r.k >= 1

    @given(st.lists(st.integers(-2, 3), min_size=3, max_size=3),
           st.lists(st.integers(-2, 4), min_size=3, max_size=3),
           st.fractions(min_value=1, max_value=6, max_denominator=12),
           st.integers(1, 200).flatmap(
               lambda den: st.builds(Fraction, st.integers(1, den), st.just(den))),
           st.integers(1, 30), st.integers(1, 60))
    # the bracket's lower end lands on budget_k, so only k = budget_k is tried
    @example([3, 3, -2], [-2, 1, 2], Fraction(13, 4), Fraction(3, 10), 2, 2)
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, bc, cc, target, eps,
                                        budget_n, budget_k):
        # b_n and the gap c_n = a_n - b_n are quadratics that may be <= 0
        def b_seq(n):
            return bc[0] + bc[1] * n + bc[2] * n * n

        def a_seq(n):
            return b_seq(n) + cc[0] + cc[1] * n + cc[2] * n * n

        r = density_witness(map(a_seq, count(1)), map(b_seq, count(1)),
                            target, eps, budget_n=budget_n, budget_k=budget_k)
        hit, tried = brute_density_search(a_seq, b_seq, target, eps,
                                          budget_n, budget_k)
        if hit is None:
            assert not r.found and r.n is r.k is r.ratio is r.error is None
            assert re.search(r"\((\d+) candidate pairs", r.diagnostics)[1] == str(tried)
        else:
            assert r.found and (r.n, r.k, r.ratio, r.error) == hit
            assert r.diagnostics is None

    def test_budget_exhaustion_reports(self):
        r = density_witness(map(lambda n: 2 * n - 1, count(1)),
                            map(lambda n: n, count(1)),
                            Fraction(3), Fraction(1, 1000), budget_n=200)
        assert not r.found and "budget" in r.diagnostics

    def test_validation(self):
        with pytest.raises(DomainError):
            density_witness(map(lambda n: n, count(1)),
                            map(lambda n: n, count(1)), Fraction(1, 2),
                            Fraction(1, 10))
        with pytest.raises(DomainError):
            density_witness(map(lambda n: n, count(1)),
                            map(lambda n: n, count(1)), Fraction(2), Fraction(0))
        with pytest.raises(DomainError):
            density_witness(map(lambda n: n + 1, count(1)),
                            map(lambda n: n, count(1)), Fraction(2),
                            Fraction(1, 10), budget_k=0)


class TestBfFfStatus:
    @pytest.mark.parametrize("name,status", [
        ("primarydense", "FF"),
        ("infiniteunstable", "FF"),
        ("bfplot", "FF"),
        ("factorial", "not-BF"),
        ("primarystable", "not-BF"),
        ("bfnotff", "BF-not-FF"),
        ("unstablenotbf", "unknown"),
    ])
    def test_catalog(self, name, status):
        assert bf_ff_status(catalog(name, 5)).status == status

    def test_explicit_primary(self):
        spec = parse_spec('{"schema": 1, "families": '
                          '[{"kind": "explicit", "generators": ["1/2", "2/3"]}]}')
        assert bf_ff_status(spec).status == "FF"

    def test_non_primary_no_metadata(self):
        spec = parse_spec('{"schema": 1, "families": '
                          '[{"kind": "explicit", "generators": ["1/4"]}]}')
        assert bf_ff_status(spec).status == "unknown"

    def test_non_primary_bounded_below_without_witness(self):
        spec = parse_spec("""
        {"schema": 1,
         "families": [{"kind": "explicit", "generators": ["1/4", "1/6"]}],
         "metadata": {"zero_limit_point": false, "atom_inf": "1/6",
                      "inf_attained": true}}
        """)
        report = bf_ff_status(spec)
        assert report.status == "unknown" and "bounded" in report.reason


def _family(prime_filter="all", start=1, end=None):
    fam = {"kind": "symbolic", "numerator": "n", "prime_filter": prime_filter,
           "index_start": start}
    if end is not None:
        fam["index_end"] = end
    return fam


ONE_13TH = {"kind": "explicit", "generators": ["1/13"]}
PRIMARY = "one generator per prime, all denominators prime"


class TestPrimeCollisions:
    # bf_ff_status names the collision only when the spec is primary, so
    # the collision message itself is read off _spec_is_primary
    @pytest.mark.parametrize("families,why", [
        ([ONE_13TH, _family()], "prime 13 carries two generators"),
        ([ONE_13TH, _family(start=6)], "prime 13 carries two generators"),
        ([ONE_13TH, _family(start=7)], None),
        ([{"kind": "explicit", "generators": ["1/3"]},
          _family("exclude:[3]")], None),
        ([{"kind": "explicit", "generators": ["1/2"]}, _family("odd")], None),
        ([ONE_13TH, _family("min:17")], None),
        ([_family(end=3), _family(start=3)], "prime 5 carries two generators"),
        ([_family(end=3), {"kind": "explicit", "generators": ["1/5"]}],
         "a prime carries two generators"),
    ], ids=["all", "all-from-6", "all-from-7", "exclude", "odd", "min",
            "bounded-open", "bounded-explicit"])
    def test_collision(self, families, why):
        spec = parse_spec(json.dumps({"schema": 1, "families": families}))
        report = bf_ff_status(spec)
        if why is None:
            assert _spec_is_primary(spec) == (True, PRIMARY)
            assert report == StatusReport(
                "FF", f"primary ({PRIMARY}) and every atom family is unstable")
        else:
            assert _spec_is_primary(spec) == (False, why)
            assert report == StatusReport(
                "unknown", "not primary and 0 may be a limit point; no "
                           "criterion applies")


class TestStableLengthGrowth:
    def test_length_sets_grow_with_depth(self):
        # with a stable family, deeper truncations keep adding new
        # factorization lengths for the shared numerator
        sizes = []
        for depth in (2, 4, 8):
            tm = truncate(catalog("factorial", depth), depth)
            sizes.append(len(length_set(tm, Fraction(1))))
        assert sizes == [2, 4, 8]

    def test_lengths_are_the_primes_used(self):
        tm = truncate(catalog("factorial", 4), 4)
        assert length_set(tm, Fraction(1)) == (2, 3, 5, 7)
        assert len(factorizations(tm, Fraction(1))) == 4
