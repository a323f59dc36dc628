"""Acceptance gate: ten exact-value criteria, each with a runtime limit.

Every test prints exactly one line, "criterion N: PASS (...)" or
"criterion N: FAIL (...)", visible under `pytest -s`.  All rational
comparisons are exact equality on fractions.Fraction — no tolerances
anywhere except the explicitly stated epsilon of the density search.
"""

import contextlib
import io
import random
import time
from fractions import Fraction
from itertools import count

import oracles
from puiseux import cli
from puiseux.constructions import (AtomPair, bifurcus_build, bifurcus_verify,
                                   catalog)
from puiseux.errors import ResourceCapError
from puiseux.factorization import (factorizations, length_extremes_up_to,
                                   length_set, valuation_coefficient_check)
from puiseux.invariants import (density_witness, elasticity_set,
                                elasticity_witnesses, is_accepted,
                                monoid_elasticity, shifted_lengths)
from puiseux.monoid import WorkBudget, contains, from_generators, truncate


def _report(n, limit_s, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        if elapsed >= limit_s:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeded the {limit_s}s limit")
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {n}: FAIL ({elapsed:.2f}s, limit {limit_s}s)")
        raise
    print(f"criterion {n}: PASS ({elapsed:.2f}s < {limit_s}s)")


def _capture_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _catalog_file(tmp_path, name, depth=5):
    path = tmp_path / f"{name}.json"
    code, _ = _capture_cli(["catalog", "--name", name, "--depth", str(depth),
                            "--out", str(path)])
    assert code == 0
    return str(path)


def test_criterion_01_elasticity_formula_vs_sweep():
    def body():
        rng = random.Random(20260814)
        made = 0
        while made < 50:
            k = rng.randint(2, 5)
            gens = [Fraction(rng.randint(1, 30), rng.randint(1, 30))
                    for _ in range(k)]
            tm = from_generators(gens)
            if not 2 <= len(tm.atoms) <= 5:
                continue
            bound = Fraction(tm.min_atom.numerator * tm.max_atom.numerator)
            try:
                extremes = length_extremes_up_to(tm, bound,
                                                 budget=WorkBudget(600_000))
            except ResourceCapError:
                continue  # too bulky for the sweep budget; draw again
            rho = tm.max_atom / tm.min_atom
            ratios = [Fraction(hi, lo) for lo, hi in extremes.values() if lo]
            assert ratios and max(ratios) == rho
            assert all(r <= rho for r in ratios)
            made += 1

    _report(1, 60, body)


def test_criterion_02_accepted_elasticity_example():
    def body():
        spec = catalog("bfplot", 5)
        assert is_accepted(spec) is True
        assert monoid_elasticity(spec=spec, mode="symbolic").value == Fraction(8, 3)
        for depth in (3, 4, 5):
            tm = truncate(spec, depth)
            report = monoid_elasticity(tm=tm)
            assert report.value == Fraction(8, 3) and report.accepted is True
            lo, hi = length_set(tm, Fraction(4))[0], length_set(tm, Fraction(4))[-1]
            assert Fraction(hi, lo) == Fraction(8, 3)
            assert elasticity_witnesses(tm, Fraction(13)) == [4, 8, 12]

    _report(2, 5, body)


def test_criterion_03_prime_reciprocal_lengths():
    def body():
        for k in range(2, 7):
            tm = truncate(catalog("factorial", k), k)
            assert length_set(tm, Fraction(1)) == tuple(oracles.first_primes(k))

    _report(3, 10, body)


def test_criterion_04_unstable_length_extremes():
    def body():
        tm = truncate(catalog("infiniteunstable", 5), 5)
        primes = oracles.first_primes(5, skip=(3,))
        expected_rho = {2: Fraction(5, 4), 3: Fraction(7, 6), 4: Fraction(11, 8)}
        for x in (2, 3, 4):
            ls = length_set(tm, Fraction(x))
            assert ls[0] == 2 * x and ls[-1] == primes[x - 1]
            assert oracles.partition_length_extremes(x, primes) == (ls[0], ls[-1])
            assert Fraction(ls[-1], ls[0]) == expected_rho[x]
        for r in elasticity_set(tm, Fraction(4)):
            if r != 1:
                assert (r.numerator - r.denominator) % 2 == 1

    _report(4, 30, body)


def test_criterion_05_integer_valuation_law():
    def body():
        checked = 0
        for name in ("primarydense", "infiniteunstable"):
            tm = truncate(catalog(name, 5), 5)
            for x in (1, 2, 3, 4):
                assert contains(tm, Fraction(x))
                for z in factorizations(tm, Fraction(x)):
                    vc = valuation_coefficient_check(tm, Fraction(x), z)
                    assert vc.applicable and vc.passed
                    checked += 1
        assert checked > 0

    _report(5, 10, body)


def test_criterion_06_length_shift_law():
    def body():
        rng = random.Random(20260814)
        tm = truncate(catalog("primarydense", 6), 6)
        atoms = list(tm.atoms)
        for _ in range(20):
            j = rng.randrange(len(atoms))
            x = sum((rng.randint(0, 3) * a for i, a in enumerate(atoms)
                     if i != j), Fraction(0))
            rep = shifted_lengths(tm, x, atoms[j])
            assert rep.applicable and rep.ok

    _report(6, 20, body)


def test_criterion_07_density_target_grids():
    def body():
        eps = Fraction(1, 100)
        grids = [
            (lambda n: 2 * n - 1, lambda n: n,
             [1 + Fraction(i, 99) for i in range(100)]),
            (lambda n: n * n, lambda n: n,
             [1 + Fraction(9 * i, 99) for i in range(100)]),
        ]
        for a_seq, b_seq, targets in grids:
            for target in targets:
                r = density_witness(map(a_seq, count(1)), map(b_seq, count(1)),
                                    target, eps)
                assert r.found and abs(r.ratio - target) < eps

    _report(7, 10, body)


def test_criterion_08_staged_doubling_construction():
    def body():
        sm = bifurcus_build(2, Fraction(3, 2))
        assert sm.records[0].added[0] == AtomPair(
            Fraction(7, 6), 13, Fraction(79, 156), Fraction(103, 156))
        v = bifurcus_verify(sm, Fraction(3, 2))
        assert v.passed
        assert v.min_element == Fraction(1, 3) and v.min_ok
        assert v.atoms_persist_ok and v.lost_atoms == ()
        assert v.coverage_ok and v.uncovered == ()

    _report(8, 30, body)


def test_criterion_09_plot_rows_vs_partition_oracle(tmp_path):
    def body():
        spec = _catalog_file(tmp_path, "primarydense", depth=8)
        code, out = _capture_cli(["plot", "--spec", spec, "--depth", "8",
                                  "--bound", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "element,elasticity,marker"
        integer_rows = {}
        for line in lines[1:]:
            elem, rho, marker = line.split(",")
            if "/" not in elem:
                assert marker == "integer-element"
                integer_rows[int(elem)] = rho
        assert integer_rows == {2: "4/3", 3: "6/5", 4: "4/3", 5: "11/8"}
        primes = oracles.first_primes(8)
        for x, rho in integer_rows.items():
            lo, hi = oracles.partition_length_extremes(x, primes)
            assert Fraction(rho) == Fraction(hi, lo)
        lo1, hi1 = oracles.partition_length_extremes(1, primes)
        assert lo1 == hi1  # elasticity 1, rightly absent from the plot

    _report(9, 30, body)


def test_criterion_10_byte_identical_reruns(tmp_path):
    def body():
        bfplot = _catalog_file(tmp_path, "bfplot")
        unstable = _catalog_file(tmp_path, "infiniteunstable")
        dense = _catalog_file(tmp_path, "primarydense", depth=8)
        commands = [
            ["witnesses", "--spec", bfplot, "--depth", "4", "--bound", "13",
             "--format", "json"],
            ["rset", "--spec", unstable, "--depth", "5", "--bound", "4",
             "--format", "csv"],
            ["bifurcus", "--stages", "2", "--bound", "3/2", "--format", "json"],
            ["plot", "--spec", dense, "--depth", "8", "--bound", "5"],
        ]
        for argv in commands:
            code1, out1 = _capture_cli(argv)
            code2, out2 = _capture_cli(argv)
            assert code1 == 0 and code2 == 0
            assert out1.encode() == out2.encode() and out1

    _report(10, 120, body)
