import argparse
import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseux import cli, constructions, factorization
from puiseux.factorization import factorizations
from puiseux.monoid import elements_up_to, truncate
from puiseux.rationals import format_rational
from puiseux.specfile import MAX_EXPR_DEPTH, load_spec, spec_to_json

from oracles import brute_density_search

# 600 nested parentheses exhausted the parser's recursion; a 1,500-term
# sum built a tree that evaluation recursed down.
DEEP_OR_LONG = pytest.mark.parametrize(
    "expr", ["(" * 600 + "n" + ")" * 600, "+".join(["n"] * 1500)],
    ids=["nested", "long"])
TOO_DEEP = f"error: numerator expression nests deeper than {MAX_EXPR_DEPTH} levels\n"
# Python 3.11 and later refuse int <-> str conversions past 4,300 digits
PAST_DIGIT_LIMIT = "1" * 5001
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# a count past sys.maxsize, and the error that names a prime count past it
HUGE = "9" * 20
PRIME_COUNT = "cannot list {} primes: the count is past " + str(sys.maxsize)
# every character the numerator tokenizer knows
EXPR_ALPHABET = "0123456789np+-*/() "

EXPLICIT_HALF_THIRD = """
{"schema": 1,
 "families": [{"kind": "explicit", "generators": ["1/2", "1/3"]}]}
"""


def _write(tmp_path, text, name="spec.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _catalog_file(tmp_path, name, depth=5):
    path = tmp_path / f"{name}.json"
    assert cli.main(["catalog", "--name", name, "--depth", str(depth),
                     "--out", str(path)]) == 0
    return str(path)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(capsys, *argv):
    capsys.readouterr()
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTextGoldens:
    def test_atoms(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "bfplot")
        code, out, _ = _run(capsys, "atoms", "--spec", spec, "--depth", "3")
        assert code == 0 and out == "{1/2, 8/7, 6/5, 4/3}\n"

    def test_lengths(self, capsys, tmp_path):
        spec = _write(tmp_path, EXPLICIT_HALF_THIRD)
        code, out, _ = _run(capsys, "lengths", "--spec", spec,
                            "--element", "2")
        assert code == 0 and out == "{4, 5, 6}\n"

    def test_factorize(self, capsys, tmp_path):
        spec = _write(tmp_path, EXPLICIT_HALF_THIRD)
        code, out, _ = _run(capsys, "factorize", "--spec", spec,
                            "--element", "2")
        assert code == 0
        assert out == "3 x 1/3 + 2 x 1/2\n4 x 1/2\n6 x 1/3\n"

    def test_factorize_formats_each_term_once(self, capsys, tmp_path, monkeypatch):
        # the sort by rendered text and the output share one rendering
        spec = _catalog_file(tmp_path, "bfnotff", 8)
        formatted = []
        format_once = factorization.format_rational
        monkeypatch.setattr(factorization, "format_rational",
                            lambda v: formatted.append(v) or format_once(v))
        code, out, _ = _run(capsys, "factorize", "--spec", spec, "--depth", "8",
                            "--element", "3", "--cap", "500")
        assert code == 0
        terms = [t for line in out.splitlines() for t in line.split(" + ")]
        assert len(out.splitlines()) == 130
        assert len(formatted) == len(terms)

    def test_text_factorize_formats_no_json_terms(self, capsys, tmp_path,
                                                   monkeypatch):
        # the JSON document's terms are formatted only for --format json
        spec = _catalog_file(tmp_path, "bfnotff", 8)
        formatted = []
        monkeypatch.setattr(cli, "format_rational",
                            lambda v: formatted.append(v) or format_rational(v))
        argv = ("factorize", "--spec", spec, "--depth", "8", "--element", "3",
                "--cap", "500")
        assert _run(capsys, *argv)[0] == 0 and formatted == []
        assert _run(capsys, *argv, "--format", "json")[0] == 0 and formatted

    def test_monoid_elasticity(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "bfplot")
        code, out, _ = _run(capsys, "elasticity", "--spec", spec,
                            "--depth", "4")
        assert code == 0 and out == "8/3\n"
        code, out, _ = _run(capsys, "elasticity", "--spec", spec,
                            "--mode", "symbolic")
        assert code == 0 and out == "8/3\n"

    def test_element_elasticity(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "bfplot")
        code, out, _ = _run(capsys, "elasticity", "--spec", spec,
                            "--depth", "4", "--element", "4")
        assert code == 0 and out == "8/3\n"

    def test_rset(self, capsys, tmp_path):
        spec = _write(tmp_path, EXPLICIT_HALF_THIRD)
        code, out, _ = _run(capsys, "rset", "--spec", spec, "--bound", "2")
        assert code == 0 and out == "{1, 5/4, 4/3, 3/2}\n"

    def test_witnesses(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "bfplot")
        code, out, _ = _run(capsys, "witnesses", "--spec", spec,
                            "--depth", "4", "--bound", "13")
        assert code == 0 and out == "{4, 8, 12}\n"

    def test_contains(self, capsys, tmp_path):
        spec = _write(tmp_path, EXPLICIT_HALF_THIRD)
        code, out, _ = _run(capsys, "contains", "--spec", spec,
                            "--element", "5/6")
        assert code == 0 and out == "true\n"
        code, out, _ = _run(capsys, "contains", "--spec", spec,
                            "--element", "1/5")
        assert code == 0 and out == "false\n"

    def test_decompose(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "primarystable")
        code, out, _ = _run(capsys, "decompose", "--spec", spec,
                            "--depth", "14", "--element", "101/82")
        assert code == 0
        assert out == "stable: 30/41\nunstable: 1/2\nunique: true\n"

    def test_shift_check(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "primarydense")
        code, out, _ = _run(capsys, "shift-check", "--spec", spec,
                            "--element", "1/2", "--atom", "2/3")
        assert code == 0 and out == "ok: lengths {1} -> {2}\n"
        code, out, _ = _run(capsys, "shift-check", "--spec", spec,
                            "--element", "1/2", "--atom", "1/2")
        assert code == 0 and out.startswith("inapplicable:")

    def test_classify(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "primarystable")
        code, out, _ = _run(capsys, "classify", "--spec", spec,
                            "--depth", "14", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "atom,stability"
        assert "30/41,stable" in lines and "1/2,unstable" in lines

    def test_status(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "bfnotff")
        code, out, _ = _run(capsys, "status", "--spec", spec)
        assert code == 0 and out.startswith("BF-not-FF:")


class TestDensity:
    def test_found_exactly(self, capsys):
        code, out, _ = _run(capsys, "density", "--a-seq", "2*n - 1",
                            "--b-seq", "n", "--target", "3/2",
                            "--epsilon", "1/100")
        assert code == 0
        assert out == "found: n=102 k=100 ratio=3/2 error=0\n"

    def test_not_found_exit_code(self, capsys):
        code, out, _ = _run(capsys, "density", "--a-seq", "2*n - 1",
                            "--b-seq", "n", "--target", "3",
                            "--epsilon", "1/1000", "--budget-n", "50")
        assert code == 1 and out.startswith("not found:")

    def test_json_round(self, capsys):
        code, out, _ = _run(capsys, "density", "--a-seq", "n*n",
                            "--b-seq", "n", "--target", "2",
                            "--epsilon", "1/100", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True and doc["ratio"] == "2"

    @DEEP_OR_LONG
    def test_deep_or_long_expression_rejected(self, capsys, expr):
        assert _run(capsys, "density", "--a-seq", expr, "--b-seq", "n",
                    "--target", "2", "--epsilon", "1/10") == (1, "", TOO_DEEP)

    def test_prime_variable_rejected(self, capsys):
        code, _, err = _run(capsys, "density", "--a-seq", "p+1",
                            "--b-seq", "n", "--target", "2",
                            "--epsilon", "1/10")
        assert code == 1 and "variable n" in err

    def test_constant_past_the_digit_limit(self, capsys):
        assert _run(capsys, "density", "--a-seq", PAST_DIGIT_LIMIT,
                    "--b-seq", "n", "--target", "2", "--epsilon", "1/2") == (
            1, "", "error: integer constant of 5001 digits is too long in "
                   "numerator expression (line 1, column 1)\n")


class TestDensityBlocks:
    """The CLI evaluates a sequence over blocks of n: 16 values, then
    twice as many each time up to 1,024, so the blocks are [1, 16],
    [17, 48], [49, 112], ..., [497, 1008], [1009, 2032], [2033, 3056]."""

    @pytest.mark.parametrize("n", [16, 17, 48, 49, 112, 113, 2032, 2033])
    def test_witness_at_a_block_edge(self, capsys, n):
        # the gap of 2n - 1 over n is n - 1, which first passes 1/eps at n
        eps = Fraction(1, n - 2)
        hit, _ = brute_density_search(lambda i: 2 * i - 1, lambda i: i,
                                      Fraction(3, 2), eps, n, 10_000_000)
        assert hit[0] == n
        code, out, _ = _run(capsys, "density", "--a-seq", "2*n - 1",
                            "--b-seq", "n", "--target", "3/2",
                            "--epsilon", format_rational(eps),
                            "--budget-n", str(n))
        assert (code, out) == (0, f"found: n={n} k={hit[1]} "
                                  f"ratio={format_rational(hit[2])} "
                                  f"error={format_rational(hit[3])}\n")

    def test_blocks_join_into_the_sequence(self):
        seq = cli._seq_from_expr("(n*n - 7*n)//3 - 40")
        assert list(itertools.islice(seq, 3100)) == [
            (n * n - 7 * n) // 3 - 40 for n in range(1, 3101)]

    def test_memory_stays_flat_as_the_budget_grows(self, capsys):
        # the gap 1 never passes 1/eps, so each n only reads both
        # sequences: cheap even under tracemalloc, which slows every
        # allocation
        argv = ("density", "--a-seq", "n + 1", "--b-seq", "n",
                "--target", "3", "--epsilon", "1/1000", "--budget-n")
        _run(capsys, *argv, "10")  # builds the parser outside the trace

        def peak(budget):
            tracemalloc.start()
            try:
                code, out, _ = _run(capsys, *argv, str(budget))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 1 and out.startswith("not found:")
            return peak

        assert peak(200_000) <= 1.5 * peak(20_000)


def _exit_and_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_spec(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


class TestExpressionFuzz:
    @given(st.text(EXPR_ALPHABET, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_density_sequence(self, source):
        code, err = _exit_and_stderr(
            ["density", "--a-seq", source, "--b-seq", "n", "--target", "2",
             "--epsilon", "1/2", "--budget-n", "50"])
        assert code in (0, 1, 2) and "Traceback" not in err

    @given(st.text(EXPR_ALPHABET, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_spec_numerator(self, fuzz_spec, source):
        fuzz_spec.write_text(json.dumps({"schema": 1, "families": [
            {"kind": "symbolic", "numerator": source}]}), encoding="utf-8")
        code, err = _exit_and_stderr(["atoms", "--spec", str(fuzz_spec),
                                      "--depth", "2"])
        assert code in (0, 1, 2) and "Traceback" not in err


# the twelve commands that read a description, each with the options
# whose values the fuzz draws
FUZZ_COMMANDS = {"atoms": (), "classify": (), "status": (),
                 "contains": ("--element",), "factorize": ("--element",),
                 "lengths": ("--element",), "elasticity": ("--element",),
                 "decompose": ("--element",), "shift-check": ("--element", "--atom"),
                 "rset": ("--bound",), "witnesses": ("--bound",), "plot": ("--bound",)}
# small good values, wrong forms, huge integers, and the lone surrogates
# that non-UTF-8 bytes of argv decode to
FUZZ_VALUES = ("0", "1", "3/2", "2", "1/2", "-1", "1/0", "x", "", "1.5", HUGE,
               "1/" + HUGE, "9" * 5001, "\udcff\udcfe")
FUZZ_DEPTHS = ("1", "2", "3", "0", "-2", "x", HUGE, "9" * 5001, "\udcff")


def _nested(levels):
    """levels of lists and dicts, alternating, around one string."""
    value = "n"
    for i in range(levels):
        value = [value] if i % 2 else {"n": value}
    return value


# wrong types, huge integers and deep nesting for any field; an index past
# sys.maxsize is refused at once, where a large one below it would list
# that many primes
FUZZ_JUNK = (None, True, 1.5, -1, 0, "", "x", [], {}, "1/0", "-3/4", 10**40, -10**40,
             HUGE, "1/" + HUGE, [[[[["n"]]]]], _nested(40))
FUZZ_DOCS = tuple(json.loads(spec_to_json(constructions.catalog(name, 3)))
                  for name in constructions.CATALOG_NAMES)


def _fields(doc):
    """(container, key) of every value below doc."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _fields(value)


@st.composite
def mutated_spec(draw):
    """A catalog description with one to three fields dropped or
    replaced, as bytes, sometimes with a byte that is not UTF-8."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        fields = list(_fields(doc))
        if not fields:
            break
        container, key = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_JUNK)))
    data = json.dumps(doc).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[at:]
    return data


class TestCliFuzz:
    """cli.main over mutated catalog descriptions and argv values: every
    run ends with exit 0, 1 or 2, never with a traceback."""

    @given(mutated_spec(), st.sampled_from(sorted(FUZZ_COMMANDS)),
           st.sampled_from(FUZZ_DEPTHS), st.lists(st.sampled_from(FUZZ_VALUES),
                                                  min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_mutated_specs_and_argv(self, fuzz_spec, data, command, depth, values):
        fuzz_spec.write_bytes(data)
        argv = [command, "--spec", str(fuzz_spec)]
        if command != "status":
            argv += ["--depth", depth]
        for option, value in zip(FUZZ_COMMANDS[command], values):
            argv += [option, value]
        code, err = _exit_and_stderr(argv)
        assert code in (0, 1, 2) and "Traceback" not in err

    def test_length_past_the_mask(self, capsys, tmp_path):
        # a length mask of 10**20 bits cannot be built
        spec = _catalog_file(tmp_path, "primarydense")
        for command in ("lengths", "elasticity", "factorize", "shift-check"):
            argv = [command, "--spec", spec, "--depth", "3", "--element", HUGE]
            if command == "shift-check":
                argv += ["--atom", "1/2"]
            code, out, err = _run(capsys, *argv)
            assert (code, out) == (1, "") and err.startswith("error: ")
            assert "past any length mask" in err


STAGED_DOCS = tuple(constructions.staged_to_dict(constructions.bifurcus_build(k, b))
                    for k, b in ((1, Fraction(3, 2)), (2, Fraction(3, 2)),
                                 (3, Fraction(7, 6))))
STAGED_BOUNDS = ("3/2", "7/6", "1/3", "0", "-1", "2", "x", "1/0", HUGE)


@st.composite
def mutated_staged(draw):
    """A staged build's document with one to three fields dropped or
    replaced, as JSON text."""
    doc = copy.deepcopy(draw(st.sampled_from(STAGED_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        fields = list(_fields(doc))
        if not fields:
            break
        container, key = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_JUNK)))
    return json.dumps(doc)


class TestStagedFuzz:
    """verify-bifurcus over mutated staged documents: every run ends
    with exit 0, 1 or 2, never with a traceback."""

    @given(mutated_staged(), st.sampled_from(STAGED_BOUNDS))
    @settings(max_examples=150, deadline=None)
    def test_mutated_staged_documents(self, fuzz_spec, text, bound):
        fuzz_spec.write_text(text, encoding="utf-8")
        code, err = _exit_and_stderr(["verify-bifurcus", "--staged", str(fuzz_spec),
                                      "--bound", bound])
        assert code in (0, 1, 2) and "Traceback" not in err


class TestBifurcusCommands:
    def test_build_text(self, capsys):
        code, out, _ = _run(capsys, "bifurcus", "--stages", "1",
                            "--bound", "3/2")
        assert code == 0
        assert out.splitlines() == [
            "stage 1: 3 additions",
            "  7/6 -> prime 13, atoms 79/156 + 103/156",
            "  4/3 -> prime 17, atoms 31/51 + 37/51",
            "  3/2 -> prime 19, atoms 53/76 + 61/76",
        ]

    def test_empty_stages_are_quiet(self):
        # a stage with nothing to add says so on stdout alone
        src = Path(cli.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-m", "puiseux.cli", "bifurcus", "--stages", "3",
             "--bound", "7/6"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert run.returncode == 0
        assert run.stdout.splitlines() == [
            "stage 1: 1 additions",
            "  7/6 -> prime 13, atoms 79/156 + 103/156",
            "stage 2: 0 additions",
            "stage 3: 0 additions",
        ]
        assert run.stderr == ""

    def test_build_then_verify(self, capsys, tmp_path):
        staged = tmp_path / "staged.json"
        code, _, _ = _run(capsys, "bifurcus", "--stages", "2",
                          "--bound", "3/2", "--out", str(staged))
        assert code == 0 and staged.exists()
        code, out, _ = _run(capsys, "verify-bifurcus", "--staged",
                            str(staged), "--bound", "3/2")
        assert code == 0 and out.splitlines()[-1] == "passed"
        code, out, _ = _run(capsys, "verify-bifurcus", "--staged",
                            str(staged), "--bound", "3/2",
                            "--format", "json")
        assert code == 0 and json.loads(out)["passed"] is True

    # sha256 of stdout and of the written file, pinned before the staged
    # build moved to integer arithmetic and the denominator certificate
    def test_four_stages_at_three_halves_pinned(self, capsys, tmp_path):
        staged = tmp_path / "staged.json"
        code, out, _ = _run(capsys, "bifurcus", "--stages", "4", "--bound", "3/2",
                            "--out", str(staged))
        assert code == 0 and len(out.splitlines()) == 162
        assert _sha(out) == ("92f20f0db4c358957563458f2032ba24"
                             "ac6c79b6dcd3fc28ecf90198a3919968")
        assert _sha(staged.read_text(encoding="utf-8")) == (
            "fc2e690046673c113949fa29d917d2c38c6d533cf6b83b2ca58caaa16df5c32f")
        code, out, _ = _run(capsys, "verify-bifurcus", "--staged", str(staged),
                            "--bound", "3/2")
        assert code == 0 and _sha(out) == (
            "f254d92150a1c7208d4b680ba8b69144c7d3d6cf922615213e39a3e282c382f5")
        code, out, _ = _run(capsys, "verify-bifurcus", "--staged", str(staged),
                            "--bound", "3/2", "--format", "json")
        assert code == 0 and _sha(out) == (
            "084e5e6381a79e1b2d1ed981374e1560efbbcd2a58fa941b9ff4e19b9a63ea5f")

    def test_stages_after_an_empty_one_sweep_nothing(self, capsys, tmp_path,
                                                     monkeypatch):
        # stage 2 adds nothing, so stages 3 to 1,000 repeat it unswept,
        # in the build and in the loader's replay alike
        swept = []
        sweep = constructions.sweep
        monkeypatch.setattr(constructions, "sweep",
                            lambda *a, **k: swept.append(1) or sweep(*a, **k))
        staged = tmp_path / "staged.json"
        code, out, _ = _run(capsys, "bifurcus", "--stages", "1000", "--bound", "7/6",
                            "--out", str(staged))
        assert code == 0 and len(swept) == 2
        assert out.splitlines()[-1] == "stage 1000: 0 additions"
        assert len(out.splitlines()) == 1001 and _sha(out) == (
            "0da1d9157ba957e0254ec9124fa4eaa77cba54107d3bb3a1508cda47fa044df2")
        code, out, _ = _run(capsys, "verify-bifurcus", "--staged", str(staged),
                            "--bound", "7/6")
        assert code == 0 and out.splitlines()[-1] == "passed" and len(swept) == 4

    def test_verify_rejects_tampered_file(self, capsys, tmp_path):
        staged = tmp_path / "staged.json"
        _run(capsys, "bifurcus", "--stages", "1", "--bound", "3/2",
             "--out", str(staged))
        doc = json.loads(staged.read_text(encoding="utf-8"))
        doc["stages"][0]["added"].append(doc["stages"][0]["added"][0])
        staged.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = _run(capsys, "verify-bifurcus", "--staged",
                            str(staged), "--bound", "3/2")
        assert code == 1 and err.startswith("error:")

    def test_verify_rejects_forged_pair(self, capsys, tmp_path):
        # 43/84 + 55/84 = 7/6 with prime 13 passes every record check;
        # only the replayed build tells it from 79/156 + 103/156
        staged = tmp_path / "staged.json"
        _run(capsys, "bifurcus", "--stages", "1", "--bound", "3/2",
             "--out", str(staged))
        doc = json.loads(staged.read_text(encoding="utf-8"))
        doc["stages"][0]["added"][0].update(low="43/84", high="55/84")
        staged.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = _run(capsys, "verify-bifurcus", "--staged",
                              str(staged), "--bound", "3/2")
        assert code == 1 and out == ""
        assert err == "error: stage 1 differs from the replayed build\n"

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc.update(stages=[1]), "stage record 1"),
        (lambda doc: doc["stages"][0]["added"][0].pop("prime"), "fields"),
        (lambda doc: doc["stages"][0]["added"].append(7), "fields"),
        (lambda doc: doc.update(stages=[]), "no stages"),
        (lambda doc: doc.update(value_bound="1"), "value_bound 1 is below 7/6"),
    ])
    def test_verify_rejects_malformed_records(self, capsys, tmp_path, mutate,
                                              message):
        staged = tmp_path / "staged.json"
        _run(capsys, "bifurcus", "--stages", "1", "--bound", "3/2",
             "--out", str(staged))
        doc = json.loads(staged.read_text(encoding="utf-8"))
        mutate(doc)
        staged.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = _run(capsys, "verify-bifurcus", "--staged",
                              str(staged), "--bound", "3/2")
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err


class TestPlot:
    def test_header_and_integer_rows(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "primarydense")
        code, out, _ = _run(capsys, "plot", "--spec", spec, "--bound", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "element,elasticity,marker"
        assert "2,4/3,integer-element" in lines
        assert not any(line.startswith("1,") for line in lines)
        assert "\r" not in out and out.endswith("\n")

    def test_all_and_markers(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "primarydense")
        code, out, _ = _run(capsys, "plot", "--spec", spec, "--bound", "2",
                            "--all")
        assert code == 0
        lines = out.splitlines()
        assert "1,1,integer-element" in lines
        assert "5/3,1,shifted-element" in lines
        assert "7/6,1,other" in lines

    def test_decimal_column(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "primarydense")
        code, out, _ = _run(capsys, "plot", "--spec", spec, "--bound", "2",
                            "--decimal")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "element,elasticity,marker,approx"
        assert "2,4/3,integer-element,1.3333333333333333" in lines

    def test_cap_produces_diagnostic_row_and_exit_1(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "factorial")
        code, out, _ = _run(capsys, "plot", "--spec", spec, "--depth", "6",
                            "--bound", "2", "--cap", "5")
        assert code == 1
        assert out.splitlines()[-1] == "capped,1,factorization cap exceeded"

    @pytest.mark.parametrize("cap", [1, 2, 3, 5, 8])
    def test_capped_row_at_first_element_over_the_cap(self, capsys, tmp_path, cap):
        spec = _catalog_file(tmp_path, "factorial")
        tm = truncate(load_spec(spec), 4)
        first_over = next(x for x in elements_up_to(tm, Fraction(2))
                          if len(factorizations(tm, x)) > cap)
        code, out, _ = _run(capsys, "plot", "--spec", spec, "--depth", "4",
                            "--bound", "2", "--cap", str(cap), "--all")
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == (f"capped,{format_rational(first_over)},"
                             "factorization cap exceeded")
        assert Fraction(lines[-2].split(",")[0]) < first_over

    def test_more_than_a_thousand_atoms(self, capsys, tmp_path):
        gens = ", ".join(f'"{k}/1000"' for k in range(1001, 2002))
        spec = _write(tmp_path, '{"schema": 1, "families": '
                                f'[{{"kind": "explicit", "generators": [{gens}]}}]}}')
        for command, expected in (("rset", "{1}\n"), ("witnesses", "{}\n"),
                                  ("plot", "element,elasticity,marker\n")):
            code, out, err = _run(capsys, command, "--spec", spec, "--bound", "2")
            assert (code, out, err) == (0, expected, "")
        for command, element, expected in (("contains", "3", "true\n"),
                                           ("factorize", "2", "1 x 2\n")):
            code, out, err = _run(capsys, command, "--spec", spec,
                                  "--element", element)
            assert (code, out, err) == (0, expected, "")


# runs cli.main with argv and prints its exit code, stdout, stderr, wall
# time and peak resident set (ru_maxrss, KiB on Linux) as one JSON line
CHILD_RUN = """
import contextlib, io, json, resource, sys, time
from puiseux import cli
out, err = io.StringIO(), io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                  "seconds": time.perf_counter() - start,
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""
BUDGET_ERROR = "error: enumeration exceeded its work budget of 10000000 steps\n"


class TestWideBoundsEndAtOnce:
    """Sweeps whose bound is past the lower volume bound end with the
    budget's error before any table is built.  Each scan ran 7-10 s and
    peaked at 650-800 MiB before it reached that error; the bifurcus
    build swept its first stage in full before it did."""

    @pytest.mark.parametrize("name, depth, argv, expected", [
        ("factorial", 14, ["witnesses", "--bound", "2"], ("", BUDGET_ERROR)),
        ("primarydense", 30, ["rset", "--bound", "12"], ("", BUDGET_ERROR)),
        ("primarydense", 30, ["plot", "--bound", "9"],
         ("element,elasticity,marker\n"
          "capped,,element enumeration exhausted the work budget\n", "")),
        (None, None, ["bifurcus", "--stages", "1", "--bound", "3000000"],
         ("", BUDGET_ERROR)),
    ], ids=["witnesses", "rset", "plot", "bifurcus"])
    def test_budget_error_at_once(self, tmp_path, name, depth, argv, expected):
        pytest.importorskip("resource")
        spec = (["--spec", _catalog_file(tmp_path, name, depth), "--depth", str(depth)]
                if name else [])
        src = Path(cli.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-c", CHILD_RUN, argv[0], *spec, *argv[1:]],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert run.returncode == 0, run.stderr
        child = json.loads(run.stdout)
        assert (child["code"], child["out"], child["err"]) == (1, *expected)
        assert child["seconds"] < 2
        assert child["maxrss_kib"] < 128 * 1024


class TestCapControls:
    def test_env_cap(self, capsys, tmp_path, monkeypatch):
        spec = _catalog_file(tmp_path, "factorial")
        monkeypatch.setenv("PUISEUX_CAP", "5")
        code, _, err = _run(capsys, "factorize", "--spec", spec,
                            "--depth", "6", "--element", "1")
        assert code == 1 and "error:" in err

    def test_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        spec = _catalog_file(tmp_path, "factorial")
        monkeypatch.setenv("PUISEUX_CAP", "5")
        code, out, _ = _run(capsys, "factorize", "--spec", spec,
                            "--depth", "6", "--element", "1", "--cap", "6")
        assert code == 0 and len(out.splitlines()) == 6

    def test_bad_env_cap(self, capsys, tmp_path, monkeypatch):
        spec = _catalog_file(tmp_path, "factorial")
        monkeypatch.setenv("PUISEUX_CAP", "many")
        code, _, err = _run(capsys, "factorize", "--spec", spec,
                            "--element", "1")
        assert code == 1 and "PUISEUX_CAP" in err


    def test_bad_env_cap_is_read_at_the_least_atom(self, capsys, tmp_path, monkeypatch):
        # the least atom of primarydense at depth 3 is 1/2
        spec = _catalog_file(tmp_path, "primarydense")
        monkeypatch.setenv("PUISEUX_CAP", "abc")
        argv = ("plot", "--spec", spec, "--depth", "3", "--bound")
        assert _run(capsys, *argv, "1/3") == (0, "element,elasticity,marker\n", "")
        assert _run(capsys, *argv, "1/2") == (
            1, "", "error: PUISEUX_CAP must be an integer, got 'abc'\n")


class TestJsonAndCsvShapes:
    def test_json_is_sorted_and_newline_terminated(self, capsys, tmp_path):
        spec = _catalog_file(tmp_path, "bfplot")
        code, out, _ = _run(capsys, "elasticity", "--spec", spec,
                            "--mode", "symbolic", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "8/3" and doc["accepted"] is True
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_factorize_csv(self, capsys, tmp_path):
        spec = _write(tmp_path, EXPLICIT_HALF_THIRD)
        code, out, _ = _run(capsys, "factorize", "--spec", spec,
                            "--element", "2", "--format", "csv")
        assert code == 0
        assert out == ("length,factorization\n"
                       "5,3 x 1/3 + 2 x 1/2\n"
                       "4,4 x 1/2\n"
                       "6,6 x 1/3\n")

    def test_contains_json(self, capsys, tmp_path):
        spec = _write(tmp_path, EXPLICIT_HALF_THIRD)
        code, out, _ = _run(capsys, "contains", "--spec", spec,
                            "--element", "1/5", "--format", "json")
        assert code == 0 and json.loads(out) == {"contains": False,
                                                 "element": "1/5"}

    def test_catalog_stdout_parses(self, capsys):
        code, out, _ = _run(capsys, "catalog", "--name", "factorial")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1 and doc["families"]


class TestFailureModes:
    def test_usage_errors_exit_2(self, capsys, tmp_path):
        spec = _write(tmp_path, EXPLICIT_HALF_THIRD)
        for argv in ([],
                     ["no-such-command"],
                     ["contains", "--spec", spec, "--element", "x/y"],
                     ["atoms", "--spec", spec, "--depth", "0"],
                     ["atoms", "--spec", spec, "--format", "yaml"],
                     ["catalog", "--name", "no-such-entry"]):
            with pytest.raises(SystemExit) as exc_info:
                cli.main(argv)
            assert exc_info.value.code == 2
            capsys.readouterr()

    @pytest.mark.skipif(not 0 < INT_DIGIT_LIMIT < 5000,
                        reason="int() reads 5,000 digits without a limit")
    @pytest.mark.parametrize("argv", [
        ["atoms", "--spec", "{spec}", "--depth"],
        ["density", "--a-seq", "n+1", "--b-seq", "n", "--target", "2",
         "--epsilon", "1/2", "--budget-n"]], ids=["depth", "budget-n"])
    def test_integer_option_past_the_digit_limit(self, capsys, tmp_path, argv):
        spec = _write(tmp_path, EXPLICIT_HALF_THIRD)
        argv = [a.replace("{spec}", spec) for a in argv]
        with pytest.raises(SystemExit) as exc_info:
            cli.main([*argv, "7" * 5000])
        err = capsys.readouterr().err
        assert exc_info.value.code == 2
        assert "integer of 5000 digits is too long" in err
        assert "7" * 21 not in err and len(err) < 1000

    def test_missing_spec_file(self, capsys, tmp_path):
        code, out, err = _run(capsys, "atoms", "--spec",
                              str(tmp_path / "missing.json"))
        assert code == 1 and out == "" and err.startswith("error:")

    def test_malformed_spec_file(self, capsys, tmp_path):
        spec = _write(tmp_path, "{nope")
        code, _, err = _run(capsys, "atoms", "--spec", spec)
        assert code == 1 and err.startswith("error:")

    @DEEP_OR_LONG
    def test_deep_or_long_spec_numerator(self, capsys, tmp_path, expr):
        spec = _write(tmp_path, json.dumps(
            {"schema": 1, "families": [{"kind": "symbolic", "numerator": expr,
                                        "prime_filter": "all"}]}))
        for argv in (["atoms"], ["classify"], ["contains", "--element", "1"],
                     ["status"], ["elasticity"]):
            assert _run(capsys, *argv, "--spec", spec) == (1, "", TOO_DEEP)

    @pytest.mark.parametrize("argv", [["atoms", "--spec"],
                                      ["verify-bifurcus", "--bound", "3/2",
                                       "--staged"]], ids=["spec", "staged"])
    def test_file_not_utf8(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = _run(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path} is not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("argv", [["atoms", "--spec"],
                                      ["verify-bifurcus", "--bound", "3/2",
                                       "--staged"]], ids=["spec", "staged"])
    def test_deeply_nested_json(self, capsys, tmp_path, argv):
        path = _write(tmp_path, "[" * 100_000 + "]" * 100_000)
        code, out, err = _run(capsys, *argv, path)
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [["atoms", "--spec"],
                                      ["verify-bifurcus", "--bound", "3/2",
                                       "--staged"]], ids=["spec", "staged"])
    def test_json_integer_past_the_digit_limit(self, capsys, tmp_path, argv):
        path = _write(tmp_path, '{"schema": ' + PAST_DIGIT_LIMIT + "}")
        code, out, err = _run(capsys, *argv, path)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "too many digits" in err

    @pytest.mark.skipif(not 0 < INT_DIGIT_LIMIT < 5000,
                        reason="int() reads 5,000 digits without a limit")
    @pytest.mark.parametrize("command", ["atoms", "status"])
    @pytest.mark.parametrize("prime_filter", ["min:{}", "exclude:[3,{}]"],
                             ids=["min", "exclude"])
    def test_prime_filter_past_the_digit_limit(self, capsys, tmp_path,
                                               prime_filter, command):
        spec = _write(tmp_path, json.dumps(
            {"schema": 1, "families": [{"kind": "symbolic", "numerator": "1",
                                        "prime_filter": prime_filter.format("9" * 5000)}]}))
        code, out, err = _run(capsys, command, "--spec", spec)
        assert (code, out) == (1, "") and "Traceback" not in err
        assert err == "error: integer of 5000 digits is too long in prime filter\n"

    @pytest.mark.parametrize("key, command", [("atom_inf", "atoms"),
                                              ("not_ff_witness", "status")])
    def test_metadata_literal_past_the_digit_limit(self, capsys, tmp_path,
                                                   key, command):
        doc = json.loads(Path(_catalog_file(tmp_path, "bfnotff")).read_text(
            encoding="utf-8"))
        doc["metadata"][key] = PAST_DIGIT_LIMIT
        spec = _write(tmp_path, json.dumps(doc))
        assert _run(capsys, command, "--spec", spec) == (
            1, "", "error: rational literal of 5001 characters has too many digits\n")

    def test_result_past_the_digit_limit(self, capsys, tmp_path):
        # the elasticity (7...7/2)/(1/3...3) has about 8,000 digits
        spec = _write(tmp_path, json.dumps(
            {"schema": 1, "families": [{"kind": "explicit", "generators": [
                "1/" + "3" * 4000, "7" * 4000 + "/2"]}]}))
        for fmt in ("text", "json"):
            assert _run(capsys, "elasticity", "--spec", spec, "--format", fmt) == (
                1, "", "error: result has too many digits to print\n")

    @pytest.mark.parametrize("argv, message", [
        (["atoms", "--spec", "bfplot", "--depth", HUGE], PRIME_COUNT.format(10**20)),
        (["atoms", "--spec", "index-1e20"], PRIME_COUNT.format(10**20 + 4)),
        (["status", "--spec", "index-1e20"], PRIME_COUNT.format(10**20 + 24)),
        (["bifurcus", "--stages", HUGE, "--bound", "7/6"],
         f"num_stages {HUGE} is past {sys.maxsize}"),
    ], ids=["atoms-depth", "atoms-index", "status-index", "bifurcus-stages"])
    def test_count_past_maxsize(self, capsys, tmp_path, argv, message):
        # islice refuses a stop past sys.maxsize with a raw ValueError
        specs = {"bfplot": _catalog_file(tmp_path, "bfplot"),
                 "index-1e20": _write(tmp_path, json.dumps({"schema": 1, "families": [
                     {"kind": "symbolic", "numerator": "n", "prime_filter": "all",
                      "index_start": 10**20}]}), "index.json")}
        argv = [specs.get(arg, arg) for arg in argv]
        assert _run(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_out_of_memory(self, capsys, tmp_path, monkeypatch):
        # the line is written once the handler is left: until then its
        # traceback holds the failed run's tables
        def no_memory(*_args):
            raise MemoryError
        active = []

        class Recorder(io.StringIO):
            def write(self, text):
                active.append(sys.exc_info()[0])
                return super().write(text)
        monkeypatch.setattr("puiseux.cli.truncate", no_memory)
        monkeypatch.setattr(sys, "stderr", Recorder())
        spec = _write(tmp_path, EXPLICIT_HALF_THIRD)
        assert cli.main(["atoms", "--spec", spec]) == 1
        err = sys.stderr.getvalue()
        assert capsys.readouterr().out == ""
        assert err.startswith("error: out of memory") and "Traceback" not in err
        assert active and not any(active)

    def test_non_member_element(self, capsys, tmp_path):
        spec = _write(tmp_path, EXPLICIT_HALF_THIRD)
        code, _, err = _run(capsys, "factorize", "--spec", spec,
                            "--element", "1/9999")
        assert code == 1
        assert err == "error: 1/9999 is not in the monoid\n"


class TestParserReuse:
    def test_calls_share_one_parser_and_no_state(self, capsys, tmp_path,
                                                  monkeypatch):
        spec = _write(tmp_path, EXPLICIT_HALF_THIRD)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["elasticity", "--spec", spec, "--element", "x/y"])
        assert exc_info.value.code == 2
        after_first = len(built)
        for argv, expected in (
                (["elasticity", "--element", "3/2"], "4/3\n"),
                (["elasticity"], "3/2\n"),
                (["atoms", "--format", "json"],
                 '{\n  "atoms": [\n    "1/3",\n    "1/2"\n  ],\n'
                 '  "depth": 5\n}\n'),
                (["atoms"], "{1/3, 1/2}\n")):
            assert _run(capsys, *argv, "--spec", spec)[:2] == (0, expected)
        assert built.count("puiseux") <= 1 and len(built) == after_first
