import argparse
import json
from fractions import Fraction
from pathlib import Path

import pytest

from puiseux import cli
from puiseux.factorization import factorizations
from puiseux.monoid import elements_up_to, truncate
from puiseux.rationals import format_rational
from puiseux.specfile import MAX_EXPR_DEPTH, load_spec

# 600 nested parentheses exhausted the parser's recursion; a 1,500-term
# sum built a tree that evaluation recursed down.
DEEP_OR_LONG = pytest.mark.parametrize(
    "expr", ["(" * 600 + "n" + ")" * 600, "+".join(["n"] * 1500)],
    ids=["nested", "long"])
TOO_DEEP = f"error: numerator expression nests deeper than {MAX_EXPR_DEPTH} levels\n"
# Python 3.11 and later refuse int <-> str conversions past 4,300 digits
PAST_DIGIT_LIMIT = "1" * 5001

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
