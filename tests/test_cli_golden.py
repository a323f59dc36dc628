"""Every subcommand in every --format it accepts, pinned by digest.

Each case runs `cli.main` in-process and is compared with
tests/data/cli_golden.json, which maps the case's key to
[exit code, sha256(stdout), sha256(stderr)], plus sha256 of the file
written when the case has --out.  Usage errors (exit 2) pin no stderr
digest: argparse words its messages differently across Python
versions, so only the "usage: puiseux" prefix is checked.

Specs are read from perfbench/specs (never written); "{tmp}" stands
for a fresh directory.  A few cases run under a patch that makes a
path reachable at test scale: a small sweep budget for plot's
work-budget row, and a shift report that breaks the law for the
LAW VIOLATION lines.

Regenerate the pins, only from a tree whose output is known to be right:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from puiseux import cli, monoid
from puiseux.invariants import ShiftReport

ROOT = Path(__file__).resolve().parent.parent
PINS_FILE = ROOT / "tests" / "data" / "cli_golden.json"
PLACES = {"{specs}": str(ROOT / "perfbench" / "specs"),
          "{data}": str(ROOT / "tests" / "data")}

FORMATS3 = ("text", "json", "csv")
FORMATS2 = ("text", "json")
MONOIDS = ("bfplot", "primarydense", "primarystable", "factorial")
# an atom of each monoid at depth 4 with a prime denominator of its own
SHIFT_ATOM = {"bfplot": "12/11", "primarydense": "4/7",
              "primarystable": "30/53", "factorial": "1/7"}
STAGED = "{data}/bifurcus_stages2_bound2.json"


def _fmt(argv, formats, patch=None):
    return [(patch, [*argv, "--format", f]) for f in formats]


def cases():
    """(patch, argv) pairs; patch names a setup in PATCHES, or None."""
    out = []
    for m in MONOIDS:
        spec = ["--spec", f"{{specs}}/{m}.json"]
        tm = [*spec, "--depth", "4"]
        out += _fmt(["atoms", *tm], FORMATS3)
        out += _fmt(["classify", *tm], FORMATS3)
        out += _fmt(["status", *spec], FORMATS2)
        for x in ("3/2", "1/9999"):
            out += _fmt(["contains", *tm, "--element", x], FORMATS2)
        # "1/9999" is not a member: exit 1 in every format
        for x in ("2", "1/9999"):
            el = [*tm, "--element", x]
            out += _fmt(["factorize", *el, "--cap", "500"], FORMATS3)
            out += _fmt(["lengths", *el, "--cap", "500"], FORMATS3)
            out += _fmt(["elasticity", *el, "--cap", "500"], FORMATS2)
        out += _fmt(["factorize", *tm, "--element", "3", "--cap", "1"], FORMATS3)
        out += _fmt(["lengths", *tm, "--element", "3", "--cap", "1"], FORMATS3)
        out += _fmt(["elasticity", *tm, "--element", "0"], FORMATS2)
        out += _fmt(["elasticity", *tm], FORMATS2)
        out += _fmt(["elasticity", *spec, "--mode", "symbolic"], FORMATS2)
        out += _fmt(["rset", *tm, "--bound", "2"], FORMATS3)
        out += _fmt(["witnesses", *tm, "--bound", "4"], FORMATS3)
        out += _fmt(["decompose", *tm, "--element", "3/2", "--cap", "500"], FORMATS2)
        for x, atom in (("1", SHIFT_ATOM[m]), ("1", "1/2"), ("1/9999", SHIFT_ATOM[m])):
            out += _fmt(["shift-check", *tm, "--element", x, "--atom", atom],
                        FORMATS2)
        out += [(None, ["plot", *tm, "--bound", "2", *flags])
                for flags in ([], ["--all"], ["--decimal"], ["--all", "--decimal"])]
        out += [(None, ["catalog", "--name", m, "--depth", "4"]),
                (None, ["catalog", "--name", m, "--out", "{tmp}/catalog.json"])]
    out += _fmt(["shift-check", "--spec", "{specs}/primarydense.json", "--depth", "4",
                 "--element", "1", "--atom", "4/7"], FORMATS2, patch="violation")
    # both capped rows of plot: the factorization cap, then the sweep's budget
    out += [(None, ["plot", "--spec", "{specs}/factorial.json", "--depth", "4",
                    "--bound", "2", "--cap", "3", *flags])
            for flags in ([], ["--all", "--decimal"])]
    out += [("budget", ["plot", "--spec", "{specs}/primarydense.json", "--depth", "4",
                        "--bound", "8", *flags]) for flags in ([], ["--decimal"])]
    for a, b, target, eps, budget in (("2*n - 1", "n", "3/2", "1/100", "10000"),
                                      ("n*n", "n", "2", "1/100", "10000"),
                                      ("2*n - 1", "n", "3", "1/1000", "50")):
        out += _fmt(["density", "--a-seq", a, "--b-seq", b, "--target", target,
                     "--epsilon", eps, "--budget-n", budget], FORMATS2)
    out += _fmt(["bifurcus", "--stages", "1", "--bound", "3/2"], FORMATS2)
    out += _fmt(["bifurcus", "--stages", "3", "--bound", "7/6"], FORMATS2)
    out += _fmt(["bifurcus", "--stages", "2", "--bound", "3/2",
                 "--out", "{tmp}/staged.json"], FORMATS2)
    out += _fmt(["bifurcus", "--stages", "1", "--bound", "1"], FORMATS2)
    # passed at 3/2 and 2; FAILED below the least atom
    for bound in ("3/2", "2", "1/4"):
        out += _fmt(["verify-bifurcus", "--staged", STAGED, "--bound", bound],
                    FORMATS2)
    out += _fmt(["verify-bifurcus", "--staged", STAGED, "--bound", "3"], FORMATS2)
    # usage errors
    out += [(None, argv) for argv in (
        [], ["no-such-command"], ["atoms", "--spec", "{specs}/bfplot.json",
                                  "--format", "yaml"],
        ["contains", "--spec", "{specs}/bfplot.json", "--element", "1",
         "--format", "csv"],
        ["elasticity", "--spec", "{specs}/bfplot.json", "--element", "x/y"],
        ["plot", "--spec", "{specs}/bfplot.json", "--bound", "2", "--format", "json"],
        ["catalog", "--name", "no-such-entry"])]
    return out


def _violation(tm, x, atom, cap=None):
    return ShiftReport(True, None, (2, 3), (3, 5), False)


PATCHES = {"budget": (monoid, "_DEFAULT_BUDGET", 1_000),
           "violation": (cli, "shifted_lengths", _violation)}


def key(patch, argv) -> str:
    return (f"[{patch}] " if patch else "") + " ".join(argv)


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_case(patch, argv, tmp: str) -> tuple[list, str]:
    """The pin of one case, [exit code, sha256(stdout), sha256(stderr)
    or None] with sha256 of the written file appended when it has
    --out, and its stderr."""
    real = [arg.replace("{tmp}", tmp) for arg in argv]
    for place, path in PLACES.items():
        real = [arg.replace(place, path) for arg in real]
    out, err = io.StringIO(), io.StringIO()
    saved = None
    if patch:
        target, name, value = PATCHES[patch]
        saved = getattr(target, name)
        setattr(target, name, value)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(real)
            except SystemExit as exc:
                code = exc.code
    finally:
        if patch:
            setattr(target, name, saved)
    pin = [code, _sha(out.getvalue()),
           None if code == 2 else _sha(err.getvalue())]
    if "--out" in real:
        written = Path(real[real.index("--out") + 1])
        pin.append(_sha(written.read_bytes()) if written.exists() else None)
        if written.exists():
            written.unlink()
    return pin, err.getvalue()


CASES = cases()


@pytest.fixture(autouse=True)
def _no_env_cap(monkeypatch):
    monkeypatch.delenv("PUISEUX_CAP", raising=False)


def test_pins_cover_exactly_the_cases():
    pins = json.loads(PINS_FILE.read_text(encoding="utf-8"))
    assert sorted(pins) == sorted(key(p, a) for p, a in CASES)
    assert len(CASES) == len({key(p, a) for p, a in CASES})


@pytest.mark.parametrize("patch, argv", CASES, ids=[key(p, a) for p, a in CASES])
def test_output_matches_its_pin(patch, argv, tmp_path):
    pins = json.loads(PINS_FILE.read_text(encoding="utf-8"))
    pin, err = run_case(patch, argv, str(tmp_path))
    assert "Traceback" not in err
    if pin[0] == 2:
        assert err.startswith("usage: puiseux")
    assert pin == pins[key(patch, argv)]


if __name__ == "__main__":
    os.environ.pop("PUISEUX_CAP", None)
    with tempfile.TemporaryDirectory() as tmp:
        pins = {key(p, a): run_case(p, a, tmp)[0] for p, a in CASES}
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {len(pins)} pins to {PINS_FILE.relative_to(ROOT)}", file=sys.stderr)
