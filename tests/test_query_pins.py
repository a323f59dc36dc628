"""Replay the density, atoms and classify ops of the query benchmark,
and every per-element op that reads factorization counts (factorize,
lengths, elasticity, shift-check, decompose), against the exit codes
and stdout digests pinned in perfbench/expected.json.  Reads
perfbench/ and writes nothing there."""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from puiseux import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

PINS = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["ops"]
UNIVERSE = workloads.query_universe()
OPS = [op for kind in ("density", "atoms", "classify", "factorize", "lengths",
                       "elasticity", "shift-check", "decompose")
       for op in UNIVERSE[kind]]


@pytest.mark.parametrize("op", OPS, ids=workloads.op_key)
def test_op_matches_its_pin(op):
    specs = str(PERFBENCH / "specs")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([arg.replace("{w}", specs) for arg in op["argv"]])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert [code, digest] == PINS[workloads.op_key(op)]
