"""Replay every op the query benchmark can draw (all 915 of
workloads.query_universe(), every stratum) against the exit codes and
stdout digests pinned in perfbench/expected.json.  Reads perfbench/
and writes nothing there."""

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
OPS = [op for ops in UNIVERSE.values() for op in ops]


@pytest.mark.parametrize("op", OPS, ids=workloads.op_key)
def test_op_matches_its_pin(op):
    specs = str(PERFBENCH / "specs")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([arg.replace("{w}", specs) for arg in op["argv"]])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert [code, digest] == PINS[workloads.op_key(op)]
