"""Replay every rset, witnesses and plot op the scan benchmark can draw
against the exit codes and stdout digests pinned in
perfbench/expected.json: the fixed ops and both ops of every set in the
scan pool, so the elasticity scans are pinned on every pooled set, on
whichever path (residue table or sweep) each one takes.  The explicit
specs are written to a fresh directory; perfbench/ is only read."""

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

from puiseux import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

PINS = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


class _WholePool:
    """Stands in for the workload's rng: its sample is the whole pool."""

    @staticmethod
    def sample(pool, _k):
        return pool


OPS, FILES = workloads.scan(_WholePool, PINS["scan_pool"])


def _files_of(op):
    return [(path, text) for path, text in FILES.items() if path in op["argv"]]


def test_every_pooled_set_is_replayed():
    assert len(OPS) == len(workloads.SCAN_FIXED) + 2 * len(PINS["scan_pool"])


@pytest.mark.parametrize("op", OPS, ids=workloads.op_key)
def test_op_matches_its_pin(op, tmp_path):
    for path, text in _files_of(op):
        dest = Path(path.replace("{w}", str(tmp_path)))
        if text is None:
            shutil.copyfile(PERFBENCH / "specs" / dest.name, dest)
        else:
            dest.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([arg.replace("{w}", str(tmp_path)) for arg in op["argv"]])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert [code, digest] == PINS["ops"][workloads.op_key(op)]
