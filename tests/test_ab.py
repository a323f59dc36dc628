"""scripts/ab.py on HEAD against this checkout: one process, two trees."""

import importlib.util
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def _in_git_checkout() -> bool:
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                              capture_output=True).returncode == 0
    except OSError:
        return False


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout with a HEAD")
def test_head_against_the_checkout(monkeypatch):
    ab = _load_ab()
    monkeypatch.setattr(ab, "ROUNDS", 3)
    result = ab.compare("HEAD", "bifurcus", seed=1)
    assert result["differ"] == []
    assert len(result["ops"]) == 6
    assert all(base > 0 and this > 0 for _argv, base, this in result["ops"])
    assert len(result["rounds"]) == 3
    assert all(base > 0 and this > 0 for base, this in result["rounds"])
    # the base tree came from the archive, under its own name, and is gone
    assert not any(name.startswith(ab.BASE_NAME) for name in sys.modules)


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout with a HEAD")
def test_unknown_revision_is_an_error(capsys):
    assert _load_ab().main(["no-such-revision"]) == 1
    assert capsys.readouterr().err.startswith("error: git archive no-such-revision failed")


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout with a HEAD")
def test_an_op_that_raises_is_a_difference(monkeypatch):
    ab = _load_ab()
    monkeypatch.setattr(ab, "ROUNDS", 1)
    checkout = ab._import_checkout()

    def main(argv):
        if argv[0] == "verify-bifurcus":
            raise RuntimeError("broken verify")
        return checkout.main(argv)

    monkeypatch.setattr(ab, "_import_checkout", lambda: types.SimpleNamespace(main=main))
    result = ab.compare("HEAD", "bifurcus", seed=1)
    assert result["differ"]
    assert all(argv[0] == "verify-bifurcus" for argv in result["differ"])
    assert len(result["ops"]) == 6


def test_paired_quartiles_on_canned_rounds():
    ab = _load_ab()
    # checkout/rev per round: 0.5, 0.6, 0.7, 0.8, 0.9, whatever each
    # round's own speed
    rounds = [(2.0, 1.0), (10.0, 6.0), (1.0, 0.7), (5.0, 4.0), (0.1, 0.09)]
    assert ab.paired_quartiles(rounds) == pytest.approx([0.6, 0.7, 0.8])


def test_main_prints_the_quartiles(monkeypatch, capsys):
    ab = _load_ab()
    canned = {"ops": [(["a"], 1.0, 0.5), (["b"], 3.0, 3.0)],
              "rounds": [(4.0, 3.0), (4.0, 4.0), (8.0, 4.0)], "differ": []}
    monkeypatch.setattr(ab, "compare", lambda rev, workload, seed: canned)
    assert ab.main(["HEAD"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].split() == ["4000.000", "3500.000", "0.875", "total"]
    assert lines[-2] == "per-round total checkout/HEAD quartiles: 0.625 0.750 0.875"
