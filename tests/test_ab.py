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
