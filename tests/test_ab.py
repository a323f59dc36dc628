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
    assert len(result["compile"]) == 3
    assert all(base > 0 and this > 0 for base, this in result["compile"])
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
              "rounds": [(4.0, 3.0), (4.0, 4.0), (8.0, 4.0)],
              "compile": [(0.02, 0.018), (0.04, 0.044), (0.03, 0.027)], "differ": []}
    monkeypatch.setattr(ab, "compare", lambda rev, workload, seed: canned)
    assert ab.main(["HEAD"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-5].split() == ["4000.000", "3500.000", "0.875", "total"]
    assert lines[-4] == "per-round total checkout/HEAD quartiles: 0.625 0.750 0.875"
    assert lines[-3].split() == ["30.000", "27.000", "0.900", "compile", "every", ".py"]
    assert lines[-2] == "per-round compile checkout/HEAD quartiles: 0.900 0.900 1.000"


def test_compile_rounds_on_a_tmp_tree(tmp_path, monkeypatch):
    ab = _load_ab()
    monkeypatch.setattr(ab, "ROUNDS", 4)
    rev, checkout = tmp_path / "rev", tmp_path / "checkout"
    for tree in (rev, checkout / "sub"):
        tree.mkdir(parents=True)
    (rev / "a.py").write_text("x = 1\n", encoding="utf-8")
    (rev / "notes.txt").write_text("not python (\n", encoding="utf-8")
    (checkout / "a.py").write_text("def f(y):\n    return y + 1\n" * 200,
                                   encoding="utf-8")
    (checkout / "sub" / "b.py").write_text("from __future__ import annotations\n",
                                           encoding="utf-8")
    rounds = ab.compile_rounds([rev, checkout])
    assert len(rounds) == 4
    assert all(base > 0 and this > 0 for base, this in rounds)

    compiled = []
    monkeypatch.setattr(ab, "compile", lambda text, path, mode, dont_inherit:
                        compiled.append(path), raising=False)
    ab.compile_rounds([rev, checkout])
    # every .py of both trees once a round, the tree that goes first
    # alternating
    first = [str(rev / "a.py"), str(checkout / "a.py"), str(checkout / "sub" / "b.py")]
    second = first[1:] + first[:1]
    assert compiled == (first + second) * 2
