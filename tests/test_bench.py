"""scripts/bench.py: the record it writes and the change it prints,
with perfbench/run.py replaced by canned results."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _result(script_s, failed=0):
    return {"exit_code": 1 if failed else 0, "correct": not failed, "attempted": 10,
            "failed": failed, "metrics": {"script_s": {"value": script_s, "unit": "s"}}}


def test_record_and_change(monkeypatch, tmp_path, capsys):
    bench = _load_bench()
    runs = iter([0.02, 0.04, 0.06, 0.01, 0.02, 0.03])
    monkeypatch.setattr(bench, "run_workload", lambda w, seed, s: _result(next(runs)))
    monkeypatch.setattr(bench, "revision", lambda: "abc1234-dirty")
    assert bench.main(["--seconds", "1", "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "BENCH_abc1234.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["revision"] == "abc1234-dirty" and record["seconds"] == 1.0
    assert set(record["workloads"]) == {"scan", "query", "bifurcus"}
    assert "change from" not in capsys.readouterr().out

    assert bench.main(["--seconds", "1", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "change from abc1234-dirty to abc1234-dirty:" in out
    assert [line.split()[-2] for line in out.splitlines() if "script_s" in line] == [
        "0.500", "0.500", "0.500"]


def test_a_failed_op_is_exit_1(monkeypatch, tmp_path):
    bench = _load_bench()
    monkeypatch.setattr(bench, "run_workload", lambda w, seed, s: _result(0.01, failed=1))
    assert bench.main(["--out-dir", str(tmp_path)]) == 1
    assert len(list(tmp_path.glob("BENCH_*.json"))) == 1


def test_a_failed_workload_prints_its_failed_ops(monkeypatch, capsys):
    bench = _load_bench()
    stdout = ("workload scan, seed 1: 2 ops x 1 rounds\n"
              "FAILED plot --depth 6: differs from the pinned result (exit 0)\n"
              + json.dumps({"correct": False, "attempted": 2, "failed": 1}) + "\n")
    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: bench.subprocess.CompletedProcess(
        a, 1, stdout=stdout, stderr="a warning\n"))
    result = bench.run_workload("scan", 1, 1.0)
    assert result == {"exit_code": 1, "correct": False, "attempted": 2, "failed": 1}
    assert capsys.readouterr().err.splitlines() == [
        "scan: run.py exited 1",
        "FAILED plot --depth 6: differs from the pinned result (exit 0)",
        "a warning"]
