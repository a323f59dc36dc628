#!/usr/bin/env python3
"""Run the three benchmark workloads on this checkout and keep the result.

    python3 scripts/bench.py [--seconds S] [--seed N] [--out-dir DIR]

Runs `perfbench/run.py --workload W --seed N --seconds S --trace 0` for
scan, query and bifurcus, one process each, and writes
DIR/BENCH_<short-sha>.json (DIR defaults to the repository root) with
the Python version, the git revision (with "-dirty" when tracked files
have uncommitted edits), the settings and each workload's result:
correct, attempted, failed and the end-to-end metrics.  It then prints
every metric beside the same metric of the newest BENCH_*.json
in DIR as it was before this run (the one this run replaces, when
the revision is the same), with their ratio.  perfbench/ is only run,
never changed.

The exit code is 0 when every workload ran and every op was correct
(its exit code and stdout sha256 match perfbench/expected.json), 1
otherwise; a failing workload's FAILED lines and stderr tail are
printed.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan", "query", "bifurcus")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def revision() -> str:
    """The short HEAD sha, "-dirty" appended when tracked files differ
    from it; "unknown" outside a git checkout."""
    try:
        sha = _git("rev-parse", "--short", "HEAD")
        return sha + ("-dirty" if _git("status", "--porcelain", "--untracked-files=no")
                      else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    """perfbench/run.py's result object for one workload: its last
    stdout line, plus the exit code.  When the workload fails, its
    FAILED lines and the tail of its stderr go to stderr."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "error": proc.stderr.strip()[-500:]}
    if proc.returncode or not result.get("correct"):
        print(f"{workload}: run.py exited {proc.returncode}",
              *(line for line in lines if line.startswith("FAILED ")),
              proc.stderr.strip()[-2000:], sep="\n", file=sys.stderr)
    return {"exit_code": proc.returncode, **result}


def previous(out_dir: Path) -> dict | None:
    """The newest readable BENCH_*.json in out_dir, or None."""
    for path in sorted(out_dir.glob("BENCH_*.json"), key=lambda p: p.stat().st_mtime,
                       reverse=True):
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
    return None


def changes(old: dict, new: dict) -> list[str]:
    """One line per end-to-end metric of new: old value, new value and
    new/old, for every workload both records hold."""
    lines = [f"change from {old.get('revision')} to {new['revision']}:"]
    for workload, result in new["workloads"].items():
        before = old.get("workloads", {}).get(workload, {}).get("metrics", {})
        for metric, entry in result.get("metrics", {}).items():
            if metric not in before:
                continue
            a, b = before[metric]["value"], entry["value"]
            ratio = f"{b / a:7.3f}" if a else "      -"
            lines.append(f"  {workload:>8} {metric:>13} {a:12.6g} -> {b:<12.6g}"
                         f"{ratio} {entry['unit']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    rev = revision()
    record = {"python": platform.python_version(), "revision": rev,
              "seed": args.seed, "seconds": args.seconds,
              "workloads": {w: run_workload(w, args.seed, args.seconds)
                            for w in WORKLOADS}}
    name = f"BENCH_{rev.removesuffix('-dirty')}.json"
    args.out_dir.mkdir(parents=True, exist_ok=True)
    old = previous(args.out_dir)
    (args.out_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(f"wrote {args.out_dir / name}")
    for workload, result in record["workloads"].items():
        print(f"  {workload}: correct {result.get('correct')}, "
              f"failed {result.get('failed')} of {result.get('attempted')}")
    if old is not None:
        print("\n".join(changes(old, record)))
    return 0 if all(r.get("correct") and r["exit_code"] == 0
                    for r in record["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
