#!/usr/bin/env python3
"""Time one benchmark workload on a git revision and on this checkout,
alternating op by op in one process, and check that their outputs match.

    python3 scripts/ab.py <rev> [--workload W] [--seed S]

<rev>'s src/puiseux is extracted with `git archive` into a temporary
directory and imported as the package `puiseux_base`; this checkout's
src/puiseux, uncommitted edits included, is imported as `puiseux`.
The op list is the one perfbench/workloads.py draws for the workload
and seed (that file and perfbench/expected.json are only read).  Each
of ROUNDS rounds runs every op once on each tree, in a fresh work
directory per tree, the tree that goes first alternating from op to
op.  Both trees run under the same host drift, so their ratio is
steadier than two separate benchmark runs.

Printed: each op's median time over the rounds on both trees and the
ratio checkout/rev, the summed medians, the quartiles of the per-round
ratios checkout/rev of the summed op times; then the median time to
compile() every .py of each tree, over as many rounds, alternating, and
the quartiles of its per-round ratios (most of what a fresh process
spends importing the package when no bytecode is cached); and whether
every exit code,
stdout and stderr matched (work-directory paths read alike).  An op
that raises is recorded with the exception as its exit code, so one
that raises in only one tree shows as a difference.  The exit code is 0 when every output matched,
1 when one differed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BASE_NAME = "puiseux_base"
ROUNDS = 11


def _import_base(rev: str, into: Path):
    """<rev>'s puiseux package, imported as BASE_NAME from into."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src/puiseux"],
                         cwd=ROOT, capture_output=True, check=True).stdout
    # the "data" filter, where this Python has it, refuses links and
    # paths that leave into
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)
    (into / "src" / "puiseux").rename(into / BASE_NAME)
    sys.path.insert(0, str(into))
    try:
        return importlib.import_module(f"{BASE_NAME}.cli")
    finally:
        sys.path.remove(str(into))


def _import_checkout():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        cli = importlib.import_module("puiseux.cli")
    finally:
        sys.path.remove(str(ROOT / "src"))
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "puiseux":
        raise ImportError(f"puiseux imported from {cli.__file__}, not {ROOT / 'src'}")
    return cli


def _ops(workload: str, seed: int):
    """(argv lists with "{w}" for the work directory, {path: text or None})."""
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    pins = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    ops, files = workloads.build(workload, seed, pins)
    return [op["argv"] for op in ops], files


def _workdir(path: Path, files) -> str:
    path.mkdir()
    for name, text in files.items():
        dest = Path(name.replace("{w}", str(path)))
        if text is None:
            shutil.copyfile(BENCH / "specs" / dest.name, dest)
        else:
            dest.write_text(text, encoding="utf-8")
    return str(path)


def _run(cli, argv, workdir: str):
    """(seconds, (exit code, stdout, stderr)) of one op, paths read as {w}."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([a.replace("{w}", workdir) for a in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is an output, not a stop
            code = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return seconds, (code, *(s.getvalue().replace(workdir, "{w}") for s in (out, err)))


def paired_quartiles(rounds) -> list[float]:
    """The quartiles of checkout/rev over (rev s, checkout s) pairs, one
    pair a round: the paired ratios cancel the drift both trees ran
    under in that round."""
    return statistics.quantiles([this / base for base, this in rounds], n=4,
                                method="inclusive")


def compile_rounds(trees) -> list[tuple[float, float]]:
    """(rev s, checkout s) to compile() every .py below each of the two
    directories trees, one pair a round, the tree that goes first
    alternating from round to round.  The sources are read once."""
    sources = [[(str(path), path.read_text(encoding="utf-8"))
                for path in sorted(Path(tree).rglob("*.py"))] for tree in trees]
    rounds = []
    for r in range(ROUNDS):
        pair = [0.0, 0.0]
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            for path, text in sources[side]:
                compile(text, path, "exec", dont_inherit=True)
            pair[side] = time.perf_counter() - start
        rounds.append(tuple(pair))
    return rounds


def compare(rev: str, workload: str, seed: int) -> dict:
    """{"ops": [(argv, rev median s, checkout median s)], "rounds": [(rev
    s, checkout s) summed over the ops, one pair a round], "compile":
    compile_rounds of the two packages, "differ": [argv]}."""
    argvs, files = _ops(workload, seed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = [_import_base(rev, tmp / "rev"), _import_checkout()]
        compiled = compile_rounds([tmp / "rev" / BASE_NAME, ROOT / "src" / "puiseux"])
        dirs = [_workdir(tmp / name, files) for name in ("w-rev", "w-checkout")]
        try:
            times = [[[], []] for _ in argvs]
            differ = set()
            for r in range(ROUNDS):
                gc.collect()
                for i, argv in enumerate(argvs):
                    outputs = [None, None]
                    for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                        seconds, outputs[side] = _run(trees[side], argv, dirs[side])
                        times[i][side].append(seconds)
                    if outputs[0] != outputs[1]:
                        differ.add(i)
        finally:
            for name in [m for m in sys.modules
                         if m == BASE_NAME or m.startswith(BASE_NAME + ".")]:
                del sys.modules[name]
    return {"ops": [(argv, statistics.median(a), statistics.median(b))
                    for argv, (a, b) in zip(argvs, times)],
            "rounds": [tuple(sum(op[side][r] for op in times) for side in (0, 1))
                       for r in range(ROUNDS)],
            "compile": compiled,
            "differ": [argvs[i] for i in sorted(differ)]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare this checkout with")
    ap.add_argument("--workload", default="bifurcus",
                    choices=("scan", "query", "bifurcus"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    try:
        result = compare(args.rev, args.workload, args.seed)
    except subprocess.CalledProcessError as exc:
        print(f"error: git archive {args.rev} failed: "
              f"{exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}, {ROUNDS} rounds, "
          f"median ms: {args.rev} | checkout | checkout/{args.rev}")
    for op, base, this in result["ops"]:
        print(f"{base * 1e3:10.3f} {this * 1e3:10.3f} {this / base:7.3f}  {' '.join(op)}")
    base = sum(b for _op, b, _t in result["ops"])
    this = sum(t for _op, _b, t in result["ops"])
    print(f"{base * 1e3:10.3f} {this * 1e3:10.3f} {this / base:7.3f}  total")
    q1, q2, q3 = paired_quartiles(result["rounds"])
    print(f"per-round total checkout/{args.rev} quartiles: {q1:.3f} {q2:.3f} {q3:.3f}")
    base, this = (statistics.median(pair[side] for pair in result["compile"])
                  for side in (0, 1))
    print(f"{base * 1e3:10.3f} {this * 1e3:10.3f} {this / base:7.3f}  compile every .py")
    q1, q2, q3 = paired_quartiles(result["compile"])
    print(f"per-round compile checkout/{args.rev} quartiles: {q1:.3f} {q2:.3f} {q3:.3f}")
    if result["differ"]:
        print(f"outputs differ on {len(result['differ'])} of {len(result['ops'])} ops:")
        for op in result["differ"]:
            print("  " + " ".join(op))
        return 1
    print(f"outputs: exit code, stdout and stderr equal on all {len(result['ops'])} ops")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
