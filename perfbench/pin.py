"""Regenerate perfbench/expected.json: the pinned exit code and stdout
sha256 of every op the workloads can draw, the per-op cost that sizes
query draws, and the pool of explicit generator sets scan draws from.

    python3 perfbench/pin.py

Pins record the behaviour of the commit they were taken at; byte
identity with them is the benchmark's correctness contract, so run this
only when the benchmark itself changes, never to absorb a program change.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run
import workloads

POOL_SIZE = 32
# a query op's cost is its fastest of this many passes over the whole
# universe: a pass takes several seconds, so each op meets the host's fast
# phase in at least one of them
COST_PASSES = 7


def collect(pool):
    """All pinnable ops in run order, and the files they read."""
    ops, files = workloads.scan(random.Random(0), pool)
    for gens, bound in pool:
        o, f = workloads.scan(random.Random(0), [[gens, bound]] * 3)
        ops += o[len(workloads.SCAN_FIXED):]
        files.update(f)
    ops += workloads.bifurcus(random.Random(0))[0]
    for stratum in workloads.query_universe().values():
        ops += stratum
    files.update({workloads._spec(m): None for m in workloads.CATALOG_NAMES})
    unique = {}
    for op in ops:
        unique.setdefault(workloads.op_key(op), op)
    return list(unique.values()), files


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.import_puiseux()
    cli = sys.modules["puiseux.cli"]
    workdir = run.WORK / "pin"
    pool = workloads.scan_pool(POOL_SIZE)
    ops, files = collect(pool)
    workdir.mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        dest = workdir / path.replace("{w}/", "")
        if text is None:
            shutil.copyfile(run.HERE / "specs" / dest.name, dest)
        else:
            dest.write_text(text, encoding="utf-8")
    query_keys = {workloads.op_key(op) for s in workloads.query_universe().values()
                  for op in s}
    argvs = {workloads.op_key(op): [a.replace("{w}", str(workdir)) for a in op["argv"]]
             for op in ops}
    pins, times, bad = {}, {}, 0
    try:
        for op in ops:
            key = workloads.op_key(op)
            _wall, [(code, out, dt)] = run.run_script(cli, [argvs[key]])
            pins[key] = [code, run.digest(out)]
            times[key] = [dt]
            reason = run.check_first([op], [(code, out, 0.0)],
                                     {"ops": {}}, workdir)[0]
            if reason:
                bad += 1
                print(f"CHECK FAILED {key}: {reason}")
            if dt > 0.5:
                print(f"slow ({dt:.2f} s): {key}")
        for _ in range(COST_PASSES - 1):
            for key in sorted(query_keys):
                times[key].append(run.run_script(cli, [argvs[key]])[1][0][2])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    costs = {key: round(1e6 * min(times[key])) for key in query_keys}
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump({"ops": pins, "costs": costs, "scan_pool": pool}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} ops, {len(costs)} query costs, {bad} check failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
