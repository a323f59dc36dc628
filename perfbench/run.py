"""Benchmark of the puiseux CLI, driven in-process through cli.main.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 36 --trace 0

One client sends one op at a time (closed loop) in this single process.
The op script of the workload is repeated as often as fits in
--seconds (at least once); every op's exit code and stdout are checked.
An op's latency is its median over the repeats: every op is short, so
a run repeats the script some 20 times, and the median shrugs off the
shared host's passing fast and slow phases.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced repeats
and reports per-layer metrics from spans around calls into each
module.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
every op is correct, 1 when some op failed, 2 when the program under
test cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 11

END_TO_END = {"setup_s": "s", "script_s": "s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mib": "MiB"}

# Per-layer metrics: <module>.<function>.<stat>, plus op-kind totals
# from untraced repeats and the trace's own bookkeeping.
SPANS = ("cli.main", "cli.build_parser", "specfile.load_spec",
         "specfile.instantiate", "primes.next_prime_at_least",
         "monoid.from_generators", "monoid.truncate", "monoid.elements_up_to",
         "monoid.contains", "factorization.factorizations",
         "factorization.length_extremes_up_to", "invariants.elasticity_set",
         "invariants.elasticity_witnesses",
         "invariants.decompose_stable_unstable", "invariants.shifted_lengths",
         "invariants.bf_ff_status", "invariants.density_witness",
         "constructions.bifurcus_build", "constructions.staged_to_json",
         "constructions.load_staged", "constructions.bifurcus_verify")
COUNTS = {"specfile.load_spec.calls": "count",
          "specfile.instantiate.items": "count",
          "primes.next_prime_at_least.calls": "count",
          "primes.is_prime.calls": "count",
          "monoid.from_generators.gens_in": "count",
          "monoid.from_generators.atoms_out": "count",
          "monoid.from_generators.kept_ratio": "ratio",
          "monoid.elements_up_to.items": "count",
          "monoid.contains.calls": "count",
          "factorization.factorizations.calls": "count",
          "factorization.factorizations.items": "count",
          "factorization.factorizations.items_per_call": "count/call",
          "factorization.length_extremes_up_to.items": "count",
          "constructions.pairs_added": "count"}
OP_TOTALS = {"op.plot_s": ("plot",), "op.rset_s": ("rset",),
             "op.witnesses_s": ("witnesses",), "op.build_s": ("bifurcus",),
             "op.verify_s": ("verify-bifurcus",)}
PER_LAYER = {**{f"{s}.self_s": "s" for s in SPANS}, **COUNTS,
             **{k: "s" for k in OP_TOTALS}, "op.load_s": "s",
             "trace.wall_s": "s", "trace.self_sum_s": "s",
             "trace.overhead_ratio": "ratio"}


# --- set-up ----------------------------------------------------------------


def import_puiseux():
    """Fresh import of the package from this checkout's src/."""
    for name in [n for n in sys.modules if n == "puiseux" or n.startswith("puiseux.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("puiseux")
    importlib.import_module("puiseux.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "puiseux":
        raise ImportError(f"puiseux imported from {pkg.__file__}, not {SRC}")
    return pkg


def load_pins():
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate the op list and write its files; returns the
    pins, the ops and the serialized op list."""
    import_puiseux()
    pins = load_pins()
    ops, files = workloads.build(workload, seed, pins)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for path, text in files.items():
        dest = Path(path.replace("{w}", str(workdir)))
        if text is None:
            shutil.copyfile(HERE / "specs" / dest.name, dest)
        else:
            dest.write_text(text, encoding="utf-8")
    return pins, ops, workloads.serialize(ops, files)


# --- the op script ---------------------------------------------------------


def run_script(cli, argvs):
    """Run every op once; returns (wall seconds, [(code, stdout, seconds)])."""
    results = []
    gc.collect()
    clock = time.perf_counter
    t0 = clock()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # an op that raises has failed
            code = f"raised {type(exc).__name__}: {exc}"
        results.append((code, out.getvalue(), clock() - start))
    return clock() - t0, results


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_first(ops, results, pins, workdir):
    """Failure reasons (or None) per op: the pinned exit code and stdout
    sha256 when the op is pinned, and the seed-independent checks."""
    reasons = []
    for op, (code, out, _dt) in zip(ops, results):
        key = workloads.op_key(op)
        pin = pins["ops"].get(key)
        reason = None
        if pin is not None and [code, digest(out)] != pin:
            reason = f"differs from the pinned result (exit {code})"
        if reason is None:
            try:
                files = {w: Path(w.replace("{w}", str(workdir))).read_text()
                         for w in filter(None, [op["writes"]])}
                reason = checks.check_op(op, code, out, files)
            except (OSError, ValueError, KeyError, IndexError,
                    ZeroDivisionError) as exc:
                reason = f"unreadable output: {exc!r}"
        reasons.append(reason)
    return reasons


class Run:
    """Repeats of one op script, checked against the first repeat."""

    def __init__(self, cli, ops, pins, workdir):
        self.cli, self.ops, self.pins, self.workdir = cli, ops, pins, workdir
        self.argvs = [[a.replace("{w}", str(workdir)) for a in op["argv"]]
                      for op in ops]
        self.first = None
        self.reasons = []
        self.attempted = self.failed = 0

    def repeat(self):
        wall, results = run_script(self.cli, self.argvs)
        seen = [(code, digest(out)) for code, out, _dt in results]
        if self.first is None:
            self.first = seen
            self.reasons = check_first(self.ops, results, self.pins, self.workdir)
            bad = [r is not None for r in self.reasons]
        else:
            bad = [s != f for s, f in zip(seen, self.first)]
            for i in (i for i, b in enumerate(bad) if b and not self.reasons[i]):
                self.reasons[i] = "differs from the first repeat"
        self.attempted += len(results)
        self.failed += sum(bad)
        return wall, [dt for _c, _o, dt in results]


def op_totals(ops, typical):
    """Summed latency of each op kind, each op at its median over repeats."""
    return {name: sum(dt for op, dt in zip(ops, typical) if op["argv"][0] in cmds)
            for name, cmds in OP_TOTALS.items()}


def trace_targets(tracer):
    """(owner, attribute, replacement factory) for every traced name."""
    m = {name: sys.modules[f"puiseux.{name}"] for name in
         ("cli", "specfile", "primes", "monoid", "factorization", "invariants",
          "constructions")}

    def span(name, count=None):
        return lambda fn: tracer.wrap(name, fn, count)

    def add(key, f):
        def count(c, args, result):
            c[key] += f(args, result)
        return count

    def from_generators(c, args, result):
        c["monoid.from_generators.gens_in"] += len(args[0])
        c["monoid.from_generators.atoms_out"] += len(result.atoms)

    size = lambda key: add(key, lambda a, r: len(r))  # noqa: E731
    owners = {"instantiate": m["specfile"].GeneratorFamily}
    counted = {"specfile.instantiate": size("specfile.instantiate.items"),
               "monoid.from_generators": from_generators,
               "monoid.elements_up_to": size("monoid.elements_up_to.items"),
               "factorization.factorizations":
                   size("factorization.factorizations.items"),
               "factorization.length_extremes_up_to":
                   size("factorization.length_extremes_up_to.items"),
               "constructions.bifurcus_build": add(
                   "constructions.pairs_added",
                   lambda a, r: sum(len(rec.added) for rec in r.records))}
    targets = []
    for name in SPANS:
        mod, fn = name.split(".")
        targets.append((owners.get(fn, m[mod]), fn, span(name, counted.get(name))))
    targets.append((m["primes"], "is_prime",
                    lambda fn: tracer.counter("primes.is_prime.calls", fn)))
    return targets


def layer_metrics(tracer, reps):
    selfs = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counts
    out = {f"{s}.self_s": selfs.get(s, 0.0) / reps for s in SPANS}
    for key in COUNTS:
        out[key] = c.get(key, 0) / reps
    out["specfile.load_spec.calls"] = calls["specfile.load_spec"] / reps
    out["primes.next_prime_at_least.calls"] = calls["primes.next_prime_at_least"] / reps
    out["monoid.contains.calls"] = calls["monoid.contains"] / reps
    out["factorization.factorizations.calls"] = calls["factorization.factorizations"] / reps
    gens = c.get("monoid.from_generators.gens_in", 0)
    out["monoid.from_generators.kept_ratio"] = (
        c.get("monoid.from_generators.atoms_out", 0) / gens if gens else 0.0)
    n = calls["factorization.factorizations"]
    out["factorization.factorizations.items_per_call"] = (
        c.get("factorization.factorizations.items", 0) / n if n else 0.0)
    out["trace.self_sum_s"] = sum(selfs.values()) / reps
    return out


# --- main ------------------------------------------------------------------


def quantile(values, q):
    """q-th percentile (1..99), interpolated within the samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "puiseux" / "__init__.py").is_file():
        print(f"error: no puiseux package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{id(args):x}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(args, workdir) -> int:
    setup_times, blobs = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pins, ops, blob = setup(args.workload, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        blobs.add(blob)
    if len(blobs) != 1:
        print("error: the op list differs between set-ups of one seed",
              file=sys.stderr)
        return 1
    cli = sys.modules["puiseux.cli"]
    run = Run(cli, ops, pins, workdir)

    walls, lats, traced_walls = [], [], []
    tracer = Tracer()
    light = Tracer()  # times load_staged alone during untraced repeats
    light_targets = [(sys.modules["puiseux.constructions"], "load_staged",
                      lambda fn: light.wrap("load_staged", fn))]
    load_per_rep = []
    deadline = time.perf_counter() + args.seconds
    while True:
        began = time.perf_counter()
        light.install(light_targets)
        try:
            wall, lat = run.repeat()
        finally:
            light.uninstall()
        walls.append(wall)
        lats.append(lat)
        load_per_rep.append(sum(light.durations("load_staged")))
        light.clear()
        if args.trace:
            tracer.install(trace_targets(tracer))
            try:
                wall, _lat = run.repeat()
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
        # stop before a repeat that would end past the deadline
        now = time.perf_counter()
        if now + (now - began) > deadline:
            break

    typical = [statistics.median(lat[i] for lat in lats) for i in range(len(ops))]
    totals = op_totals(ops, typical)
    load_s = statistics.median(load_per_rep)
    totals["op.verify_s"] -= load_s
    totals["op.load_s"] = load_s
    e2e = {"setup_s": statistics.median(setup_times),
           "script_s": sum(typical),
           "op_p50_ms": 1000 * statistics.median(typical),
           "op_p90_ms": 1000 * quantile(typical, 90),
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops x "
          f"{len(walls)} repeats (latency samples: {len(ops)} ops, each its "
          f"median over {len(walls)}), {SETUP_REPEATS} set-ups; "
          f"median wall per repeat {statistics.median(walls):.4g} s")
    for reason, op in zip(run.reasons, ops):
        if reason:
            print(f"FAILED {workloads.op_key(op)}: {reason}")
    if args.trace:
        metrics = layer_metrics(tracer, len(traced_walls))
        metrics.update(totals)
        # per-layer values are per-repeat means, so the walls are too
        metrics["trace.wall_s"] = statistics.mean(traced_walls)
        metrics["trace.overhead_ratio"] = (metrics["trace.wall_s"]
                                           / statistics.mean(walls))
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
        for name, value in {**totals, "failed_ratio": run.failed / run.attempted}.items():
            print(f"  {name:>16} = {value:.6g}")
    for name in units:
        print(f"  {name:>16} = {metrics[name]:.6g} {units[name]}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
