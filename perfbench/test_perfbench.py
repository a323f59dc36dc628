"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import checks
import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(run.SRC))
run.import_puiseux()
cli = sys.modules["puiseux.cli"]


def test_self_time_of_nested_spans():
    t = Tracer()
    root = t.record("cli.main", 0.0, 10.0)
    a = t.record("monoid.truncate", 1.0, 5.0, root)
    t.record("monoid.from_generators", 2.0, 4.5, a)
    t.record("monoid.contains", 6.0, 7.0, root)
    t.record("monoid.contains", 7.5, 8.0, root)
    selfs = t.self_times()
    assert selfs == {"cli.main": 4.5, "monoid.truncate": 1.5,
                     "monoid.from_generators": 2.5, "monoid.contains": 1.5}
    assert sum(selfs.values()) == 10.0
    assert t.calls()["monoid.contains"] == 2


def test_wrapper_records_parent_and_reraises():
    t = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    w_inner = t.wrap("inner", inner)
    w_outer = t.wrap("outer", lambda x: w_inner(x) * 2)
    assert w_outer(3) == 8
    assert list(t.parent) == [-1, 0]
    try:
        w_outer(-1)
    except ValueError:
        pass
    assert t.stack == [] and len(t.span_name) == 4
    assert all(e >= s for s, e in zip(t.start, t.end))


class _FakeCli:
    def __init__(self, outputs):
        self.outputs = iter(outputs)

    def main(self, argv):
        sys.stdout.write(next(self.outputs))
        return 0


def test_one_corrupted_byte_is_a_failed_op(tmp_path):
    op = workloads._op(["contains", "--spec", "{w}/x.json", "--element", "1"])
    good = "true\n"
    pins = {"ops": {workloads.op_key(op): [0, run.digest(good)]}}
    r = run.Run(_FakeCli([good, "trve\n"]), [op], pins, tmp_path)
    r.repeat()
    assert (r.attempted, r.failed) == (1, 0)
    r.repeat()
    assert (r.attempted, r.failed) == (2, 1)
    first = run.Run(_FakeCli(["true\r"]), [op], pins, tmp_path)
    first.repeat()
    assert first.failed == 1 and "pinned" in first.reasons[0]


def test_property_checks_catch_wrong_values():
    op = workloads._op(["lengths", "--spec", "{w}/primarydense.json", "--depth", "8",
                        "--element", "3", "--cap", "5000"], monoid="primarydense")
    lengths = sorted(checks.primary_length_set(
        checks.catalog_generators("primarydense", 8), 3))
    good = "{" + ", ".join(map(str, lengths)) + "}\n"
    assert checks.check_op(op, 0, good, {}) is None
    assert checks.check_op(op, 0, good.replace(str(lengths[0]), "1", 1), {})
    fz = workloads._op(["factorize", "--spec", "{w}/bfplot.json", "--depth", "4",
                        "--element", "1", "--cap", "500"], monoid="bfplot")
    assert checks.check_op(fz, 0, "2 x 1/2\n", {}) is None
    assert checks.check_op(fz, 0, "3 x 1/2\n", {})


def test_op_list_repeats_for_a_fixed_seed():
    pins = run.load_pins()
    for w in workloads.WORKLOADS:
        a = workloads.serialize(*workloads.build(w, 7, pins))
        b = workloads.serialize(*workloads.build(w, 7, pins))
        assert a == b
    for w in ("scan", "query"):
        assert (workloads.serialize(*workloads.build(w, 7, pins))
                != workloads.serialize(*workloads.build(w, 8, pins)))


def test_every_op_of_every_seed_is_pinned():
    pins = run.load_pins()
    keys = {workloads.op_key(op) for s in workloads.query_universe().values()
            for op in s}
    assert keys <= set(pins["ops"]) and keys == set(pins["costs"])
    for w in workloads.WORKLOADS:
        for seed in range(20):
            ops, _files = workloads.build(w, seed, pins)
            assert {workloads.op_key(op) for op in ops} <= set(pins["ops"])


def _outputs(argvs):
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out.append((code, buf.getvalue()))
    return out


def test_wrapped_functions_return_what_unwrapped_ones_do(tmp_path):
    spec = str(run.HERE / "specs" / "bfplot.json")
    staged = str(tmp_path / "s.json")
    argvs = [["atoms", "--spec", spec, "--depth", "6"],
             ["factorize", "--spec", spec, "--depth", "4", "--element", "4"],
             ["decompose", "--spec", spec, "--depth", "4", "--element", "3"],
             ["rset", "--spec", spec, "--depth", "4", "--bound", "5"],
             ["status", "--spec", spec],
             ["bifurcus", "--stages", "1", "--bound", "3/2", "--out", staged],
             ["verify-bifurcus", "--staged", staged, "--bound", "3/2"]]
    plain = _outputs(argvs)
    t = Tracer()
    t.install(run.trace_targets(t))
    try:
        assert hasattr(cli.main, "__wrapped__")
        traced = _outputs(argvs)
    finally:
        t.uninstall()
    assert traced == plain
    names = set(t.calls())
    assert {"cli.main", "cli.build_parser", "monoid.truncate",
            "specfile.instantiate", "factorization.factorizations",
            "constructions.load_staged", "primes.next_prime_at_least"} <= names
    assert t.counts["primes.is_prime.calls"] > 0
    assert _outputs(argvs) == plain and not t._undo


def test_catalog_generators_match_the_library_atoms():
    from puiseux.constructions import catalog
    from puiseux.monoid import truncate
    for name in checks.PRIMARY:
        tm = truncate(catalog(name, 6), 6)
        assert list(tm.atoms) == list(checks.catalog_generators(name, 6))


def test_benchmark_json_names_every_metric():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
