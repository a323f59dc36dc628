"""Seeded op lists for the three workloads.

An op is a dict: "argv" (CLI arguments; "{w}" stands for the work
directory), "monoid" (catalog name or None), "atoms" (the generator
set of an explicit spec, all atoms by construction, or None) and
"writes" (a file the op writes, or None).  build() also returns the
spec files the ops read, as {path: text}.

Draws are rejected until their size falls inside a fixed band, so any
seed gives comparable work; the bands are recorded in BANDS.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from fractions import Fraction

from checks import PRIMARY, catalog_generators, count_elements, sweep_leaves

CATALOG_NAMES = ("bfplot", "factorial", "bfnotff", "unstablenotbf",
                 "primarydense", "primarystable", "infiniteunstable")

# Size bands a draw must fall in.  scan: for each explicit generator
# set, the sweep's leaf count (multiplicity tuples up to the bound) and
# its output size (distinct elements up to the bound); the sweep's cost
# follows both.  query: per-op costs, in microseconds measured when the
# ops were pinned (expected.json; each op's fastest of
# pin.COST_PASSES passes): their sum within a share of the
# stratified mean, and their median and 90th percentile within fixed
# ranges, so that every seed's latency distribution has the same shape.
BANDS = {"scan_leaves": (2_500, 3_500), "scan_elements": (2_500, 3_000),
         "query_sum_share": 0.02,
         "query_p50_us": (4_180, 4_210), "query_p90_us": (15_700, 15_850)}


def _spec(name):
    return f"{{w}}/{name}.json"


def _op(argv, monoid=None, atoms=None, writes=None):
    return {"argv": argv, "monoid": monoid, "atoms": atoms, "writes": writes}


# --- scan --------------------------------------------------------------

# Every op is short (0.4 s at most), so a run repeats the script often
# enough for each op's median over repeats to be steady.  Sorted by cost, the
# 14 ops of a repeat form blocks: the six explicit-set ops, then
# infiniteunstable, primarydense, the small plot, bfplot, the large
# plot.  The median over ops falls inside the infiniteunstable pair and
# the 90th percentile inside the bfplot pair, so neither moves with the
# seed's explicit sets.
SCAN_FIXED = [
    ("plot", "primarydense", "7", "4"),
    ("plot", "primarydense", "6", "4"),
    ("rset", "primarydense", "8", "4"),
    ("witnesses", "primarydense", "8", "4"),
    ("rset", "infiniteunstable", "6", "4"),
    ("witnesses", "infiniteunstable", "6", "4"),
    ("rset", "bfplot", "6", "10"),
    ("witnesses", "bfplot", "6", "10"),
]
SCAN_EXPLICIT_SETS = 3


def draw_explicit(rng):
    """2 to 5 rationals with numerators and denominators in 1..30 (as
    acceptance criterion 1 draws them), kept when the largest is below
    twice the smallest, so every generator is an atom.  The sweep
    bound is the product of the extreme numerators, a common multiple
    of both extreme atoms."""
    leaves_lo, leaves_hi = BANDS["scan_leaves"]
    lo, hi = BANDS["scan_elements"]
    while True:
        k = rng.randint(2, 5)
        pairs = [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(k)]
        # float pre-filters (with margin) spare most Fraction arithmetic
        floats = [n / d for n, d in pairs]
        if max(floats) > 2.000001 * min(floats):
            continue
        gens = sorted({Fraction(n, d) for n, d in pairs})
        if len(gens) < 2 or gens[-1] >= 2 * gens[0]:
            continue
        bound = gens[0].numerator * gens[-1].numerator
        # simplex volume: a cheap estimate of the leaf count
        volume = bound ** len(gens) / math.factorial(len(gens)) / math.prod(
            map(float, gens))
        if not 0.7 * leaves_lo <= volume <= 1.5 * leaves_hi:
            continue
        if (leaves_lo <= sweep_leaves(gens, bound, leaves_hi) <= leaves_hi
                and lo <= count_elements(gens, bound, hi) <= hi):
            return gens, bound


def scan_pool(size: int):
    """The explicit generator sets scan draws from, themselves drawn once
    by draw_explicit; pin.py stores them (and their pinned outputs) in
    expected.json, so set-up does no rejection sampling."""
    rng = random.Random("scan-pool")
    pool = []
    while len(pool) < size:
        gens, bound = draw_explicit(rng)
        if [[str(g) for g in gens], bound] not in pool:
            pool.append([[str(g) for g in gens], bound])
    return pool


def scan(rng, pool):
    ops = [_op([cmd, "--spec", _spec(m), "--depth", d, "--bound", b], monoid=m)
           for cmd, m, d, b in SCAN_FIXED]
    files = {_spec(m): None for _cmd, m, _d, _b in SCAN_FIXED}
    for strs, bound in rng.sample(pool, SCAN_EXPLICIT_SETS):
        text = json.dumps({"families": [{"generators": strs, "kind": "explicit"}],
                           "schema": 1}, indent=2, sort_keys=True) + "\n"
        path = "{w}/explicit-" + "-".join(s.replace("/", "_") for s in strs) + ".json"
        files[path] = text
        for cmd in ("rset", "witnesses"):
            ops.append(_op([cmd, "--spec", path, "--bound", str(bound)], atoms=strs))
    return ops, files


# --- query -------------------------------------------------------------

ELEMENTS = ("1", "2", "3", "1/2", "3/2", "2/3", "7/6", "6/5", "11/10", "5/3")
# atoms/classify depths; deeper truncations of the primarystable and
# factorial families (0.3-0.5 s each at depth 120) and of unstablenotbf
# (primes from 967 up) would be too long an op for a steady median
DEEP = {"default": ("5", "10", "20", "40", "80", "120"),
        "primarystable": ("5", "10", "20", "40", "80"),
        "factorial": ("5", "10", "20", "40", "80"),
        "unstablenotbf": ("5", "10", "20")}
SHALLOW = ("4", "8")
SEQUENCES = (("2*n + 1", "n"), ("3*n", "n + 1"), ("n*n + 1", "n*n"),
             ("5*n + 2", "2*n"))
# ops per rep in each stratum: 120 small calls, few enough that a run
# repeats the script about 20 times, enough that 12 ops lie above the
# 90th percentile.  The costliest op of each stratum is in every draw,
# so the deepest truncation, which sets the peak RSS, always runs.
STRATA = {"atoms": 10, "classify": 10, "contains": 14, "factorize": 14,
          "lengths": 14, "elasticity": 14, "decompose": 12, "shift-check": 14,
          "status": 6, "density": 12}


def query_universe():
    """Every op the query workload can draw, by stratum."""
    u = {k: [] for k in STRATA}
    for m in CATALOG_NAMES:
        for d in DEEP.get(m, DEEP["default"]):
            for cmd in ("atoms", "classify"):
                u[cmd].append(_op([cmd, "--spec", _spec(m), "--depth", d], monoid=m))
        u["status"].append(_op(["status", "--spec", _spec(m)], monoid=m))
        # per-element ops on unstablenotbf (primes from 967 up) take 3-5 s
        # each, which would swamp a stream of small calls
        for d in SHALLOW if m != "unstablenotbf" else ():
            base = ["--spec", _spec(m), "--depth", d]
            gens = catalog_generators(m, int(d))
            for x in ELEMENTS:
                el = ["--element", x]
                u["contains"].append(_op(["contains", *base, *el], monoid=m))
                u["factorize"].append(_op(["factorize", *base, *el, "--cap", "500"],
                                          monoid=m))
                for cmd in ("lengths", "elasticity"):
                    u[cmd].append(_op([cmd, *base, *el, "--cap", "5000"], monoid=m))
                # the stable part is enumerated in full, so keep the
                # all-stable family shallow
                if m in PRIMARY and not (m == "factorial" and d == "8"):
                    u["decompose"].append(_op(["decompose", *base, *el,
                                               "--cap", "500"], monoid=m))
                for atom in (gens[0], gens[-1]):
                    u["shift-check"].append(_op(["shift-check", *base, *el,
                                                 "--atom", str(atom),
                                                 "--cap", "5000"], monoid=m))
    for a, b in SEQUENCES:
        for target in ("3/2", "5/4", "7/3"):
            for eps in ("1/100", "1/1000"):
                u["density"].append(_op(["density", "--a-seq", a, "--b-seq", b,
                                         "--target", target, "--epsilon", eps]))
    return u


def query(rng, costs):
    """Stratified draw: STRATA[k] ops from stratum k, shuffled: its
    costliest op, and one from each of STRATA[k] - 1 equal slices of
    the rest ordered by cost.  Every draw so gets nearly the same cost
    distribution; a draw outside the bands is drawn again."""
    universe = query_universe()
    slices = []
    for k, n in STRATA.items():
        *ranked, top = sorted(universe[k], key=lambda op: costs.get(op_key(op), 0))
        n -= 1
        slices.append([top])
        slices += [ranked[i * len(ranked) // n:
                          max(i * len(ranked) // n + 1, (i + 1) * len(ranked) // n)]
                   for i in range(n)]
    mean = sum(statistics.mean(costs.get(op_key(op), 0) for op in sl) for sl in slices)
    p50_lo, p50_hi = BANDS["query_p50_us"]
    p90_lo, p90_hi = BANDS["query_p90_us"]
    while True:
        ops = [rng.choice(sl) for sl in slices]
        c = [costs.get(op_key(op), 0) for op in ops]
        q = statistics.quantiles(c, n=10)
        if (abs(sum(c) - mean) <= BANDS["query_sum_share"] * mean
                and p50_lo <= q[4] <= p50_hi and p90_lo <= q[8] <= p90_hi):
            break
    rng.shuffle(ops)
    return ops, {_spec(m): None for m in CATALOG_NAMES}


# --- bifurcus ----------------------------------------------------------

# (stages, bound) of each tower; each is verified up to its own bound.
# Larger towers take seconds per op (README.md, sizes left out), too
# few repeats in a run for a steady median.
BIFURCUS_RUNS = (("3", "7/5"), ("2", "9/5"), ("2", "7/4"))


def bifurcus(rng):
    """Build, write, reload and verify three staged towers.  Their sizes
    are fixed: neighbouring bounds change the work up to fivefold, so
    the seed only chooses the order the towers run in."""
    runs = list(BIFURCUS_RUNS)
    rng.shuffle(runs)
    ops = []
    for stages, bound in runs:
        path = f"{{w}}/stages{stages}-{bound.replace('/', '_')}.json"
        ops.append(_op(["bifurcus", "--stages", stages, "--bound", bound,
                        "--out", path], writes=path))
        ops.append(_op(["verify-bifurcus", "--staged", path, "--bound", bound]))
    return ops, {}


# -----------------------------------------------------------------------

WORKLOADS = ("scan", "query", "bifurcus")


def op_key(op) -> str:
    return " ".join(op["argv"])


def build(workload: str, seed: int, pins: dict):
    """(ops, files) for a workload and seed; pins is expected.json.
    Catalog spec files map to None: they are copied from perfbench/specs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        return scan(rng, pins["scan_pool"])
    if workload == "query":
        return query(rng, pins["costs"])
    if workload == "bifurcus":
        return bifurcus(rng)
    raise ValueError(f"unknown workload {workload!r}")


def serialize(ops, files) -> bytes:
    return json.dumps({"ops": ops, "files": files}, sort_keys=True).encode()
