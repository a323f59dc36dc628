"""Output checks that use no library code.

Every function here recomputes what it needs from first principles:
its own prime sieve, its own description of the catalog monoids, and
a partition oracle for integer elements of primary monoids.  The CLI
output is parsed as text, so a check fails on any change of format.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# primes and catalog generators


def primes_up_to(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i, f in enumerate(flags) if f]


def _admitted(keep, count: int) -> list[int]:
    """The first `count` primes that `keep` admits."""
    limit = 64
    while True:
        ps = [p for p in primes_up_to(limit) if keep(p)]
        if len(ps) >= count:
            return ps[:count]
        limit *= 2


# name -> families; a family is (numerator(n, p), admits(p), index_start,
# index_end or None), mirroring the bundled spec files in perfbench/specs.
_ALL = lambda p: True  # noqa: E731
CATALOG = {
    "primarydense": [(lambda n, p: n, _ALL, 1, None)],
    "factorial": [(lambda n, p: 1, _ALL, 1, None)],
    "infiniteunstable": [(lambda n, p: n, lambda p: p != 3, 1, None)],
    "primarystable": [(lambda n, p: n, _ALL, 1, 12),
                      (lambda n, p: 30, _ALL, 13, None)],
    "bfplot": [(lambda n, p: p + 1, _ALL, 2, None)],
    "bfnotff": [(lambda n, p: p // 2, lambda p: p != 2, 1, None),
                (lambda n, p: p - p // 2, lambda p: p != 2, 1, None)],
    "unstablenotbf": [(lambda n, p: n, lambda p: p >= 967, 1, None),
                      (lambda n, p: n + 1, lambda p: p >= 967, 1, None)],
}
EXPLICIT = {"bfplot": [Fraction(1, 2)]}
# Primary: prime denominators, one generator per prime, so every
# generator is an atom and integer elements obey the partition oracle.
PRIMARY = ("primarydense", "factorial", "infiniteunstable", "primarystable",
           "bfplot")


@functools.lru_cache(maxsize=None)
def catalog_generators(name: str, depth: int) -> tuple[Fraction, ...]:
    """Ascending distinct generators of a catalog monoid at a depth."""
    out = list(EXPLICIT.get(name, []))
    for numer, keep, start, end in CATALOG[name]:
        last = start + depth - 1 if end is None else min(start + depth - 1, end)
        ps = _admitted(keep, last)
        out.extend(Fraction(numer(n, ps[n - 1]), ps[n - 1])
                   for n in range(start, last + 1))
    return tuple(sorted(set(out)))


# ---------------------------------------------------------------------------
# oracles


def primary_length_set(gens, x: int) -> set[int]:
    """Factorization lengths of the integer x in a primary monoid.

    Atom a/p alone carries the prime p, so in a factorization of an
    integer its multiplicity is p*t: it adds a*t to the value and p*t
    to the length.  Length sets are kept as integer bitmasks.
    """
    masks = [0] * (x + 1)
    masks[0] = 1
    for g in gens:
        a, p = g.numerator, g.denominator
        for v in range(a, x + 1):
            if masks[v - a]:
                masks[v] |= masks[v - a] << p
    m, out, length = masks[x], set(), 0
    while m:
        if m & 1:
            out.add(length)
        m >>= 1
        length += 1
    return out


def sweep_leaves(atoms, bound, stop: int) -> int:
    """Number of multiplicity tuples with value <= bound, counted up to
    just past `stop`; this is the leaf count of a whole-range sweep."""
    D = math.lcm(*(a.denominator for a in atoms))
    coins = sorted((int(a * D) for a in atoms), reverse=True)
    limit = math.floor(Fraction(bound) * D)
    last = coins[-1]
    total = 0

    def rec(i, room):
        nonlocal total
        if total > stop:
            return
        if i == len(coins) - 1:
            total += room // last + 1
            return
        for c in range(room // coins[i] + 1):
            rec(i + 1, room - c * coins[i])

    rec(0, limit)
    return total


def count_elements(atoms, bound, stop: int) -> int:
    """Number of distinct monoid elements <= bound, counted up to just
    past `stop`."""
    D = math.lcm(*(a.denominator for a in atoms))
    limit = math.floor(Fraction(bound) * D)
    seen = {0}
    for c in (int(a * D) for a in atoms):
        for v in sorted(seen):
            w = v + c
            while w <= limit and w not in seen:
                seen.add(w)
                w += c
            if len(seen) > stop:
                return len(seen)
    return len(seen)


# ---------------------------------------------------------------------------
# parsing


def parse_set(text: str) -> list[Fraction]:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"not a braced set: {body[:40]!r}")
    inner = body[1:-1].strip()
    return [Fraction(t) for t in inner.split(", ")] if inner else []


def parse_factorization(line: str) -> list[tuple[int, Fraction]]:
    if line == "0":
        return []
    terms = []
    for term in line.split(" + "):
        m, _, a = term.partition(" x ")
        terms.append((int(m), Fraction(a)))
    return terms


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


# ---------------------------------------------------------------------------
# per-command property checks; each returns None or a reason string


def check_op(op, code: int, out: str, files: dict) -> str | None:
    """Seed-independent checks of one op's result.

    op is {"argv": [...], "monoid": name or None, "atoms": [...] or
    None}; files maps the op's written paths to their contents.
    """
    argv = op["argv"]
    cmd = argv[0]
    if code not in (0, 1):
        return f"exit code {code}"
    if code == 1:
        return None if cmd in _MAY_FAIL else "unexpected exit 1"
    fn = _CHECKS.get(cmd)
    return fn(op, out, files) if fn else None


# Commands whose inputs may legitimately be rejected (not a member,
# cap exceeded, non-primary monoid, no witness within budget).
_MAY_FAIL = {"factorize", "lengths", "elasticity", "decompose", "density"}


def _gens(op):
    if op.get("atoms") is not None:
        return tuple(Fraction(a) for a in op["atoms"])
    return catalog_generators(op["monoid"], int(_flag(op["argv"], "--depth")))


def _check_factorize(op, out, files):
    x = Fraction(_flag(op["argv"], "--element"))
    gens = set(_gens(op))
    lines = out.rstrip("\n").split("\n")
    if lines != sorted(set(lines)):
        return "factorizations not sorted and distinct"
    for line in lines:
        terms = parse_factorization(line)
        if sum(m * a for m, a in terms) != x:
            return f"factorization {line!r} does not sum to {x}"
        if not all(a in gens for _m, a in terms):
            return f"factorization {line!r} uses a non-generator"
    return None


def _check_lengths(op, out, files):
    x = Fraction(_flag(op["argv"], "--element"))
    got = parse_set(out)
    if op["monoid"] in PRIMARY and x.denominator == 1:
        want = primary_length_set(_gens(op), int(x))
        if set(got) != want or got != sorted(got):
            return f"length set of {x} differs from the partition oracle"
    return None


def _check_elasticity(op, out, files):
    x = Fraction(_flag(op["argv"], "--element"))
    if op["monoid"] in PRIMARY and x.denominator == 1:
        ls = primary_length_set(_gens(op), int(x))
        if Fraction(out.strip()) != Fraction(max(ls), min(ls)):
            return f"elasticity of {x} differs from the partition oracle"
    return None


def _check_atoms(op, out, files):
    got = parse_set(out)
    if got != sorted(set(got)):
        return "atoms not ascending and distinct"
    if op["monoid"] in PRIMARY and got != list(_gens(op)):
        return "atoms differ from the primary generators"
    return None


def _check_contains(op, out, files):
    if out not in ("true\n", "false\n"):
        return "contains prints neither true nor false"
    x = Fraction(_flag(op["argv"], "--element"))
    if op["monoid"] in PRIMARY and x.denominator == 1:
        member = bool(primary_length_set(_gens(op), int(x)))
        if (out == "true\n") != member:
            return f"membership of {x} differs from the partition oracle"
    return None


def _check_decompose(op, out, files):
    x = Fraction(_flag(op["argv"], "--element"))
    fields = dict(line.split(": ", 1) for line in out.rstrip("\n").split("\n"))
    if Fraction(fields["stable"]) + Fraction(fields["unstable"]) != x:
        return f"decomposition does not sum to {x}"
    return None


def _check_shift(op, out, files):
    if out.startswith("LAW VIOLATION"):
        return "shift law violated"
    if out.startswith("ok: "):
        base, shifted = out[len("ok: lengths "):].strip().split(" -> ")
        if [v + 1 for v in parse_set(base)] != parse_set(shifted):
            return "shifted lengths are not the base lengths plus one"
    return None


def _check_plot(op, out, files):
    bound = Fraction(_flag(op["argv"], "--bound"))
    rows = out.rstrip("\n").split("\n")
    if rows[0] != "element,elasticity,marker":
        return "plot header changed"
    gens = _gens(op)
    rho = gens[-1] / gens[0]
    ints = {}
    for row in rows[1:]:
        x, e, marker = row.split(",")
        x, e = Fraction(x), Fraction(e)
        if not 1 < e <= rho:
            return f"plot row {row!r} has elasticity outside (1, {rho}]"
        if (marker == "integer-element") != (x.denominator == 1):
            return f"plot row {row!r} has the wrong marker"
        if x.denominator == 1:
            ints[int(x)] = e
    if op["monoid"] in PRIMARY:
        want = {}
        for x in range(1, int(bound) + 1):
            ls = primary_length_set(gens, x)
            if ls and max(ls) != min(ls):
                want[x] = Fraction(max(ls), min(ls))
        if ints != want:
            return "integer-element rows differ from the partition oracle"
    return None


def _check_rset(op, out, files):
    values = parse_set(out)
    gens = _gens(op)
    rho = gens[-1] / gens[0]
    if values != sorted(set(values)) or not all(1 <= v <= rho for v in values):
        return "elasticity set not ascending within [1, max/min atom]"
    if op.get("atoms") is not None and values[-1] != rho:
        return "elasticity set misses max/min atom below its witness bound"
    return None


def _check_witnesses(op, out, files):
    values = parse_set(out)
    gens = _gens(op)
    lo, hi = gens[0], gens[-1]
    for w in values:
        if (w / lo).denominator != 1 or (w / hi).denominator != 1:
            return f"witness {w} is not a common multiple of {lo} and {hi}"
    if op.get("atoms") is not None and lo.numerator * hi.numerator not in values:
        return "the product of the extreme numerators is not listed"
    return None


def parse_bifurcus_text(out: str) -> list[list[tuple]]:
    stages = []
    for line in out.rstrip("\n").split("\n"):
        if line.startswith("stage "):
            stages.append([])
        else:
            r, _, rest = line.strip().partition(" -> prime ")
            p, _, pair = rest.partition(", atoms ")
            low, _, high = pair.partition(" + ")
            stages[-1].append((Fraction(r), int(p), Fraction(low), Fraction(high)))
    return stages


def _check_bifurcus(op, out, files):
    stages = parse_bifurcus_text(out)
    doc = json.loads(files[op["writes"]])
    reloaded = [[(Fraction(e["reducible"]), e["prime"], Fraction(e["low"]),
                  Fraction(e["high"])) for e in st["added"]]
                for st in doc["stages"]]
    if reloaded != stages:
        return "the written JSON does not reload to the printed records"
    primes = [p for st in stages for (_r, p, _l, _h) in st]
    if len(primes) != len(set(primes)):
        return "a prime is used twice"
    for r, p, low, high in (e for st in stages for e in st):
        if low != r / 2 - Fraction(1, p) or high != r / 2 + Fraction(1, p):
            return f"pair for {r} is not r/2 -/+ 1/{p}"
    return None


def _check_density(op, out, files):
    if not out.startswith("found: "):
        return "density printed no witness"
    argv = op["argv"]
    f = dict(kv.split("=") for kv in out.split()[1:])
    n, k = int(f["n"]), int(f["k"])
    a, b = (eval(_flag(argv, s), {"__builtins__": {}}, {"n": n})  # noqa: S307
            for s in ("--a-seq", "--b-seq"))
    target, eps = Fraction(_flag(argv, "--target")), Fraction(_flag(argv, "--epsilon"))
    ratio = Fraction(a + k, b + k)
    if Fraction(f["ratio"]) != ratio or Fraction(f["error"]) != abs(ratio - target):
        return "density witness does not recompute"
    if not abs(ratio - target) < eps:
        return "density witness misses the target"
    return None


def _check_verify(op, out, files):
    lines = out.rstrip("\n").split("\n")
    if lines[-1] != "passed" or any("FAIL" in line for line in lines):
        return "verify-bifurcus did not pass"
    return None


_CHECKS = {"factorize": _check_factorize, "lengths": _check_lengths,
           "elasticity": _check_elasticity, "atoms": _check_atoms,
           "contains": _check_contains, "decompose": _check_decompose,
           "shift-check": _check_shift, "plot": _check_plot,
           "rset": _check_rset, "witnesses": _check_witnesses,
           "bifurcus": _check_bifurcus, "verify-bifurcus": _check_verify,
           "density": _check_density}
