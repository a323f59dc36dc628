"""Command-line front end.

Every subcommand reads monoid descriptions from files (the `catalog`
subcommand writes the bundled ones), computes with exact rationals,
and prints deterministic output: rationals render as "a/b", sets as
"{a, b, c}", JSON with sorted keys, CSV with a header row and LF line
endings.  Exit status is 0 on success, 1 on a domain failure (bad
element, exhausted cap, failed verification), 2 on usage errors.

The factorization cap comes from --cap when given, else the
PUISEUX_CAP environment variable, else a built-in default.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from fractions import Fraction

from .constructions import (CATALOG_NAMES, bifurcus_build, bifurcus_verify,
                            catalog, load_staged, staged_to_dict, staged_to_json)
from .errors import DomainError, PuiseuxError, ResourceCapError
from .factorization import default_cap, element_elasticity, factorizations, length_set
from .invariants import (bf_ff_status, decompose_stable_unstable, density_witness,
                         elasticity_set, elasticity_witnesses, monoid_elasticity,
                         shifted_lengths)
from .monoid import classify_stability, contains, sweep, truncate
from .rationals import format_rational, parse_rational
from .specfile import NumeratorExpr, load_spec, spec_to_json


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except PuiseuxError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if digits.isdecimal():  # past Python's int/str digit limit
            raise argparse.ArgumentTypeError(
                f"integer of {len(digits)} digits is too long: "
                f"{digits[:20]}...") from exc
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> int:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return 0


def _braces(values) -> str:
    return "{" + ", ".join(format_rational(v) if isinstance(v, Fraction) else str(v)
                           for v in values) + "}"


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _load_tm(args):
    spec = load_spec(args.spec)
    return spec, truncate(spec, args.depth)


# --- subcommand handlers ---------------------------------------------------


def _cmd_atoms(args) -> int:
    _, tm = _load_tm(args)
    strs = [format_rational(a) for a in tm.atoms]
    if args.format == "json":
        return _emit_json({"depth": args.depth, "atoms": strs})
    if args.format == "csv":
        _emit(_csv("atom", strs))
        return 0
    _emit(_braces(tm.atoms))
    return 0


def _cmd_contains(args) -> int:
    _, tm = _load_tm(args)
    answer = contains(tm, args.element)
    if args.format == "json":
        return _emit_json({"element": format_rational(args.element),
                           "contains": answer})
    _emit("true" if answer else "false")
    return 0


def _cmd_factorize(args) -> int:
    _, tm = _load_tm(args)
    zs = factorizations(tm, args.element, cap=args.cap)
    if args.format == "json":
        return _emit_json({
            "element": format_rational(args.element),
            "count": len(zs),
            "factorizations": [{"length": z.length,
                                "terms": [[format_rational(a), m]
                                          for a, m in z.terms],
                                "rendered": z.render()} for z in zs]})
    if args.format == "csv":
        _emit(_csv("length,factorization",
                   [f"{z.length},{z.render()}" for z in zs]))
        return 0
    _emit("\n".join(z.render() for z in zs))
    return 0


def _cmd_lengths(args) -> int:
    _, tm = _load_tm(args)
    ls = length_set(tm, args.element, cap=args.cap)
    if args.format == "json":
        return _emit_json({"element": format_rational(args.element),
                           "lengths": list(ls)})
    if args.format == "csv":
        _emit(_csv("length", [str(l) for l in ls]))
        return 0
    _emit(_braces(ls))
    return 0


def _cmd_elasticity(args) -> int:
    spec = load_spec(args.spec)
    if args.element is not None:
        tm = truncate(spec, args.depth)
        rho = element_elasticity(tm, args.element, cap=args.cap)
        if args.format == "json":
            return _emit_json({"element": format_rational(args.element),
                               "elasticity": format_rational(rho)})
        _emit(format_rational(rho))
        return 0
    if args.mode == "symbolic":
        report = monoid_elasticity(spec=spec, mode="symbolic")
    else:
        report = monoid_elasticity(tm=truncate(spec, args.depth), mode="truncated")
    if args.format == "json":
        return _emit_json({"mode": report.mode,
                           "value": report.value_str(),
                           "accepted": report.accepted,
                           "witness_rule": report.witness_rule,
                           "metadata_used": list(report.metadata_used)})
    _emit(report.value_str())
    return 0


def _cmd_rset(args) -> int:
    _, tm = _load_tm(args)
    values = elasticity_set(tm, args.bound)
    if args.format == "json":
        return _emit_json({"bound": format_rational(args.bound),
                           "elasticities": [format_rational(v) for v in values]})
    if args.format == "csv":
        _emit(_csv("elasticity", [format_rational(v) for v in values]))
        return 0
    _emit(_braces(values))
    return 0


def _cmd_witnesses(args) -> int:
    _, tm = _load_tm(args)
    values = elasticity_witnesses(tm, args.bound)
    if args.format == "json":
        return _emit_json({
            "bound": format_rational(args.bound),
            "monoid_elasticity": format_rational(tm.max_atom / tm.min_atom),
            "witnesses": [format_rational(v) for v in values]})
    if args.format == "csv":
        _emit(_csv("element", [format_rational(v) for v in values]))
        return 0
    _emit(_braces(values))
    return 0


def _cmd_classify(args) -> int:
    spec = load_spec(args.spec)
    labels = classify_stability(spec, args.depth)
    items = sorted(labels.items())
    if args.format == "json":
        return _emit_json({"labels": {format_rational(a): lab for a, lab in items}})
    if args.format == "csv":
        _emit(_csv("atom,stability",
                   [f"{format_rational(a)},{lab}" for a, lab in items]))
        return 0
    _emit("\n".join(f"{format_rational(a)} {lab}" for a, lab in items))
    return 0


def _cmd_decompose(args) -> int:
    _, tm = _load_tm(args)
    d = decompose_stable_unstable(tm, args.element, cap=args.cap)
    if args.format == "json":
        return _emit_json({"element": format_rational(args.element),
                           "stable": format_rational(d.stable_part),
                           "unstable": format_rational(d.unstable_part),
                           "unique": d.unique,
                           "stable_uniquely_factorable":
                               d.stable_uniquely_factorable})
    _emit(f"stable: {format_rational(d.stable_part)}\n"
          f"unstable: {format_rational(d.unstable_part)}\n"
          f"unique: {'true' if d.unique else 'false'}")
    return 0


def _cmd_shift_check(args) -> int:
    _, tm = _load_tm(args)
    rep = shifted_lengths(tm, args.element, args.atom, cap=args.cap)
    if args.format == "json":
        return _emit_json({"applicable": rep.applicable, "reason": rep.reason,
                           "base_lengths": list(rep.base_lengths),
                           "shifted": list(rep.shifted), "ok": rep.ok})
    if not rep.applicable:
        _emit(f"inapplicable: {rep.reason}")
        return 0
    verdict = "ok" if rep.ok else "LAW VIOLATION"
    _emit(f"{verdict}: lengths {_braces(rep.base_lengths)} -> "
          f"{_braces(rep.shifted)}")
    return 0


def _seq_from_expr(source: str):
    """a_1, a_2, ... for an expression in n, evaluated a block of n at a
    time: 16 values first, each next block twice as many up to 1,024, so
    a short search stays cheap and memory stays flat for any budget."""
    if "p" in source:
        raise DomainError(
            f"sequence expression {source!r} may only use the variable n")
    expr = NumeratorExpr.parse(source)

    def blocks():
        start, size = 1, 16
        while True:
            yield expr.values(range(start, start + size), [0] * size)
            start += size
            size = min(2 * size, 1024)

    return itertools.chain.from_iterable(blocks())


def _cmd_density(args) -> int:
    result = density_witness(_seq_from_expr(args.a_seq),
                             _seq_from_expr(args.b_seq),
                             args.target, args.epsilon,
                             budget_n=args.budget_n, budget_k=args.budget_k)
    if args.format == "json":
        _emit_json({"found": result.found, "n": result.n, "k": result.k,
                    "ratio": None if result.ratio is None
                    else format_rational(result.ratio),
                    "error": None if result.error is None
                    else format_rational(result.error),
                    "diagnostics": result.diagnostics})
        return 0 if result.found else 1
    if result.found:
        _emit(f"found: n={result.n} k={result.k} "
              f"ratio={format_rational(result.ratio)} "
              f"error={format_rational(result.error)}")
        return 0
    _emit(f"not found: {result.diagnostics}")
    return 1


def _cmd_status(args) -> int:
    spec = load_spec(args.spec)
    report = bf_ff_status(spec)
    if args.format == "json":
        return _emit_json({"status": report.status, "reason": report.reason})
    _emit(f"{report.status}: {report.reason}")
    return 0


def _cmd_bifurcus(args) -> int:
    sm = bifurcus_build(args.stages, args.bound)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(staged_to_json(sm))
    if args.format == "json":
        return _emit_json(staged_to_dict(sm))
    lines = []
    for rec in sm.records:
        lines.append(f"stage {rec.index}: {len(rec.added)} additions")
        for pair in rec.added:
            lines.append(f"  {format_rational(pair.reducible)} -> prime "
                         f"{pair.prime}, atoms {format_rational(pair.low)} + "
                         f"{format_rational(pair.high)}")
    _emit("\n".join(lines))
    return 0


def _cmd_verify_bifurcus(args) -> int:
    sm = load_staged(args.staged)
    report = bifurcus_verify(sm, args.bound)
    if args.format == "json":
        _emit_json({
            "bound": format_rational(report.bound),
            "min_element": None if report.min_element is None
            else format_rational(report.min_element),
            "min_ok": report.min_ok,
            "atoms_persist_ok": report.atoms_persist_ok,
            "lost_atoms": [format_rational(a) for a in report.lost_atoms],
            "coverage_ok": report.coverage_ok,
            "uncovered": [[j, format_rational(x)] for j, x in report.uncovered],
            "passed": report.passed})
    else:
        _emit("\n".join(report.summary_lines()
                        + ["passed" if report.passed else "FAILED"]))
    return 0 if report.passed else 1


def _plot_marker(tm, v: int, table: dict) -> str:
    D = tm.denom_lcm
    if v % D == 0:
        return "integer-element"
    for s in tm.scaled_gens:
        r = v - s
        if r > 0 and r % D == 0 and r in table:
            return "shifted-element"
    return "other"


def _cmd_plot(args) -> int:
    _, tm = _load_tm(args)
    header = "element,elasticity,marker" + (",approx" if args.decimal else "")
    rows = [header]
    try:
        table = sweep(tm, args.bound)
    except ResourceCapError:
        rows.append("capped,,element enumeration exhausted the work budget")
        _emit("\n".join(rows) + "\n")
        return 1
    cap = args.cap  # PUISEUX_CAP is read only once a nonzero element is checked
    capped_at = None
    for v, (lo, hi, count) in table.items():
        if v == 0:
            continue
        if cap is None:
            cap = default_cap()
        if count > cap:
            capped_at = tm.unscale(v)
            break
        if lo == hi and not args.all:
            continue
        rho = Fraction(hi, lo)
        row = (f"{format_rational(tm.unscale(v))},{format_rational(rho)},"
               f"{_plot_marker(tm, v, table)}")
        if args.decimal:
            row += f",{float(rho)!r}"
        rows.append(row)
    if capped_at is not None:
        rows.append(f"capped,{format_rational(capped_at)},"
                    "factorization cap exceeded")
    _emit("\n".join(rows) + "\n")
    return 1 if capped_at is not None else 0


def _cmd_catalog(args) -> int:
    text = spec_to_json(catalog(args.name, args.depth))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return 0
    _emit(text)
    return 0


# --- parser ----------------------------------------------------------------


def _add_spec_depth(p, depth_default=5):
    p.add_argument("--spec", required=True, help="monoid description file")
    p.add_argument("--depth", type=_positive_int, default=depth_default,
                   help="indices per symbolic family (default %(default)s)")


def _add_format(p, *, csv: bool = False):
    choices = ["text", "json"] + (["csv"] if csv else [])
    p.add_argument("--format", choices=choices, default="text")


def _add_cap(p):
    p.add_argument("--cap", type=_positive_int, default=None,
                   help="factorization cap (default: PUISEUX_CAP or built-in)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by every later
    `main` call: it depends on no input, and `parse_args` keeps no state
    in it."""
    parser = argparse.ArgumentParser(
        prog="puiseux",
        description="Exact factorization invariants of rational-exponent "
                    "monoids given by generator descriptions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("atoms", help="irreducible generators of a truncation")
    _add_spec_depth(p)
    _add_format(p, csv=True)
    p.set_defaults(func=_cmd_atoms)

    p = sub.add_parser("contains", help="membership test")
    _add_spec_depth(p)
    p.add_argument("--element", type=_rational_arg, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser("factorize", help="all factorizations of an element")
    _add_spec_depth(p)
    p.add_argument("--element", type=_rational_arg, required=True)
    _add_cap(p)
    _add_format(p, csv=True)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("lengths", help="set of factorization lengths")
    _add_spec_depth(p)
    p.add_argument("--element", type=_rational_arg, required=True)
    _add_cap(p)
    _add_format(p, csv=True)
    p.set_defaults(func=_cmd_lengths)

    p = sub.add_parser("elasticity",
                       help="element elasticity, or the monoid's with --mode")
    _add_spec_depth(p)
    p.add_argument("--element", type=_rational_arg, default=None)
    p.add_argument("--mode", choices=["truncated", "symbolic"],
                   default="truncated")
    _add_cap(p)
    _add_format(p)
    p.set_defaults(func=_cmd_elasticity)

    p = sub.add_parser("rset", help="set of element elasticities up to a bound")
    _add_spec_depth(p)
    p.add_argument("--bound", type=_rational_arg, required=True)
    _add_format(p, csv=True)
    p.set_defaults(func=_cmd_rset)

    p = sub.add_parser("witnesses",
                       help="elements attaining the truncation's elasticity")
    _add_spec_depth(p)
    p.add_argument("--bound", type=_rational_arg, required=True)
    _add_format(p, csv=True)
    p.set_defaults(func=_cmd_witnesses)

    p = sub.add_parser("classify", help="stable/unstable label per atom")
    _add_spec_depth(p)
    _add_format(p, csv=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decompose",
                       help="stable + unstable splitting of an element")
    _add_spec_depth(p)
    p.add_argument("--element", type=_rational_arg, required=True)
    _add_cap(p)
    _add_format(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("shift-check",
                       help="verify that a fresh atom shifts lengths by one")
    _add_spec_depth(p)
    p.add_argument("--element", type=_rational_arg, required=True)
    p.add_argument("--atom", type=_rational_arg, required=True)
    _add_cap(p)
    _add_format(p)
    p.set_defaults(func=_cmd_shift_check)

    p = sub.add_parser("density",
                       help="find (n, k) with (a_n + k)/(b_n + k) near a target")
    p.add_argument("--a-seq", required=True,
                   help="numerator sequence, an expression in n (e.g. '2*n - 1')")
    p.add_argument("--b-seq", required=True,
                   help="denominator sequence, an expression in n")
    p.add_argument("--target", type=_rational_arg, required=True)
    p.add_argument("--epsilon", type=_rational_arg, required=True)
    p.add_argument("--budget-n", type=_positive_int, default=10_000)
    p.add_argument("--budget-k", type=_positive_int, default=10_000_000)
    _add_format(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("status",
                       help="finite-factorization classification from a description")
    p.add_argument("--spec", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("bifurcus", help="run the staged two-atom construction")
    p.add_argument("--stages", type=_positive_int, required=True)
    p.add_argument("--bound", type=_rational_arg, required=True)
    p.add_argument("--out", default=None, help="write the staged build as JSON")
    _add_format(p)
    p.set_defaults(func=_cmd_bifurcus)

    p = sub.add_parser("verify-bifurcus", help="re-check a staged build")
    p.add_argument("--staged", required=True, help="staged build JSON file")
    p.add_argument("--bound", type=_rational_arg, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_verify_bifurcus)

    p = sub.add_parser("plot", help="CSV of element elasticities for plotting")
    _add_spec_depth(p)
    p.add_argument("--bound", type=_rational_arg, required=True)
    p.add_argument("--all", action="store_true",
                   help="include elements of elasticity 1")
    p.add_argument("--decimal", action="store_true",
                   help="append a float approximation column")
    _add_cap(p)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("catalog", help="emit a bundled monoid description")
    p.add_argument("--name", choices=list(CATALOG_NAMES), required=True)
    p.add_argument("--depth", type=_positive_int, default=5,
                   help="intended truncation depth (shapes one entry's prime floor)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PuiseuxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; try a smaller depth, bound or cap",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
