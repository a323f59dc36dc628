"""Command-line front end.

Every subcommand reads monoid descriptions from files (the `catalog`
subcommand writes the bundled ones), computes with exact rationals,
and prints deterministic output: rationals render as "a/b", sets as
"{a, b, c}", JSON with sorted keys, CSV with a header row and LF line
endings.  Exit status is 0 on success, 1 on a domain failure (bad
element, exhausted cap, failed verification), 2 on usage errors.

Each handler computes and hands its raw result to `_show`, the one
place that reads --format and writes stdout.  JSON is converted from
the raw values by `_plain`, so the keys of the report commands
(shift-check, status, density, elasticity --mode, verify-bifurcus) are
the report's fields; text lines and CSV rows are built lazily, so a
listing is formatted only for the format requested.

The factorization cap comes from --cap when given, else the
PUISEUX_CAP environment variable, else a built-in default.
"""

from __future__ import annotations

import argparse
import dataclasses
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
                         plot_points, shifted_lengths)
from .monoid import classify_stability, contains, truncate
from .rationals import INFINITY, format_rational, parse_rational
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


def _plain(value):
    """value as JSON data: a rational or INFINITY as its "a/b" text, a
    dataclass as the object of its fields, a dict with its keys and
    values converted, any other iterable as a list; str, int, bool and
    None as they are."""
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, Fraction) or value is INFINITY:
        return format_rational(value)
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {_plain(k): _plain(v) for k, v in value.items()}
    return [_plain(v) for v in value]


def _show(args, doc, lines, header=None, rows=(), code=0) -> int:
    """Write a result to stdout in the requested --format and return the
    exit code; the one place output happens.  doc is dumped as JSON
    (sorted keys; a callable is first called, for a document that costs
    to build), header and rows are joined as CSV, lines as text.  Rows
    and lines may be lazy, so only the chosen format is formatted."""
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        text = json.dumps(_plain(doc() if callable(doc) else doc),
                          indent=2, sort_keys=True)
    else:
        text = "\n".join([header, *rows] if fmt == "csv" else lines)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return code


def _braces(values) -> str:
    return "{" + ", ".join(map(format_rational, values)) + "}"


def _load_tm(args):
    return truncate(load_spec(args.spec), args.depth)


# --- subcommand handlers ---------------------------------------------------


def _cmd_atoms(args) -> int:
    atoms = _load_tm(args).atoms
    return _show(args, {"depth": args.depth, "atoms": atoms}, map(_braces, [atoms]),
                 "atom", map(format_rational, atoms))


def _cmd_contains(args) -> int:
    answer = contains(_load_tm(args), args.element)
    return _show(args, {"element": args.element, "contains": answer},
                 ["true" if answer else "false"])


def _cmd_factorize(args) -> int:
    zs = factorizations(_load_tm(args), args.element, cap=args.cap)
    doc = {"element": args.element, "count": len(zs),
           "factorizations": ({"length": z.length, "terms": z.terms,
                               "rendered": z.render()} for z in zs)}
    return _show(args, doc, (z.render() for z in zs), "length,factorization",
                 (f"{z.length},{z.render()}" for z in zs))


def _cmd_lengths(args) -> int:
    ls = length_set(_load_tm(args), args.element, cap=args.cap)
    return _show(args, {"element": args.element, "lengths": ls}, map(_braces, [ls]),
                 "length", map(str, ls))


def _cmd_elasticity(args) -> int:
    if args.element is not None:
        rho = element_elasticity(_load_tm(args), args.element, cap=args.cap)
        return _show(args, {"element": args.element, "elasticity": rho},
                     [format_rational(rho)])
    if args.mode == "symbolic":
        report = monoid_elasticity(spec=load_spec(args.spec), mode="symbolic")
    else:
        report = monoid_elasticity(tm=_load_tm(args), mode="truncated")
    return _show(args, report, [format_rational(report.value)])


def _cmd_rset(args) -> int:
    values = elasticity_set(_load_tm(args), args.bound)
    return _show(args, {"bound": args.bound, "elasticities": values},
                 map(_braces, [values]), "elasticity", map(format_rational, values))


def _cmd_witnesses(args) -> int:
    tm = _load_tm(args)
    values = elasticity_witnesses(tm, args.bound)
    doc = {"bound": args.bound, "monoid_elasticity": tm.max_atom / tm.min_atom,
           "witnesses": values}
    return _show(args, doc, map(_braces, [values]), "element",
                 map(format_rational, values))


def _cmd_classify(args) -> int:
    labels = classify_stability(load_spec(args.spec), args.depth)
    items = sorted(labels.items())
    return _show(args, {"labels": labels},
                 (f"{format_rational(a)} {lab}" for a, lab in items), "atom,stability",
                 (f"{format_rational(a)},{lab}" for a, lab in items))


def _cmd_decompose(args) -> int:
    d = decompose_stable_unstable(_load_tm(args), args.element, cap=args.cap)
    doc = {"element": args.element, "stable": d.stable_part,
           "unstable": d.unstable_part, "unique": d.unique,
           "stable_uniquely_factorable": d.stable_uniquely_factorable}
    return _show(args, doc, [f"stable: {format_rational(d.stable_part)}",
                             f"unstable: {format_rational(d.unstable_part)}",
                             f"unique: {'true' if d.unique else 'false'}"])


def _cmd_shift_check(args) -> int:
    rep = shifted_lengths(_load_tm(args), args.element, args.atom, cap=args.cap)
    if not rep.applicable:
        line = f"inapplicable: {rep.reason}"
    else:
        line = (f"{'ok' if rep.ok else 'LAW VIOLATION'}: lengths "
                f"{_braces(rep.base_lengths)} -> {_braces(rep.shifted)}")
    return _show(args, rep, [line])


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
    if not result.found:
        return _show(args, result, [f"not found: {result.diagnostics}"], code=1)
    return _show(args, result, [f"found: n={result.n} k={result.k} "
                                f"ratio={format_rational(result.ratio)} "
                                f"error={format_rational(result.error)}"])


def _cmd_status(args) -> int:
    report = bf_ff_status(load_spec(args.spec))
    return _show(args, report, [f"{report.status}: {report.reason}"])


def _stage_lines(sm):
    for rec in sm.records:
        yield f"stage {rec.index}: {len(rec.added)} additions"
        for pair in rec.added:
            yield (f"  {format_rational(pair.reducible)} -> prime {pair.prime}, "
                   f"atoms {format_rational(pair.low)} + {format_rational(pair.high)}")


def _cmd_bifurcus(args) -> int:
    sm = bifurcus_build(args.stages, args.bound)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(staged_to_json(sm))
    return _show(args, lambda: staged_to_dict(sm), _stage_lines(sm))


def _cmd_verify_bifurcus(args) -> int:
    report = bifurcus_verify(load_staged(args.staged), args.bound)
    return _show(args, {**vars(report), "passed": report.passed},
                 [*report.summary_lines(), "passed" if report.passed else "FAILED"],
                 code=0 if report.passed else 1)


def _cmd_plot(args) -> int:
    tm = _load_tm(args)
    rows = ["element,elasticity,marker" + (",approx" if args.decimal else "")]
    try:
        # PUISEUX_CAP is read only once a nonzero element is checked
        points, capped = plot_points(tm, args.bound, lambda: args.cap or default_cap(),
                                     args.all)
    except ResourceCapError:
        rows.append("capped,,element enumeration exhausted the work budget")
        return _show(args, None, rows, code=1)
    for v, lo, hi, marker in points:
        rho = Fraction(hi, lo)
        row = f"{format_rational(tm.unscale(v))},{format_rational(rho)},{marker}"
        if args.decimal:
            row += f",{float(rho)!r}"
        rows.append(row)
    if capped is not None:
        rows.append(f"capped,{format_rational(tm.unscale(capped))},"
                    "factorization cap exceeded")
    return _show(args, None, rows, code=0 if capped is None else 1)


def _cmd_catalog(args) -> int:
    text = spec_to_json(catalog(args.name, args.depth))
    if not args.out:
        return _show(args, None, [text])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
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
    except (PuiseuxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; try a smaller depth, bound or cap",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
