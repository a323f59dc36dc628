"""Monoid description files.

A description is JSON with top-level keys "schema" (currently 1),
"families" and optional "metadata".  An explicit family lists its
generators as rational literals; a symbolic family gives a numerator
expression over the index variable n and the n-th admitted prime p,
a prime filter, and an index range.  Truncation instantiates symbolic
families at finitely many indices; nothing here evaluates infinite
objects directly.

The numerator grammar is deliberately tiny: integer constants, the
variables n and p, +, -, * and floor division by a constant (written
p//2).  That covers every family this package ships while keeping
stability of a family syntactically decidable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import SpecSyntaxError, SpecValidationError
from .primes import PrimeFilter, prime_seq
from .rationals import INFINITY, format_rational, parse_rational

SCHEMA_VERSION = 1

# Deepest numerator expression accepted, counting each open parenthesis
# and each chained operator as one level: the parser and the evaluator
# recurse once per level, so this keeps both far from Python's limit.
MAX_EXPR_DEPTH = 100

_TOKEN_RE = re.compile(r"\s*(\d+|//|[np+\-*()])")


def _tokenize(source: str) -> list[tuple[str, int]]:
    tokens, pos = [], 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            if source[pos:].strip() == "":
                break
            raise SpecSyntaxError(
                f"unexpected character {source[pos:].strip()[0]!r} in numerator expression",
                line=1, column=pos + 1)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive descent for: expr := term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := atom ['//' INT],
    atom := INT | 'n' | 'p' | '(' expr ')'."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        self.open = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self, expected=None):
        if self.i >= len(self.tokens):
            raise SpecSyntaxError(
                f"numerator expression ended early: {self.source!r}")
        tok, at = self.tokens[self.i]
        if expected is not None and tok != expected:
            raise SpecSyntaxError(
                f"expected {expected!r} in numerator expression {self.source!r}",
                line=1, column=at + 1)
        self.i += 1
        return tok, at

    def parse(self):
        node = self.expr()
        if self.i != len(self.tokens):
            tok, at = self.tokens[self.i]
            raise SpecSyntaxError(
                f"trailing {tok!r} in numerator expression {self.source!r}",
                line=1, column=at + 1)
        if _depth(node) > MAX_EXPR_DEPTH:
            raise self.too_deep()
        return node

    def too_deep(self):
        return SpecSyntaxError(
            f"numerator expression nests deeper than {MAX_EXPR_DEPTH} levels")

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.take()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.take()
            node = ("*", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek() == "//":
            self.take()
            tok, at = self.take()
            k = self.const(tok, at) if tok.isdigit() else 0
            if k == 0:
                raise SpecSyntaxError(
                    f"floor division needs a positive integer constant in {self.source!r}",
                    line=1, column=at + 1)
            node = ("//", node, ("const", k))
        return node

    def const(self, tok: str, at: int) -> int:
        try:
            return int(tok)
        except ValueError:  # past Python's int/str digit limit
            raise SpecSyntaxError(
                f"integer constant of {len(tok)} digits is too long in "
                "numerator expression", line=1, column=at + 1) from None

    def atom(self):
        tok, at = self.take()
        if tok.isdigit():
            return ("const", self.const(tok, at))
        if tok in ("n", "p"):
            return ("var", tok)
        if tok == "(":
            self.open += 1
            if self.open > MAX_EXPR_DEPTH:
                raise self.too_deep()
            node = self.expr()
            self.take(")")
            self.open -= 1
            return node
        raise SpecSyntaxError(
            f"unexpected {tok!r} in numerator expression {self.source!r}",
            line=1, column=at + 1)


def _depth(node) -> int:
    deepest, stack = 0, [(node, 0)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if node[0] not in ("const", "var"):
            stack += [(node[1], level + 1), (node[2], level + 1)]
    return deepest


def _eval(node, n: int, p: int) -> int:
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return n if node[1] == "n" else p
    a = _eval(node[1], n, p)
    b = _eval(node[2], n, p)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a // b


def _has_var(node) -> bool:
    op = node[0]
    if op == "const":
        return False
    if op == "var":
        return True
    return _has_var(node[1]) or _has_var(node[2])


@dataclass(frozen=True)
class NumeratorExpr:
    source: str
    ast: tuple = field(compare=False, repr=False, default=None)

    @classmethod
    def parse(cls, source: str) -> "NumeratorExpr":
        if not isinstance(source, str):
            raise SpecValidationError(f"numerator must be a string, got {source!r}")
        return cls(source, _ExprParser(source).parse())

    def evaluate(self, n: int, p: int) -> int:
        return _eval(self.ast, n, p)

    def is_constant(self) -> bool:
        return not _has_var(self.ast)


@dataclass(frozen=True)
class GeneratorFamily:
    """Either a finite explicit generator list or a symbolic family
    n -> numerator(n, p_n) / p_n over an index range."""

    kind: str  # "explicit" | "symbolic"
    generators: tuple[Fraction, ...] = ()
    numerator: NumeratorExpr | None = None
    prime_filter: PrimeFilter = PrimeFilter("all")
    index_start: int = 1
    index_end: int | None = None  # inclusive; None = unbounded
    declared_stable: bool = False

    def __post_init__(self):
        if self.kind not in ("explicit", "symbolic"):
            raise SpecValidationError(f"unknown family kind {self.kind!r}")
        if self.kind == "explicit":
            if not self.generators:
                raise SpecValidationError("explicit family with no generators")
            for g in self.generators:
                if g <= 0:
                    raise SpecValidationError(
                        f"generator {format_rational(g)} is not positive")
            if self.declared_stable:
                raise SpecValidationError(
                    "an explicit family has finitely many atoms and cannot be stable")
        else:
            if self.numerator is None:
                raise SpecValidationError("symbolic family needs a numerator")
            if self.index_start < 1:
                raise SpecValidationError("index_start must be >= 1")
            if self.index_end is not None and self.index_end < self.index_start:
                raise SpecValidationError("index_end precedes index_start")
            if self.declared_stable and not self.is_stable():
                raise SpecValidationError(
                    "declared stable, but infinitude of a shared numerator is only "
                    "verifiable for an unbounded family with a constant numerator")

    def is_stable(self) -> bool:
        """Infinitely many family members share one numerator: needs an
        unbounded index range and a constant numerator expression."""
        return (self.kind == "symbolic" and self.index_end is None
                and self.numerator.is_constant())

    def indices(self, depth: int) -> range:
        """First depth indices of the family's range."""
        if self.kind != "symbolic":
            return range(0)
        last = self.index_start + depth - 1
        if self.index_end is not None:
            last = min(last, self.index_end)
        return range(self.index_start, last + 1)

    def instantiate(self, depth: int) -> list[tuple[int, int, Fraction]]:
        """(index, prime, value) triples for the first depth indices.

        Validates that each numerator value is a positive integer not
        divisible by its prime, so value really is n(a)/p in lowest
        terms with prime denominator p.
        """
        if self.kind != "symbolic":
            raise SpecValidationError("instantiate() applies to symbolic families")
        out = []
        idx = self.indices(depth)
        if not idx:
            return out
        primes = prime_seq(self.prime_filter, idx.stop - 1)
        for n in idx:
            p = primes[n - 1]
            a = self.numerator.evaluate(n, p)
            if a <= 0:
                raise SpecValidationError(
                    f"numerator {self.numerator.source!r} is {a} at index {n}; "
                    "generated values must be positive")
            if a % p == 0:
                raise SpecValidationError(
                    f"numerator {self.numerator.source!r} is divisible by the prime "
                    f"{p} at index {n}")
            out.append((n, p, Fraction(a, p)))
        return out


@dataclass(frozen=True)
class Metadata:
    """Declared facts about the full (possibly infinite) monoid.

    Everything is optional; operations that need a missing field raise
    InsufficientMetadataError.  atom_sup may be the INFINITY marker.
    """

    zero_limit_point: bool | None = None
    atom_inf: Fraction | None = None
    inf_attained: bool | None = None
    atom_sup: object = None  # Fraction | INFINITY | None
    sup_attained: bool | None = None
    not_ff_witness: Fraction | None = None


@dataclass(frozen=True)
class MonoidSpec:
    families: tuple[GeneratorFamily, ...]
    metadata: Metadata = Metadata()

    def __post_init__(self):
        if not self.families:
            raise SpecValidationError("a monoid description needs at least one family")

    def is_explicit(self) -> bool:
        return all(f.kind == "explicit" for f in self.families)


def _require_bool(obj, key, where):
    v = obj[key]
    if not isinstance(v, bool):
        raise SpecValidationError(f"{where}.{key} must be a boolean, got {v!r}")
    return v


def _parse_family(obj, pos: int) -> GeneratorFamily:
    where = f"families[{pos}]"
    if not isinstance(obj, dict):
        raise SpecValidationError(f"{where} must be an object")
    kind = obj.get("kind")
    if kind == "explicit":
        allowed = {"kind", "generators"}
        extra = set(obj) - allowed
        if extra:
            raise SpecValidationError(f"{where} has unknown keys {sorted(extra)}")
        gens = obj.get("generators")
        if not isinstance(gens, list):
            raise SpecValidationError(f"{where}.generators must be a list")
        try:
            parsed = tuple(parse_rational(g) for g in gens)
        except Exception as exc:
            raise SpecValidationError(f"{where}: {exc}") from exc
        return GeneratorFamily(kind="explicit", generators=parsed)
    if kind == "symbolic":
        allowed = {"kind", "numerator", "prime_filter", "index_start", "index_end",
                   "stable"}
        extra = set(obj) - allowed
        if extra:
            raise SpecValidationError(f"{where} has unknown keys {sorted(extra)}")
        if "numerator" not in obj:
            raise SpecValidationError(f"{where} needs a numerator")
        numerator = NumeratorExpr.parse(obj["numerator"])
        filt = PrimeFilter.parse(obj.get("prime_filter", "all"))
        start = obj.get("index_start", 1)
        end = obj.get("index_end")
        if not isinstance(start, int) or isinstance(start, bool):
            raise SpecValidationError(f"{where}.index_start must be an integer")
        if end is not None and (not isinstance(end, int) or isinstance(end, bool)):
            raise SpecValidationError(f"{where}.index_end must be an integer")
        stable = _require_bool(obj, "stable", where) if "stable" in obj else False
        return GeneratorFamily(kind="symbolic", numerator=numerator,
                               prime_filter=filt, index_start=start,
                               index_end=end, declared_stable=stable)
    raise SpecValidationError(f"{where}.kind must be 'explicit' or 'symbolic'")


def _parse_metadata(obj) -> Metadata:
    if obj is None:
        return Metadata()
    if not isinstance(obj, dict):
        raise SpecValidationError("metadata must be an object")
    allowed = {"zero_limit_point", "atom_inf", "inf_attained", "atom_sup",
               "sup_attained", "not_ff_witness"}
    extra = set(obj) - allowed
    if extra:
        raise SpecValidationError(f"metadata has unknown keys {sorted(extra)}")
    kwargs = {}
    for key in ("zero_limit_point", "inf_attained", "sup_attained"):
        if key in obj:
            kwargs[key] = _require_bool(obj, key, "metadata")
    if "atom_inf" in obj:
        kwargs["atom_inf"] = parse_rational(obj["atom_inf"])
    if "atom_sup" in obj:
        raw = obj["atom_sup"]
        kwargs["atom_sup"] = INFINITY if raw == "inf" else parse_rational(raw)
    if "not_ff_witness" in obj:
        kwargs["not_ff_witness"] = parse_rational(obj["not_ff_witness"])
    if kwargs.get("atom_inf") == 0 and kwargs.get("zero_limit_point") is False:
        raise SpecValidationError(
            "metadata declares atom_inf 0 together with zero_limit_point false")
    return Metadata(**kwargs)


def parse_spec(text: str) -> MonoidSpec:
    """Parse description text; syntax errors carry line/column."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise SpecSyntaxError("JSON nests too deeply to parse") from exc
    except ValueError as exc:  # past Python's int/str digit limit
        raise SpecSyntaxError("JSON holds an integer with too many digits") from exc
    if not isinstance(doc, dict):
        raise SpecValidationError("top level must be an object")
    extra = set(doc) - {"schema", "families", "metadata"}
    if extra:
        raise SpecValidationError(f"unknown top-level keys {sorted(extra)}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SpecValidationError(
            f"unsupported schema {doc.get('schema')!r}; this build reads schema "
            f"{SCHEMA_VERSION}")
    fams = doc.get("families")
    if not isinstance(fams, list) or not fams:
        raise SpecValidationError("families must be a non-empty list")
    families = tuple(_parse_family(f, i) for i, f in enumerate(fams))
    return MonoidSpec(families=families, metadata=_parse_metadata(doc.get("metadata")))


def read_text(path) -> str:
    """The text of a UTF-8 file; any other bytes are a SpecValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise SpecValidationError(
                f"{path} is not UTF-8 text ({exc.reason})") from exc


def load_spec(path) -> MonoidSpec:
    return parse_spec(read_text(path))


def spec_to_dict(spec: MonoidSpec) -> dict:
    fams = []
    for f in spec.families:
        if f.kind == "explicit":
            fams.append({"kind": "explicit",
                         "generators": [format_rational(g) for g in f.generators]})
        else:
            entry = {"kind": "symbolic", "numerator": f.numerator.source,
                     "prime_filter": f.prime_filter.render(),
                     "index_start": f.index_start, "stable": f.declared_stable}
            if f.index_end is not None:
                entry["index_end"] = f.index_end
            fams.append(entry)
    meta = {}
    m = spec.metadata
    for key in ("zero_limit_point", "inf_attained", "sup_attained"):
        v = getattr(m, key)
        if v is not None:
            meta[key] = v
    if m.atom_inf is not None:
        meta["atom_inf"] = format_rational(m.atom_inf)
    if m.atom_sup is not None:
        meta["atom_sup"] = format_rational(m.atom_sup)
    if m.not_ff_witness is not None:
        meta["not_ff_witness"] = format_rational(m.not_ff_witness)
    doc = {"schema": SCHEMA_VERSION, "families": fams}
    if meta:
        doc["metadata"] = meta
    return doc


def spec_to_json(spec: MonoidSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"
