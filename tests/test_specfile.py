import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseux.errors import SpecSyntaxError, SpecValidationError
from puiseux.primes import PrimeFilter
from puiseux.rationals import INFINITY
from puiseux.specfile import (MAX_EXPR_DEPTH, GeneratorFamily, Metadata,
                              MonoidSpec, NumeratorExpr, parse_spec, spec_to_json)


def _branches(children):
    """Binary nodes over children; floor division is by a positive constant."""
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children),
        st.tuples(st.just("//"), children,
                  st.integers(1, 7).map(lambda k: ("const", k))))


def _trees():
    leaves = st.one_of(st.integers(0, 40).map(lambda k: ("const", k)),
                       st.sampled_from([("var", "n"), ("var", "p")]))
    return st.recursive(leaves, _branches, max_leaves=16)


def _render(tree) -> str:
    """Fully parenthesized source of a tree."""
    if tree[0] == "const":
        return str(tree[1])
    if tree[0] == "var":
        return tree[1]
    return f"({_render(tree[1])}{tree[0]}{_render(tree[2])})"


def _reference(tree, n, p) -> int:
    if tree[0] == "const":
        return tree[1]
    if tree[0] == "var":
        return n if tree[1] == "n" else p
    a, b = _reference(tree[1], n, p), _reference(tree[2], n, p)
    if tree[0] == "+":
        return a + b
    if tree[0] == "-":
        return a - b
    if tree[0] == "*":
        return a * b
    return a // b


class TestNumeratorExpr:
    @pytest.mark.parametrize("src,n,p,value", [
        ("n", 4, 7, 4),
        ("p+1", 2, 3, 4),
        ("p - p//2", 1, 7, 4),
        ("p//2", 1, 7, 3),
        ("2*n + 1", 3, 5, 7),
        ("(n+1)*(n+2)", 2, 3, 12),
        ("30", 9, 23, 30),
        ("n*n - 1", 3, 5, 8),
    ])
    def test_evaluate(self, src, n, p, value):
        assert NumeratorExpr.parse(src).values((n,), (p,)) == [value]

    @pytest.mark.parametrize("bad", [
        "", "n +", "q", "1.5", "n//p", "n // 0", "(n", "n)", "2 ** 3",
        "n/2", "-n", 5,
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises((SpecSyntaxError, SpecValidationError)):
            NumeratorExpr.parse(bad)

    @pytest.mark.parametrize("shape,value", [
        (lambda d: "(" * d + "n" + ")" * d, lambda d: 3),
        (lambda d: "+".join(["n"] * (d + 1)), lambda d: 3 * (d + 1)),
        (lambda d: "*".join(["1"] * d + ["n"]), lambda d: 3),
    ], ids=["parentheses", "sum", "product"])
    def test_depth_limit(self, shape, value):
        expr = NumeratorExpr.parse(shape(MAX_EXPR_DEPTH))
        assert expr.values((3,), (5,)) == [value(MAX_EXPR_DEPTH)]
        with pytest.raises(SpecSyntaxError, match="nests deeper than"):
            NumeratorExpr.parse(shape(MAX_EXPR_DEPTH + 1))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_values_match_a_reference_evaluator(self, data):
        tree = data.draw(_trees())
        ns = data.draw(st.lists(st.integers(-30, 30), max_size=8))
        ps = data.draw(st.lists(st.integers(-30, 30), min_size=len(ns),
                                max_size=len(ns)))
        expr = NumeratorExpr.parse(_render(tree))
        assert expr.values(ns, ps) == [_reference(tree, n, p)
                                       for n, p in zip(ns, ps)]

    @given(st.recursive(st.integers(0, 40).map(lambda k: ("const", k)),
                        _branches, max_leaves=12))
    def test_constant_expression_fills_the_column(self, tree):
        expr = NumeratorExpr.parse(_render(tree))
        assert expr.is_constant()
        assert expr.values([1, 2, 3], [2, 3, 5]) == [_reference(tree, 0, 0)] * 3

    def test_values_at_the_depth_limit(self):
        # a chain of MAX_EXPR_DEPTH operators over both variables, with
        # floor divisions of negative intermediates
        steps = [("-", ("var", "p")), ("//", ("const", 3)),
                 ("*", ("var", "n")), ("+", ("const", 2))]
        tree = ("var", "n")
        for level in range(MAX_EXPR_DEPTH):
            op, right = steps[level % 4]
            tree = (op, tree, right)
        expr = NumeratorExpr.parse(_render(tree))
        ns, ps = list(range(-4, 5)), [2, 3, 5, 7, 11, 13, 17, 19, 23]
        assert expr.values(ns, ps) == [_reference(tree, n, p)
                                       for n, p in zip(ns, ps)]
        with pytest.raises(SpecSyntaxError, match="nests deeper than"):
            NumeratorExpr.parse(_render(("+", tree, ("const", 1))))
        assert NumeratorExpr.parse("n").values([], []) == []

    def test_is_constant(self):
        assert NumeratorExpr.parse("30").is_constant()
        assert NumeratorExpr.parse("2*3 + 1").is_constant()
        assert not NumeratorExpr.parse("n").is_constant()
        assert not NumeratorExpr.parse("p//2").is_constant()

    def test_equality_ignores_ast(self):
        assert NumeratorExpr.parse("n+1") == NumeratorExpr.parse("n+1")
        assert NumeratorExpr.parse("n+1") != NumeratorExpr.parse("n + 1")


class TestGeneratorFamily:
    def test_explicit_requires_positive(self):
        with pytest.raises(SpecValidationError):
            GeneratorFamily(kind="explicit", generators=(Fraction(0),))

    def test_explicit_cannot_be_stable(self):
        with pytest.raises(SpecValidationError):
            GeneratorFamily(kind="explicit", generators=(Fraction(1, 2),),
                            declared_stable=True)

    def test_stability_needs_constant_unbounded(self):
        with pytest.raises(SpecValidationError):
            GeneratorFamily(kind="symbolic",
                            numerator=NumeratorExpr.parse("n"),
                            declared_stable=True)
        with pytest.raises(SpecValidationError):
            GeneratorFamily(kind="symbolic",
                            numerator=NumeratorExpr.parse("30"),
                            index_end=20, declared_stable=True)
        fam = GeneratorFamily(kind="symbolic",
                              numerator=NumeratorExpr.parse("30"),
                              index_start=13, declared_stable=True)
        assert fam.is_stable()

    def test_instantiate_values(self):
        fam = GeneratorFamily(kind="symbolic", numerator=NumeratorExpr.parse("n"),
                              prime_filter=PrimeFilter.parse("exclude:[3]"))
        assert fam.instantiate(4) == [
            (1, 2, Fraction(1, 2)), (2, 5, Fraction(2, 5)),
            (3, 7, Fraction(3, 7)), (4, 11, Fraction(4, 11))]

    def test_instantiate_respects_start_and_end(self):
        fam = GeneratorFamily(kind="symbolic", numerator=NumeratorExpr.parse("n"),
                              index_start=2, index_end=3)
        assert fam.instantiate(10) == [(2, 3, Fraction(2, 3)),
                                       (3, 5, Fraction(3, 5))]

    def test_instantiate_rejects_nonpositive_numerator(self):
        fam = GeneratorFamily(kind="symbolic",
                              numerator=NumeratorExpr.parse("n - 2"))
        with pytest.raises(SpecValidationError, match="index"):
            fam.instantiate(3)

    def test_instantiate_rejects_prime_dividing_numerator(self):
        fam = GeneratorFamily(kind="symbolic", numerator=NumeratorExpr.parse("p"))
        with pytest.raises(SpecValidationError, match="divisible"):
            fam.instantiate(1)


MINIMAL = """
{"schema": 1,
 "families": [{"kind": "explicit", "generators": ["1/2", "1/3"]}]}
"""


class TestParseSpec:
    def test_minimal(self):
        spec = parse_spec(MINIMAL)
        assert spec.is_explicit()
        assert spec.families[0].generators == (Fraction(1, 2), Fraction(1, 3))

    def test_json_error_carries_position(self):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec('{"schema": 1,\n "families": [}')
        assert "line 2" in str(exc.value)

    def test_schema_gate(self):
        with pytest.raises(SpecValidationError, match="schema"):
            parse_spec('{"schema": 2, "families": []}')

    @pytest.mark.parametrize("schema", ["true", "1.0"])
    def test_schema_must_be_the_integer(self, schema):
        # True == 1 == 1.0 in Python, so the gate compares the type too
        with pytest.raises(SpecValidationError, match="unsupported schema"):
            parse_spec('{"schema": ' + schema + ', "families": '
                       '[{"kind": "explicit", "generators": ["1/2"]}]}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecValidationError, match="unknown"):
            parse_spec('{"schema": 1, "families": '
                       '[{"kind": "explicit", "generators": ["1/2"]}], '
                       '"extra": 1}')
        with pytest.raises(SpecValidationError, match="unknown"):
            parse_spec('{"schema": 1, "families": '
                       '[{"kind": "explicit", "generators": ["1/2"], "x": 1}]}')

    def test_symbolic_family(self):
        spec = parse_spec("""
        {"schema": 1,
         "families": [{"kind": "symbolic", "numerator": "p+1",
                       "prime_filter": "all", "index_start": 2}],
         "metadata": {"zero_limit_point": false,
                      "atom_inf": "1", "inf_attained": false,
                      "atom_sup": "4/3", "sup_attained": true}}
        """)
        fam = spec.families[0]
        assert fam.numerator.source == "p+1"
        assert fam.index_start == 2 and fam.index_end is None
        assert spec.metadata.atom_sup == Fraction(4, 3)
        assert spec.metadata.inf_attained is False

    def test_metadata_infinite_sup(self):
        spec = parse_spec("""
        {"schema": 1,
         "families": [{"kind": "symbolic", "numerator": "n"}],
         "metadata": {"atom_sup": "inf"}}
        """)
        assert spec.metadata.atom_sup is INFINITY

    def test_metadata_consistency(self):
        with pytest.raises(SpecValidationError, match="zero_limit_point"):
            parse_spec("""
            {"schema": 1,
             "families": [{"kind": "symbolic", "numerator": "n"}],
             "metadata": {"atom_inf": "0", "zero_limit_point": false}}
            """)

    def test_metadata_type_errors(self):
        with pytest.raises(SpecValidationError, match="boolean"):
            parse_spec("""
            {"schema": 1,
             "families": [{"kind": "symbolic", "numerator": "n"}],
             "metadata": {"zero_limit_point": "yes"}}
            """)


def _explicit_specs():
    gens = st.lists(st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)),
                    min_size=1, max_size=5, unique=True)
    return st.builds(
        lambda gs: MonoidSpec(families=(GeneratorFamily(
            kind="explicit", generators=tuple(gs)),)),
        gens)


def _symbolic_specs():
    numerators = st.sampled_from(["n", "p+1", "p//2", "p - p//2", "30", "n+1",
                                  "2*n - 1"])
    filters = st.sampled_from(["all", "odd", "exclude:[3]", "exclude:[3,5]",
                               "min:13"])
    return st.builds(
        lambda src, filt, start, span: MonoidSpec(families=(GeneratorFamily(
            kind="symbolic", numerator=NumeratorExpr.parse(src),
            prime_filter=PrimeFilter.parse(filt), index_start=start,
            index_end=None if span is None else start + span),)),
        numerators, filters, st.integers(1, 10),
        st.one_of(st.none(), st.integers(0, 10)))


class TestRoundTrip:
    @given(st.one_of(_explicit_specs(), _symbolic_specs()))
    def test_json_round_trip(self, spec):
        assert parse_spec(spec_to_json(spec)) == spec

    def test_metadata_round_trip(self):
        spec = MonoidSpec(
            families=(GeneratorFamily(kind="symbolic",
                                      numerator=NumeratorExpr.parse("1"),
                                      declared_stable=True),),
            metadata=Metadata(zero_limit_point=True, atom_inf=Fraction(0),
                              inf_attained=False, atom_sup=INFINITY,
                              not_ff_witness=Fraction(1)))
        again = parse_spec(spec_to_json(spec))
        assert again == spec
        assert again.families[0].declared_stable

    def test_output_is_deterministic(self):
        spec = parse_spec(MINIMAL)
        assert spec_to_json(spec) == spec_to_json(parse_spec(spec_to_json(spec)))
        assert spec_to_json(spec).endswith("\n")
        json.loads(spec_to_json(spec))
