from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from puiseux.errors import DomainError
from puiseux.rationals import INFINITY, canonical, format_rational, parse_rational


class TestCanonical:
    def test_reduces(self):
        assert canonical(4, 6) == Fraction(2, 3)

    def test_zero(self):
        assert canonical(0, 7) == Fraction(0)

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            canonical(1, 0)

    def test_negative(self):
        with pytest.raises(DomainError):
            canonical(-1, 2)
        with pytest.raises(DomainError):
            canonical(1, -2)

    def test_non_integer(self):
        with pytest.raises(DomainError):
            canonical(1.5, 2)


class TestParseFormat:
    @pytest.mark.parametrize("text,value", [
        ("3/2", Fraction(3, 2)),
        ("4/6", Fraction(2, 3)),
        ("7", Fraction(7)),
        ("0", Fraction(0)),
        (" 12/37 ", Fraction(12, 37)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", [
        "-1/2", "1/-2", "1.5", "1/2/3", "a/b", "1e3", "", "/", "1/", "/2",
        "١/٢", "+1", None, 3,
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_rational(bad)

    def test_format(self):
        assert format_rational(Fraction(3, 2)) == "3/2"
        assert format_rational(Fraction(4)) == "4"
        assert format_rational(0) == "0"
        assert format_rational(INFINITY) == "inf"

    @given(st.integers(0, 10 ** 9), st.integers(1, 10 ** 9))
    def test_round_trip(self, n, d):
        f = Fraction(n, d)
        assert parse_rational(format_rational(f)) == f


class TestInfinity:
    def test_ordering(self):
        assert INFINITY > Fraction(10 ** 100)
        assert INFINITY > 10 ** 100
        assert INFINITY >= INFINITY
        assert not INFINITY < Fraction(1)
        assert not INFINITY == Fraction(1)

    def test_absorbs_addition(self):
        assert INFINITY + 5 is INFINITY
        assert 5 + INFINITY is INFINITY

    def test_hashable_singleton(self):
        assert {INFINITY, INFINITY} == {INFINITY}
