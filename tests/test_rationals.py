import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from puiseux import cli
from puiseux.errors import DomainError
from puiseux.monoid import TruncatedMonoid
from puiseux.rationals import INFINITY, format_ratio, format_rational, parse_rational

PINS = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                   / "expected.json").read_text(encoding="utf-8"))
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
BITS_400 = 2 ** 400


class TestCanonical:
    def test_reduces(self):
        value = parse_rational("4/6")
        assert (value.numerator, value.denominator) == (2, 3)

    def test_zero(self):
        value = parse_rational("0/7")
        assert (value.numerator, value.denominator) == (0, 1)

    def test_zero_denominator(self):
        with pytest.raises(DomainError, match="^zero denominator$"):
            parse_rational("1/0")


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


class TestFormatRatio:
    """format_ratio renders a pair of ints as format_rational renders
    their Fraction."""

    @given(st.integers(-BITS_400, BITS_400), st.integers(1, BITS_400))
    @example(0, 7)
    @example(6, 3)
    @example(-4, 6)
    @example(2 ** 400 - 1, 3 ** 252)
    def test_same_text_and_float_as_the_fraction(self, n, d):
        f = Fraction(n, d)
        assert format_ratio(n, d) == format_rational(f)
        # int true division rounds correctly, reduced or not
        assert n / d == float(f)

    @pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="no int/str digit limit")
    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_digit_limit(self, d):
        big = 10 ** INT_DIGIT_LIMIT
        for n in (big, big * d + 1):
            with pytest.raises(DomainError,
                               match="^result has too many digits to print$"):
                format_ratio(n, d)

    def test_plot_rows_build_no_fraction_per_row(self, monkeypatch, tmp_path):
        # the pinned rows of a scan benchmark op, with the Fraction path
        # of the rows (unscale and the Fraction renderer) closed
        spec = str(tmp_path / "primarydense.json")
        assert cli.main(["catalog", "--name", "primarydense", "--depth", "7",
                         "--out", spec]) == 0

        def closed(*_args, **_kwargs):
            raise AssertionError("plot rendered a row through a Fraction")
        monkeypatch.setattr(TruncatedMonoid, "unscale", closed)
        monkeypatch.setattr(cli, "format_rational", closed)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["plot", "--spec", spec, "--depth", "7", "--bound", "4"])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert [code, digest] == PINS["ops"][
            "plot --spec {w}/primarydense.json --depth 7 --bound 4"]


class TestInfinity:
    def test_equals_only_itself(self):
        assert not INFINITY == Fraction(1)
        assert repr(INFINITY) == "inf"

    def test_hashable_singleton(self):
        assert {INFINITY, INFINITY} == {INFINITY}
