import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import first_primes, sieve
from puiseux import primes
from puiseux.errors import DomainError, SpecValidationError
from puiseux.primes import PrimeFilter, is_prime, next_prime_at_least, prime_seq


class TestIsPrime:
    def test_against_sieve(self):
        table = set(sieve(10_000))
        for n in range(10_000 + 1):
            assert is_prime(n) == (n in table)

    @pytest.mark.parametrize("carmichael", [561, 1105, 1729, 41041, 825265])
    def test_carmichael_composites(self, carmichael):
        assert not is_prime(carmichael)

    def test_large_known_prime(self):
        assert is_prime(2 ** 61 - 1)
        assert not is_prime((2 ** 61 - 1) * (2 ** 31 - 1))

    def test_beyond_deterministic_range(self):
        # 10^25 + 29 is above the deterministic witness limit
        assert is_prime(10 ** 25 + 13)
        assert not is_prime(10 ** 25 + 29)

    @given(st.integers(2, 10 ** 6), st.integers(2, 10 ** 6))
    @settings(max_examples=50)
    def test_products_are_composite(self, a, b):
        assert not is_prime(a * b)


class TestPrimeFilter:
    def test_parse_render_round_trip(self):
        for text in ("all", "odd", "exclude:[3]", "exclude:[3,5]", "min:13"):
            f = PrimeFilter.parse(text)
            assert f.render() == text
            assert PrimeFilter.parse(f.render()) == f

    def test_parse_rejects(self):
        for bad in ("", "evens", "exclude:3", "exclude:[4]", "min:x",
                    "exclude:[]x", "min:"):
            with pytest.raises(SpecValidationError):
                PrimeFilter.parse(bad)

    def test_all_sequence(self):
        assert prime_seq(PrimeFilter("all"), 8) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_odd_sequence(self):
        assert prime_seq(PrimeFilter.parse("odd"), 4) == [3, 5, 7, 11]

    def test_exclude_sequence(self):
        assert prime_seq(PrimeFilter.parse("exclude:[3]"), 5) == [2, 5, 7, 11, 13]

    def test_min_sequence(self):
        assert prime_seq(PrimeFilter.parse("min:13"), 3) == [13, 17, 19]

    def test_nth_is_one_indexed(self):
        assert PrimeFilter.parse("exclude:[3]").nth(2) == 5
        assert PrimeFilter("all").nth(13) == 41

    @given(st.integers(1, 60))
    def test_nth_matches_sequence(self, n):
        f = PrimeFilter.parse("odd")
        assert f.nth(n) == prime_seq(f, n)[-1]


def _render_exclude(dropped):
    return "exclude:[" + ",".join(str(p) for p in sorted(dropped)) + "]"


FILTER_TEXTS = st.one_of(
    st.sampled_from(["all", "odd"]),
    st.sets(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29]),
            min_size=1, max_size=4).map(_render_exclude),
    st.integers(0, 10_000).map(lambda b: f"min:{b}"))


def _oracle_seq(text, count):
    """First count admitted primes, from the oracle's own sieve."""
    f = PrimeFilter.parse(text)
    if f.kind == "min":
        below = len(sieve(max(f.min_bound - 1, 1)))
        return first_primes(below + count)[below:]
    skip = {2} if f.kind == "odd" else f.exclude
    return first_primes(count, skip=skip)


class TestPrimeTable:
    @given(FILTER_TEXTS, st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_against_oracle(self, text, count):
        expected = _oracle_seq(text, count)
        f = PrimeFilter.parse(text)
        assert prime_seq(f, count) == prime_seq(text, count) == expected
        if count:
            assert f.nth(count) == expected[-1]

    def test_min_bound_past_table_top_grows_table(self):
        top = primes._sieved_to
        text = f"min:{top + 1}"
        assert prime_seq(text, 50) == _oracle_seq(text, 50)
        assert primes._sieved_to > top

    def test_nth_rejects_index_zero(self):
        with pytest.raises(DomainError):
            PrimeFilter("all").nth(0)


class TestNextPrimeAtLeast:
    def test_basic(self):
        assert next_prime_at_least(13) == 13
        assert next_prime_at_least(14) == 17

    @given(st.integers(2, 10 ** 5))
    @settings(max_examples=50)
    def test_result_is_prime_and_minimal(self, n):
        p = next_prime_at_least(n)
        assert is_prime(p) and p >= n
        assert not any(is_prime(q) for q in range(n, p))
