import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import first_primes, primes_at_least, sieve
from puiseux import primes
from puiseux.errors import DomainError, SpecValidationError
from puiseux.primes import PrimeFilter, is_prime, next_prime_at_least, prime_seq
from puiseux.specfile import GeneratorFamily, NumeratorExpr


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
        # below the deterministic limit, and a strong pseudoprime to
        # every prime witness up to 37
        assert not is_prime(399_165_290_221 * 798_330_580_441)

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
        # "²" is a digit to str.isdigit but not to int()
        for bad in ("", "evens", "exclude:3", "exclude:[4]", "min:x",
                    "exclude:[]x", "min:", "min:²", "exclude:[3,²]"):
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

    def test_count_past_maxsize(self):
        with pytest.raises(DomainError, match=f"cannot list {sys.maxsize + 1} primes"):
            prime_seq("all", sys.maxsize + 1)
        with pytest.raises(DomainError, match="cannot list"):
            prime_seq("all", sys.maxsize + 1, sys.maxsize)

    def test_skip_leaves_the_last_primes(self):
        assert prime_seq(PrimeFilter.parse("exclude:[3]"), 2, 1) == [5]
        assert prime_seq(PrimeFilter("all"), 13, 12) == [41]

    @given(st.integers(1, 60))
    def test_skip_matches_sequence(self, n):
        f = PrimeFilter.parse("odd")
        assert prime_seq(f, n, n - 1)[0] == prime_seq(f, n)[-1]


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
    # the table holds 6,542 primes, so the last few come from the walk
    @example("exclude:[3,5]", 6_545)
    @settings(max_examples=60, deadline=None)
    def test_against_oracle(self, text, count):
        expected = _oracle_seq(text, count)
        f = PrimeFilter.parse(text)
        assert prime_seq(f, count) == prime_seq(text, count) == expected
        if count:
            assert prime_seq(f, count, count - 1)[0] == expected[-1]

    @given(st.integers(0, 10 ** 7), st.integers(1, 6))
    @example(65_500, 12)  # runs from the table into the walk
    @example(primes._TABLE_TOP - 1, 3)
    @example(primes._TABLE_TOP, 3)
    @example(primes._TABLE_TOP + 1, 3)
    @example(10 ** 7, 3)
    @settings(max_examples=30, deadline=None)
    def test_min_bound_against_trial_division(self, bound, count):
        expected = primes_at_least(bound, count)
        assert prime_seq(f"min:{bound}", count) == expected
        assert next_prime_at_least(bound) == expected[0]

    # windows [k * 2**16, (k + 1) * 2**16) are sieved up to 2**32 and
    # is_prime tests every candidate past that; the 12 primes from
    # offsets -40, -100 and -300 cross the edge at k * 2**16
    @pytest.mark.parametrize("k, offset", [(2, -40), (2, 0), (20, -100), (20, 1),
                                           (2 ** 16, -300), (2 ** 16, -1)])
    def test_windows_against_trial_division(self, k, offset):
        bound = k * primes._TABLE_TOP + offset
        expected = primes_at_least(bound, 12)
        assert prime_seq(f"min:{bound}", 12) == expected
        assert next_prime_at_least(bound) == expected[0]

    @pytest.mark.parametrize("bound", [10 ** 5, 10 ** 7])
    def test_large_min_bound_keeps_memory_flat(self, bound):
        tracemalloc.start()
        try:
            prime_seq(f"min:{bound}", 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_large_index_start_keeps_memory_flat(self):
        # the primes before index 200,000 are passed over, not listed
        fam = GeneratorFamily("symbolic", numerator=NumeratorExpr.parse("1"),
                              index_start=200_000)
        tracemalloc.start()
        try:
            triples = fam.instantiate(2)
            nth = prime_seq(PrimeFilter("all"), 200_000, 199_999)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        expected = sieve(2_750_161)[-2:]
        assert [p for _n, p, _v in triples] == expected
        assert nth == expected[0]


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
