import math
import sys
import threading
from fractions import Fraction

import pytest

import hkrr.chebbern
from hkrr.chebbern import bernoulli, pk_poly
from hkrr.exactpoly import ONE, Poly, X, poly_compose_affine
from hkrr.qkbasis import qk_poly


def chebyshev_T(m: int) -> Poly:
    """Reference T_m by the recurrence T_m = 2*Y*T_{m-1} - T_{m-2}, run iteratively."""
    if m < 0:
        raise ValueError("m must be >= 0")
    prev, cur = X, ONE
    for _ in range(m):
        prev, cur = cur, 2 * X * cur - prev
    return cur

# cos(m * theta) at the rational-cosine angles theta = 0, pi/3, pi/2, pi.
COS_TABLE = {
    Fraction(1): lambda m: Fraction(1),
    Fraction(1, 2): lambda m: [Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2)][m % 6],
    Fraction(0): lambda m: [Fraction(1), Fraction(0), Fraction(-1), Fraction(0)][m % 4],
    Fraction(-1): lambda m: Fraction((-1) ** m),
}


class TestChebyshev:
    def test_small_values(self):
        assert chebyshev_T(0) == ONE
        assert chebyshev_T(1) == X
        assert chebyshev_T(2) == Poly((-1, 0, 2))
        assert chebyshev_T(4) == Poly((1, 0, -8, 0, 8))

    @pytest.mark.parametrize("m", range(0, 13))
    def test_defining_identity_at_rational_cosines(self, m):
        t = chebyshev_T(m)
        for cos_theta, cos_m_theta in COS_TABLE.items():
            assert t(cos_theta) == cos_m_theta(m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chebyshev_T(-1)


class TestPkPoly:
    def test_small_values(self):
        assert pk_poly(0) == ONE
        assert pk_poly(1) == Poly((1, Fraction(1, 2)))
        assert pk_poly(2) == Poly((1, 2, Fraction(1, 2)))

    @pytest.mark.parametrize("k", range(0, 31))
    def test_reflection_alternates_sign(self, k):
        p = pk_poly(k)
        sign = -1 if k % 2 else 1
        assert poly_compose_affine(p, -1, -4) == p * sign

    @pytest.mark.parametrize("k", range(1, 31))
    def test_degree_and_leading_coefficient(self, k):
        p = pk_poly(k)
        assert p.degree == k
        assert p.leading() == Fraction(1, 2)

    def test_matches_chebyshev_after_substitution(self):
        # P_k at T = 4y^2 - 4 must equal T_2k at y, sampled exactly.
        for k in range(0, 8):
            for y in (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(-3, 2)):
                t = 4 * y * y - 4
                assert pk_poly(k)(t) == chebyshev_T(2 * k)(y)

    def test_matches_even_coefficient_construction(self):
        # The earlier construction: T_2k is even, so it is R_k(Y^2), and
        # P_k = R_k(T/4 + 1) from the even coefficients of T_2k.
        for k in range(0, 41):
            t2k = chebyshev_T(2 * k)
            assert not any(t2k.coeffs[1::2])
            assert pk_poly(k) == poly_compose_affine(Poly(t2k.coeffs[0::2]), Fraction(1, 4), 1)

    def test_half_difference_of_positive_basis(self):
        assert pk_poly(1) == qk_poly(1) * Fraction(1, 2)
        for k in range(2, 201):
            assert pk_poly(k) == (qk_poly(k) - qk_poly(k - 2)) * Fraction(1, 2)

    def test_large_degree_has_no_recursion_limit(self):
        k = 1000
        p = pk_poly(k)
        assert p.degree == k
        assert p.leading() == Fraction(1, 2)
        for t in (Fraction(3, 7), Fraction(-5, 2)):
            assert p(-t - 4) == (-1) ** k * p(t)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            pk_poly(-1)


def akiyama_tanigawa(m: int) -> Fraction:
    """Reference B_m (m >= 2) by the Akiyama-Tanigawa scheme: O(m^2) Fraction steps from scratch."""
    row = [Fraction(0)] * (m + 1)
    for i in range(m + 1):
        row[i] = Fraction(1, i + 1)
        for j in range(i, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def primes_below(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return [p for p in range(bound) if sieve[p]]


@pytest.fixture
def fresh_tangent_table():
    """An empty tangent table and an empty bernoulli cache, before and after the test."""

    def reset():
        hkrr.chebbern._table = hkrr.chebbern._EMPTY_TABLE
        bernoulli.cache_clear()

    reset()
    yield reset
    reset()


class TestBernoulli:
    def test_reference_values(self):
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)
        assert bernoulli(8) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_binomial_recurrence(self):
        # sum_j binom(m+1, j) B_j = 0 with B_0 = 1, B_1 = -1/2, odd B vanish.
        for m in range(2, 20, 2):
            total = Fraction(1) + Fraction(m + 1) * Fraction(-1, 2)
            for j in range(2, m + 1, 2):
                total += math.comb(m + 1, j) * bernoulli(j)
            assert total == 0

    def test_matches_akiyama_tanigawa(self):
        for m in range(2, 121, 2):
            assert bernoulli(m) == akiyama_tanigawa(m), m

    def test_von_staudt_clausen_and_sign(self):
        # The denominator of B_m is the product of the primes p with (p - 1) | m,
        # B_m + sum 1/p over those primes is an integer, and B_m > 0 iff m = 2 mod 4.
        primes = primes_below(1002)
        for m in range(2, 1001, 2):
            b = bernoulli(m)
            ps = [p for p in primes if m % (p - 1) == 0]
            assert b.denominator == math.prod(ps), m
            assert (b + sum(Fraction(1, p) for p in ps)).denominator == 1, m
            assert (b > 0) == (m % 4 == 2), m

    def test_table_grows_only_on_demand(self, fresh_tangent_table):
        bernoulli(40)
        table = hkrr.chebbern._table
        assert len(table[0]) == 20
        bernoulli(10)
        assert hkrr.chebbern._table is table
        bernoulli(60)
        grown = hkrr.chebbern._table[0]
        assert len(grown) == 30 and grown[:20] == table[0]
        assert grown[:5] == (1, 2, 16, 272, 7936)

    @pytest.mark.parametrize("bad", [0, 1, 3, -2])
    def test_rejects_non_even_positive(self, bad):
        with pytest.raises(ValueError):
            bernoulli(bad)

    def test_is_cached(self):
        assert hasattr(bernoulli, "cache_info") and hasattr(bernoulli, "cache_clear")


class TestConcurrentUse:
    def test_memoized_functions_are_consistent_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        def worker(seed):
            return (pk_poly(10 + seed % 5), bernoulli(2 * (1 + seed % 8)))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(64)))
        for seed, pair in enumerate(results):
            assert pair == worker(seed)

    def test_cold_table_under_contention(self, fresh_tangent_table):
        # Eight threads each ask for a different cold B_m with the switch
        # interval lowered, so growths of the shared table interleave.
        ms = [2 * (100 + 37 * i) for i in range(8)]
        expected = {m: bernoulli(m) for m in ms}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                fresh_tangent_table()
                results: dict[int, Fraction] = {}
                start = threading.Barrier(len(ms))

                def ask(m):
                    start.wait(timeout=30)
                    results[m] = bernoulli(m)

                threads = [threading.Thread(target=ask, args=(m,)) for m in ms]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert results == expected
                bernoulli.cache_clear()  # and the table they left reads the same values
                assert {m: bernoulli(m) for m in ms} == expected
        finally:
            sys.setswitchinterval(interval)
