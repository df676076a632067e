from fractions import Fraction

import pytest

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


class TestBernoulli:
    def test_reference_values(self):
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)
        assert bernoulli(8) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_binomial_recurrence(self):
        # sum_j binom(m+1, j) B_j = 0 with B_0 = 1, B_1 = -1/2, odd B vanish.
        import math

        for m in range(2, 20, 2):
            total = Fraction(1) + Fraction(m + 1) * Fraction(-1, 2)
            for j in range(2, m + 1, 2):
                total += math.comb(m + 1, j) * bernoulli(j)
            assert total == 0

    @pytest.mark.parametrize("bad", [0, 1, 3, -2])
    def test_rejects_non_even_positive(self, bad):
        with pytest.raises(ValueError):
            bernoulli(bad)


class TestConcurrentUse:
    def test_memoized_functions_are_consistent_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        def worker(seed):
            return (pk_poly(10 + seed % 5), bernoulli(2 * (1 + seed % 8)))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(64)))
        for seed, pair in enumerate(results):
            assert pair == worker(seed)
