import hashlib
import math
import random
from itertools import accumulate, combinations

import pytest

from hkrr import cnconst
from hkrr.cli import render_json, run
from hkrr.cnconst import (
    CnCertificate,
    cn_prime_support,
    cn_value,
    min_padic_valuation,
    tuple_product,
)

REFERENCE_TABLE = {
    1: {},
    2: {2: 2, 3: 1},
    3: {2: 5, 3: 3, 5: 1},
    4: {2: 11, 3: 5, 5: 2, 7: 1},
    5: {2: 18, 3: 9, 5: 4, 7: 2},
    6: {2: 27, 3: 14, 5: 6, 7: 3, 11: 1},
    7: {2: 37, 3: 19, 5: 8, 7: 5, 11: 2, 13: 1},
}


def reference_value(n: int) -> int:
    out = 1
    for p, e in REFERENCE_TABLE[n].items():
        out *= p**e
    return out


def layer_gcd(n: int, bound: int) -> int:
    """gcd of tuple products over sorted tuples 0 <= r_0 < ... < r_n = bound."""
    g = 0
    for rest in combinations(range(bound), n):
        g = math.gcd(g, tuple_product(rest + (bound,)))
    return g


def quadratic_minplus(a: list[int], b: list[int]) -> list[int]:
    """Least a[s] + b[t - s] for every t, by trying every s: no convexity assumed."""
    return [min(a[s] + b[t - s] for s in range(t + 1)) for t in range(len(a))]


def minplus_fold(a: list[int], k: int) -> list[int]:
    """k-fold min-plus power of a as a linear left fold of ``quadratic_minplus``."""
    out = a
    for _ in range(k - 1):
        out = quadratic_minplus(out, a)
    return out


def reference_min_padic_valuation(p: int, points: int, depth: int) -> int:
    """The trie DP run level by level up to ``depth``, with no early stop."""
    fan, pinned, zero_units = (2, 2, 1) if p == 2 else (p, 0, (p - 1) // 2)
    own = [t * (t - 1) // 2 for t in range(points + 1)]
    free = [own]
    for _ in range(depth - 1 - pinned):
        free.append([x + y for x, y in zip(own, minplus_fold(free[-1], fan))])
    unit = [[(k + 1) * c for c in own] for k in range(pinned)]
    unit += [[pinned * c + x for c, x in zip(own, row)] for row in free]
    zero = own
    for h in range(1, depth + 1):
        d = depth - h
        if d % 2 == 0:
            zero = quadratic_minplus(zero, minplus_fold(unit[h - 1], zero_units))
        if d:
            zero = [x + y for x, y in zip(own, zero)]
    return zero[points]


class TestTupleProduct:
    def test_pair(self):
        assert tuple_product((0, 1)) == -1

    def test_triple(self):
        assert tuple_product((0, 1, 2)) == -12

    def test_repeated_square_vanishes(self):
        assert tuple_product((3, -3, 5)) == 0
        assert tuple_product((1, 1, 2, 4)) == 0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            tuple_product((7,))

    def test_equals_pairwise_loop(self):
        def pairwise(rs):
            out = 1
            for j in range(len(rs)):
                for k in range(j + 1, len(rs)):
                    out *= rs[j] ** 2 - rs[k] ** 2
            return out

        for n in range(1, 61):
            assert tuple_product(range(n + 1)) == pairwise(range(n + 1))
        rng = random.Random(53)
        for _ in range(500):
            rs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 12))]
            assert tuple_product(rs) == pairwise(rs), rs
        assert tuple_product((0, 0)) == tuple_product((5, 2, -5)) == 0


class TestPrimeSupport:
    def test_examples(self):
        assert cn_prime_support(1) == []
        assert cn_prime_support(3) == [2, 3, 5]
        assert cn_prime_support(6) == [2, 3, 5, 7, 11]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_support_is_primes_below_2n(self, n):
        support = cn_prime_support(n)
        assert all(p <= 2 * n - 1 for p in support)
        for p in support:
            distinct_squares = len({i * i % p for i in range(p)})
            assert distinct_squares <= n


class TestPadicMinimization:
    def test_two_adic_three_points(self):
        # Squares {0, 1, 4} realize total valuation 2 and nothing beats it.
        assert min_padic_valuation(2, 3, 3) == 2

    def test_three_adic_three_points(self):
        assert min_padic_valuation(3, 3, 2) == 1

    def test_two_adic_four_points(self):
        # {0, 1, 4, 9}: v(0-4) = 2 and v(1-9) = 3.
        assert min_padic_valuation(2, 4, 6) == 5

    def test_three_adic_four_points(self):
        assert min_padic_valuation(3, 4, 4) == 3

    def test_five_adic_four_points(self):
        assert min_padic_valuation(5, 4, 2) == 1

    def test_large_prime_enough_squares(self):
        # 7 > 2n for n = 2: three distinct squares exist mod 7, minimum 0.
        assert min_padic_valuation(7, 3, 2) == 0

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_reference_exponents(self, n):
        for p, e in REFERENCE_TABLE[n].items():
            assert min_padic_valuation(p, n + 1, e + 1) == e

    @pytest.mark.parametrize("n", range(2, 8))
    def test_overstated_exponent_not_reached(self, n):
        # Certifying e + 1 would need the minimum at depth e + 2 to be e + 1;
        # it stays at the true exponent e.
        for p, e in REFERENCE_TABLE[n].items():
            assert min_padic_valuation(p, n + 1, e + 2) == e

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
    def test_matches_reference_dp_on_grid(self, p):
        for points in range(1, 10):
            for depth in range(1, 16):
                expected = reference_min_padic_valuation(p, points, depth)
                assert min_padic_valuation(p, points, depth) == expected, (points, depth)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_reference_dp_on_certification_calls(self, n):
        for p, e in cn_value(n).factorization:
            for depth in (e + 1, e + 2):
                assert min_padic_valuation(p, n + 1, depth) == reference_min_padic_valuation(p, n + 1, depth)

    def test_large_depth_stops_at_fixed_point(self):
        # The level-by-level DP would hold a million tables here.
        assert min_padic_valuation(2, 5, 10**6) == min_padic_valuation(2, 5, 12) == 11

    @pytest.mark.parametrize("p", (-3, 0, 1, 4, 9, 15, 49))
    def test_rejects_non_prime(self, p):
        # The trie of squares assumes a prime; for a composite p the DP has no meaning.
        with pytest.raises(ValueError, match="prime"):
            min_padic_valuation(p, 3, 2)

    @staticmethod
    def seeded_slopes(convex):
        # Seeded steps, mostly not nondecreasing; the same steps sorted are
        # the slopes of a convex table.
        rng = random.Random(12)
        for size in (1, 2, 5, 9, 17):
            steps = [rng.randint(0, 9) for _ in range(size - 1)]
            yield sorted(steps) if convex else steps

    def test_convex_closed_forms_match_quadratic_fold(self):
        slopes = list(self.seeded_slopes(convex=True))
        for s in slopes:
            a = list(accumulate(s, initial=0))
            for k in range(1, 41):
                assert list(accumulate(cnconst._even_split(s, k), initial=0)) == minplus_fold(a, k), (s, k)
            for r in slopes:
                if len(r) >= len(s):
                    b = list(accumulate(r, initial=0))
                    assert list(accumulate(cnconst._minplus(s, r), initial=0)) == quadratic_minplus(a, b), (s, r)

    def test_non_convex_tables_are_defects(self):
        slopes = self.seeded_slopes(convex=False)
        bent = [s for s in slopes if s != sorted(s)]
        assert len(bent) == 3
        for s in bent:
            table = list(accumulate(s, initial=0))
            assert any(2 * y > x + z for x, y, z in zip(table, table[1:], table[2:]))
            with pytest.raises(AssertionError, match="not convex"):
                cnconst._minplus(s, sorted(s))
            with pytest.raises(AssertionError, match="not convex"):
                cnconst._minplus(sorted(s), s)
            with pytest.raises(AssertionError, match="not convex"):
                cnconst._minplus([0] * len(s), s)

    def test_matches_digest(self):
        # Every p <= 31, points <= 40 and depth <= 60; the certification
        # calls of n = 100, 200, 300; and a prime whose (p - 1)/2-fold split
        # would not fit in memory if it were built out.
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        calls = [(p, t, d) for p in primes for t in range(1, 41) for d in range(1, 61)]
        calls += [(p, n + 1, e + 1) for n in (100, 200, 300) for p, e in cn_value(n).factorization]
        calls.append((1_000_000_007, 5, 3))
        digest = hashlib.sha256()
        for p, t, d in calls:
            digest.update(f"{p} {t} {d} {min_padic_valuation(p, t, d)}\n".encode())
        assert digest.hexdigest() == MIN_PADIC_DIGEST

    def test_monotone_in_depth(self):
        vals = [min_padic_valuation(2, 4, d) for d in range(1, 9)]
        assert vals == sorted(vals)

    @pytest.mark.parametrize(
        "p,points,depth",
        [(p, t, d) for p in (2, 3, 5) for t in (2, 3, 4) for d in (1, 2, 3)]
        # Deeper 2-adic cases exercise the pinned-unit digit levels.
        + [(2, t, d) for t in (3, 4, 5) for d in (4, 5, 6)]
        # Deeper 3-adic tries; t + d <= 9 keeps each enumeration near a second.
        + [(3, t, d) for t in (3, 4, 5) for d in (4, 5, 6) if t + d <= 9]
        # A prime with (p - 1) / 2 = 3 unit children per even zero level.
        + [(7, t, d) for t in (4, 5, 6) for d in (1, 2)],
    )
    def test_matches_brute_force_enumeration(self, p, points, depth):
        # Literal minimum over all multisets of squares mod p^depth,
        # enumerated as sorted index sequences; cost[k] is what square k
        # adds to the pairwise sum of the squares chosen so far.
        modulus = p**depth
        squares = sorted({x * x % modulus for x in range(modulus)})

        def capped_valuation(diff):
            if diff % modulus == 0:
                return depth
            v = 0
            while diff % p == 0:
                diff //= p
                v += 1
            return v

        val = [[capped_valuation(a - b) for b in squares] for a in squares]

        def best(cost, start, left):
            if left == 1:
                return min(cost[start:])
            return min(
                cost[k] + best([c + v for c, v in zip(cost, val[k])], k, left - 1)
                for k in range(start, len(squares))
            )

        assert min_padic_valuation(p, points, depth) == best([0] * len(squares), 0, points)


class TestWitnessTally:
    def test_multiplies_to_the_witness(self):
        for n in range(1, 201):
            tally = cnconst._witness_tally(n)
            assert list(tally) == cn_prime_support(n)
            assert math.prod(p**e for p, e in tally.items()) == abs(tuple_product(range(n + 1))), n

    def test_bit_split_equals_tree_product(self):
        rng = random.Random(34)
        primes = cn_prime_support(60)
        cases = [(), ((2, 0),), ((7, 1),), ((113, 1000),), ((3, 0), (5, 0)), ((2, 2), (3, 1))]
        for _ in range(200):
            chosen = sorted(rng.sample(primes, rng.randint(1, len(primes))))
            cases.append(tuple((p, rng.choice((0, 1, rng.randint(0, 70), rng.randint(0, 2**12)))) for p in chosen))
        for fact in cases:
            assert cnconst._bit_split_product(fact) == cnconst._tree_product([p**e for p, e in fact]), fact

    def test_one_sieve_per_certificate(self):
        cn_value.cache_clear()
        cnconst._smallest_prime_factors.cache_clear()
        try:
            cn_value(40)
        finally:
            cn_value.cache_clear()
        assert cnconst._smallest_prime_factors.cache_info().misses == 1


class TestCnValue:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_reference_table_small(self, n):
        cert = cn_value(n)
        assert cert.value == reference_value(n)
        assert dict(cert.factorization) == REFERENCE_TABLE[n]

    @pytest.mark.parametrize("n", [*range(1, 101), 150, 200])
    def test_matches_closed_form(self, n):
        # C(n) = prod_{k=1..n} (2k)!/2 (Bhargava, "The factorial function
        # and generalizations", Amer. Math. Monthly 107, 2000).
        assert cn_value(n).value == math.prod(math.factorial(2 * k) // 2 for k in range(1, n + 1))

    def test_value_divides_random_tuple_products(self):
        rng = random.Random(17)
        for n in range(1, 8):
            value = cn_value(n).value
            for _ in range(10**4):
                rs = [rng.randint(-60, 60) for _ in range(n + 1)]
                product = tuple_product(rs)
                if product:
                    assert product % value == 0

    @pytest.mark.parametrize("n", range(2, 61))
    def test_factorization_primes_equal_support(self, n):
        # Every prime p <= 2n - 1 divides C(n): at most n squares mod p.
        cert = cn_value(n)
        assert [p for p, _ in cert.factorization] == cn_prime_support(n)
        assert all(e >= 1 for _, e in cert.factorization)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_layered_search(self, n):
        # The gcd over layers B = n..n+3 of all sorted tuples: an independent
        # value oracle that never reads the witness factorization.
        g = 0
        for bound in range(n, n + 4):
            g = math.gcd(g, layer_gcd(n, bound))
        assert cn_value(n).value == g

    @pytest.mark.parametrize("n", range(2, 8))
    def test_overstated_exponent_refused(self, n):
        for p, e in REFERENCE_TABLE[n].items():
            with pytest.raises(AssertionError):
                cnconst._certify_exponent(n, p, e + 1)

    def test_one_dp_call_per_prime(self, monkeypatch):
        depths = []

        def counted(p, points, depth):
            depths.append((p, depth))
            return min_padic_valuation(p, points, depth)

        monkeypatch.setattr(cnconst, "min_padic_valuation", counted)
        cn_value.cache_clear()
        try:
            cert = cn_value(7)
        finally:
            cn_value.cache_clear()
        assert depths == [(p, e + 1) for p, e in cert.factorization]

    def test_exponent_missing_the_witness_is_a_defect(self, capsys, monkeypatch):
        legendre = cnconst._witness_exponent
        monkeypatch.setattr(cnconst, "_witness_exponent", lambda n, p: legendre(n, p) + (p == 3))
        cn_value.cache_clear()
        try:
            with pytest.raises(AssertionError, match="witness"):
                cn_value(5)
            assert run(["cn", "5"]) == 70
        finally:
            cn_value.cache_clear()
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: internal: AssertionError: ")

    def test_non_convex_table_is_a_defect(self, capsys, monkeypatch):
        # A wrong table must stop the certificate, not give a wrong minimum.
        even_split = cnconst._even_split
        monkeypatch.setattr(cnconst, "_even_split", lambda s, k: even_split(s, k)[:-2] + [1, 0])
        cn_value.cache_clear()
        try:
            assert run(["cn", "5"]) == 70
        finally:
            cn_value.cache_clear()
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: internal: AssertionError: min-plus table is not convex")

    def test_certificate_validates_factorization(self):
        assert CnCertificate(2, ((2, 1),)).value == 2
        refused = [(2, ((5, 1),)), (3, ((2, -1),)), (3, ((4, 1),)), (3, ((1, 1),)), (3, ((-3, 1),))]
        # A prime or an exponent whose type is not exactly int, bool included.
        refused += [(3, ((2, 1.5),)), (3, ((2.0, 1),)), (3, ((2, "1"),)), (3, ((2, True),))]
        for n, fact in refused:
            with pytest.raises(ValueError, match="^factorization must be over primes <= 2n-1 with exponents >= 0$"):
                CnCertificate(n, fact)
        for n in range(1, 41):
            assert CnCertificate(n, cn_value(n).factorization) == cn_value(n)

    def test_one_computation_per_effective_arguments(self, capsys):
        # pairing_candidates calls cn_value(3); the cn command, whatever its
        # ignored --stability, calls it too.  Both name one computation.
        from hkrr.isosolver import pairing_candidates

        cn_value.cache_clear()
        pairing_candidates(3, 1, True)
        assert run(["cn", "3", "--stability", "5"]) == 0
        capsys.readouterr()
        info = cn_value.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_json_shape(self):
        blob = cn_value(3).to_json()
        assert blob["value"] == "4320"
        assert blob["factorization"] == [[2, 5], [3, 3], [5, 1]]
        assert set(blob) == {"n", "value", "factorization"}


# sha256 of "p points depth minimum" lines over the calls of TestPadicMinimization.test_matches_digest.
MIN_PADIC_DIGEST = "ebac74be63e73d720b92859908a4635de7f44dcd64e2e0d8ac157493c8329989"

# sha256 of the JSON and repr of cn_value(n) for n = 1..60, one report a line pair.
CN_REPORTS_DIGEST = "cc5c43139085ffac63f0eacafd06d0233a77fe5b52a1d4c0dcf1c3da62c2b759"


def reports_digest(ns) -> str:
    digest = hashlib.sha256()
    for n in ns:
        cert = cn_value(n)
        digest.update(f"{render_json(cert)}\n{cert!r}\n".encode())
    return digest.hexdigest()


def test_cn_reports_digest():
    assert reports_digest(range(1, 61)) == CN_REPORTS_DIGEST


# The same for n = 100, 200, ..., 500.
CN_LARGE_REPORTS_DIGEST = "14356727cff4cd82dade39359a9904c31d437ee8261c48cadf9190cdaea53ecc"


def test_cn_large_reports_digest():
    assert reports_digest(range(100, 501, 100)) == CN_LARGE_REPORTS_DIGEST
