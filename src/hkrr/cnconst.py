"""gcd constants of pairwise square-difference products, with certificates.

For n >= 1 the constant of interest is

    C(n) = gcd over all integer tuples (r_0, ..., r_n) of
           prod_{0 <= j < k <= n} (r_j^2 - r_k^2).

The witness tuple (0, 1, ..., n) has |product| = prod_k (2k)!/2, which C(n)
divides.  Legendre's formula gives its exponent at each prime p <= 2n - 1,
and those exponents are checked against a tally of the witness read off
its definition, prod_{0 <= j < k <= n} (k - j)(k + j): a difference d
occurs n + 1 - d times, a sum s occurs ceil(s/2) - max(0, s - n) times,
and one smallest-prime-factor sieve up to 2n factors them all.  So the
witness has no other prime factor, and it is never multiplied out.  C(n)
is that witness once each prime exponent e of it is shown to be the least
p-adic valuation any tuple reaches.  The minimum over all residue patterns
mod p^(e+1) of the pairwise valuation sum, each pair capped at e + 1, is
computed exactly by a dynamic program over the trie of squares in
Z/p^(e+1).  It is a lower bound for every integer tuple, so it certifies e
when it equals e.  It cannot exceed e, since the witness reaches e; and it
is never below e when e is the true minimum, since no pair is capped below
e + 1 and a pattern summing below e would lift to an integer tuple of
valuation below e.  One depth per prime therefore decides.

Every table of the DP is convex in its point count t: a node's own cost
t(t - 1)/2 is, and so are sums and min-plus convolutions of convex tables
(Murota, "Discrete Convex Analysis", SIAM 2003).  So each table is carried
as its slope list s[t] = cost(t + 1) - cost(t), t < points, with
cost(0) = 0: a min-plus convolution keeps the least points of the two
slope lists merged, a k-fold power repeats each slope k times, and a sum
adds slopes.  A unit node's table sums its levels, each filled evenly, and
is final once a level has as many nodes as there are points.  From there a
zero node's table is one fixed two-level map of the zero table below it;
the tables grow with height but stay bounded, so the chain reaches a fixed
point.  The DP stops at its first repeat and jumps to the top levels: the
same exact minimum at depth e + 1, in about O(log_p n) levels instead of
e + 1.

The value is formed once, from the factorization, by splitting the
exponents by bits (P. Borwein, "On the complexity of calculating
factorials", J. Algorithms 6, 1985): C(n) = prod_b (prod_{p : bit b of e_p}
p)^(2^b), evaluated Horner-style from the top bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import accumulate
from operator import add
from typing import Sequence

from .exactpoly import Report, rat_str

__all__ = [
    "CnCertificate",
    "tuple_product",
    "cn_prime_support",
    "cn_value",
    "min_padic_valuation",
]


@dataclass(frozen=True, repr=False)
class CnCertificate(Report):
    """A gcd-constant factorization over p <= 2n-1 and the value it multiplies to."""

    n: int
    value: int = field(init=False, metadata={"json": rat_str})
    factorization: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        support = set(cn_prime_support(self.n))
        if any(type(p) is not int or type(e) is not int or e < 0 or p not in support for p, e in self.factorization):
            raise ValueError("factorization must be over primes <= 2n-1 with exponents >= 0")
        object.__setattr__(self, "value", _bit_split_product(self.factorization))


def tuple_product(rs: Sequence[int]) -> int:
    """prod over all pairs j < k of (rs[j]^2 - rs[k]^2), exactly.

    Each row j is one ``math.prod``; the rows are then multiplied by
    _tree_product.
    """
    if len(rs) < 2:
        raise ValueError("need at least two entries")
    sq = [r * r for r in rs]
    return _tree_product([math.prod(s - t for t in sq[j + 1 :]) for j, s in enumerate(sq[:-1])])


def _tree_product(xs: list[int]) -> int:
    """prod(xs), multiplied pairwise in a balanced tree so the large products are of operands of like size."""
    while len(xs) > 1:
        xs = [math.prod(xs[i : i + 2]) for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


def _bit_split_product(factorization: Sequence[tuple[int, int]]) -> int:
    """prod p^e over the (p, e) pairs, as prod_b (prod_{p : bit b of e} p)^(2^b).

    From the top bit down, the running product is squared and the primes
    whose exponent has that bit set are multiplied in, so the one
    full-size operation is a squaring.
    """
    out = 1
    for b in reversed(range(max((e.bit_length() for _, e in factorization), default=0))):
        out = out * out * _tree_product([p for p, e in factorization if e >> b & 1])
    return out


@lru_cache(maxsize=1)
def _smallest_prime_factors(n: int) -> tuple[int, ...]:
    """The least prime factor of each m < 2n (m itself for a prime; 0 and 1 map to themselves).

    Kept for the last n, so that a certificate's tally and its support
    check read one sieve.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spf = list(range(2 * n))
    # Descending, so the least factor of each multiple is written last.
    for p in range(math.isqrt(2 * n - 1), 1, -1):
        spf[p * p :: p] = [p] * len(range(p * p, 2 * n, p))
    return tuple(spf)


def cn_prime_support(n: int) -> list[int]:
    """The primes p <= 2n-1: those of the witness, and so those of C(n)."""
    spf = _smallest_prime_factors(n)
    return [m for m in range(2, 2 * n) if spf[m] == m]


def _witness_exponent(n: int, p: int) -> int:
    """v_p of prod_{k=1..n} (2k)!/2, by Legendre's formula."""
    e = -n if p == 2 else 0
    for k in range(1, n + 1):
        q = 2 * k
        while q := q // p:
            e += q
    return e


def _witness_tally(n: int) -> dict[int, int]:
    """v_p of the witness prod_{0<=j<k<=n} (k - j)(k + j) at every prime p, from its factors.

    A difference d = k - j occurs n + 1 - d times and a sum s = k + j
    occurs ceil(s/2) - max(0, s - n) times, so each m < 2n is a factor
    that many times over, and the sieve splits m into primes.  A prime p
    first occurs at m = p, so the keys ascend.
    """
    spf = _smallest_prime_factors(n)
    tally: dict[int, int] = {}
    for m in range(2, 2 * n):
        times = max(0, n + 1 - m) + (m + 1) // 2 - max(0, m - n)
        while m > 1:
            p = spf[m]
            tally[p] = tally.get(p, 0) + times
            m //= p
    return tally


@cache
def cn_value(n: int) -> CnCertificate:
    """C(n) from the witness tuple (0, 1, ..., n), every prime exponent certified.

    Each exponent of the witness over its primes comes from Legendre's
    formula and is checked against the tally of the witness's factors;
    the certificate forms its value once, from the exponents.  Each
    exponent is then proved minimal by one ``min_padic_valuation`` call
    (see the module docstring).  An exponent that misses the tally, or
    that the residue minimum does not meet, is a defect and raises
    AssertionError.
    """
    tally = _witness_tally(n)
    cert = CnCertificate(n, tuple((p, _witness_exponent(n, p)) for p in tally))
    if dict(cert.factorization) != tally:
        raise AssertionError(f"Legendre exponents for n={n} do not match the witness tally")
    for p, e in cert.factorization:
        _certify_exponent(n, p, e)
    return cert


def _certify_exponent(n: int, p: int, e: int) -> None:
    """Prove that no tuple of n + 1 integers has p-valuation below e.

    Raises AssertionError unless the residue minimum at depth e + 1 is e.
    """
    m = min_padic_valuation(p, n + 1, e + 1)
    if m != e:
        raise AssertionError(f"residue minimum {m} mod {p}^{e + 1} does not certify exponent {e} for n={n}")


def min_padic_valuation(p: int, points: int, depth: int) -> int:
    """Exact minimum of sum over pairs of min(v_p(s_j - s_k), depth).

    The minimum ranges over all multisets of ``points`` squares in
    Z/p^depth.  Pairwise valuation sums decompose over the trie of squares
    (a pair contributes 1 at every common-prefix level), so the optimum is
    a small allocation DP over trie node classes:

    * ``zero``: residue 0 mod p^d; children are the deeper zero node plus,
      at even d, nodes p^d * u with u a one-digit square unit.
    * unit classes: for odd p a square unit lifts freely (all p children),
      while for p = 2 the unit is pinned for two digit levels (1 mod 4,
      then 1 mod 8) before branching freely in two children.

    Each table is convex and is carried as its slope list (see the module
    docstring), so every step takes O(points) operations for any p: the
    (p - 1)/2-fold split of a zero level is never built out.

    Raises ValueError unless p is prime and points, depth >= 1.
    """
    if points < 1 or depth < 1:
        raise ValueError("need points >= 1, depth >= 1")
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be prime, got {p}")
    # Fan-out of a unit node, pinned unit digit levels, and unit children
    # of a zero node at even depth: the only ways p = 2 differs.
    fan, pinned, zero_units = (2, 2, 1) if p == 2 else (p, 0, (p - 1) // 2)
    # Each table holds the slopes cost(t + 1) - cost(t), t < points, of the
    # least cost of t points below one node of a given height; a node's own
    # cost t(t - 1)/2 counts the pairs it holds, so its slopes are own[t] = t.
    # At level h, unit is a unit node of height h - 1, and the next level
    # below it has width = fan^(h - pinned) nodes (one while pinned).  Once
    # width >= points no deeper level costs anything: unit is final.
    own = list(range(points))
    unit, width = own, 1
    zero, before, h = own, None, 0
    while h < depth:
        h += 1
        d = depth - h
        if h > pinned and width < points:
            width *= fan
        if d % 2 == 0:
            zero = _minplus(zero, _even_split(unit, zero_units))
        if d:
            zero = list(map(add, own, zero))
        if d and d % 2 == 0:
            # With unit final the two-level map no longer changes, so a
            # repeat is its fixed point: skip to d = 1 and d = 0.
            if zero == before and width >= points:
                h = depth - 2
            before = zero
        if width < points:
            unit = [u + t // width for t, u in enumerate(unit)]
    return sum(zero)


def _check_convex(s: list[int]) -> None:
    """AssertionError, naming the table, unless the slopes s never decrease."""
    if s != sorted(s):
        raise AssertionError(f"min-plus table is not convex: {list(accumulate(s, initial=0))}")


def _minplus(a: list[int], b: list[int]) -> list[int]:
    """Slopes of the least a[s] + b[t - s] for every t, for convex a and b: the least slopes of the two merged."""
    _check_convex(a)
    _check_convex(b)
    return sorted(a + b)[: len(a)]


def _even_split(s: list[int], k: int) -> list[int]:
    """Slopes of the k-fold min-plus power of a convex table with slopes s: each slope repeated k times."""
    return [s[t // k] for t in range(len(s))]
