"""gcd constants of pairwise square-difference products, with certificates.

For n >= 1 the constant of interest is

    C(n) = gcd over all integer tuples (r_0, ..., r_n) of
           prod_{0 <= j < k <= n} (r_j^2 - r_k^2).

The witness tuple (0, 1, ..., n) has |product| = prod_k (2k)!/2, which C(n)
divides.  Legendre's formula gives its exponent at each prime p <= 2n - 1,
and the product of those prime powers is checked to equal the witness, so
it has no other prime factor.  So C(n) is that witness once each prime
exponent e of it is shown to be the least p-adic valuation any tuple
reaches.  The minimum over all residue patterns mod p^(e+1) of the pairwise
valuation sum, each pair capped at e + 1, is computed exactly by a dynamic
program over the trie of squares in Z/p^(e+1).  It is a lower bound for
every integer tuple, so it certifies e when it equals e.  It cannot exceed
e, since the witness reaches e; and it is never below e when e is the true
minimum, since no pair is capped below e + 1 and a pattern summing below e
would lift to an integer tuple of valuation below e.  One depth per prime
therefore decides.

Every table of the DP is convex in its point count t: a node's own cost
t(t - 1)/2 is, and so are sums and min-plus convolutions of convex tables
(Murota, "Discrete Convex Analysis", SIAM 2003).  So a min-plus
convolution merges the two slope sequences, and a k-fold power splits t
as evenly as possible.  A unit node's table sums its levels, each filled
evenly, and is final once a level has as many nodes as there are points.
From there a zero node's table is one fixed two-level map of the zero
table below it; the tables grow with height but stay bounded, so the
chain reaches a fixed point.  The DP stops at its first repeat and jumps
to the top levels: the same exact minimum at depth e + 1, in about
O(log_p n) levels instead of e + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate
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
        support = cn_prime_support(self.n)
        if any(e < 0 or p not in support for p, e in self.factorization):
            raise ValueError("factorization must be over primes <= 2n-1 with exponents >= 0")
        object.__setattr__(self, "value", _tree_product([p**e for p, e in self.factorization]))


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


def cn_prime_support(n: int) -> list[int]:
    """The primes p <= 2n-1: those of the witness, and so those of C(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out: list[int] = []
    for c in range(2, 2 * n):
        if all(c % p for p in out if p * p <= c):
            out.append(c)
    return out


def _witness_exponent(n: int, p: int) -> int:
    """v_p of prod_{k=1..n} (2k)!/2, by Legendre's formula."""
    e = -n if p == 2 else 0
    for k in range(1, n + 1):
        q = 2 * k
        while q := q // p:
            e += q
    return e


@cache
def cn_value(n: int) -> CnCertificate:
    """C(n) from the witness tuple (0, 1, ..., n), every prime exponent certified.

    Each exponent of the witness over ``cn_prime_support(n)`` comes from
    Legendre's formula, the certificate's value is the product of those
    prime powers, and that value is checked against the witness; each
    exponent is then proved minimal by one ``min_padic_valuation`` call
    (see the module docstring).  A product that misses the witness, or an
    exponent the residue minimum does not meet, is a defect and raises
    AssertionError.
    """
    cert = CnCertificate(n, tuple((p, _witness_exponent(n, p)) for p in cn_prime_support(n)))
    if cert.value != abs(tuple_product(range(n + 1))):
        raise AssertionError(f"Legendre exponents for n={n} do not multiply to the witness")
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

    Raises ValueError unless p is prime and points, depth >= 1.
    """
    if points < 1 or depth < 1:
        raise ValueError("need points >= 1, depth >= 1")
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be prime, got {p}")
    # Fan-out of a unit node, pinned unit digit levels, and unit children
    # of a zero node at even depth: the only ways p = 2 differs.
    fan, pinned, zero_units = (2, 2, 1) if p == 2 else (p, 0, (p - 1) // 2)
    # Each table maps t = 0..points to the least cost of t points below one
    # node of a given height; a node's own cost counts the pairs it holds.
    # At level h, unit is a unit node of height h - 1, and the next level
    # below it has width = fan^(h - pinned) nodes (one while pinned).  Once
    # width >= points no deeper level costs anything: unit is final.
    own = [t * (t - 1) // 2 for t in range(points + 1)]
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
            zero = [c + z for c, z in zip(own, zero)]
        if d and d % 2 == 0:
            # With unit final the two-level map no longer changes, so a
            # repeat is its fixed point: skip to d = 1 and d = 0.
            if zero == before and width >= points:
                h = depth - 2
            before = zero
        if width < points:
            unit = [u + c for u, c in zip(unit, _even_split(own, width))]
    return zero[points]


def _slopes(a: list[int]) -> list[int]:
    """The steps a[t + 1] - a[t]; AssertionError unless they never decrease."""
    s = [y - x for x, y in zip(a, a[1:])]
    if s != sorted(s):
        raise AssertionError(f"min-plus table is not convex: {a}")
    return s


def _minplus(a: list[int], b: list[int]) -> list[int]:
    """Least a[s] + b[t - s] for every t, for convex a and b: their slopes merged."""
    return list(accumulate(sorted(_slopes(a) + _slopes(b))[: len(a) - 1], initial=a[0] + b[0]))


def _even_split(a: list[int], k: int) -> list[int]:
    """The k-fold min-plus power of convex a: (k - t mod k)*a[t // k] + (t mod k)*a[t // k + 1]."""
    s = _slopes(a)
    return list(accumulate((s[t // k] for t in range(len(a) - 1)), initial=k * a[0]))
