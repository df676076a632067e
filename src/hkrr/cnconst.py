"""gcd constants of pairwise square-difference products, with certificates.

For n >= 1 the constant of interest is

    C(n) = gcd over all integer tuples (r_0, ..., r_n) of
           prod_{0 <= j < k <= n} (r_j^2 - r_k^2).

The product depends only on the multiset of squares and its sign never
affects a gcd, so it is enough to fold the gcd over sorted tuples of
distinct values 0 <= r_0 < ... < r_n <= B for growing B (tuples with a
repeated square contribute 0, which is gcd-neutral).  The layered search
alone cannot rule out a far-away tuple lowering some prime exponent, so
the stabilized value is confirmed prime by prime: the minimum p-adic
valuation of the product over all residue patterns mod p^(e+1) is computed
exactly by a dynamic program over the trie of squares in Z/p^(e+1), and it
certifies exponent e when it equals e (the residue minimum is always a
lower bound for the true minimum, which the found tuples bound above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import Iterable, Sequence

from .exactpoly import Report

__all__ = [
    "SearchBudgetExceeded",
    "CnCertificate",
    "tuple_product",
    "cn_prime_support",
    "cn_value",
    "layer_gcd",
    "min_padic_valuation",
]

DEFAULT_MAX_BOUND = 200


class SearchBudgetExceeded(RuntimeError):
    """The layered search hit its bound cap before the value was certified."""


@dataclass(frozen=True)
class CnCertificate(Report):
    """A certified gcd-constant value together with its search evidence."""

    n: int
    value: int = field(metadata={"json": str})
    factorization: tuple[tuple[int, int], ...]
    search_bound: int
    stable_layers: int

    def __post_init__(self) -> None:
        prod = 1
        for p, e in self.factorization:
            prod *= p**e
        if prod != self.value:
            raise ValueError("factorization does not multiply to value")
        if any(p > 2 * self.n - 1 for p, _ in self.factorization):
            raise ValueError("a factor prime exceeds 2n-1")


def tuple_product(rs: Sequence[int]) -> int:
    """prod over all pairs j < k of (rs[j]^2 - rs[k]^2), exactly."""
    if len(rs) < 2:
        raise ValueError("need at least two entries")
    sq = [r * r for r in rs]
    out = 1
    for j in range(len(sq)):
        for k in range(j + 1, len(sq)):
            out *= sq[j] - sq[k]
            if out == 0:
                return 0
    return out


def _primes_up_to(m: int) -> list[int]:
    out = []
    for c in range(2, m + 1):
        if all(c % p for p in out if p * p <= c):
            out.append(c)
    return out


def _distinct_squares_mod(p: int) -> int:
    return len({i * i % p for i in range(p)})


def cn_prime_support(n: int) -> list[int]:
    """Primes p <= 2n-1; each is checked to admit at most n distinct squares.

    Having at most n distinct squares mod p forces a repeated square in any
    n+1 entries, hence p divides every tuple product.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    support = _primes_up_to(2 * n - 1)
    for p in support:
        expected = 2 if p == 2 else (p + 1) // 2
        count = _distinct_squares_mod(p)
        if count != expected or count > n:
            raise AssertionError(f"square count witness failed for p={p}")
    return support


def layer_gcd(n: int, bound: int) -> int:
    """gcd of tuple products over sorted tuples whose maximum equals bound."""
    g = 0
    for rest in combinations(range(bound), n):
        g = math.gcd(g, tuple_product(rest + (bound,)))
    return g


def _factor_over(value: int, primes: Iterable[int]) -> tuple[dict[int, int], int]:
    fact: dict[int, int] = {}
    rem = value
    for p in primes:
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        if e:
            fact[p] = e
    return fact, rem


def cn_value(n: int, stability: int = 3, max_bound: int | None = None) -> CnCertificate:
    """Layered gcd search for C(n), stopped only once fully certified.

    Layers B = n, n+1, ... are folded until the gcd is unchanged for
    ``stability`` consecutive layers, its prime support lies within
    p <= 2n-1, and every prime exponent is confirmed by the residue
    minimization of ``min_padic_valuation``.  Raises SearchBudgetExceeded
    if B passes ``max_bound`` (default ``DEFAULT_MAX_BOUND``) first.
    Certificates are cached per (n, stability, effective cap), however the
    call spells its arguments.
    """
    return _certified_cn(n, stability, DEFAULT_MAX_BOUND if max_bound is None else max_bound)


@cache
def _certified_cn(n: int, stability: int, cap: int) -> CnCertificate:
    if n < 1:
        raise ValueError("n must be >= 1")
    if stability < 1:
        raise ValueError("stability must be >= 1")
    support = cn_prime_support(n)
    g = 0
    stable = 0
    for bound in range(n, cap + 1):
        g_next = math.gcd(g, layer_gcd(n, bound))
        stable = stable + 1 if (g_next == g and g != 0) else 0
        g = g_next
        if stable < stability:
            continue
        fact, rem = _factor_over(g, support)
        if rem != 1:
            continue  # support still too rich; keep enlarging
        if all(_exponent_certified(n, p, e) for p, e in fact.items()):
            return CnCertificate(
                n=n,
                value=g,
                factorization=tuple(sorted(fact.items())),
                search_bound=bound,
                stable_layers=stable,
            )
    raise SearchBudgetExceeded(
        f"search bound cap {cap} reached for n={n} without a certified value"
    )


def _exponent_certified(n: int, p: int, e: int) -> bool:
    """Certify that min_p-valuation of the product over all tuples equals e.

    The residue minimum at depth d is a lower bound for the true minimum
    and nondecreasing in d, so equality with the observed exponent at any
    depth is conclusive; a few escalations absorb cap artifacts.
    """
    for depth in (e + 1, e + 4, e + 8):
        m = min_padic_valuation(p, n + 1, depth)
        if m > e:
            raise AssertionError("residue lower bound exceeds an achieved valuation")
        if m == e:
            return True
    return False


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
    """
    if p < 2 or points < 1 or depth < 1:
        raise ValueError("need p >= 2, points >= 1, depth >= 1")
    # Fan-out of a unit node, pinned unit digit levels, and unit children
    # of a zero node at even depth: the only ways p = 2 differs.
    fan, pinned, zero_units = (2, 2, 1) if p == 2 else (p, 0, (p - 1) // 2)
    # Each table maps t = 0..points to the least cost of t points below one
    # node of a given height; a node's own cost counts the pairs it holds.
    own = [t * (t - 1) // 2 for t in range(points + 1)]
    free = [own]
    for _ in range(depth - 1 - pinned):
        free.append(_add(own, _minplus_power(free[-1], fan)))
    unit = [[(k + 1) * c for c in own] for k in range(pinned)]
    unit += [_add([pinned * c for c in own], row) for row in free]
    zero = own
    for h in range(1, depth + 1):
        d = depth - h
        if d % 2 == 0:
            zero = _minplus(zero, _minplus_power(unit[h - 1], zero_units))
        if d:
            zero = _add(own, zero)
    return zero[points]


def _add(a: list[int], b: list[int]) -> list[int]:
    return [x + y for x, y in zip(a, b)]


def _minplus(a: list[int], b: list[int]) -> list[int]:
    """Least a[s] + b[t - s] for every t: the cost of splitting t points."""
    return [min(a[s] + b[t - s] for s in range(t + 1)) for t in range(len(a))]


def _minplus_power(a: list[int], k: int) -> list[int]:
    out = a
    for _ in range(k - 1):
        out = _minplus(out, a)
    return out
