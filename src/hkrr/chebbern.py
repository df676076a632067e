"""The quarter-shift Chebyshev substitutes P_k, and Bernoulli numbers.

These are the two ingredients the Chern-number expansion consumes.  P_k is
T_k(T/2 + 1), read off the closed form of T_k(1 + x) at x = T/2, and sits
in the positive basis as the half-difference P_k = (q_k - q_{k-2})/2, with
P_1 = q_1/2.  B_2k is read off the tangent number T_k (Brent and Harvey,
"Fast computation of Bernoulli, Tangent and Secant numbers", 2011), and
the tangent numbers come from one table of integers grown on demand:
Seidel's boustrophedon, whose row j ends in the zigzag number A_j, with
T_k = A_(2k-1).  Each row is one pass of integer additions over the last
one, so B_2..B_2K together cost O(K^2) additions and no gcd.

All results are memoized.  The functions are pure and every value is
immutable, and the table is published as one (tangents, row) pair of
tuples in a single assignment, grown under a lock: a reader sees the old
table or the new one, never a half-grown one, and two threads never grow
it at once.  So the caches are safe under concurrent use.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import cache
from itertools import accumulate

from .exactpoly import ONE, Poly

__all__ = ["pk_poly", "bernoulli"]

# (T_1..T_K, row 2K of the boustrophedon), from row 0 = (1,).
_EMPTY_TABLE: tuple[tuple[int, ...], tuple[int, ...]] = ((), (1,))
_table = _EMPTY_TABLE
_table_lock = threading.Lock()


@cache
def pk_poly(k: int) -> Poly:
    """Degree-k polynomial P_k with P_k(T) = T_{2k}(Y) under Y^2 = T/4 + 1.

    T_{2k} = T_k o T_2 and T_2(Y) = 2Y^2 - 1 = T/2 + 1, so P_k is
    T_k(T/2 + 1), whose coefficient of T^j is k/(k+j) * binom(k+j, 2j) for
    k >= 1: exact univariate algebra, no recursion, no symbolic square roots.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return ONE
    return Poly(Fraction(k * math.comb(k + j, 2 * j), k + j) for j in range(k + 1))


def _tangent(k: int) -> int:
    """The tangent number T_k (k >= 1): 1, 2, 16, 272, 7936, ..."""
    global _table
    tangents = _table[0]
    if k > len(tangents):
        with _table_lock:
            tangents, row = _table
            grown = list(tangents)
            while len(grown) < k:
                # Row j is 0 followed by the running sums of row j - 1 reversed.
                row = (0, *accumulate(reversed(row)))
                grown.append(row[-1])
                row = (0, *accumulate(reversed(row)))
            tangents = tuple(grown)
            _table = (tangents, row)
    return tangents[k - 1]


@cache
def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m for even m >= 2.

    With m = 2k, B_m = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)): integers up to
    the one division.
    """
    if m < 2 or m % 2:
        raise ValueError("Bernoulli numbers are exposed here for even m >= 2 only")
    k = m // 2
    four_k = 1 << m
    sign = 1 if k % 2 else -1
    return Fraction(sign * m * _tangent(k), four_k * (four_k - 1))
