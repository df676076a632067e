"""The quarter-shift Chebyshev substitutes P_k, and Bernoulli numbers.

These are the two ingredients the Chern-number expansion consumes.  P_k is
T_k(T/2 + 1), read off the closed form of T_k(1 + x) at x = T/2, and sits
in the positive basis as the half-difference P_k = (q_k - q_{k-2})/2, with
P_1 = q_1/2.  All results are memoized; since every value is immutable and
the functions are pure, the caches are safe under concurrent use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .exactpoly import ONE, Poly

__all__ = ["pk_poly", "bernoulli"]


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


@cache
def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m for even m >= 2 (Akiyama-Tanigawa scheme)."""
    if m < 2 or m % 2:
        raise ValueError("Bernoulli numbers are exposed here for even m >= 2 only")
    row = [Fraction(0)] * (m + 1)
    for i in range(m + 1):
        row[i] = Fraction(1, i + 1)
        for j in range(i, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]
