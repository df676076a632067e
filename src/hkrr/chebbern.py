"""Chebyshev polynomials, their quarter-shift substitutes, and Bernoulli numbers.

These are the three ingredients the Chern-number expansion consumes.  All
results are memoized; since every value is immutable and the functions are
pure, the caches are safe under concurrent use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .exactpoly import ONE, Poly, X, poly_compose_affine

__all__ = ["chebyshev_T", "pk_poly", "bernoulli"]


@cache
def chebyshev_T(m: int) -> Poly:
    """First-kind Chebyshev polynomial T_m via T_m = 2*Y*T_{m-1} - T_{m-2}."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return ONE
    if m == 1:
        return X
    return 2 * X * chebyshev_T(m - 1) - chebyshev_T(m - 2)


@cache
def pk_poly(k: int) -> Poly:
    """Degree-k polynomial P_k with P_k(T) = T_{2k}(Y) under Y^2 = T/4 + 1.

    T_{2k} = T_k o T_2 and T_2(Y) = 2Y^2 - 1 = T/2 + 1, so P_k is
    T_k(T/2 + 1): exact univariate algebra, no symbolic square roots.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return poly_compose_affine(chebyshev_T(k), Fraction(1, 2), 1)


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
