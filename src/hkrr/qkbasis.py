"""The positive symmetric basis polynomials q_k and decompositions into them.

q_k(T) := sum_{j=0..k} binom(k+j+1, 2j+1) T^j is monic of degree k with
positive integer coefficients (a shifted second-kind Chebyshev polynomial).
The family satisfies the Laurent identity T^k * q_k(T + 1/T - 2) =
1 + T^2 + ... + T^{2k}, is antisymmetric about T = -2 in alternating
degrees, and has k simple real roots in (-4, 0).

Decomposition of a symmetric polynomial into the q_k (or into shifted
powers (T+s)^{n-2j}) is by descending-degree elimination, which is exact
and yields uniqueness for free.  Root isolation is the one place floats
appear, and only in the returned approximations: the isolation itself uses
Sturm chains and bisection with exact rational endpoints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Callable

from .exactpoly import Poly, RatLike, X, ZERO, as_rat

__all__ = [
    "NotInSpan",
    "qk_poly",
    "qk_laurent_check",
    "qk_roots",
    "decompose_qk",
    "decompose_shifted",
    "real_roots",
    "count_real_roots",
    "all_roots_real",
]


class NotInSpan(ValueError):
    """The polynomial does not lie in the span of the requested basis."""


@cache
def qk_poly(k: int) -> Poly:
    """The monic degree-k basis polynomial with coefficients binom(k+j+1, 2j+1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Poly(math.comb(k + j + 1, 2 * j + 1) for j in range(k + 1))


def qk_laurent_check(k: int) -> bool:
    """Verify T^k * q_k(T + 1/T - 2) = sum_{j=0..k} T^{2j} exactly.

    Multiplying through by T^k turns the Laurent identity into a polynomial
    one: sum_j c_j T^{k-j} (T-1)^{2j} on the left, since
    (T + 1/T - 2)^j = (T-1)^{2j} / T^j.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    q = qk_poly(k)
    square = (X - 1) ** 2
    lhs = ZERO
    for j, c in enumerate(q.coeffs):
        lhs = lhs + c * X ** (k - j) * square**j
    rhs = Poly(1 if i % 2 == 0 else 0 for i in range(2 * k + 1))
    return lhs == rhs


def qk_roots(k: int) -> list[float]:
    """The k real roots of qk_poly(k), each accurate to 1e-9, ascending.

    Roots are isolated and refined with exact rational arithmetic; the
    closed form -4*sin(j*pi/(2(k+1)))^2 is used only as a final cross-check
    and a mismatch beyond 1e-9 signals an implementation bug.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    enclosures = real_roots(qk_poly(k), Fraction(1, 10**10))
    if len(enclosures) != k:
        raise ArithmeticError(f"expected {k} real roots, isolated {len(enclosures)}")
    roots = [float((lo + hi) / 2) for lo, hi in enclosures]
    expected = sorted(-4 * math.sin(j * math.pi / (2 * (k + 1))) ** 2 for j in range(1, k + 1))
    for got, want in zip(roots, expected):
        if abs(got - want) > 1e-9:
            raise ArithmeticError(f"root {got} deviates from {want} by more than 1e-9")
    return roots


def decompose_qk(p: Poly) -> list[Fraction]:
    """Coefficients b_i with p = sum_i b_i * qk_poly(n - 2i), i = 0..floor(n/2).

    Descending-degree elimination: b_i is the degree-(n-2i) coefficient of
    the running residual (each basis element is monic), and a nonzero final
    residual means p is outside the span.
    """
    return _eliminate(p, qk_poly)


def decompose_shifted(p: Poly, s: RatLike) -> list[Fraction]:
    """Coefficients c_j with p = sum_j c_j * (T + s)^(n - 2j), or NotInSpan."""
    shifted = Poly((as_rat(s), 1))
    return _eliminate(p, lambda d: shifted**d)


def _eliminate(p: Poly, basis: Callable[[int], Poly]) -> list[Fraction]:
    n = p.degree
    if n < 0:
        raise ValueError("polynomial must be nonzero")
    out: list[Fraction] = []
    residual = p
    for i in range(n // 2 + 1):
        d = n - 2 * i
        b = basis(d)
        c = residual.coeff(d) / b.leading()
        out.append(c)
        if c:
            residual = residual - b * c
    if not residual.is_zero():
        raise NotInSpan("not in span")
    return out


# -- exact real-root isolation (Sturm chains + rational bisection) --------


def _squarefree_part(p: Poly) -> Poly:
    g = _poly_gcd(p, p.derivative())
    if g.degree < 1:
        return p
    q, r = divmod(p, g)
    if not r.is_zero():
        raise AssertionError("gcd does not divide polynomial")
    return q


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    if a.is_zero():
        return a
    return a / a.leading()


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = divmod(chain[-2], chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero()]


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: Poly, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Number of distinct real roots of p in (lo, hi] (whole line by default)."""
    return _count_squarefree(_squarefree_part(p), lo, hi)


def all_roots_real(p: Poly) -> bool:
    """True iff every complex root of p is real (multiplicity discounted)."""
    ps = _squarefree_part(p)
    return _count_squarefree(ps) == ps.degree


def _count_squarefree(ps: Poly, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    if ps.degree < 1:
        return 0
    bound = _root_bound(ps)
    lo = -bound if lo is None else lo
    hi = bound if hi is None else hi
    chain = _sturm_chain(ps)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def _root_bound(p: Poly) -> Fraction:
    """Cauchy bound: every root has absolute value strictly below this."""
    lead = abs(p.leading())
    return 1 + max(abs(c) for c in p.coeffs) / lead


def _split_point(p: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly inside (lo, hi) that is not a root of p."""
    k = 2
    while True:
        for i in range(1, k):
            m = lo + (hi - lo) * Fraction(i, k)
            if p(m) != 0:
                return m
        k = k * 2 + 1  # more candidates than p has roots, eventually


def real_roots(p: Poly, tol: Fraction = Fraction(1, 10**10)) -> list[tuple[Fraction, Fraction]]:
    """Enclosing intervals [lo, hi] with hi - lo <= tol, one per distinct real root."""
    if p.degree < 1:
        return []
    ps = _squarefree_part(p)
    chain = _sturm_chain(ps)
    bound = _root_bound(ps)
    found: list[tuple[Fraction, Fraction]] = []
    stack: list[tuple[Fraction, Fraction]] = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        count = _sign_variations(chain, lo) - _sign_variations(chain, hi)
        if count == 0:
            continue
        if count == 1:
            found.append(_refine(ps, lo, hi, tol))
            continue
        mid = _split_point(ps, lo, hi)
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(found)


def _refine(p: Poly, lo: Fraction, hi: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval for a simple root by sign bisection.

    Requires p(lo) != 0 and exactly one root in (lo, hi]; real_roots only
    ever passes non-root endpoints.
    """
    flo = p(lo)
    fhi = p(hi)
    if flo == 0:
        raise AssertionError("isolating interval may not start at a root")
    if fhi == 0:
        return (hi, hi)
    if (flo > 0) == (fhi > 0):
        raise AssertionError("interval does not isolate a simple root")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fmid = p(mid)
        if fmid == 0:
            return (mid, mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return (lo, hi)
