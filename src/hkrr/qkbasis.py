"""The positive symmetric basis polynomials q_k and decompositions into them.

q_k(T) := sum_{j=0..k} binom(k+j+1, 2j+1) T^j is monic of degree k with
positive integer coefficients (a shifted second-kind Chebyshev polynomial).
The family satisfies the Laurent identity T^k * q_k(T + 1/T - 2) =
1 + T^2 + ... + T^{2k}, is antisymmetric about T = -2 in alternating
degrees, and has k simple real roots in (-4, 0).

Both decompositions are changes of variables.  T^n p(T + 1/T - 2) is
sum_i b_i (T^{2i} + ... + T^{2n-2i}) for p = sum_i b_i q_{n-2i}, so p is in the
span iff it has no odd term, and then b_i = c_{2i} - c_{2i-2} of its coefficients c;
and p = sum_j c_j (T+s)^{n-2j} iff p(U - s) = sum_j c_j U^{n-2j}.
all_roots_real counts the distinct real roots with the Sturm chain of a
primitive integer polynomial, its sign variations at -inf and +inf read
from the leading coefficients.  The chain need not be squarefree: it ends
in g, gcd(p, p') up to a nonzero factor, p has deg p - deg g distinct
roots, and every root is real iff the count equals that.

qk_roots needs no Sturm chain, since the roots of q_k are known in closed
form, -4 sin^2(j pi/(2k + 2)).  Floats place k + 1 short dyadic separators
between them; if q_k's exact signs at those ascending points are nonzero
and alternate, each of the k brackets holds at least one root, so, q_k
having degree k, exactly one, simple, and none lies outside.  Each root's
enclosure is the cell holding it of one grid over (-B, B), B the Cauchy
bound: x_j = -B + j 2B/2^M, M the least such that 2B/2^M <= 10^-10, or
(x_j, x_j) for a root at a grid point.  The sign of q_k at a/b is that of
the integer b^k q_k(a/b), b a power of two, so int_horner scales by shifts.
The guess, the cell ends and the midpoints stay integers over the grid's
2^M until each midpoint is one int division, (lo + hi)/2^(M+1), the same
correctly rounded float as float(Fraction).  Floats appear only in
choosing the separators and the first cell tried, and in the returned
midpoints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from .exactpoly import Poly, RatLike, as_rat, int_horner, integer_form, poly_compose_affine, pseudo_divmod

__all__ = [
    "NotInSpan",
    "qk_poly",
    "qk_laurent_check",
    "qk_roots",
    "decompose_qk",
    "decompose_shifted",
    "all_roots_real",
]

# How far a root qk_roots reports may lie from the closed form.
ROOT_TOLERANCE = 1e-9


class NotInSpan(ValueError):
    """The polynomial does not lie in the span of the requested basis."""


@cache
def qk_poly(k: int) -> Poly:
    """The monic degree-k basis polynomial with coefficients binom(k+j+1, 2j+1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Poly(math.comb(k + j + 1, 2 * j + 1) for j in range(k + 1))


def qk_laurent_check(k: int) -> bool:
    """Verify T^k * q_k(T + 1/T - 2) = sum_{j=0..k} T^{2j} exactly, on q_k's integer form."""
    coeffs, m = integer_form(qk_poly(k))
    return _laurent(coeffs) == [m if i % 2 == 0 else 0 for i in range(2 * k + 1)]


def _laurent(coeffs: Sequence[int]) -> list[int]:
    """T^n N(T + 1/T - 2) for N = coeffs of degree n >= 0: sum_j c_j T^{n-j} S^j by Horner's rule in S = (T-1)^2."""
    n = len(coeffs) - 1
    acc = [coeffs[n]]
    for j in range(n - 1, -1, -1):
        acc = [c - 2 * c1 + c2 for c, c1, c2 in zip(acc + [0, 0], [0] + acc + [0], [0, 0] + acc)]
        acc[n - j] += coeffs[j]
    return acc


def qk_roots(k: int) -> list[float]:
    """The k real roots of qk_poly(k), each within ROOT_TOLERANCE, ascending.

    The alternation certificate (see the module docstring) gives each root
    a bracket, and its enclosure is the cell of the grid over (-B, B) that
    holds it.  A cell's end signs are read inside its bracket, an end
    outside taking the separator's sign; nonzero and opposite, they put the
    bracket's one root in the cell.  The cell holding the closed form is
    tried first, so with no fallback q_k is evaluated at most 3k + 1 times.
    The fallback bisects the grid indices in the bracket, within M steps;
    a zero at a grid point x gives (x, x).
    Signs that fail to alternate at k + 1 ascending separators, or a
    midpoint farther than ROOT_TOLERANCE from the closed form, are a defect
    in hkrr and raise AssertionError.
    """
    ps = integer_form(qk_poly(k))[0]
    # -4 sin^2(j pi/(2k + 2)) for j = k + 1..0: -4, the k roots ascending, 0.
    closed = [-4 * math.sin(j * math.pi / (2 * (k + 1))) ** 2 for j in range(k + 1, -1, -1)]
    seps = _separators(closed)
    signs = [_sign(int_horner(ps, t.numerator, t.denominator)) for t in seps]
    if (
        len(seps) != k + 1
        or 0 in signs
        or any(s >= t for s, t in zip(seps, seps[1:]))
        or any(u == v for u, v in zip(signs, signs[1:]))
    ):
        raise AssertionError(f"q_{k} does not alternate in sign at {k + 1} ascending separators")
    bound = 1 + max(ps)  # Cauchy's, q_k being monic
    grid = _grid(-bound, bound, Fraction(1, 10**10))
    half = grid[2] << 1
    roots = []
    for c, guess in enumerate(closed[1:-1]):
        lo, hi = _root_cell(ps, grid, seps[c : c + 2], signs[c : c + 2], guess)
        roots.append((lo + hi) / half)  # one correctly rounded int division, as float(Fraction) is
    for got, want in zip(roots, closed[1:-1]):
        if abs(got - want) > ROOT_TOLERANCE:
            raise AssertionError(f"root {got} deviates from {want} by more than {ROOT_TOLERANCE}")
    return roots


def decompose_qk(p: Poly) -> list[Fraction]:
    """Coefficients b_i with p = sum_i b_i * qk_poly(n - 2i), i = 0..floor(n/2), or NotInSpan."""
    n = p.degree
    if n < 0:
        raise ValueError("polynomial must be nonzero")
    nums, den = integer_form(p)
    laurent = _laurent(nums)
    if any(laurent[1::2]):
        raise NotInSpan("not in span")
    evens = laurent[: n + 1 : 2]
    return [Fraction(c - b, den) for b, c in zip([0] + evens, evens)]


def decompose_shifted(p: Poly, s: RatLike) -> list[Fraction]:
    """Coefficients c_j with p = sum_j c_j * (T + s)^(n - 2j), read off p(U - s), or NotInSpan."""
    nums, den = _centred(p, as_rat(s), p.degree % 2)
    if not nums:
        raise ValueError("polynomial must be nonzero")
    return [Fraction(c, den) for c in reversed(nums)]


def _centred(p: Poly, s: Fraction | int, e: int) -> tuple[list[int], int]:
    """(r, M) with p(U - s) = U^e sum_j r_j U^(2j) / M, or NotInSpan for a nonzero term of parity 1 - e."""
    nums, den = integer_form(poly_compose_affine(p, 1, -s))
    if any(nums[1 - e :: 2]):
        raise NotInSpan("not in span")
    return list(nums[e::2]), den


# -- whether every root is real (integer Sturm chains) --
#
# A polynomial here is the ascending list of its integer coefficients, made
# primitive (content divided out, sign kept).  Every element of the Sturm
# chain is a positive multiple of the one Euclidean division over Q gives,
# so every sign and every sign count is the same.  p need not be squarefree:
# the chain ends in a multiple g of gcd(p, p'), and every element is g times
# the Sturm chain of p/g.  g has one sign near -inf and one near +inf, so
# V(-inf) - V(+inf) is the number of distinct real roots of p, while p has
# deg p - deg g distinct complex roots.


def _primitive(cs: list[int]) -> list[int]:
    g = math.gcd(*cs)
    return [c // g for c in cs]


def _sturm_step(a: list[int], b: list[int]) -> list[int]:
    """The chain element after (a, b): primitive, a positive multiple of -(a mod b).

    The pseudo-remainder is lc(b)^(delta+1) times the remainder, delta =
    deg a - deg b >= 0, a negative multiple when lc(b) < 0 and delta + 1 is
    odd.  Empty when b divides a.
    """
    r = pseudo_divmod(a, b)[1]
    if not r:
        return r
    negative = b[-1] < 0 and (len(a) - len(b)) % 2 == 0
    return _primitive(r if negative else [-c for c in r])


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p', then _sturm_step until a constant or an exact division.

    The last element is gcd(p, p') times a nonzero integer, a constant when
    p is squarefree.
    """
    chain = [p, _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        nxt = _sturm_step(chain[-2], chain[-1])
        if not nxt:
            break
        chain.append(nxt)
    return chain


def _variations(values: Iterable[int]) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def all_roots_real(p: Poly) -> bool:
    """True iff every complex root of p is real (multiplicity discounted).

    Sturm's theorem counts the distinct real roots as V(-inf) - V(+inf),
    read from the signs of the chain's leading coefficients.  The chain ends
    in g, a multiple of gcd(p, p'), and p has deg p - deg g distinct roots:
    every one is real iff the count equals that.
    """
    if p.degree < 1:
        return not p.is_zero()
    chain = _sturm_chain(_primitive(integer_form(p)[0]))
    at_minus = _variations(q[-1] if len(q) % 2 else -q[-1] for q in chain)
    return at_minus - _variations(q[-1] for q in chain) == len(chain[0]) - len(chain[-1])


# -- q_k's roots from the alternation certificate (see the module docstring) --


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _separators(points: list[float]) -> list[Fraction]:
    """A short dyadic near the middle of each two adjacent ascending points.

    With 2^-e <= gap/4, the nearest multiple of 2^-e to the midpoint is
    within gap/8 of it.  Floats only choose these points; qk_roots proves
    what it uses of them by exact signs.
    """
    out = []
    for a, b in zip(points, points[1:]):
        e = max(math.ceil(math.log2(4 / (b - a))), 0)
        out.append(Fraction(round(math.ldexp(a + b, e - 1)), 1 << e))
    return out


def _grid(lo: int, hi: int, tol: Fraction) -> tuple[int, int, int]:
    """(base, step, den): the grid x_j = (base + j*step)/den, j = 0..2^m, over [lo, hi].

    den = 2^m, m the least number of halvings that bring hi - lo to width <= tol.
    """
    width, allowed = (hi - lo) * tol.denominator, tol.numerator
    m = max(width.bit_length() - allowed.bit_length(), 0)
    m += width > allowed << m
    return lo << m, hi - lo, 1 << m


def _root_cell(
    p: list[int], grid: tuple[int, int, int], bracket: list[Fraction], ends: list[int], guess: float
) -> tuple[int, int]:
    """The cell (x_j, x_j+1) of grid holding p's one root in bracket, where p has signs ends.

    The cell is returned as the numerators of its ends over the grid's den.
    """
    base, step, den = grid

    def cell(num: int, d: int) -> int:  # the j with x_j <= num/d < x_j+1
        return (num * den - base * d) // (step * d)

    first, last = (cell(x.numerator, x.denominator) for x in bracket)

    def sign(j: int) -> int:  # p's at x_j, or a separator's where x_j is not inside the bracket
        if j <= first:
            return ends[0]
        if j > last:
            return ends[1]
        return _sign(int_horner(p, base + j * step, den))

    lo = cell(*guess.as_integer_ratio())
    hi = lo + 1
    if sign(lo) * sign(hi) >= 0:
        lo, hi = first, last + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            s = sign(mid)
            if s == 0:
                return base + mid * step, base + mid * step
            lo, hi = (mid, hi) if s == ends[0] else (lo, mid)
    return base + lo * step, base + hi * step
