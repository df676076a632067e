"""Reference arithmetic on plain Fraction lists, independent of hkrr.

Polynomials are ascending coefficient lists.  The workloads use these
helpers to generate inputs and the oracle uses them to check answers, so
nothing here may import hkrr.
"""

from __future__ import annotations

import math
from fractions import Fraction


def trim(cs: list) -> list[Fraction]:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return out


def add(a: list, b: list) -> list[Fraction]:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def scale(a: list, c) -> list[Fraction]:
    return trim([x * c for x in a])


def mul(a: list, b: list) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def evaluate(cs: list, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def compose_affine(cs: list, a, b) -> list[Fraction]:
    """T -> p(a T + b)."""
    acc: list[Fraction] = []
    for c in reversed(cs):
        acc = add(mul(acc, [b, a]), [c])
    return acc


def falling_binomial(n: int, scale_: Fraction, shift: Fraction) -> list[Fraction]:
    """binom(scale*T + shift, n) as a polynomial in T."""
    acc = [Fraction(1)]
    for i in range(n):
        acc = mul(acc, [shift - i, scale_])
    return scale(acc, Fraction(1, math.factorial(n)))


def family_prr(kind: str, n: int) -> list[Fraction]:
    """binom(T/2 + 1 + n, n) (split) or (n+1) binom(T/2 + n, n) (product)."""
    half = Fraction(1, 2)
    if kind == "split":
        return falling_binomial(n, half, Fraction(n + 1))
    if kind == "product":
        return scale(falling_binomial(n, half, Fraction(n)), n + 1)
    raise ValueError(f"unknown family {kind!r}")


def invariants(cs: list[Fraction]) -> dict[str, Fraction]:
    """c_x, n_x, m_x, a_x of a degree-n candidate, from the top coefficients."""
    n = len(cs) - 1
    fact2n = math.factorial(2 * n)
    n_x = cs[n - 1] / (n * cs[n])
    m_x = n_x / 2
    c_x = fact2n * cs[n]
    return {"c_x": c_x, "n_x": n_x, "m_x": m_x, "a_x": c_x * m_x**n / fact2n}


def family_qrr(kind: str, n: int) -> list[Fraction]:
    """Normalized form p(m_x T) of a family polynomial."""
    p = family_prr(kind, n)
    return compose_affine(p, invariants(p)["m_x"], 0)


def shifted_combination(cs: list[Fraction], s: Fraction, d: int) -> list[Fraction]:
    """sum_j cs[j] (T + s)^(d - 2j)."""
    out: list[Fraction] = []
    for j, c in enumerate(cs):
        power = [Fraction(1)]
        for _ in range(d - 2 * j):
            power = mul(power, [s, Fraction(1)])
        out = add(out, scale(power, c))
    return out


def qk_coeffs(k: int) -> list[int]:
    return [math.comb(k + j + 1, 2 * j + 1) for j in range(k + 1)]


def closed_form_cn(n: int) -> int:
    """C(n) = prod_{k=1..n} (2k)!/2, Bhargava's factorial of the squares."""
    out = 1
    for k in range(1, n + 1):
        out *= math.factorial(2 * k) // 2
    return out


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n as ascending tuples."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, smallest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(smallest, remaining + 1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, 1, ())
    return out


def integer_valued(cs: list[Fraction]) -> bool:
    """Polya's criterion: p(Z) in Z iff every forward difference at 0 is integral."""
    values = [evaluate(cs, t) for t in range(len(cs))]
    while values:
        if values[0].denominator != 1:
            return False
        values = [b - a for a, b in zip(values, values[1:])]
    return True


def integral_on_evens(cs: list[Fraction]) -> bool:
    """Whether p(2t) is an integer for every integer t."""
    return integer_valued(compose_affine(cs, 2, 0))
