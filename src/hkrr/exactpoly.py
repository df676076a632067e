"""Exact rational scalars and univariate polynomial algebra.

The scalar type is ``fractions.Fraction``: arbitrary precision, always in
lowest terms with positive denominator, so equality is structural and
hashing is free.  ``Poly`` is an immutable dense univariate polynomial
over Fraction (ascending coefficients, no trailing zeros).  Everything in
this module is pure and exact; there is no floating point and no epsilon
anywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence, Union

RatLike = Union[Fraction, int, str]

__all__ = [
    "RatLike",
    "as_rat",
    "rat_from_json",
    "rat_str",
    "jsonable",
    "Report",
    "Poly",
    "X",
    "ZERO",
    "ONE",
    "integer_form",
    "int_horner",
    "poly_compose_affine",
    "binomial_poly",
    "ResidueSet",
    "integrality_residues",
]


def as_rat(x: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass an int, Fraction, or 'p/q' string")
    return Fraction(x)


def rat_from_json(value: object, where: str) -> Fraction:
    """An exact rational read from JSON: an integer or a "p/q" string.

    Floats (inexact) and booleans (not numbers) are refused, as is any other
    JSON value, with a one-line ValueError that names ``where``.  So is a
    string in exponent notation: ``Fraction("1e3000000")`` would expand the
    power of ten, which takes minutes and memory in proportion.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        got = json.dumps(value, default=repr)
        raise ValueError(f"{where}: expected an integer or a 'p/q' string, got {got}")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"{where}: exponent notation is not accepted, got {value!r}")
    try:
        return Fraction(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    except ZeroDivisionError:
        raise ValueError(f"{where}: zero denominator in {value!r}") from None


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or just "p" when the denominator is 1."""
    return str(Fraction(x))


def jsonable(value: object) -> object:
    """The JSON form of a report value; the one place the report format is set.

    A Fraction becomes "p/q", a Poly ``{"coeffs": [...]}``, a set a sorted
    list, a named tuple an object, any other list or tuple a list, a dict a
    dict, and a dataclass an object of its fields in declaration order.  A
    field whose metadata carries ``"json"`` is written by that function
    instead.  Every other value (int, bool, str, float, None) is kept as is.
    """
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, Poly):
        return {"coeffs": jsonable(value.coeffs)}
    if isinstance(value, (set, frozenset)):
        return jsonable(sorted(value))
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: jsonable(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: f.metadata.get("json", jsonable)(getattr(value, f.name)) for f in fields(value)}
    return value


class Report:
    """Base of the report dataclasses: ``to_json()`` is ``jsonable(self)``."""

    def to_json(self) -> dict:
        return jsonable(self)


class Poly:
    """Dense univariate polynomial with exact Fraction coefficients.

    Coefficients are stored ascending by degree with trailing zeros
    stripped, so two polynomials are equal iff their coefficient tuples
    are.  The zero polynomial has an empty tuple and degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()) -> None:
        cs = [as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        """Coefficient of T^i (zero beyond the degree)."""
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Poly | RatLike") -> "Poly":
        other = _as_poly(other)
        return Poly(a + b for a, b in zip_longest(self._coeffs, other._coeffs, fillvalue=Fraction(0)))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self._coeffs)

    def __sub__(self, other: "Poly | RatLike") -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "Poly | RatLike") -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "Poly | RatLike") -> "Poly":
        if not isinstance(other, Poly):
            c = as_rat(other)
            return Poly(c * a for a in self._coeffs)
        if self.is_zero() or other.is_zero():
            return ZERO
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: RatLike) -> "Poly":
        c = as_rat(scalar)
        return Poly(a / c for a in self._coeffs)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial division with remainder (divisor nonzero)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self._coeffs)
        d, lead = other.degree, other.leading()
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            c = rem[-1] / lead
            q[k] = c
            for j, b in enumerate(other._coeffs):
                rem[k + j] -= c * b
            rem.pop()
        return Poly(q), Poly(rem)

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self._coeffs) if i >= 1)

    # -- evaluation and serialization ------------------------------------

    def __call__(self, x: RatLike) -> Fraction:
        """Exact value at x by Horner's rule."""
        x = as_rat(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == _as_poly(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Poly('0')"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self._coeffs[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("T" if i == 1 else f"T^{i}")
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return "Poly('{}')".format(" + ".join(parts).replace("+ -", "- "))

    def to_json(self) -> dict:
        """JSON form ``{"coeffs": ["p/q", ...]}``, ascending by degree."""
        return jsonable(self)

    @classmethod
    def from_json(cls, obj: dict) -> "Poly":
        if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
            raise ValueError("polynomial JSON must be an object with a 'coeffs' list")
        return cls(rat_from_json(c, f"coeffs[{i}]") for i, c in enumerate(obj["coeffs"]))


def _as_poly(x: "Poly | RatLike") -> Poly:
    return x if isinstance(x, Poly) else Poly((as_rat(x),))


ZERO = Poly()
ONE = Poly((1,))
X = Poly((0, 1))


def integer_form(p: Poly) -> tuple[list[int], int]:
    """(N, M): M the lcm of the coefficient denominators, N = M*p as integers.

    p(q) is an integer exactly when M divides N(q); M is 1 for the zero
    polynomial and for integer polynomials.
    """
    m = math.lcm(1, *(c.denominator for c in p.coeffs))
    return [c.numerator * (m // c.denominator) for c in p.coeffs], m


def int_horner(coeffs: Sequence[int], x: int) -> int:
    """Value at the integer x of the integer polynomial with ascending coeffs."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_compose_affine(p: Poly, a: RatLike, b: RatLike) -> Poly:
    """The polynomial T -> p(a*T + b), computed exactly.

    A pure rescaling (b = 0) is the O(d) map c_i -> c_i * a^i; otherwise
    Horner's rule in a*T + b.
    """
    a, b = as_rat(a), as_rat(b)
    if b == 0:
        scaled, power = [], Fraction(1)
        for c in p.coeffs:
            scaled.append(c * power)
            power *= a
        return Poly(scaled)
    inner = Poly((b, a))
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * inner + c
    return acc


def binomial_poly(n: int, scale: RatLike, shift: RatLike) -> Poly:
    """Falling-factorial binomial polynomial in an affine argument.

    Returns (s*T + t)(s*T + t - 1)...(s*T + t - n + 1) / n!  where
    s = scale and t = shift; this is binom(s*T + t, n) as a polynomial.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    scale, shift = as_rat(scale), as_rat(shift)
    acc = ONE
    for i in range(n):
        acc = acc * Poly((shift - i, scale))
    return acc / math.factorial(n)


@dataclass(frozen=True)
class ResidueSet:
    """A modulus M together with the allowed subset of Z/M.

    Membership of an integer q means ``q % M in allowed``.  The set is
    plain data; refinement to a larger modulus and canonical reduction
    preserve membership semantics exactly.
    """

    modulus: int
    allowed: frozenset[int]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "allowed", frozenset(self.allowed))
        if any(not (0 <= r < self.modulus) for r in self.allowed):
            raise ValueError("allowed residues must lie in [0, modulus)")

    def contains(self, q: int) -> bool:
        return q % self.modulus in self.allowed

    def lift(self, modulus: int) -> "ResidueSet":
        """The same set of integers, described modulo a multiple of M."""
        if modulus % self.modulus:
            raise ValueError("can only lift to a multiple of the modulus")
        step = self.modulus
        lifted = frozenset(r + k * step for r in self.allowed for k in range(modulus // step))
        return ResidueSet(modulus, lifted)

    def reduce(self) -> "ResidueSet":
        """Canonical form: the smallest modulus describing the same integers.

        A prime is peeled off the modulus only after verifying that the
        allowed set is exactly the preimage of its projection, so the
        reduction never changes membership.
        """
        m, allowed = self.modulus, self.allowed
        changed = True
        while changed and m > 1:
            changed = False
            for p in sorted(_prime_factors(m)):
                m2 = m // p
                proj = frozenset(r % m2 for r in allowed)
                # allowed lies inside the preimage of proj, which has
                # p * |proj| members, so equal sizes mean equal sets.
                if len(allowed) == p * len(proj):
                    m, allowed = m2, proj
                    changed = True
                    break
        return ResidueSet(m, allowed)

    def sorted_residues(self) -> list[int]:
        return sorted(self.allowed)


def _prime_factors(m: int) -> set[int]:
    out, d = set(), 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out


def integrality_residues(p: Poly) -> ResidueSet:
    """The exact residue criterion for p to take an integer value.

    Returns (M, S) with M the lcm of the coefficient denominators and
    S = {q mod M : p(q) is an integer}; then p(q) in Z iff q mod M in S,
    since p(q + M) - p(q) is always an integer.

    With (N, M) = ``integer_form(p)``, p(q) is an integer iff every prime
    power l^e exactly dividing M divides N(q), and N(q + l^e) = N(q) mod l^e.
    So S is built one prime power at a time, S_l = {r < l^e : l^e | N(r)},
    and the S_l are joined by the Chinese remainder theorem.  The cost is
    sum(l^e) integer evaluations plus |S| joins, instead of M rational ones.
    """
    coeffs, m = integer_form(p)
    modulus, allowed = 1, [0]
    for ell in sorted(_prime_factors(m)):
        q = ell
        while m % (q * ell) == 0:
            q *= ell
        reduced = [c % q for c in coeffs]
        s_ell = [r for r in range(q) if int_horner(reduced, r) % q == 0]
        # x = a (mod modulus) and x = b (mod q): x = a + modulus * ((b - a) / modulus mod q).
        inv = pow(modulus, -1, q)
        allowed = [a + modulus * ((b - a) * inv % q) for a in allowed for b in s_ell]
        modulus *= q
    return ResidueSet(m, frozenset(allowed))
