"""Exact rational scalars and univariate polynomial algebra.

The scalar type is ``fractions.Fraction``: arbitrary precision, always in
lowest terms with positive denominator, so equality is structural and
hashing is free.  ``Poly`` is an immutable dense univariate polynomial
over Q, stored as integer numerators over one positive denominator in
lowest terms, so its arithmetic is integer arithmetic with one gcd per
result.  ``int_horner`` is the one evaluator: the homogeneous integer
Horner sum c_i a^i b^(d-i), which gives every exact value and every sign,
with no scale for b = 1 and by shifts for b = 2^m; ``pseudo_divmod`` is
the one division, integer pseudo-division, in one pass for the normal
step deg a = deg b + 1; ``poly_compose_affine`` shifts by suffix sums.
Everything in this module is pure and exact; there is no floating point
and no epsilon anywhere.
"""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import accumulate, zip_longest
from typing import Callable, Collection, Iterable, Sequence, Union

RatLike = Union[Fraction, int, str]
_STR_BITS = 2000  # at most 603 digits, below 640, the lowest int-to-str limit an interpreter accepts

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
    "pseudo_divmod",
    "poly_compose_affine",
    "binomial_poly",
    "ResidueSet",
    "integrality_residues",
]


def as_rat(x: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction; a Fraction itself is returned."""
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass an int, Fraction, or 'p/q' string")
    return x if type(x) is Fraction else Fraction(x)


def rat_from_json(value: object, where: str) -> Fraction:
    """An exact rational read from JSON: an integer or a "p/q" string.

    Floats (inexact) and booleans (not numbers) are refused, as is any other
    JSON value, with a one-line ValueError that names ``where``.  So is a
    string in exponent notation: ``Fraction("1e3000000")`` would expand the
    power of ten, which takes minutes and memory in proportion.
    """
    return Fraction(*_rat_pair(value, where))


def _rat_pair(value: object, where: str) -> tuple[int, int]:
    """``rat_from_json``'s value as (num, den), den > 0: by ``int`` for an ASCII "-?digits[/digits]", else by Fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{where}: expected an integer or a 'p/q' string, got {json_echo(value)}")
    if isinstance(value, int):
        return int(value), 1
    if "e" in value or "E" in value:
        raise ValueError(f"{where}: exponent notation is not accepted, got {value!r}")
    num, slash, den = value.partition("/")
    try:  # int raises Fraction's own error past the int-to-str digit limit
        if value.isascii() and num.removeprefix("-").isdigit() and (not slash or den.isdigit() and den.strip("0")):
            return int(num), int(den or 1)
        x = Fraction(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    except ZeroDivisionError:
        raise ValueError(f"{where}: zero denominator in {value!r}") from None
    return x.numerator, x.denominator


def json_echo(value: object, depth: int = 3) -> str:
    """A rejected JSON input value as compact JSON text, for an error message.

    Arrays and objects nested more than ``depth`` levels in are written as
    ``[...]`` and ``{...}``: the echo takes a few stack frames however deep
    the input is, where ``json.dumps`` would recurse past the depth at
    which the parser accepted it.
    """
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(json_echo(v, depth - 1) for v in value) + "]" if depth else "[...]"
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}: {json_echo(v, depth - 1)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}" if depth else "{...}"
    return json.dumps(value, default=repr)


def rat_str(x: Fraction | int) -> str:
    """Serialize a rational as "p/q", or just "p" when the denominator is 1, at any size."""
    return _ratio_str(x.numerator, x.denominator)


def _ratio_str(num: int, den: int) -> str:
    """num/den, in lowest terms with den > 0, as ``rat_str`` writes it."""
    return _int_str(num) if den == 1 else f"{_int_str(num)}/{_int_str(den)}"


def _int_str(n: int) -> str:
    """n in decimal at any size, whatever the interpreter's int-to-str limit.

    Past _STR_BITS, binary halves are joined exactly in ``decimal``, as CPython 3.12's _pylong does.
    """
    if n.bit_length() <= _STR_BITS:
        return str(n)
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])

    def join(m: int, bits: int) -> decimal.Decimal:  # m = (m >> h) * 2^h + (m & (2^h - 1)), negative m too
        if bits <= _STR_BITS:
            return decimal.Decimal(m)
        h = bits >> 1
        return ctx.fma(join(m >> h, bits - h), ctx.power(2, h), join(m & ((1 << h) - 1), h))

    try:
        return str(join(n, n.bit_length()))
    except decimal.DecimalException as exc:  # an ArithmeticError, which the CLI would report as bad input
        raise AssertionError(f"inexact decimal join: {exc!r}") from None


# One (field name, writer or None) pair per field of each dataclass type json_level has met.
_FIELD_WRITERS: dict[type, tuple[tuple[str, Callable[[object], object] | None], ...]] = {}


def jsonable(value: object) -> object:
    """The JSON form of a report value: ``json_level`` applied at every level."""
    value = json_level(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    return value


def json_level(value: object) -> object:
    """One level of a report value's JSON form; the one place the report format is set.

    A str, int, bool, float or None is kept as is.  A Fraction becomes
    "p/q", a Poly ``{"coeffs": [...]}``, a set a sorted list, a named tuple
    a dict of its fields, a dataclass a dict of its fields in declaration
    order, and a list, tuple or dict is kept; the items of the result are
    left for the caller (``jsonable``, or ``cli.render_json`` as it writes).
    A field whose metadata carries ``"json"`` is given by that function
    instead; the field names and writers are read once per dataclass type.
    A Poly's coefficients are written from its integer form: each c/den is
    reduced by one gcd and written as ``rat_str`` writes it, with no
    Fraction built.  Any other value is returned as is, for json to refuse.
    """
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, Poly):
        den = value._den
        return {"coeffs": [_ratio_str(c // (g := math.gcd(c, den)), den // g) for c in value._nums]}
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return dict(zip(value._fields, value))
    if isinstance(value, (list, tuple, dict)):
        return value
    cls = type(value)
    writers = _FIELD_WRITERS.get(cls)
    if writers is None:
        if not is_dataclass(cls):
            return value
        writers = _FIELD_WRITERS[cls] = tuple((f.name, f.metadata.get("json")) for f in fields(cls))
    return {name: getattr(value, name) if write is None else write(getattr(value, name)) for name, write in writers}


class Report:
    """Base of the report dataclasses: ``to_json()`` is ``jsonable(self)``.

    They are declared with ``repr=False`` so that this ``__repr__`` serves:
    the dataclass one, but with every int and Fraction written by
    ``rat_str``, so it works at any size.
    """

    def to_json(self) -> dict:
        return jsonable(self)

    def __repr__(self) -> str:
        items = (f"{f.name}={_repr(getattr(self, f.name))}" for f in fields(self) if f.repr)
        return f"{type(self).__qualname__}({', '.join(items)})"


def _repr(value: object) -> str:
    """repr(value), except that ints and Fractions, also inside tuples, lists and dicts, are written by rat_str."""
    if type(value) is int:
        return rat_str(value)
    if isinstance(value, Fraction):
        return f"Fraction({rat_str(value.numerator)}, {rat_str(value.denominator)})"
    if type(value) is list:
        return "[" + ", ".join(map(_repr, value)) + "]"
    if type(value) is tuple:
        inner = ", ".join(map(_repr, value))
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if type(value) is dict:
        return "{" + ", ".join(f"{_repr(k)}: {_repr(v)}" for k, v in value.items()) + "}"
    return repr(value)


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Stored as integer numerators over one denominator, ``_nums / _den``,
    ascending by degree, in canonical form: ``_den > 0``,
    ``gcd(_den, *_nums) == 1`` and no trailing zero.  So ``_den`` is the
    lcm of the coefficient denominators, and two polynomials are equal iff
    their pairs are.  Arithmetic is integer arithmetic on the numerators
    followed by one gcd normalization; ``coeffs`` gives the reduced
    Fractions.  The zero polynomial is ``((), 1)`` and has degree -1.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[RatLike] = ()) -> None:
        cs = [c if type(c) is int else as_rat(c) for c in coeffs]
        den = math.lcm(1, *(c.denominator for c in cs))
        _canonical(self, [c.numerator * (den // c.denominator) for c in cs], den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def coeff(self, i: int) -> Fraction:
        """Coefficient of T^i (zero beyond the degree)."""
        if 0 <= i < len(self._nums):
            return Fraction(self._nums[i], self._den)
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self._nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._nums[-1], self._den)

    def is_zero(self) -> bool:
        return not self._nums

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Poly | RatLike") -> "Poly":
        other = _as_poly(other)
        a, b, da, db = self._nums, other._nums, self._den, other._den
        if da != db:
            g = math.gcd(da, db)
            a, b, da = [c * (db // g) for c in a], [c * (da // g) for c in b], da * (db // g)
        return _poly([x + y for x, y in zip_longest(a, b, fillvalue=0)], da)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self._nums], self._den)

    def __sub__(self, other: "Poly | RatLike") -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "Poly | RatLike") -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "Poly | RatLike") -> "Poly":
        if not isinstance(other, Poly):
            c = as_rat(other)
            return _poly([x * c.numerator for x in self._nums], self._den * c.denominator)
        a, b = self._nums, other._nums
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _poly(out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar: RatLike) -> "Poly":
        c = as_rat(scalar)
        if not c:
            raise ZeroDivisionError("polynomial division by zero")
        return _poly([x * c.denominator for x in self._nums], self._den * c.numerator)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if not n:
            return ONE
        base = self
        while not n & 1:
            base, n = base * base, n >> 1
        result = base  # from the lowest set bit, squaring no further than the top one
        while n := n >> 1:
            base = base * base
            if n & 1:
                result = result * base
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial division with remainder (divisor nonzero).

        For self = N/M and other = B/D, ``pseudo_divmod(N, B)`` gives
        l^s N = Q B + R in Z[T], so the quotient is Q D / (l^s M) and the
        remainder R / (l^s M).
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = pseudo_divmod(self._nums, other._nums)
        scale = other._nums[-1] ** len(q) * self._den
        return _poly([c * other._den for c in q], scale), _poly(r, scale)

    # -- evaluation and serialization ------------------------------------

    def __call__(self, x: RatLike) -> Fraction:
        """Exact value at x = a/b: ``int_horner(nums, a, b) / (den * b^d)``."""
        x = as_rat(x)
        b = x.denominator
        return Fraction(int_horner(self._nums, x.numerator, b), self._den * b ** max(self.degree, 0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._nums == other._nums and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == _as_poly(other)
        return NotImplemented

    def __hash__(self) -> int:
        if len(self._nums) > 1:
            return hash((self._nums, self._den))
        # A constant equals its value (Poly((3,)) == 3), so it hashes as one.
        return hash(Fraction(self._nums[0], self._den)) if self._nums else 0

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __repr__(self) -> str:
        if not self._nums:
            return "Poly('0')"
        parts = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            mono = "1" if i == 0 else ("T" if i == 1 else f"T^{i}")
            if i == 0:
                parts.append(rat_str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{rat_str(c)}*{mono}")
        return "Poly('{}')".format(" + ".join(parts).replace("+ -", "- "))

    def to_json(self) -> dict:
        """JSON form ``{"coeffs": ["p/q", ...]}``, ascending by degree."""
        return jsonable(self)

    @classmethod
    def from_json(cls, obj: dict) -> "Poly":
        if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
            raise ValueError("polynomial JSON must be an object with a 'coeffs' list")
        pairs = [_rat_pair(c, f"coeffs[{i}]") for i, c in enumerate(obj["coeffs"])]
        den = math.lcm(1, *(d for _, d in pairs))
        return _poly([c * (den // d) for c, d in pairs], den)


def _canonical(p: Poly, nums: list[int], den: int) -> None:
    """Store nums/den in p in canonical form; den is nonzero."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums, den = [c // g for c in nums], den // g
    p._nums, p._den = tuple(nums), den


def _poly(nums: list[int], den: int) -> Poly:
    """The Poly nums/den (den nonzero), normalized."""
    p = object.__new__(Poly)
    _canonical(p, nums, den)
    return p


def _as_poly(x: "Poly | RatLike") -> Poly:
    return x if isinstance(x, Poly) else Poly((x,))


ZERO = Poly()
ONE = Poly((1,))
X = Poly((0, 1))


def integer_form(p: Poly) -> tuple[tuple[int, ...], int]:
    """(N, M): M the lcm of the coefficient denominators, N = M*p as integers.

    This is p's own storage.  p(q) is an integer exactly when M divides
    N(q); M is 1 for the zero polynomial and for integer polynomials.
    """
    return p._nums, p._den


def int_horner(coeffs: Sequence[int], a: int, b: int = 1) -> int:
    """sum c_i a^i b^(d-i), d = len(coeffs) - 1: b^d times the value at a/b.

    The one evaluator: ``Poly.__call__`` divides it by den * b^d, and with
    b > 0 its sign is the sign of the value at a/b.  Horner's rule takes
    c_(d-j) b^j at step j: with no scale for b = 1, as c << m j for
    b = 2^m, and by a running power of b otherwise.
    """
    acc = 0
    if b == 1:
        for c in reversed(coeffs):
            acc = acc * a + c
    elif b > 1 and not b & (b - 1):
        m = b.bit_length() - 1
        for j, c in enumerate(reversed(coeffs)):
            acc = acc * a + (c << m * j)
    else:
        scale = 1
        for c in reversed(coeffs):
            acc = acc * a + c * scale
            scale *= b
    return acc


def pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Integer pseudo-division: (q, r) with l^s a = q b + r in Z[T].

    a and b are ascending integer coefficient lists, b with nonzero leading
    coefficient l; s = max(0, len(a) - len(b) + 1) is the number of
    division steps, len(r) < len(b) and r has no trailing zero.  This is
    the one division loop: ``Poly.__divmod__`` scales q and r, and the
    Sturm chain of ``all_roots_real`` keeps r only, made primitive.  When
    deg a = deg b + 1, the normal step of a Sturm chain, the two steps are
    one pass: q = l a_m T + (l a_(m-1) - a_m b_(m-2)), m = deg a, and
    r = l^2 a - q b with its top two terms, which cancel, dropped.
    """
    lead = b[-1]
    if len(a) == len(b) + 1:
        q1 = lead * a[-1]
        q0 = lead * a[-2] - a[-1] * (b[-2] if len(b) > 1 else 0)
        sq = lead * lead
        r = [sq * x - q0 * y - q1 * z for x, y, z in zip(a, b[:-1], (0, *b))]
        q = [q0, q1]
    else:
        r = list(a)
        q = []
        for k in range(len(r) - len(b), -1, -1):
            top = r.pop()
            q.append(top * lead**k)  # the k later steps would each scale it by lead
            r = [lead * c for c in r]
            for j, c in enumerate(b[:-1], k):
                r[j] -= top * c
        q.reverse()
    while r and not r[-1]:
        r.pop()
    return q, r


def poly_compose_affine(p: Poly, a: RatLike, b: RatLike) -> Poly:
    """The polynomial T -> p(a*T + b), computed exactly.

    With a = a1/a2, b = b1/b2 and p = N/M of degree d, a pure rescaling
    (b = 0) is the O(d) map n_i -> n_i a1^i a2^(d-i) over M a2^d.
    Otherwise p(aT + b) = p(b (U + 1)) with U = aT/b, and the result is
    built on integers in four passes: scale n_i by b1^i b2^(d-i), which
    gives b2^d N(bU); shift U -> U + 1 in d passes of suffix sums, which
    need only additions (von zur Gathen and Gerhard, ISSAC 1997); divide
    the coefficient of U^i by b1^i, exactly; and map U -> aT/b, which
    multiplies it by (a1 b2)^i a2^(d-i), over M (a2 b2)^d.
    """
    a, b = as_rat(a), as_rat(b)
    nums, d = p._nums, p.degree
    if d < 0:
        return ZERO
    a1, a2 = a.numerator, a.denominator
    if b == 0:
        return _poly([c * u * v for c, u, v in zip(nums, _powers(a1, d), reversed(_powers(a2, d)))], p._den * a2**d)
    b1, b2 = b.numerator, b.denominator
    up = _powers(b1, d)
    acc = [c * u * v for c, u, v in zip(reversed(nums), reversed(up), _powers(b2, d))]  # descending in U
    shifted = []
    while acc:  # a pass of prefix sums, descending, fixes the lowest coefficient left
        acc = list(accumulate(acc))
        shifted.append(acc.pop())
    out = zip(shifted, up, _powers(a1 * b2, d), reversed(_powers(a2, d)))
    return _poly([c // u * v * w for c, u, v, w in out], p._den * (a2 * b2) ** d)


def _powers(x: int, d: int) -> list[int]:
    """[1, x, x^2, ..., x^d]."""
    out = [1]
    for _ in range(d):
        out.append(out[-1] * x)
    return out


def binomial_poly(n: int, scale: RatLike, shift: RatLike) -> Poly:
    """Falling-factorial binomial polynomial in an affine argument.

    Returns (s*T + t)(s*T + t - 1)...(s*T + t - n + 1) / n!  where
    s = scale and t = shift; this is binom(s*T + t, n) as a polynomial.
    With s = s1/s2 and t = t1/t2 each factor is ((t1 - i t2) s2 + s1 t2 T)
    over s2 t2, so the product is taken on integers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    scale, shift = as_rat(scale), as_rat(shift)
    s1, s2, t1, t2 = scale.numerator, scale.denominator, shift.numerator, shift.denominator
    v = s1 * t2
    acc = [1]
    for i in range(n):
        u = (t1 - i * t2) * s2
        acc = [x * u + y * v for x, y in zip(acc + [0], [0] + acc)]
    return _poly(acc, (s2 * t2) ** n * math.factorial(n))


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
        reduction never changes membership.  One pass per prime suffices:
        a multiple of a period is a period, so once m/p fails the test,
        m'/p fails it for every later modulus m' dividing m.
        """
        m, allowed = self.modulus, self.allowed
        for p in sorted(_prime_factors(m)):
            m, allowed = _divide_out(m, p, allowed)
        return ResidueSet(m, allowed)

    def sorted_residues(self) -> list[int]:
        return sorted(self.allowed)


def _divide_out(m: int, p: int, allowed: Collection[int]) -> tuple[int, Collection[int]]:
    """m and ``allowed`` mod m, with p divided out of m while ``allowed`` is the full preimage of its projection."""
    # allowed lies inside the preimage of its projection mod m / p, of p * |projection| members.
    while m % p == 0 and len(allowed) == p * len(proj := {r % (m // p) for r in allowed}):
        m, allowed = m // p, proj
    return m, allowed


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
    """The exact residue criterion for p to take an integer value, in canonical form.

    Returns S = {q : p(q) is an integer} at its least period, as ``ResidueSet.reduce``
    gives it.  With (N, M) = ``integer_form(p)``, p(q) is an integer iff every prime
    power l^e exactly dividing M divides N(q), and N(q + l^e) = N(q) mod l^e.  So S is
    built one prime power at a time, S_l = {r < l^e : l^e | N(r)}, each S_l is cut to
    its least period by the size test ``reduce`` makes, and the cut parts are joined by the
    Chinese remainder theorem.  S is the product of its parts, so a divisor d of M is
    a period of S iff l^v_l(d) is one of every nonempty S_l: the least period of S is
    the product of the parts' least periods.  An empty part gives (1, {}) at once.
    The cost is sum(l^e) integer evaluations plus |S| joins, instead of M rational ones.
    """
    coeffs, m = integer_form(p)
    modulus, allowed = 1, [0]
    for ell in sorted(_prime_factors(m)):
        q = ell
        while m % (q * ell) == 0:
            q *= ell
        reduced = [c % q for c in coeffs]
        s_ell = [r for r in range(q) if int_horner(reduced, r) % q == 0]
        if not s_ell:
            return ResidueSet(1, frozenset())
        q, s_ell = _divide_out(q, ell, s_ell)
        if q > 1:
            # x = a (mod modulus) and x = b (mod q): x = a + modulus * ((b - a) / modulus mod q).
            inv = pow(modulus, -1, q)
            allowed = [a + modulus * ((b - a) * inv % q) for a in allowed for b in s_ell]
            modulus *= q
    return ResidueSet(modulus, frozenset(allowed))
