"""Invariant bundles extracted from candidate Riemann-Roch polynomials.

A profile is derived from the half-dimension n and P_RR alone: the
normalized form Q_RR, the Fujiki constant c_x, the rescaling data n_x and
m_x = n_x/2, and the leading invariant a_x of Q_RR.  A candidate that
fails a check is refused, never profiled.  The module also houses the two
known closed families, the denominator bounds against the gcd constants,
the even-value integrality checks, and real-root classification of Q_RR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cnconst import cn_value
from .exactpoly import (
    Poly,
    RatLike,
    Report,
    _poly,
    as_rat,
    binomial_poly,
    int_horner,
    integer_form,
    poly_compose_affine,
    rat_str,
)
from .qkbasis import NotInSpan, _centred, all_roots_real

__all__ = [
    "ProfileError",
    "HKProfile",
    "double_factorial",
    "known_family_prr",
    "profile_from_prr",
    "cubic_prr",
    "DenominatorReport",
    "denominator_check",
    "EvenValuesReport",
    "even_values_check",
    "RootVerdict",
    "real_root_classifier",
]

class ProfileError(ValueError):
    """A candidate polynomial violates a profile invariant."""


def double_factorial(m: int) -> int:
    """m!!: the product of the integers from m down to 1 or 2 that share m's parity (so 8 for m = 4); 1 for m < 1."""
    out = 1
    for k in range(1 if m % 2 else 2, m + 1, 2):
        out *= k
    return out


@dataclass(frozen=True, repr=False)
class HKProfile(Report):
    """Invariants (n, c_x, n_x, m_x, a_x, P_RR, Q_RR) of a degree-n candidate P_RR.

    ``HKProfile(n, p_rr)`` derives the rest, n_x = a_{n-1}/(n a_n) first,
    and checks, in order: n >= 1 (ValueError), the degree, a positive
    leading coefficient, the constant term n + 1, the reflection symmetry
    and 0 < a_x < 1 for n > 1.  So every profile is consistent.
    ``n_x_is_integer`` is observed, never enforced.  ``centred`` (not a
    field) is P_RR(V - n_x), the one shift the symmetry check makes and
    ``real_root_classifier`` reads R off.
    """

    n: int
    c_x: Fraction = field(init=False)
    n_x: Fraction = field(init=False)
    m_x: Fraction = field(init=False)
    a_x: Fraction = field(init=False)
    n_x_is_integer: bool = field(init=False)
    p_rr: Poly
    q_rr: Poly = field(init=False)

    def __post_init__(self) -> None:
        n, p = self.n, self.p_rr
        if n < 1:
            raise ValueError("n must be >= 1")
        if p.degree != n:
            raise ProfileError(f"polynomial degree {p.degree} != n = {n}")
        lead = p.leading()
        if lead <= 0:
            raise ProfileError("leading coefficient must be positive")
        if p.coeff(0) != n + 1:
            raise ProfileError("bad constant term")
        n_x = p.coeff(n - 1) / (n * lead)
        m_x = n_x / 2
        derived = {
            "c_x": math.factorial(2 * n) * lead,
            "n_x": n_x,
            "m_x": m_x,
            "a_x": lead * m_x**n,
            "n_x_is_integer": n_x.denominator == 1,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        # p(-T - 2 n_x) = (-1)^n p(T) iff p(U - n_x) has only terms of n's parity.
        try:
            self.centred
        except NotInSpan:
            raise ProfileError("no symmetry") from None
        if n > 1 and not (0 < self.a_x < 1):
            raise ProfileError("A_X out of range")
        object.__setattr__(self, "q_rr", poly_compose_affine(p, m_x, 0))

    @cached_property
    def centred(self) -> tuple[list[int], int]:
        return _centred(self.p_rr, self.n_x, self.n % 2)


def known_family_prr(kind: str, n: int) -> Poly:
    """The two closed families: binom(T/2+1+n, n) and (n+1)*binom(T/2+n, n).

    ``kind`` is split or product, optionally with a "-type" suffix.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    family = kind.removesuffix("-type")
    if family == "split":
        return binomial_poly(n, Fraction(1, 2), n + 1)
    if family == "product":
        return binomial_poly(n, Fraction(1, 2), n) * (n + 1)
    raise ValueError(f"unknown family {kind!r}; use split-type or product-type")


def profile_from_prr(n: int, p: Poly) -> HKProfile:
    """The invariant bundle of a degree-n candidate: ``HKProfile(n, p)``, which derives and checks it."""
    return HKProfile(n, p)


def cubic_prr(c_x: RatLike, n_x: RatLike) -> Poly:
    """The degree-3 symmetric candidate with invariants (c_x, n_x).

    c_x/720 (T+n_x)^3 + b (T+n_x) with b pinned by the constant term 4:
    b = 4/n_x - c_x n_x^2 / 720.  The constant term is c n^3/720 + b n,
    and b n = 4 - c n^3/720 cancels the first part, so expanded, with
    c = c_x and n = n_x, the cubic is

        4 + (c n^2/360 + 4/n) T + (c n/240) T^2 + (c/720) T^3.

    With c = c1/c2 and n = n1/n2 in lowest terms and d = 720 c2 n1 n2^2,
    that is the integer polynomial
    (4d, 2 c1 n1^3 + 2880 c2 n2^3, 3 c1 n1^2 n2, c1 n1 n2^2) over d.
    """
    c_x, n_x = as_rat(c_x), as_rat(n_x)
    if n_x == 0:
        raise ValueError("n_x must be nonzero")
    c1, c2, n1, n2 = c_x.numerator, c_x.denominator, n_x.numerator, n_x.denominator
    d = 720 * c2 * n1 * n2**2
    return _poly([4 * d, 2 * c1 * n1**3 + 2880 * c2 * n2**3, 3 * c1 * n1**2 * n2, c1 * n1 * n2**2], d)


@dataclass(frozen=True, repr=False)
class DenominatorReport(Report):
    """Coefficient denominators against the gcd-constant lattice bound."""

    ok: bool
    even_form: bool
    c_n: int = field(metadata={"json": rat_str})
    coefficient_ok: tuple[bool, ...]
    fujiki_in_lattice: bool

    def __bool__(self) -> bool:
        return self.ok


def denominator_check(n: int, p: Poly, even_form: bool) -> DenominatorReport:
    """Check a_i * 2^i * C(n) in Z for every i (or a_i * C(n) when not even).

    Also reports whether the Fujiki constant (2n)! a_n lies in the lattice
    ((2n)!/(2^n C(n))) Z, which is the i = n check in the even case.  With
    (N, M) = ``integer_form(p)``, a_i 2^i C(n) is an integer iff M divides
    N_i 2^i r for r = C(n) mod M, so C(n) is reduced once and every test is
    on integers of M's size.
    """
    if p.degree > n:
        raise ValueError("polynomial degree exceeds n")
    cn = cn_value(n).value
    nums, m = integer_form(p)
    r = cn % m
    flags = [(c * r << i if even_form else c * r) % m == 0 for i, c in enumerate(nums)]
    flags += [True] * (n + 1 - len(nums))
    fujiki = p.degree < n or (nums[n] * r << n) % m == 0
    return DenominatorReport(
        ok=all(flags),
        even_form=even_form,
        c_n=cn,
        coefficient_ok=tuple(flags),
        fujiki_in_lattice=fujiki,
    )


@dataclass(frozen=True, repr=False)
class EvenValuesReport(Report):
    """Consequences of the form representing all large even numbers."""

    ok: bool
    integral_on_even: bool
    leading_in_lattice: bool
    fujiki_multiple_of_double_factorial: bool
    c_x: Fraction

    def __bool__(self) -> bool:
        return self.ok


def even_values_check(n: int, p: Poly) -> EvenValuesReport:
    """Test integrality on even inputs and the induced leading-term bounds.

    Integrality on even inputs is decided by Polya's criterion: g(t) = p(2t)
    of degree d is integer valued on Z iff its forward differences
    Delta^k g(0), k = 0..d, are integers.  With (N, M) = ``integer_form(p)``
    that is M | Delta^k N(2t) at t = 0, so the test costs d + 1 integer
    evaluations and O(d^2) subtractions, whatever the size of M.  On
    success the leading coefficient must lie in 1/(n! 2^n) Z and
    (2n)! a_n in (2n-1)!! Z; both are read off N_n and M.
    """
    if p.degree > n:
        raise ValueError("polynomial degree exceeds n")
    coeffs, m = integer_form(p)
    diffs = [int_horner(coeffs, 2 * t) for t in range(p.degree + 1)]
    integral = True
    while diffs and integral:
        integral = diffs[0] % m == 0
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    top = coeffs[n] if 0 <= n == p.degree else 0  # a_n = top / M
    c_x = Fraction(math.factorial(2 * n) * top, m)
    # (2n)! = (2n-1)!! 2^n n!, so c_x / (2n-1)!! = a_n n! 2^n: the two lattice tests are one.
    lattice = (top * math.factorial(n) << n) % m == 0
    return EvenValuesReport(
        ok=integral and lattice,
        integral_on_even=integral,
        leading_in_lattice=lattice,
        fujiki_multiple_of_double_factorial=lattice,
        c_x=c_x,
    )


@dataclass(frozen=True, repr=False)
class RootVerdict(Report):
    """Reality classification of the roots of Q_RR."""

    n: int
    method: str  # "degree", "discriminant", "factored-discriminant", "isolation"
    all_real: bool
    discriminant: Fraction | None = None


def real_root_classifier(profile: HKProfile) -> RootVerdict:
    """Decide whether every root of Q_RR is real.

    n = 2 uses the quadratic discriminant 4 a_x (4 a_x - 3); n = 3 signs
    8 a_x (2 a_x - 1), that of the second factor of every built cubic's
    Q_RR = (T+2)(a_x (T^2+4T) + 2).  n >= 4 uses the reflection symmetry
    Q_RR(-4 - T) = (-1)^n Q_RR(T): Q_RR(U - 2) = U^e R(U^2), e = n mod 2.
    Q_RR's roots are -2 +- sqrt(u) for R's roots u, and -2 when e = 1, so
    all are real iff R is real-rooted (the Sturm count of all_roots_real)
    and its coefficients weakly alternate in sign: by Vieta when every root
    is >= 0, and then R(-u) is a sum of terms of one sign, nonzero for
    u > 0.  R is read off ``profile.centred``, the P_RR(V - n_x) =
    V^e R_P(V^2) of the symmetry check: Q_RR(U - 2) = P_RR(m_x U - n_x)
    gives R(u) = m_x^e R_P(m_x^2 u), and m_x != 0 since 0 < a_x < 1, so
    R_P's roots are R's times m_x^2 > 0 and its signs R's, or all flipped:
    the same verdict.
    """
    n, a = profile.n, profile.a_x
    if n == 1:
        return RootVerdict(n=1, method="degree", all_real=True)
    if n == 2:
        disc = 4 * a * (4 * a - 3)
        return RootVerdict(n=2, method="discriminant", all_real=disc >= 0, discriminant=disc)
    if n == 3:
        disc = 8 * a * (2 * a - 1)
        return RootVerdict(n=3, method="factored-discriminant", all_real=disc >= 0, discriminant=disc)
    r, _ = profile.centred
    alternating = len({(c > 0) == (j % 2 == 0) for j, c in enumerate(r) if c}) <= 1
    # Reports name this Sturm count "isolation"; renaming it would change every n >= 4 report.
    return RootVerdict(n=n, method="isolation", all_real=alternating and all_roots_real(Poly(r)))
