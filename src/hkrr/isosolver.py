"""Residue sieve for degree-3 Riemann-Roch candidates with an isotropic class.

Given the half-dimension n = 3 and the normalized pairing integral a, the
solver derives every constraint available from exact divisibility (the
pairing value q_lm, the Fujiki constant, upper bounds on the rescaling
m_x, and integrality congruences for n_x), then eliminates candidate n_x
values by sieving the residues on which the candidate polynomial is
integer valued.  Elimination rules, in the order applied:

* ``divisibility``: the exact residue classes where P takes integer values;
* ``gcd`` (forced divisor): an odd prime dividing every represented value
  contradicts the represented-value gcd being 1 or 2;
* ``square closure``: k^2 q is represented along with q, so a residue
  whose square orbit leaves the allowed set is impossible;
* ``hyperbolic exclusion``: a unique odd residue class mod 8 forces a
  bilinear contradiction mod 4 against the isotropic pair;
* ``parity``: the congruence coupling q(m) + n_x to an even number
  conflicts with an all-even residue set when n_x is odd;
* ``gcd`` (mod 4): an all-even residue set whose members are 0 mod 4
  contradicts the gcd being exactly 1 or 2.

The pairing value 2 is handled by the substitution layer: represented
values are twice a half-value q, the sieve runs on the half-values via
P(2T), the parity rule couples q(m)/2 with m_x, and the branch dies on the
mod-4 gcd contradiction.  There the gcd rule asks whether all half-values
are even, which is the same as every represented value being 0 mod 4.
Elimination traces name the rule fired for every rejected candidate so a
report can be audited step by step.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .cnconst import cn_value
from .exactpoly import (
    Poly,
    Report,
    ResidueSet,
    integrality_residues,
    poly_compose_affine,
)
from .hkprofile import cubic_prr, double_factorial

__all__ = [
    "UnsupportedCase",
    "pairing_candidates",
    "fujiki_from_pairing",
    "MxBounds",
    "mx_upper_bounds",
    "Congruence",
    "PairingCongruence",
    "pairing_congruence",
    "divisibility_residues",
    "square_closure",
    "gcd_constraint",
    "TraceStep",
    "CandidateAnalysis",
    "PairingBranch",
    "Survivor",
    "IsotropicCase",
    "solve_case",
]


class UnsupportedCase(ValueError):
    """Only the fully mechanized configurations are solved end to end."""


def _check_sizes(n: int, a: int, q_lm: int = 1) -> None:
    if n < 1 or a < 1:
        raise ValueError("need n >= 1 and a >= 1")
    if q_lm < 1:
        raise ValueError("q_lm must be positive")


def pairing_candidates(n: int, a: int, even_form: bool) -> list[int]:
    """All pairing values q > 0 allowed by the divisibility constraint.

    The leading coefficient forces n! q^n | a C(n) for an even form and
    n! 2^n q^n | a C(n) otherwise.
    """
    _check_sizes(n, a)
    budget = a * cn_value(n).value
    base = math.factorial(n) * (1 if even_form else 2**n)
    out = []
    q = 1
    while base * q**n <= budget:
        if budget % (base * q**n) == 0:
            out.append(q)
        q += 1
    return out


def fujiki_from_pairing(n: int, a: int, q_lm: int) -> Fraction:
    """c_x = a (2n-1)!! / q_lm^n, from the isotropic pairing relation."""
    _check_sizes(n, a, q_lm)
    return Fraction(a * double_factorial(2 * n - 1), q_lm**n)


def _nth_root_upper(x: Fraction, n: int, eps: Fraction) -> Fraction:
    """Smallest positive multiple h eps (h >= 1) with (h eps)^n >= x, by exact bracketing.

    (h eps)^n < x is tested on integers, as h^n eps_num^n x_den < x_num eps_den^n.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    scale = eps.numerator**n * x.denominator
    target = x.numerator * eps.denominator**n
    hi = 1
    while scale * hi**n < target:
        hi *= 2
    lo = 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if scale * mid**n < target:
            lo = mid
        else:
            hi = mid
    return hi * eps


@dataclass(frozen=True, repr=False)
class MxBounds(Report):
    """Strict rational upper bounds for m_x (each over-approximates by < 1/100)."""

    pairing_bound: Fraction  # 2 q_lm (n!/a)^(1/n), rounded up
    gcd_bound: Fraction  # 2 C(n)^(1/n), rounded up


def mx_upper_bounds(n: int, a: int, q_lm: int) -> MxBounds:
    """Rational over-approximations of the two strict upper bounds on m_x."""
    _check_sizes(n, a, q_lm)
    if a > math.factorial(n):
        raise ValueError("bound is meaningful only for a <= n!")
    eps = Fraction(1, 100)
    pairing = 2 * q_lm * _nth_root_upper(Fraction(math.factorial(n), a), n, eps / (2 * q_lm))
    gcd_b = 2 * _nth_root_upper(Fraction(cn_value(n).value), n, eps / 2)
    return MxBounds(pairing_bound=pairing, gcd_bound=gcd_b)


class Congruence(NamedTuple):
    """x = residue (mod modulus)."""

    modulus: int
    residue: int


@dataclass(frozen=True, repr=False)
class PairingCongruence(Report):
    """Arithmetic facts the isotropic pair imposes on n_x and q(m).

    The base congruence is a (q(m) + n_x - (n-1) q_lm) = 0 mod 2 q_lm;
    dividing by gcd(a, 2 q_lm) gives the congruence on q(m) + n_x.  n_x
    lies in Z + (2 q_lm / a) Z, hence is an integer whenever a divides
    2 q_lm.  When the pairing value already forces an even form, the
    halved coupling constrains q(m)/2 + m_x instead.
    """

    n: int
    a: int
    q_lm: int
    nx_coset_step: Fraction
    nx_integral: bool
    qm_plus_nx_congruence: Congruence
    form_even_forced: bool
    mx_integral: bool
    half_congruence: Optional[Congruence]


def pairing_congruence(n: int, a: int, q_lm: int) -> PairingCongruence:
    """Integrality facts for n_x and the parity coupling with q(m)."""
    _check_sizes(n, a, q_lm)
    g = math.gcd(a, 2 * q_lm)
    qm_modulus = 2 * q_lm // g
    qm_residue = ((n - 1) * q_lm) % qm_modulus
    nx_integral = (2 * q_lm) % a == 0
    forced_even = q_lm not in pairing_candidates(n, a, even_form=False)
    # With an even form q(m) is even, so an even congruence modulus pins
    # the parity of n_x; an even n_x makes m_x = n_x/2 an integer.
    mx_integral = bool(
        forced_even and nx_integral and qm_modulus % 2 == 0 and qm_residue % 2 == 0
    )
    half = None
    if forced_even and q_lm % 2 == 0 and qm_modulus % 2 == 0 and qm_residue % 2 == 0:
        half = Congruence(qm_modulus // 2, (qm_residue // 2) % (qm_modulus // 2))
    return PairingCongruence(
        n=n,
        a=a,
        q_lm=q_lm,
        nx_coset_step=Fraction(2 * q_lm, a),
        nx_integral=nx_integral,
        qm_plus_nx_congruence=Congruence(qm_modulus, qm_residue),
        form_even_forced=forced_even,
        mx_integral=mx_integral,
        half_congruence=half,
    )


def divisibility_residues(n: int, c_x: Fraction | int, n_x: int) -> ResidueSet:
    """Exact residues q for which the degree-3 candidate takes integer values.

    The set is returned in ``integrality_residues``' canonical form, at its
    least period, a divisor of the lcm of the coefficient denominators.
    """
    if n != 3:
        raise UnsupportedCase("divisibility residues are defined for n = 3")
    if n_x < 1:
        raise ValueError("n_x must be a positive integer")
    return integrality_residues(cubic_prr(c_x, n_x))


def square_closure(rs: ResidueSet) -> ResidueSet:
    """Largest subset whose members keep their whole square orbit allowed.

    A represented value q forces k^2 q to be represented for every k, so a
    viable residue's orbit {k^2 r mod M} must stay inside the allowed set.
    One filtering pass already gives the fixed point: the squares mod M
    are closed under multiplication, so for a passing r and a square s the
    orbit of s r lies inside the orbit of r, and s r passes too.
    """
    m = rs.modulus
    squares = {(k * k) % m for k in range(1, m + 1)}
    allowed = rs.allowed
    return ResidueSet(m, frozenset(r for r in allowed if all(s * r % m in allowed for s in squares)))


def gcd_constraint(rs: ResidueSet, required_gcd: int) -> str:
    """"consistent" or "contradiction" for the represented-value gcd.

    The gcd of all represented values is 1 (form not even) or 2 (even), so
    a residue set whose members are all divisible by twice the required
    gcd is impossible.  Divisibility by d is only decided by residues when
    d divides the modulus.
    """
    if required_gcd not in (1, 2):
        raise ValueError("required_gcd must be 1 or 2")
    d = 2 * required_gcd
    if rs.modulus % d:
        return "consistent"
    if rs.allowed and any(r % d for r in rs.allowed):
        return "consistent"
    return "contradiction"


# -- the mechanized n = 3 pipeline ----------------------------------------


@dataclass(frozen=True, repr=False)
class TraceStep(Report):
    rule: str
    detail: str


@dataclass(repr=False)
class CandidateAnalysis(Report):
    """One n_x (or m_x, on the halved branch) candidate and its fate."""

    sweep_var: str  # "n_x" or "m_x"
    sweep_value: int
    n_x: int
    p_rr: Poly
    residues: ResidueSet
    parity: str  # "even" | "undetermined"
    status: str  # "survives" | "rejected"
    rejected_by: Optional[str]
    trace: list[TraceStep] = field(default_factory=list)


@dataclass(repr=False)
class PairingBranch(Report):
    """One pairing value's sweep, derived from its congruence; ``assumed_even`` as in ``IsotropicCase``."""

    q_lm: int = field(init=False)
    c_x: Fraction = field(init=False)
    form_even_forced: bool = field(init=False)
    congruence: PairingCongruence
    assumed_even: InitVar[Optional[bool]]
    mx_bounds: MxBounds = field(init=False)
    sweep_var: str = field(init=False)
    sweep_max: int = field(init=False)
    candidates: list[CandidateAnalysis] = field(init=False)
    survivors: list[int] = field(init=False)  # surviving n_x values
    parity_verdict: str = field(init=False)  # "even" | "not-even" | "undetermined" | "contradiction"
    status: str = field(init=False)  # "survives" | "rejected"

    def __post_init__(self, assumed_even: Optional[bool]) -> None:
        cong = self.congruence
        self.q_lm = cong.q_lm
        self.c_x = fujiki_from_pairing(cong.n, cong.a, cong.q_lm)
        self.form_even_forced = cong.form_even_forced
        self.mx_bounds = mx_upper_bounds(cong.n, cong.a, cong.q_lm)
        halved = cong.q_lm == 2
        if halved and not cong.mx_integral:
            raise AssertionError("halved branch requires integral m_x")
        if not halved and not cong.nx_integral:
            raise AssertionError("integer sweep requires integral n_x")
        self.sweep_var = "m_x" if halved else "n_x"
        # The largest integer strictly below: n_x < 2 * bound, or m_x < bound when halved.
        bound = self.mx_bounds.pairing_bound
        self.sweep_max = math.ceil(bound if halved else 2 * bound) - 1
        self.candidates = [_analyze_candidate(self.c_x, v, cong, assumed_even) for v in range(1, self.sweep_max + 1)]
        self.survivors = [c.n_x for c in self.candidates if c.status == "survives"]
        if not self.survivors:
            self.parity_verdict = "contradiction"
        elif all(c.parity == "even" for c in self.candidates if c.status == "survives"):
            self.parity_verdict = "even"
        else:
            self.parity_verdict = "not-even" if assumed_even is False else "undetermined"
        self.status = "survives" if self.survivors else "rejected"


class Survivor(NamedTuple):
    q_lm: int
    n_x: int


@dataclass(repr=False)
class IsotropicCase(Report):
    """The full elimination for n = 3, a in {1, 2}: a branch per pairing value, traces, and survivors.

    ``assumed_even`` None leaves the parity of the quadratic form open (the
    default); True assumes it even; False assumes it not even, which
    restricts the pairing candidates and turns an all-even conclusion into
    a contradiction.
    """

    n: int
    a: int
    assumed_even: Optional[bool] = None
    branches: list[PairingBranch] = field(init=False)
    survivors: list[Survivor] = field(init=False)

    def __post_init__(self) -> None:
        if self.n != 3 or self.a not in (1, 2):
            raise UnsupportedCase("unsupported case: the full elimination covers n=3, a in {1, 2}")
        self.branches = [
            PairingBranch(pairing_congruence(self.n, self.a, q_lm), self.assumed_even)
            for q_lm in pairing_candidates(self.n, self.a, even_form=self.assumed_even is not False)
        ]
        self.survivors = [Survivor(b.q_lm, nx) for b in self.branches for nx in b.survivors]


def _residue_summary(rs: ResidueSet) -> str:
    residues = rs.sorted_residues()
    if len(residues) > 12:
        body = ", ".join(str(r) for r in residues[:12]) + ", ..."
    else:
        body = ", ".join(str(r) for r in residues)
    return f"{{{body}}} mod {rs.modulus}"


def _odd_part(m: int) -> int:
    while m % 2 == 0:
        m //= 2
    return m


def _analyze_candidate(
    c_x: Fraction,
    sweep_value: int,
    cong: PairingCongruence,
    assumed_even: Optional[bool],
) -> CandidateAnalysis:
    halved = cong.q_lm == 2
    n_x = 2 * sweep_value if halved else sweep_value
    term, coupling, sweep_var = (
        ("q(m)/2", cong.half_congruence, "m_x") if halved else ("q(m)", cong.qm_plus_nx_congruence, "n_x")
    )
    p_rr = cubic_prr(c_x, n_x)
    sieve_poly = poly_compose_affine(p_rr, 2, 0) if halved else p_rr
    value_word = "half-value" if halved else "value"
    trace: list[TraceStep] = []

    reduced = integrality_residues(sieve_poly)
    trace.append(TraceStep("divisibility", f"P integral on {value_word}s {_residue_summary(reduced)}"))
    work = math.lcm(reduced.modulus, 16)
    rs = reduced.lift(work)

    def verdict(rule: Optional[str], detail: str, residues: ResidueSet, parity: str) -> CandidateAnalysis:
        """The analysis of this candidate: rejected by ``rule``, or surviving when it is None."""
        if rule is not None:
            trace.append(TraceStep(rule, detail))
        return CandidateAnalysis(
            sweep_var=sweep_var,
            sweep_value=sweep_value,
            n_x=n_x,
            p_rr=p_rr,
            residues=residues,
            parity=parity,
            status="survives" if rule is None else "rejected",
            rejected_by=rule,
            trace=trace,
        )

    # Forced odd divisor: an odd prime dividing every represented value
    # (or half-value) contradicts the represented gcd being 1 or 2.
    forced = math.gcd(work, *rs.allowed) if rs.allowed else work
    odd_forced = _odd_part(forced)
    if odd_forced > 1:
        return verdict(
            "gcd",
            f"every {value_word} is divisible by {odd_forced}; "
            "the gcd of represented values is 1 or 2",
            rs,
            "undetermined",
        )

    closed = square_closure(rs)
    removed = sorted(set(rs.allowed) - set(closed.allowed))
    if removed:
        trace.append(
            TraceStep(
                "square closure",
                f"square orbits remove residues {removed}; remaining "
                f"{_residue_summary(closed)}",
            )
        )

    odds = sorted(r for r in closed.allowed if r % 2)
    if odds:
        classes_mod8 = sorted({r % 8 for r in odds})
        # If every odd value lies in one class mod 8, adding isotropic-pair
        # multiples forces t*u + t*x + u*y = 0 mod 4 for all t, u and the
        # pair products x, y; for every (x, y) in (Z/4)^2 some (t, u)
        # violates it (checked exhaustively in the tests).
        if len(classes_mod8) == 1:
            closed = ResidueSet(work, frozenset(set(closed.allowed) - set(odds)))
            trace.append(
                TraceStep(
                    "hyperbolic exclusion",
                    f"lone odd class {classes_mod8[0]} mod 8 excluded by the "
                    f"bilinear contradiction mod 4; residues {odds} removed",
                )
            )
            odds = []

    parity = "even" if not odds else "undetermined"
    if parity == "even":
        trace.append(TraceStep("parity", f"all surviving {value_word}s are even"))

    # Parity coupling from the pairing congruence: term + sweep_var = residue
    # mod an even modulus, and sweep_var is n_x off the halved branch.
    forces_odd = coupling is not None and coupling.modulus % 2 == 0 and (coupling.residue - sweep_value) % 2
    if parity == "even" and forces_odd:
        return verdict(
            "parity",
            f"{term} + {sweep_var} must be = {coupling.residue} mod {coupling.modulus} "
            f"so {term} would be odd, but every {value_word} is even",
            closed,
            parity,
        )

    if assumed_even is False and gcd_constraint(closed, 1) == "contradiction":
        return verdict(
            "gcd",
            "every value is even, contradicting gcd 1 for a non-even form",
            closed,
            parity,
        )

    # Off the halved branch all values 0 mod 4 also refutes gcd 1.  On it the
    # values are twice the half-values (work is a multiple of 16), so they
    # are all 0 mod 4 exactly when every half-value is even.
    if gcd_constraint(closed, 1 if halved else 2) == "contradiction":
        if halved:
            tail = ", but an even form has represented-value gcd exactly 2"
        else:
            tail = "; the gcd of represented values is 1 or 2"
        return verdict("gcd", "every represented value is 0 mod 4" + tail, closed, parity)

    return verdict(None, "", closed, parity)


def solve_case(n: int, a: int, even_form: Optional[bool] = None) -> IsotropicCase:
    """Run the full elimination for n = 3, a in {1, 2}: ``IsotropicCase(n, a, even_form)``."""
    return IsotropicCase(n, a, even_form)
