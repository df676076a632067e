import hashlib
import json
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkrr.cli import run
from hkrr.cnconst import cn_value
from hkrr.exactpoly import ZERO, Poly, X, integer_form, poly_compose_affine
from hkrr.hkprofile import (
    DenominatorReport,
    EvenValuesReport,
    HKProfile,
    ProfileError,
    RootVerdict,
    cubic_prr,
    denominator_check,
    double_factorial,
    even_values_check,
    known_family_prr,
    profile_from_prr,
    real_root_classifier,
)
from hkrr.qkbasis import NotInSpan, _centred, all_roots_real, qk_poly


class TestDoubleFactorial:
    def test_values(self):
        assert [double_factorial(m) for m in (1, 3, 5, 7)] == [1, 3, 15, 105]

    def test_even_m_multiplies_the_even_integers(self):
        assert double_factorial(4) == 8
        assert [double_factorial(m) for m in range(-5, 300)] == [math.prod(range(m, 0, -2)) for m in range(-5, 300)]


class TestKnownFamilies:
    def test_split_cubic_factored(self):
        p = known_family_prr("split-type", 3)
        assert p * 48 == Poly((8, 1)) * Poly((6, 1)) * Poly((4, 1))

    def test_product_quadratic_factored(self):
        p = known_family_prr("product-type", 2)
        assert p * 8 == Poly((2, 1)) * Poly((4, 1)) * 3

    def test_split_line_bundle_on_surface(self):
        assert known_family_prr("split", 1) == Poly((2, Fraction(1, 2)))

    def test_constant_term_is_n_plus_one(self):
        for kind in ("split", "product"):
            for n in range(1, 11):
                assert known_family_prr(kind, n).coeff(0) == n + 1

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            known_family_prr("mystery", 2)

    @pytest.mark.parametrize("kind", ["mystery", "split-type-type", "-type", "Split"])
    def test_unknown_family_message(self, kind):
        with pytest.raises(ValueError, match=f"^unknown family '{kind}'; use split-type or product-type$"):
            known_family_prr(kind, 2)


class TestProfileExtraction:
    def test_split_n3(self):
        prof = profile_from_prr(3, known_family_prr("split", 3))
        assert (prof.c_x, prof.n_x, prof.m_x, prof.a_x) == (15, 6, 3, Fraction(9, 16))

    def test_product_n2(self):
        prof = profile_from_prr(2, known_family_prr("product", 2))
        assert (prof.c_x, prof.n_x, prof.a_x) == (9, 3, Fraction(27, 32))

    def test_split_n2(self):
        prof = profile_from_prr(2, known_family_prr("split", 2))
        assert (prof.c_x, prof.n_x, prof.a_x) == (3, 5, Fraction(25, 32))

    def test_n1_has_a_x_one(self):
        prof = profile_from_prr(1, known_family_prr("split", 1))
        assert prof.a_x == 1 and prof.n_x == 4

    @pytest.mark.parametrize("kind", ["split", "product"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_known_families_profile_cleanly(self, kind, n):
        prof = profile_from_prr(n, known_family_prr(kind, n))
        expected_nx = n + 3 if kind == "split" else n + 1
        assert prof.n_x == expected_nx
        if kind == "split":
            assert prof.c_x == double_factorial(2 * n - 1)
        else:
            assert prof.c_x == (n + 1) * double_factorial(2 * n - 1)
        assert prof.c_x > 0
        if n > 1:
            assert 0 < prof.a_x < 1
        assert prof.n_x_is_integer

    def test_no_symmetry_rejected(self):
        with pytest.raises(ProfileError, match="no symmetry"):
            profile_from_prr(3, Poly((4, 1, 1, Fraction(1, 48))))

    def test_bad_constant_term_rejected(self):
        p = known_family_prr("split", 3) + 1
        with pytest.raises(ProfileError, match="bad constant term"):
            profile_from_prr(3, p)

    def test_a_x_out_of_range_rejected(self):
        # Symmetric about -1 with constant term 3 but a_x = 25/12 > 1.
        shifted = Poly((1, 1))
        p = shifted**2 * Fraction(25, 3) - Fraction(16, 3)
        with pytest.raises(ProfileError, match="A_X out of range"):
            profile_from_prr(2, p)

    def test_zero_n_x_is_out_of_range_not_a_division(self):
        # 3 + T^2/24 is symmetric about 0, so n_x = m_x = a_x = 0.
        with pytest.raises(ProfileError, match="A_X out of range"):
            profile_from_prr(2, Poly((3, 0, Fraction(1, 24))))

    @pytest.mark.parametrize(
        "p, message",
        [
            # The split cubic with its T^2 coefficient moved so that n_x reads 5, not 6.
            (known_family_prr("split", 3) - X**2 * Fraction(1, 16), "no symmetry"),
            # A symmetric cubic with a_x = 15 * 12^3 / 720 = 36.
            (cubic_prr(15, 24), "A_X out of range"),
        ],
    )
    def test_broken_prr_names_the_invariant(self, p, message):
        with pytest.raises(ProfileError, match=f"^{message}$"):
            profile_from_prr(3, p)
        with pytest.raises(ProfileError, match=f"^{message}$"):
            replace(profile_from_prr(3, known_family_prr("split", 3)), p_rr=p)

    def test_symmetry_check_is_the_reflection(self):
        # The profile reads the parity of p(U - n_x), n_x = a_{n-1}/(n a_n);
        # the reflection p(-T - 2 n_x) = (-1)^n p(T) is the definition, n_x = 0 included.
        rng = random.Random(2602)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 7)
            # A quarter centred at 0: a stray term keeps n_x = 0 unless it is of degree n - 1.
            shift = Fraction(rng.randint(-6, 6), rng.randint(1, 3)) if rng.random() < 0.75 else Fraction(0)
            shifted = Poly((shift, 1))
            p = sum((shifted ** (n - 2 * j) * rng.randint(-5, 5) for j in range(1, n // 2 + 1)), shifted**n)
            if rng.random() < 0.5:
                p = p + X ** rng.randint(0, n - 1) * Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            if p.coeff(0) <= 0:  # scaled to constant term n + 1, the leading coefficient must stay positive
                continue
            p = p * (n + 1) / p.coeff(0)
            n_x = p.coeff(n - 1) / (n * p.leading())
            reflected = poly_compose_affine(p, -1, -2 * n_x) == p * (-1) ** n
            try:
                profile_from_prr(n, p)
                broken = None
            except ProfileError as exc:
                broken = str(exc)
            assert (broken == "no symmetry") == (not reflected), (n, n_x, p)
            seen.add((reflected, n_x == 0))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ProfileError):
            profile_from_prr(4, known_family_prr("split", 3))


class TestCubicPrr:
    def test_recovers_split_family(self):
        assert cubic_prr(15, 6) == known_family_prr("split", 3)

    def test_published_cases(self):
        assert cubic_prr(15, 2) == Poly((4, Fraction(13, 6), Fraction(1, 8), Fraction(1, 48)))
        assert cubic_prr(30, 4) == Poly((4, Fraction(7, 3), Fraction(1, 2), Fraction(1, 24)))

    def test_round_trip_with_profile(self):
        for c_x, n_x in [(15, 2), (15, 6), (30, 1), (30, 2), (30, 3), (30, 4), (3, 1)]:
            p = cubic_prr(c_x, n_x)
            prof = profile_from_prr(3, p)
            assert (prof.c_x, prof.n_x) == (c_x, n_x)

    def test_round_trip_random_admissible(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(200):
            c = Fraction(rng.randint(1, 2000), rng.randint(1, 8))
            s = Fraction(rng.randint(1, 12), rng.randint(1, 3))
            if not 0 < c * (s / 2) ** 3 / 720 < 1:
                continue
            prof = profile_from_prr(3, cubic_prr(c, s))
            assert (prof.c_x, prof.n_x) == (c, s)
            # Every valid degree-3 profile factors as (T+2)(a_x(T^2+4T)+2).
            verdict = real_root_classifier(prof)
            assert verdict.method == "factored-discriminant"
            hits += 1
        assert hits > 20

    def test_equals_the_divided_integer_form(self):
        # cubic_prr normalizes its integer form once; the former route divided
        # Poly(integer form) by d through a Fraction.
        for c_x, n_x in self.definition_cases():
            c, n = Fraction(c_x), Fraction(n_x)
            c1, c2, n1, n2 = c.numerator, c.denominator, n.numerator, n.denominator
            d = 720 * c2 * n1 * n2**2
            former = Poly((4 * d, 2 * c1 * n1**3 + 2880 * c2 * n2**3, 3 * c1 * n1**2 * n2, c1 * n1 * n2**2)) / d
            assert integer_form(cubic_prr(c_x, n_x)) == integer_form(former), (c_x, n_x)

    def test_zero_shift_rejected(self):
        for zero in (0, Fraction(0), "0/5"):
            with pytest.raises(ValueError, match="n_x must be nonzero"):
                cubic_prr(15, zero)

    @staticmethod
    def cubic_by_definition(c_x, n_x):
        """c_x/720 (T + n_x)^3 + (4/n_x - c_x n_x^2/720)(T + n_x), built by Poly arithmetic."""
        c_x, n_x = Fraction(c_x), Fraction(n_x)
        shifted = Poly((n_x, 1))
        return shifted**3 * (c_x / 720) + shifted * (4 / n_x - c_x * n_x**2 / 720)

    @staticmethod
    def definition_cases():
        # Every (c_x, n_x) the sieve workload draws, the non-integral Fujiki
        # values 15/8 and 15/4, then seeded signed rationals, c_x = 0 included.
        cases = [(c, n) for c in (15, 30, 60, Fraction(15, 8), Fraction(15, 4)) for n in range(1, 65)]
        rng = random.Random(2501)
        for _ in range(500):
            c = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            n = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**4), rng.randint(1, 10**3))
            cases.append((c, n))
        cases += [(0, 1), (0, Fraction(-3, 7)), (Fraction(-15, 8), -2), ("15/4", "-5/3")]
        return cases

    def test_equals_its_definition(self):
        for c_x, n_x in self.definition_cases():
            p, expected = cubic_prr(c_x, n_x), self.cubic_by_definition(c_x, n_x)
            assert integer_form(p) == integer_form(expected), (c_x, n_x)
            assert p == expected
            assert p.coeff(0) == 4


class TestDenominatorCheck:
    def test_split_n3_even(self):
        report = denominator_check(3, known_family_prr("split", 3), even_form=True)
        assert report.ok and report.fujiki_in_lattice and bool(report)

    def test_tiny_leading_coefficient_fails(self):
        p = Poly((4, 0, 0, Fraction(1, 10**6)))
        report = denominator_check(3, p, even_form=True)
        assert not report.ok and not bool(report)

    def test_n2_half_integer_fujiki_boundary(self):
        # With C(2) = 12, a_2 * 4 * 12 is an integer iff c_x = 24 a_2 is in (1/2) Z.
        ok = denominator_check(2, X**2 * Fraction(1, 48) + 3, even_form=True)
        assert ok.ok  # c_x = 1/2
        bad = denominator_check(2, X**2 * Fraction(1, 72) + 3, even_form=True)
        assert not bad.ok  # c_x = 1/3

    def test_not_even_is_stricter(self):
        p = Poly((4, Fraction(1, 2 * 4320)))  # a_1 = 1/(2 C_3), C(3) = 4320
        assert denominator_check(3, p, even_form=True).ok
        assert not denominator_check(3, p, even_form=False).ok


class TestEvenValuesCheck:
    def test_split_n3(self):
        report = even_values_check(3, known_family_prr("split", 3))
        assert report.ok and report.c_x == 15 == double_factorial(5)

    def test_product_n2(self):
        report = even_values_check(2, known_family_prr("product", 2))
        assert report.ok and report.c_x == 9

    def test_surviving_denominator_fails(self):
        report = even_values_check(2, X**2 * Fraction(1, 5) + Poly((3, 1)))
        assert not report.integral_on_even and not report.ok

    @pytest.mark.parametrize("kind", ["split", "product"])
    def test_families_pass_at_n20(self, kind):
        assert even_values_check(20, known_family_prr(kind, 20)).ok

    @pytest.mark.parametrize("kind", ["split", "product"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_agrees_with_sampling_on_families(self, kind, n):
        p = known_family_prr(kind, n)
        assert even_values_check(n, p).integral_on_even == sampled_integral_on_even(p)
        if n <= 5:  # p/3 triples the sampled period
            assert even_values_check(n, p / 3).integral_on_even == sampled_integral_on_even(p / 3)

    def test_agrees_with_sampling_on_perturbed_families(self):
        # Integer shifts keep integrality on even inputs, odd denominators
        # break it, and a shift c/2^j of T^k keeps it exactly when j <= k.
        rng = random.Random(11)
        verdicts = set()
        for i in range(240):
            n = rng.randint(1, 5)
            p = known_family_prr(rng.choice(("split", "product")), n)
            shift = Fraction(rng.choice((-2, -1, 1, 2)))
            if i % 3 == 1:
                shift /= rng.choice((3, 5, 7, 9, 11, 13))
            elif i % 3 == 2:
                shift /= rng.choice((2, 4, 8))
            p = p + X ** rng.randint(0, n) * shift
            verdict = even_values_check(n, p).integral_on_even
            assert verdict == sampled_integral_on_even(p), (n, p)
            verdicts.add(verdict)
        assert verdicts == {True, False}


def former_denominator_check(n: int, p: Poly, even_form: bool) -> DenominatorReport:
    """denominator_check as it was, on coefficient Fractions multiplied by C(n)."""
    if p.degree > n:
        raise ValueError("polynomial degree exceeds n")
    cn = cn_value(n).value
    flags = []
    for i in range(n + 1):
        scale = cn * 2**i if even_form else cn
        flags.append((p.coeff(i) * scale).denominator == 1)
    fujiki = (p.coeff(n) * 2**n * cn).denominator == 1
    return DenominatorReport(
        ok=all(flags), even_form=even_form, c_n=cn, coefficient_ok=tuple(flags), fujiki_in_lattice=fujiki
    )


def former_even_values_check(n: int, p: Poly) -> EvenValuesReport:
    """even_values_check as it was: both lattice tests and c_x on Fractions.

    integral_on_even is read from even_values_check, whose Polya loop did not change.
    """
    if p.degree > n:
        raise ValueError("polynomial degree exceeds n")
    integral = even_values_check(n, p).integral_on_even
    a_n = p.coeff(n)
    leading_ok = (a_n * math.factorial(n) * 2**n).denominator == 1
    c_x = math.factorial(2 * n) * a_n
    fujiki_ok = (c_x / double_factorial(2 * n - 1)).denominator == 1
    return EvenValuesReport(
        ok=integral and leading_ok and fujiki_ok,
        integral_on_even=integral,
        leading_in_lattice=leading_ok,
        fujiki_multiple_of_double_factorial=fujiki_ok,
        c_x=c_x,
    )


DENOMINATORS = st.sampled_from([1, 1, 2, 3, 7, 2**10, 3**6, 7**3, 2**10 * 3**6 * 7**3, 2**5 * 3**3, 5 * 7**3, 11])


@st.composite
def check_inputs(draw) -> tuple[int, Poly]:
    """(n, p): a family polynomial or zero, scaled, plus terms over the DENOMINATORS, degree at most n."""
    n = draw(st.integers(1, 14))
    base = known_family_prr(draw(st.sampled_from(["split", "product"])), n) if draw(st.booleans()) else ZERO
    base = base * Fraction(draw(st.integers(-6, 6)), draw(DENOMINATORS))
    terms = draw(st.lists(st.tuples(st.integers(0, n), st.integers(-(10**6), 10**6), DENOMINATORS), max_size=4))
    return n, sum((X**i * Fraction(a, b) for i, a, b in terms), base)


class TestChecksAgainstFractionOracles:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(check_inputs(), st.booleans())
    def test_denominator_check(self, case, even_form):
        n, p = case
        assert denominator_check(n, p, even_form) == former_denominator_check(n, p, even_form)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(check_inputs())
    def test_even_values_check(self, case):
        n, p = case
        assert even_values_check(n, p) == former_even_values_check(n, p)

    def test_both_outcomes_occur(self):
        rng = random.Random(2902)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 10)
            shift = Fraction(rng.randint(-9, 9), rng.choice((1, 2**10, 3**6, 7**3)))
            p = known_family_prr("split", n) + X ** rng.randint(0, n) * shift
            den, even = denominator_check(n, p, True), even_values_check(n, p)
            assert den == former_denominator_check(n, p, True) and even == former_even_values_check(n, p)
            seen.add((den.ok, den.fujiki_in_lattice, even.leading_in_lattice))
        assert seen == {(True, True, True), (True, True, False), (False, True, True), (False, False, False)}


def sampled_integral_on_even(p: Poly) -> bool:
    """The former check: p(2t) for t = 1 .. 2*lcm(denominators), on integers."""
    lcm = math.lcm(1, *(c.denominator for c in p.coeffs))
    scaled = [int(c * lcm) for c in p.coeffs]

    def scaled_value(q: int) -> int:
        acc = 0
        for c in reversed(scaled):
            acc = acc * q + c
        return acc

    return all(scaled_value(2 * t) % lcm == 0 for t in range(1, 2 * lcm + 1))


class TestRealRootClassifier:
    def test_split_n2_positive_discriminant(self):
        prof = profile_from_prr(2, known_family_prr("split", 2))
        verdict = real_root_classifier(prof)
        assert verdict.all_real and verdict.discriminant == Fraction(25, 64)

    def test_n3_boundary_double_root(self):
        prof = profile_from_prr(3, cubic_prr(360, 2))  # a_x = 1/2 exactly
        assert prof.a_x == Fraction(1, 2)
        verdict = real_root_classifier(prof)
        assert verdict.all_real and verdict.discriminant == 0

    def test_split_n3(self):
        prof = profile_from_prr(3, known_family_prr("split", 3))
        verdict = real_root_classifier(prof)
        assert verdict.all_real
        assert verdict.discriminant == 8 * Fraction(9, 16) * (2 * Fraction(9, 16) - 1)

    def test_n3_complex_when_a_x_small(self):
        prof = profile_from_prr(3, cubic_prr(180, 2))  # a_x = 1/4 < 1/2
        verdict = real_root_classifier(prof)
        assert not verdict.all_real and verdict.discriminant < 0

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 10**4), st.integers(1, 10**4), st.integers(1, 500), st.integers(1, 30))
    def test_n3_profiles_factor(self, k, extra, n1, n2):
        # Every built cubic profile has Q_RR = (T+2)(a_x (T^2+4T) + 2), so the
        # n = 3 verdict is the sign of the quadratic factor's discriminant.
        # c_x = 5760 a_x / n_x^3 puts a_x anywhere in (0, 1).
        a_x, n_x = Fraction(k, k + extra), Fraction(n1, n2)
        prof = profile_from_prr(3, cubic_prr(5760 * a_x / n_x**3, n_x))
        assert prof.a_x == a_x
        assert prof.q_rr == Poly((2, 1)) * (Poly((0, 4, 1)) * a_x + 2)
        assert real_root_classifier(prof).all_real == all_roots_real(prof.q_rr)

    @pytest.mark.parametrize("kind", ["split", "product"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_known_families_all_real_by_isolation(self, kind, n):
        prof = profile_from_prr(n, known_family_prr(kind, n))
        verdict = real_root_classifier(prof)
        assert verdict.method == "isolation" and verdict.all_real

    def test_n4_complex_roots_detected(self):
        # (T+2)^4 + 16, rescaled to constant term 5: no real roots at all.
        p = (Poly((2, 1)) ** 4 + 16) * Fraction(5, 32)
        prof = profile_from_prr(4, p)
        verdict = real_root_classifier(prof)
        assert verdict.method == "isolation" and not verdict.all_real

    def test_real_rooted_r_with_a_negative_root_is_not_all_real(self):
        # Q_RR = ((T+2)^4 - 1)/3 has R(u) = (u^2 - 1)/3, real-rooted, but its
        # root u = -1 gives Q_RR the roots -2 +- i: only the sign alternation
        # of R's coefficients rules it out.
        prof = profile_from_prr(4, (Poly((2, 1)) ** 4 - 1) / 3)
        assert prof.a_x == Fraction(1, 3)
        verdict = real_root_classifier(prof)
        assert verdict.method == "isolation" and not verdict.all_real

    @pytest.mark.parametrize("n", [4, 5])
    def test_asymmetric_profile_raises(self, n):
        # P_RR + T keeps n_x, the constant term and the leading coefficient, but
        # is symmetric about no point: no profile, so no verdict, is made of it.
        with pytest.raises(ProfileError, match="^no symmetry$"):
            profile_from_prr(n, known_family_prr("split", n) + X)

    @pytest.mark.parametrize("kind", ["split", "product"])
    def test_families_agree_with_full_degree_sturm(self, kind):
        for n in range(4, 121):
            prof = profile_from_prr(n, known_family_prr(kind, n))
            assert real_root_classifier(prof).all_real == all_roots_real(prof.q_rr), n


def _profile_of_q(q: Poly, m_x: Fraction) -> HKProfile:
    """The profile of P_RR = q(T/m_x), q scaled to q(0) = n + 1; a draw that gives no valid profile is rejected.

    Its Q_RR is the scaled q, whose leading coefficient is a_x when q is
    symmetric about -2; for odd n, m_x > 0 keeps P_RR's leading coefficient positive.
    """
    n = q.degree
    assume(q.coeff(0) != 0)
    q = q * Fraction(n + 1) / q.coeff(0)
    assume(0 < q.leading() < 1)
    return profile_from_prr(n, poly_compose_affine(q, 1 / (abs(m_x) if n % 2 else m_x), 0))


def _verdict_by_q_shift(profile: HKProfile) -> RootVerdict:
    """The n >= 4 verdict by the former route: R off Q_RR(U - 2), rescaled by m_x^2."""
    n = profile.n
    r, _ = _centred(profile.q_rr, 2, n % 2)
    num, den, d = profile.m_x.numerator ** 2, profile.m_x.denominator ** 2, len(r) - 1
    r = [c * den**j * num ** (d - j) for j, c in enumerate(r)]  # m_x^2 = num/den: num^d R(v/m_x^2)
    alternating = len({(c > 0) == (j % 2 == 0) for j, c in enumerate(r) if c}) <= 1
    return RootVerdict(n=n, method="isolation", all_real=alternating and all_roots_real(Poly(r)))


RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=6)
# The verdict reads R in P_RR's variable: any nonzero m_x gives Q_RR's own verdict.
M_X = st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool)
ORACLE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestRootVerdictOracle:
    """The n >= 4 verdict on R(u), u = (T+2)^2, against all_roots_real on Q_RR itself."""

    @ORACLE_SETTINGS
    @given(n=st.integers(4, 16), m_x=M_X, data=st.data())
    def test_signed_qk_combinations(self, n, m_x, data):
        # Each q_{n-2i} has Q_RR's reflection symmetry, so every such sum does.
        bs = [data.draw(RATIONALS.filter(bool))] + data.draw(st.lists(RATIONALS, max_size=n // 2))
        q = sum((qk_poly(n - 2 * i) * b for i, b in enumerate(bs)), Poly())
        assert real_root_classifier(_profile_of_q(q, m_x)).all_real == all_roots_real(q)

    @ORACLE_SETTINGS
    @given(
        us=st.lists(st.one_of(st.just(Fraction(0)), RATIONALS), min_size=1, max_size=5),
        repeats=st.integers(0, 2),
        pairs=st.lists(st.tuples(RATIONALS, RATIONALS.filter(bool)), max_size=2),
        odd=st.booleans(),
        scale=RATIONALS.filter(bool),
        m_x=M_X,
    )
    def test_factored_in_u(self, us, repeats, pairs, odd, scale, m_x):
        # Q_RR = scale (T+2)^odd prod ((T+2)^2 - u) prod (((T+2)^2 - a)^2 + b^2):
        # every root is real iff each u >= 0 and there is no pair a +- ib.
        w = Poly((4, 4, 1))  # (T+2)^2
        q = Poly((2, 1)) ** odd * scale
        for u in us + us[:repeats]:
            q = q * (w - u)
        for a, b in pairs:
            q = q * ((w - a) ** 2 + b * b)
        if q.degree < 4:
            q = q * w
        want = min(us) >= 0 and not pairs
        assert real_root_classifier(_profile_of_q(q, m_x)).all_real == all_roots_real(q) == want

    @ORACLE_SETTINGS
    @given(n=st.integers(4, 12), m_x=M_X, data=st.data())
    def test_agrees_with_the_q_shift_route(self, n, m_x, data):
        # Signed q_k sums, and with a stray term mostly not symmetric about -2:
        # on every profile built, the reading of P_RR(V - n_x) and the former
        # Q_RR(U - 2) route agree, and a refused one is not symmetric about -2.
        bs = [data.draw(RATIONALS.filter(bool))] + data.draw(st.lists(RATIONALS, max_size=n // 2))
        q = sum((qk_poly(n - 2 * i) * b for i, b in enumerate(bs)), Poly())
        if data.draw(st.booleans()):
            q = q + X ** data.draw(st.integers(0, n - 1)) * data.draw(RATIONALS.filter(bool))
        try:
            prof = _profile_of_q(q, m_x)
        except ProfileError:
            with pytest.raises(NotInSpan):
                _centred(q, 2, n % 2)
            return
        assert real_root_classifier(prof) == _verdict_by_q_shift(prof)

    @pytest.mark.parametrize("kind", ["split", "product"])
    @pytest.mark.parametrize("n", [4, 6, 10, 24])
    def test_even_family_reflected_to_negative_m_x(self, kind, n):
        # P(T) = P_family(-T) is a valid even-n profile with m_x < 0 and the
        # same Q_RR, so the same verdict: all roots real.
        family = profile_from_prr(n, known_family_prr(kind, n))
        prof = profile_from_prr(n, poly_compose_affine(family.p_rr, -1, 0))
        assert prof.m_x == -family.m_x < 0 and prof.q_rr == family.q_rr
        verdict = real_root_classifier(prof)
        assert verdict == real_root_classifier(family) and verdict.method == "isolation" and verdict.all_real


@pytest.mark.parametrize("family", ["split", "product"])
def test_profile_shifts_once(family, monkeypatch):
    # The symmetry check centres P_RR at n_x and the root verdict reads R
    # off that same shift, and Q_RR = P_RR(m_x T) is built once: one Taylor
    # shift and one rescale per profile.
    shifts, rescales = [], []

    def counting(p, a, b, compose=poly_compose_affine):
        (shifts if b else rescales).append((a, b))
        return compose(p, a, b)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hkrr" and hasattr(module, "poly_compose_affine"):
            monkeypatch.setattr(module, "poly_compose_affine", counting)
    for n in range(4, 13):
        shifts.clear()
        rescales.clear()
        assert run(["profile", "--family", family, "--n", str(n)]) == 0
        assert len(shifts) == 1 and len(rescales) == 1, (n, shifts, rescales)


# sha256 of the stdout of `hkrr profile --family F --n N` for F = split, then
# product, and N = 1..120, recorded while all_roots_real still divided out
# gcd(p, p') and built a second Sturm chain.
PROFILE_REPORTS_DIGEST = "1006cbd5076c556c4d9c797eb2b5346dd6a75d06242db70de7947b2341e18e03"


def test_profile_reports_digest(capsys):
    digest = hashlib.sha256()
    for family in ("split", "product"):
        for n in range(1, 121):
            assert run(["profile", "--family", family, "--n", str(n)]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == PROFILE_REPORTS_DIGEST


def _symmetric_q(rng: random.Random, n: int) -> Poly:
    """a (T+2)^n + sum b_j (T+2)^(n-2j), its last term solved for Q(0) = n + 1; a is mostly in (0, 1)."""
    w = Poly((2, 1))
    a = Fraction(rng.randint(1, 11), 12) if rng.random() < 0.85 else Fraction(rng.randint(-3, 30), 6)
    q = w**n * a
    for j in range(1, n // 2):
        q = q + w ** (n - 2 * j) * Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    if n >= 2:
        last = w ** (n % 2)
        return q + last * ((n + 1 - q.coeff(0)) / last.coeff(0))
    return q


def _u_factored_q(rng: random.Random, n: int) -> Poly:
    """(T+2)^e prod ((T+2)^2 - u_i), u_i mostly >= 0, scaled to Q(0) = n + 1."""
    w = Poly((2, 1))
    q = w ** (n % 2)
    for _ in range(n // 2):
        u = Fraction(rng.randint(-2, 40), rng.randint(1, 5))
        q = q * (w * w - (u if u != 4 else 5))
    return q * Fraction(n + 1) / q.coeff(0)


def _profile_poly_cases() -> list[tuple[list, list[str]]]:
    """Seeded `profile --poly` inputs (coefficients, extra flags).

    Valid and invalid candidates of both parities: m_x of either sign and
    rational, n_x = 0, the known families rescaled and reflected, and each
    ProfileError (constant term, leading coefficient, A_X range, symmetry,
    degree); every ninth in --markdown.
    """
    rng = random.Random(2801)
    cases = []
    for i in range(600):
        n = rng.randint(1, 12)
        kind = i % 6
        m_x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 5))
        if kind in (0, 4, 5):
            p = poly_compose_affine(_symmetric_q(rng, n), 1 / m_x, 0)
        elif kind == 1:
            p = poly_compose_affine(_u_factored_q(rng, n), 1 / m_x, 0)
        elif kind == 2:  # symmetric about 0: n_x = m_x = a_x = 0
            p = Poly([Fraction(rng.randint(1, 9), rng.randint(1, 7)) if (n - j) % 2 == 0 else 0 for j in range(n + 1)])
            if n % 2 == 0:
                p = p + (n + 1 - p.coeff(0))
        else:
            p = known_family_prr(rng.choice(("split", "product")), n)
            p = poly_compose_affine(p, rng.choice((-1, 1)) * Fraction(rng.randint(1, 6), rng.randint(1, 6)), 0)
        if kind == 4:
            k = rng.randint(1, max(1, n - 2))
            p = p + X**k * Fraction(rng.choice((-1, 1)), rng.randint(1, 9))
        elif kind == 5:
            p = rng.choice((p + 1, p * -1, p * Fraction(3, 2) - Fraction(n + 1, 2)))
        flags = ["--n", str(n if rng.random() < 0.95 else n + 1)] if rng.random() < 0.5 else []
        if i % 9 == 0:
            flags.append("--markdown")
        coeffs = [int(c) if c.denominator == 1 else str(c) for c in p.coeffs]
        cases.append((coeffs, flags))
    return cases


# sha256 of exit code, stdout and stderr of `hkrr profile --poly` on each of
# _profile_poly_cases(), recorded while the root verdict still shifted Q_RR
# by 2 and rescaled R by m_x^2.
PROFILE_POLY_REPORTS_DIGEST = "30e3163553f40ce20d8f8ccac1af1ece4a9360f3c1db248be4dfe550c472ee38"


def test_profile_poly_reports_digest(tmp_path, capsys):
    digest, seen = hashlib.sha256(), set()
    path = tmp_path / "p.json"
    for coeffs, flags in _profile_poly_cases():
        path.write_text(json.dumps({"coeffs": coeffs}))
        code = run(["profile", "--poly", str(path), *flags])
        out, err = capsys.readouterr()
        assert str(path) not in out + err
        digest.update(f"{code}\n{out}\0{err}\0".encode())
        seen.add(err or "ok")
    assert {
        "ok",
        "error: bad constant term\n",
        "error: leading coefficient must be positive\n",
        "error: A_X out of range\n",
        "error: no symmetry\n",
    } <= seen
    assert digest.hexdigest() == PROFILE_POLY_REPORTS_DIGEST


def _spell(rng: random.Random, c: Fraction) -> object:
    """c as a JSON coefficient: an int, "p/q", or one of the other spellings the reader accepts."""
    kind = rng.random()
    if kind < 0.4:
        return int(c) if c.denominator == 1 else str(c)
    if kind < 0.55:
        k = rng.randint(2, 9)
        return f"{c.numerator * k}/{c.denominator * k}"
    if kind < 0.7:
        return str(c)
    minus, size = ("-", -c) if c < 0 else ("", c)
    return rng.choice((f"{minus or '+'}{size}", f" {c} ", f"{minus}00{size}", f"{c}\n"))


# Every malformed value that test_cli's TestMalformedInput feeds to a command.
BAD_COEFFS = [
    [1.5, 1],
    [4, 0.25],
    [True, 1],
    [2, False],
    [2, None],
    ["1/0", 1],
    [2, "x"],
    ["1e1000000", 1],
    [4, "1E3000000"],
]
# Spellings that are not "-?digits" or "-?digits/digits", accepted or not.
ODD_SPELLINGS = ["2/4", "+3", " 1/2", "007", "1_0", "1/-2", "-0", "0/7", "1.5", "-.25", "٣", "1__0", "1/", "/2", "-", ""]


def _check_cases() -> list[tuple[str, list[str]]]:
    """Seeded `check` inputs: (file text, flags after --poly FILE).

    Both families for n <= 40 with and without --even, perturbed ones with
    denominators such as 2^10, 3^6 and 7^3, degree below n, the zero
    polynomial, non-canonical spellings, every malformed coefficient and a
    few malformed files; every eleventh in --markdown.
    """
    rng = random.Random(2901)
    cases = []

    def add(coeffs: object, n: int, even: bool) -> None:
        flags = ["--n", str(n)] + (["--even"] if even else [])
        if len(cases) % 11 == 0:
            flags.append("--markdown")
        cases.append((json.dumps({"coeffs": coeffs}), flags))

    for kind in ("split", "product"):
        for n in range(1, 41):
            p = known_family_prr(kind, n)
            add([_spell(rng, c) for c in p.coeffs], n, n % 2 == 0)
            add([int(c) if c.denominator == 1 else str(c) for c in p.coeffs], n, n % 2 == 1)
    dens = [1, 2, 3, 4, 5, 7, 9, 2**10, 3**6, 7**3, 2**10 * 3**6, 2**4 * 7**3, 11 * 13]
    for _ in range(160):
        n = rng.randint(1, 40)
        p = known_family_prr(rng.choice(("split", "product")), rng.randint(1, n) if rng.random() < 0.2 else n)
        for _ in range(rng.randint(1, 3)):
            p = p + X ** rng.randint(0, n) * Fraction(rng.randint(-50, 50), rng.choice(dens))
        if rng.random() < 0.2:
            p = p * Fraction(rng.randint(1, 9), rng.choice(dens))
        add([_spell(rng, c) for c in p.coeffs], n, rng.random() < 0.5)
    for n in (1, 2, 5):
        for coeffs in ([], [0], [0, 0, "0/3"], ["-0"], [4, 0, 0]):
            add(coeffs, n, n != 2)
    for spelling in ODD_SPELLINGS:
        add([4, spelling, "1/48"], 3, True)
        add([spelling], 1, False)
    for coeffs in BAD_COEFFS:
        add(coeffs, 1, True)
        add(coeffs, 3, False)
    add([4, 1, 1, 1], 2, True)  # degree above n
    for n in (0, -1):
        add([], n, True)
        add([1], n, False)
    cases.append(('{"coeffs": [4, ' + "9" * 4301 + "]}", ["--n", "1"]))
    cases.append(('{"coeffs": ["' + "9" * 4301 + '"]}', ["--n", "1"]))
    cases.append(('{"coeffs": ["1/' + "9" * 4301 + '"]}', ["--n", "1"]))
    cases.append(('{"coeffs": ["' + "9" * 4300 + '", "1/' + "7" * 4300 + '"]}', ["--n", "1", "--even"]))
    for text in ("[1, 2]", '{"coeffs": 5}', '{"coeffs": "1"}', "{}", "not json", '{"coeffs": ' + "[" * 50 + "]" * 50 + "}"):
        cases.append((text, ["--n", "2"]))
    return cases


# sha256 of exit code, stdout and stderr of `hkrr check --poly poly.json` on
# each of _check_cases(), recorded while the coefficients were read through
# Fraction(str) and both checks multiplied coefficient Fractions.
CHECK_REPORTS_DIGEST = "b432b7000e6504eebc00b2049e8f1c42a0cdb2896f483eb2e37c8b6af290ffdf"


def test_check_reports_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # error messages name the file; a relative name keeps them fixed
    digest, seen = hashlib.sha256(), set()
    for text, flags in _check_cases():
        (tmp_path / "poly.json").write_text(text)
        code = run(["check", "--poly", "poly.json", *flags])
        out, err = capsys.readouterr()
        digest.update(f"{code}\n{out}\0{err}\0".encode())
        seen.add(code)
    assert seen == {0, 1}
    assert digest.hexdigest() == CHECK_REPORTS_DIGEST
