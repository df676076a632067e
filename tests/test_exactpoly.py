import json
import math
import random
from fractions import Fraction

import pytest

from hkrr.exactpoly import (
    ONE,
    Poly,
    ResidueSet,
    X,
    ZERO,
    as_rat,
    binomial_poly,
    int_horner,
    integer_form,
    integrality_residues,
    poly_compose_affine,
    poly_eval,
    rat_str,
    symmetry_shift,
)


def rand_poly(rng, max_deg=6, denom=12):
    return Poly(
        Fraction(rng.randint(-20, 20), rng.randint(1, denom))
        for _ in range(rng.randint(0, max_deg + 1))
    )


class TestRatSerialization:
    def test_integer_renders_without_denominator(self):
        assert rat_str(Fraction(5)) == "5"
        assert rat_str(Fraction(-7, 1)) == "-7"

    def test_fraction_renders_as_slash(self):
        assert rat_str(Fraction(3, 2)) == "3/2"
        assert rat_str(Fraction(-25, 32)) == "-25/32"

    def test_parse_round_trip(self):
        for s in ("5", "-7", "3/2", "-25/32", "0"):
            assert rat_str(as_rat(s)) == s

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_rat(0.5)


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly((0, 0)).degree == -1

    def test_degree_of_product_adds(self):
        rng = random.Random(1)
        for _ in range(50):
            p, q = rand_poly(rng), rand_poly(rng)
            if p.is_zero() or q.is_zero():
                continue
            assert (p * q).degree == p.degree + q.degree

    def test_eval_zero_poly(self):
        assert poly_eval(ZERO, 5) == 0

    def test_eval_qk2_at_zero(self):
        assert poly_eval(Poly((3, 4, 1)), 0) == 3

    def test_eval_split_family_at_zero(self):
        p = binomial_poly(3, Fraction(1, 2), 4)
        assert poly_eval(p, 0) == 4

    def test_eval_is_multiplicative(self):
        rng = random.Random(2)
        for _ in range(100):
            p, q = rand_poly(rng), rand_poly(rng)
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert poly_eval(p * q, x) == poly_eval(p, x) * poly_eval(q, x)

    def test_divmod_reconstructs(self):
        rng = random.Random(3)
        for _ in range(50):
            a, b = rand_poly(rng), rand_poly(rng)
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_json_round_trip_is_bit_exact(self):
        p = Poly((4, Fraction(13, 6), Fraction(3, 8), Fraction(1, 48)))
        blob = json.dumps(p.to_json())
        assert Poly.from_json(json.loads(blob)) == p
        assert json.dumps(Poly.from_json(json.loads(blob)).to_json()) == blob


class TestComposeAffine:
    def test_identity_composition(self):
        p = X**2
        assert poly_compose_affine(p, 1, 0) == p

    def test_reflection_of_linear(self):
        # (T+2) composed with -T-4 gives -T-2.
        assert poly_compose_affine(Poly((2, 1)), -1, -4) == Poly((-2, -1))

    def test_scaling_matches_normalized_family(self):
        # Rescaling by m_x = 3 must give exactly the normalized polynomial
        # of the degree-3 profile with n_x = 6.
        from hkrr.hkprofile import known_family_prr, profile_from_prr

        p = binomial_poly(3, Fraction(1, 2), 4)
        q = poly_compose_affine(p, 3, 0)
        prof = profile_from_prr(3, known_family_prr("split", 3))
        assert q == prof.q_rr
        assert q.leading() == Fraction(9, 16)
        assert q.coeff(0) == 4

    def test_random_agreement_with_eval(self):
        rng = random.Random(4)
        for _ in range(60):
            p = rand_poly(rng)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            assert poly_eval(poly_compose_affine(p, a, b), x) == poly_eval(p, a * x + b)


class TestBinomialPoly:
    def test_degree_one(self):
        assert binomial_poly(1, 1, 0) == X

    def test_split_family_cubic(self):
        # binom(T/2+4, 3) = (T+8)(T+6)(T+4)/48.
        p = binomial_poly(3, Fraction(1, 2), 4)
        assert p.coeffs == (4, Fraction(13, 6), Fraction(3, 8), Fraction(1, 48))
        assert p * 48 == Poly((8, 1)) * Poly((6, 1)) * Poly((4, 1))

    def test_split_family_quadratic(self):
        # binom(T/2+3, 2) = (T^2 + 10T + 24)/8.
        p = binomial_poly(2, Fraction(1, 2), 3)
        assert p * 8 == Poly((24, 10, 1))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            binomial_poly(0, 1, 0)


class TestSymmetryShift:
    def test_even_power_symmetric_about_zero(self):
        assert symmetry_shift(X**2) == 0

    def test_split_family_shift(self):
        assert symmetry_shift(binomial_poly(3, Fraction(1, 2), 4)) == 12

    def test_asymmetric_cubic_has_none(self):
        assert symmetry_shift(Poly((1, 1, 0, 1))) is None

    def test_shift_implies_reflection_identity(self):
        rng = random.Random(5)
        hits = 0
        for _ in range(200):
            p = rand_poly(rng)
            if p.degree < 1:
                continue
            s = symmetry_shift(p)
            if s is None:
                continue
            hits += 1
            sign = -1 if p.degree % 2 else 1
            assert poly_compose_affine(p, -1, -s) == p * sign
        assert hits  # the loop must actually exercise the identity

    def test_constructed_symmetric_polynomials_found(self):
        rng = random.Random(6)
        for _ in range(40):
            s = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            n = rng.randint(1, 6)
            shifted = Poly((s / 2, 1))
            p = ZERO
            for j in range(n // 2 + 1):
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                p = p + shifted ** (n - 2 * j) * c
            if p.degree != n:
                continue
            assert symmetry_shift(p) == s

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            symmetry_shift(ONE)


class TestResidueSet:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            ResidueSet(4, frozenset({4}))

    def test_lift_preserves_membership(self):
        rs = ResidueSet(4, frozenset({1, 2}))
        lifted = rs.lift(12)
        for q in range(-30, 30):
            assert rs.contains(q) == lifted.contains(q)

    def test_reduce_finds_minimal_modulus(self):
        evens = ResidueSet(16, frozenset(range(0, 16, 2)))
        assert evens.reduce() == ResidueSet(2, frozenset({0}))
        # A diagonal set mod 6 is irreducible.
        diag = ResidueSet(6, frozenset({0, 4}))
        assert diag.reduce() == diag

    def test_equivalent_across_moduli(self):
        a = ResidueSet(16, frozenset(range(0, 16, 2)))
        b = ResidueSet(2, frozenset({0}))
        assert a.equivalent(b) and b.equivalent(a)
        assert not a.equivalent(ResidueSet(2, frozenset({1})))


class TestIntegralityResidues:
    def test_integer_coefficients(self):
        rs = integrality_residues(Poly((3, -2, 7)))
        assert (rs.modulus, set(rs.allowed)) == (1, {0})

    def test_half_t(self):
        rs = integrality_residues(X / 2)
        assert (rs.modulus, set(rs.allowed)) == (2, {0})

    def test_cubic_candidate_reduces_to_mod_16(self):
        # The (c_x, n_x) = (15, 1) candidate: modulus 48, and the odd part
        # imposes nothing, so membership is mod 16: {0, 6, 8, 14, 15}.
        from hkrr.hkprofile import cubic_prr

        rs = integrality_residues(cubic_prr(15, 1))
        assert rs.modulus == 48
        mod16 = {r % 16 for r in rs.allowed}
        assert mod16 == {0, 6, 8, 14, 15}
        assert set(rs.allowed) == {q for q in range(48) if q % 16 in mod16}

    def test_equals_full_period_scan(self):
        # Denominators mix the prime powers 2^4, 3^2, 5 and 7, so M runs
        # from 1 to 5040; constants and integer polynomials give M = 1.
        rng = random.Random(5)
        denominators = (1, 1, 2, 4, 8, 16, 3, 9, 5, 7, 12, 18, 45, 63, 80, 112, 144)
        moduli = set()
        for i in range(80):
            deg = rng.randint(-1, 4) if i % 4 else 0
            p = Poly(Fraction(rng.randint(-30, 30), rng.choice(denominators)) for _ in range(deg + 1))
            rs = integrality_residues(p)
            assert rs == scanned_residues(p), p
            moduli.add(rs.modulus)
        assert 1 in moduli and max(moduli) >= 720

    def test_sound_and_complete_on_random_integers(self):
        rng = random.Random(7)
        for _ in range(20):
            p = rand_poly(rng)
            rs = integrality_residues(p)
            for _ in range(50):
                q = rng.randint(-10**6, 10**6)
                assert rs.contains(q) == (poly_eval(p, q).denominator == 1)


def scanned_residues(p: Poly) -> ResidueSet:
    """The former criterion: every q in range(M), evaluated over Fraction."""
    m = math.lcm(1, *(c.denominator for c in p.coeffs))
    return ResidueSet(m, frozenset(q for q in range(m) if poly_eval(p, q).denominator == 1))


class TestIntegerForm:
    def test_scales_to_lowest_common_denominator(self):
        p = Poly((Fraction(1, 6), Fraction(-3, 4), 2))
        assert integer_form(p) == ([2, -9, 24], 12)
        assert integer_form(ZERO) == ([], 1)

    def test_horner_matches_exact_value(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rand_poly(rng)
            coeffs, m = integer_form(p)
            for x in range(-5, 6):
                assert Fraction(int_horner(coeffs, x), m) == poly_eval(p, x)
