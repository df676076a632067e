import decimal
import json
import math
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrr import cnconst, exactpoly, hkprofile, isosolver
from hkrr.exactpoly import (
    ONE,
    Poly,
    Report,
    ResidueSet,
    X,
    ZERO,
    _int_str,
    as_rat,
    binomial_poly,
    int_horner,
    integer_form,
    integrality_residues,
    json_echo,
    jsonable,
    poly_compose_affine,
    pseudo_divmod,
    rat_from_json,
    rat_str,
)


def rand_poly(rng, max_deg=6, denom=12):
    return Poly(
        Fraction(rng.randint(-20, 20), rng.randint(1, denom))
        for _ in range(rng.randint(0, max_deg + 1))
    )


@contextmanager
def no_digit_limit():
    """Lift the int-to-str digit limit, so that str() writes the reference strings."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def int_str_cases():
    """Seeded integers up to 100k bits, powers of ten and of two around the
    2,000-bit switch to the decimal join, and 0 and 1; each with both signs."""
    rng = random.Random(19)
    out = [0, 1]
    for k in list(range(595, 611)) + [1204, 5000, 30103]:  # 10^602 < 2^2000 < 10^603; 10^30103 > 2^100000
        out += [10**k, 10**k - 1]
    for b in range(1998, 2003):
        out += [2**b - 1, 2**b]
    out += [rng.getrandbits(int(2 ** rng.uniform(1, math.log2(100_000)))) for _ in range(60)]
    return out + [-n for n in out]


class TestIntStr:
    def test_equals_str(self):
        numbers = int_str_cases()
        with no_digit_limit():
            expected = [str(n) for n in numbers]
        assert [_int_str(n) for n in numbers] == expected

    def test_rat_str_past_the_limit(self):
        x = Fraction(10**5000 + 1, 3**9000)
        with no_digit_limit():
            expected = f"{x.numerator}/{x.denominator}"
        assert rat_str(x) == expected
        assert rat_str(10**5000) == "1" + "0" * 5000

    def test_poly_repr_past_the_limit(self):
        with no_digit_limit():
            expected = f"Poly('{10**5000}*T + 2')"
        assert repr(Poly((2, 10**5000))) == expected
        assert repr(Poly((Fraction(-1, 2), 0, -1, 3))) == "Poly('3*T^3 - T^2 - 1/2')"

    def test_report_repr_past_the_limit(self):
        # A report's repr writes its ints and Fractions as rat_str does; the
        # dataclass repr would raise ValueError past 4,300 digits.
        cert = cnconst.cn_value(60)
        prof = hkprofile.profile_from_prr(1, Poly((2, 10**5000)))
        with no_digit_limit():
            want_cert = f"CnCertificate(n=60, value={cert.value}, factorization={cert.factorization!r})"
            want_prof = (
                f"HKProfile(n=1, c_x=Fraction({2 * 10**5000}, 1), n_x=Fraction(1, {5 * 10**4999}), "
                f"m_x=Fraction(1, {10**5000}), a_x=Fraction(1, 1), n_x_is_integer=False, "
                f"p_rr=Poly('{10**5000}*T + 2'), q_rr=Poly('T + 2'))"
            )
        assert cert.value > 10**4300
        assert repr(cert) == want_cert
        assert repr(prof) == want_prof

    def test_report_repr_is_the_dataclass_one(self):
        @dataclass(frozen=True)
        class Plain:
            n: int
            x: Fraction
            flags: tuple
            one: tuple
            items: list
            table: dict
            hidden: int = field(default=0, repr=False)

        @dataclass(frozen=True, repr=False)
        class Written(Report, Plain):
            pass

        args = (3, Fraction(-7, 2), (True, None, "a"), (Fraction(1, 3),), [ONE, X], {(2,): Fraction(5)}, 9)
        assert repr(Written(*args)) == repr(Plain(*args)).replace("Plain", "Written", 1)

    def test_inexact_join_is_a_defect(self, monkeypatch):
        # A join that rounds traps Inexact, a DecimalException, which is an
        # ArithmeticError (bad input to the CLI); it must surface as a defect.
        monkeypatch.setattr(decimal, "MAX_PREC", 50)
        with pytest.raises(AssertionError, match="inexact decimal join"):
            _int_str(7**900)


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

    def test_a_fraction_is_returned_itself(self):
        class Half(Fraction):
            pass

        x = Fraction(3, 7)
        assert as_rat(x) is x
        y = as_rat(Half(1, 2))
        assert type(y) is Fraction and y == Fraction(1, 2)
        p = Poly([x, Half(1, 2)])
        assert p.coeffs == (x, Fraction(1, 2))

    def test_json_accepts_integers_fractions_and_decimals(self):
        for value, want in ((7, 7), ("-7", -7), ("3/2", Fraction(3, 2)), ("1.5", Fraction(3, 2))):
            assert rat_from_json(value, "x") == want

    @pytest.mark.parametrize("value", ["1e3000000", "2E5", "1.5e-3", "3/2e1"])
    def test_json_refuses_exponent_notation(self, value):
        with pytest.raises(ValueError, match=r"^coeffs\[0\]: exponent notation is not accepted"):
            rat_from_json(value, "coeffs[0]")


def former_rat_from_json(value: object, where: str) -> Fraction:
    """The reader before integer pairs: every value through Fraction(str)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{where}: expected an integer or a 'p/q' string, got {json_echo(value)}")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"{where}: exponent notation is not accepted, got {value!r}")
    try:
        return Fraction(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    except ZeroDivisionError:
        raise ValueError(f"{where}: zero denominator in {value!r}") from None


def read_outcome(reader, value: object) -> object:
    """reader(value) as (type, value), or the ValueError's text."""
    try:
        x = reader(value, "coeffs[0]")
    except ValueError as exc:
        return str(exc)
    return type(x), x


JSON_VALUES = st.one_of(
    st.text(alphabet="0123456789 -+/._eE\u0663\u00b2", max_size=12),
    st.from_regex(r"\A-?[0-9]{1,30}(/[0-9]{1,30})?\Z"),
    st.builds(  # digit strings about the int-to-str limit of 4,300 digits
        lambda sign, digit, size, den: sign + digit * size + den,
        st.sampled_from(["", "-"]),
        st.sampled_from("907"),
        st.integers(4295, 4310),
        st.sampled_from(["", "/3", "/0", "/" + "7" * 4301]),
    ),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.floats(),
    st.none(),
)


class TestJsonReader:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(JSON_VALUES)
    def test_agrees_with_the_fraction_route(self, value):
        assert read_outcome(rat_from_json, value) == read_outcome(former_rat_from_json, value)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(JSON_VALUES, max_size=6))
    def test_poly_from_json_agrees_with_the_fraction_route(self, coeffs):
        def read(reader):
            try:
                return integer_form(Poly(reader(c, f"coeffs[{i}]") for i, c in enumerate(coeffs)))
            except ValueError as exc:
                return str(exc)

        try:
            got = integer_form(Poly.from_json({"coeffs": coeffs}))
        except ValueError as exc:
            got = str(exc)
        assert got == read(former_rat_from_json)

    @pytest.mark.parametrize("value", ["2/4", "+3", " 1/2", "007", "1_0", "1/-2", "-0", "0/7", "\u0663", "\u00b2", "1/00"])
    def test_non_canonical_spellings(self, value):
        assert read_outcome(rat_from_json, value) == read_outcome(former_rat_from_json, value)


class Pair(NamedTuple):
    modulus: int
    residue: Fraction


@dataclass
class Inner(Report):
    z: Fraction
    residues: ResidueSet


@dataclass(frozen=True)
class Outer(Report):
    big: int = field(metadata={"json": str})
    inner: Inner
    pair: Pair
    missing: Optional[Fraction]


class TestJsonable:
    def test_scalars(self):
        assert jsonable(Fraction(-25, 32)) == "-25/32"
        assert jsonable(Fraction(4)) == "4"
        assert jsonable(7) == 7 and jsonable(True) is True and jsonable(None) is None
        assert jsonable(0.25) == 0.25 and jsonable("s") == "s"

    def test_poly(self):
        assert jsonable(Poly((Fraction(1, 3), 0, -2))) == {"coeffs": ["1/3", "0", "-2"]}
        assert jsonable(ZERO) == {"coeffs": []}
        assert Poly((Fraction(1, 3), 0, -2)).to_json() == {"coeffs": ["1/3", "0", "-2"]}

    @pytest.mark.parametrize(
        "p",
        [
            ZERO,
            Poly((5, -7, 0, 12)),
            Poly((-1, Fraction(-3, 4), -6)),
            Poly((Fraction(1, 6), Fraction(1, 2), 3, Fraction(-2, 3), 0, Fraction(5, 6))),
            # Past _STR_BITS and past the 4,300-digit int-to-str limit.
            Poly((Fraction(2**15000 + 1, 3), -(10**5000), Fraction(-1, 2**15001 - 1))),
        ]
        + [rand_poly(random.Random(seed), max_deg=8, denom=30) for seed in range(12)],
    )
    def test_poly_equals_rat_str_of_its_coeffs(self, p):
        assert jsonable(p) == {"coeffs": [rat_str(c) for c in p.coeffs]}

    def test_sets_are_sorted(self):
        assert jsonable(frozenset({5, 1, 3})) == [1, 3, 5]
        assert jsonable({Fraction(1, 2), Fraction(-1, 3)}) == ["-1/3", "1/2"]

    def test_named_tuple_is_an_object(self):
        assert jsonable(Pair(4, Fraction(1, 2))) == {"modulus": 4, "residue": "1/2"}

    def test_containers(self):
        assert jsonable((1, [Fraction(1, 2)], {"k": (2, 3)})) == [1, ["1/2"], {"k": [2, 3]}]

    def test_nested_dataclass_in_declaration_order(self):
        value = Outer(10**30, Inner(Fraction(3, 2), ResidueSet(8, frozenset({5, 1}))), Pair(2, 0), None)
        out = value.to_json()
        assert out == {
            "big": "1" + "0" * 30,
            "inner": {"z": "3/2", "residues": {"modulus": 8, "allowed": [1, 5]}},
            "pair": {"modulus": 2, "residue": 0},
            "missing": None,
        }
        assert list(out) == ["big", "inner", "pair", "missing"]
        assert list(out["inner"]) == ["z", "residues"]

    def test_field_writers_are_kept_per_type(self):
        @dataclass
        class Wider(Inner):
            extra: int = field(default=0, metadata={"json": lambda v: f"<{v}>"})

        first = Inner(Fraction(1, 2), ResidueSet(4, frozenset({3})))
        assert jsonable(first) == {"z": "1/2", "residues": {"modulus": 4, "allowed": [3]}}
        assert jsonable(Wider(Fraction(1, 3), ResidueSet(2, frozenset()), 7)) == {
            "z": "1/3",
            "residues": {"modulus": 2, "allowed": []},
            "extra": "<7>",
        }
        # A second instance of a type already met reads its own values.
        assert jsonable(Inner(5, ResidueSet(1, frozenset({0})))) == {"z": 5, "residues": {"modulus": 1, "allowed": [0]}}
        # Neither a dataclass type nor a non-dataclass value is written as one.
        plain = object()
        assert jsonable(plain) is plain and jsonable(Inner) is Inner

    def test_every_report_class_gives_plain_json(self):
        profile = hkprofile.profile_from_prr(3, hkprofile.known_family_prr("split", 3))
        case = isosolver.solve_case(3, 1)
        branch = case.branches[-1]
        instances = [
            cnconst.cn_value(3),
            profile,
            hkprofile.real_root_classifier(profile),
            hkprofile.denominator_check(3, profile.p_rr, even_form=True),
            hkprofile.even_values_check(3, profile.p_rr),
            isosolver.mx_upper_bounds(3, 1, 1),
            isosolver.pairing_congruence(3, 1, 2),
            case,
            branch,
            branch.candidates[0],
            branch.candidates[0].trace[0],
        ]
        exported = {
            obj
            for module in (exactpoly, cnconst, hkprofile, isosolver)
            for obj in (getattr(module, name) for name in module.__all__)
            if isinstance(obj, type) and issubclass(obj, Report) and obj is not Report
        }
        assert exported == {type(x) for x in instances}
        for x in instances:
            blob = x.to_json()
            # json.dumps refuses Fraction and Poly; a tuple would come back a list.
            assert json.loads(json.dumps(blob)) == blob, type(x)


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
        assert ZERO(5) == 0

    def test_eval_qk2_at_zero(self):
        assert Poly((3, 4, 1))(0) == 3

    def test_eval_split_family_at_zero(self):
        p = binomial_poly(3, Fraction(1, 2), 4)
        assert p(0) == 4

    def test_eval_is_multiplicative(self):
        rng = random.Random(2)
        for _ in range(100):
            p, q = rand_poly(rng), rand_poly(rng)
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert (p * q)(x) == p(x) * q(x)

    def test_power_squares_only_up_to_the_top_bit(self, monkeypatch):
        # From the lowest set bit: bit_length - 1 squarings and popcount - 1
        # products, so p**1 makes none and p**8 three.
        calls = []
        multiply = Poly.__mul__

        def counted(a, b):
            calls.append(1)
            return multiply(a, b)

        p = Poly((Fraction(-1, 3), 2, 5))
        for e in range(21):
            calls.clear()
            monkeypatch.setattr(Poly, "__mul__", counted)
            got = p**e
            monkeypatch.setattr(Poly, "__mul__", multiply)
            want = ONE
            for _ in range(e):
                want = want * p
            assert got == want
            assert len(calls) == (e.bit_length() + bin(e).count("1") - 2 if e else 0), e

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
            assert poly_compose_affine(p, a, b)(x) == p(a * x + b)


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
    """The reflection symmetry p(-T - 2 n_x) = (-1)^n p(T), as profile_from_prr tests it."""

    def test_even_power_symmetric_about_zero(self):
        # T^2 + 3 passes the symmetry test about 0; only a_x = 0 fails after it.
        with pytest.raises(hkprofile.ProfileError, match="A_X out of range"):
            hkprofile.profile_from_prr(2, X**2 + 3)

    def test_split_family_shift(self):
        assert hkprofile.profile_from_prr(3, binomial_poly(3, Fraction(1, 2), 4)).n_x == 6

    def test_asymmetric_cubic_has_none(self):
        with pytest.raises(hkprofile.ProfileError, match="no symmetry"):
            hkprofile.profile_from_prr(3, Poly((4, 1, 0, 1)))

    def test_shift_implies_reflection_identity(self):
        # The profile's verdict against the identity checked at n + 1 points,
        # which decides it exactly for polynomials of degree n.
        rng = random.Random(5)
        verdicts = []
        for _ in range(200):
            p = rand_poly(rng)
            n = p.degree
            if n < 1 or p(0) == 0:
                continue
            p = p * (Fraction(n + 1) / p(0))  # constant term n + 1, symmetry kept
            if p.leading() < 0:
                continue
            try:
                hkprofile.profile_from_prr(n, p)
                symmetric = True
            except hkprofile.ProfileError as exc:
                assert str(exc) in ("no symmetry", "A_X out of range")
                symmetric = str(exc) != "no symmetry"
            s = 2 * p.coeff(n - 1) / (n * p.leading())
            sign = -1 if n % 2 else 1
            assert symmetric == all(p(-x - s) == sign * p(x) for x in range(n + 1))
            verdicts.append(symmetric)
        assert True in verdicts and False in verdicts  # both outcomes exercised

    def test_constructed_symmetric_polynomials_found(self):
        # sum_j c_j (T + s/2)^(n - 2j), with the leading coefficient set by
        # a_x in (0, 1) and the last c_j by the constant term n + 1.
        rng = random.Random(6)
        for _ in range(40):
            s = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            n = rng.randint(1, 6)
            shifted = Poly((s / 2, 1))
            a_x = Fraction(rng.randint(1, 9), 10)
            cs = [a_x / (s / 4) ** n] + [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n // 2)]
            p = ZERO
            for j in range(n // 2):
                p = p + shifted ** (n - 2 * j) * cs[j]
            last = shifted ** (n % 2)
            p = p + last * ((n + 1 - p(0)) / last(0))
            assert hkprofile.profile_from_prr(n, p).n_x == s / 2

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            hkprofile.profile_from_prr(0, ONE)
        with pytest.raises(hkprofile.ProfileError):
            hkprofile.profile_from_prr(1, ONE)


class TestResidueSet:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            ResidueSet(4, frozenset({4}))

    def test_lift_preserves_membership(self):
        rs = ResidueSet(4, frozenset({1, 2}))
        lifted = rs.lift(12)
        for q in range(-30, 30):
            assert (q % rs.modulus in rs.allowed) == (q % lifted.modulus in lifted.allowed)

    def test_reduce_finds_minimal_modulus(self):
        evens = ResidueSet(16, frozenset(range(0, 16, 2)))
        assert evens.reduce() == ResidueSet(2, frozenset({0}))
        # A diagonal set mod 6 is irreducible.
        diag = ResidueSet(6, frozenset({0, 4}))
        assert diag.reduce() == diag

    def test_reduce_equals_preimage_scan(self):
        # Lifted sets reduce; perturbed ones (one residue toggled) mostly do not.
        rng = random.Random(11)
        for i in range(400):
            m0 = rng.choice((1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 16, 30, 36, 48))
            base = ResidueSet(m0, frozenset(r for r in range(m0) if rng.random() < 0.5))
            rs = base.lift(m0 * rng.choice((1, 2, 3, 4, 5, 6, 7, 10, 14, 105)))
            if i % 2:
                rs = ResidueSet(rs.modulus, rs.allowed ^ {rng.randrange(rs.modulus)})
            assert rs.reduce() == scanned_reduce(rs), rs

    def test_reduce_returns_least_period(self):
        # Lift a random subset of Z/d to a multiple M of d: reduce() must find
        # the least period of the lifted set, which divides d.
        rng = random.Random(1304)
        for _ in range(300):
            m = rng.randint(1, 200)
            d = rng.choice([k for k in range(1, m + 1) if m % k == 0])
            rs = ResidueSet(d, frozenset(r for r in range(d) if rng.random() < 0.5)).lift(m)
            least = min(
                k for k in range(1, m + 1) if m % k == 0 and all((r + k) % m in rs.allowed for r in rs.allowed)
            )
            assert rs.reduce() == ResidueSet(least, frozenset(r % least for r in rs.allowed)), rs

    def test_equivalent_across_moduli(self):
        # reduce() is canonical: two sets describe the same integers iff
        # their reduced forms are equal.
        a = ResidueSet(16, frozenset(range(0, 16, 2)))
        b = ResidueSet(2, frozenset({0}))
        assert a.reduce() == b.reduce()
        assert a.reduce() != ResidueSet(2, frozenset({1})).reduce()


class TestPseudoDivmod:
    def test_identity_on_random_inputs(self):
        # l^s a = q b + r with s = max(0, len(a) - len(b) + 1), len(r) < len(b)
        # and no trailing zero in r; leading coefficients of either sign.
        rng = random.Random(1303)
        for _ in range(600):
            b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [rng.choice((-6, -2, -1, 1, 3, 7))]
            a = [rng.randint(-50, 50) for _ in range(rng.randint(0, 9))]
            a += [rng.choice((-5, -1, 1, 4))] if rng.random() < 0.9 else []
            q, r = pseudo_divmod(a, b)
            s = max(0, len(a) - len(b) + 1)
            assert len(q) == s and len(r) < len(b)
            assert not r or r[-1]
            assert Poly(q) * Poly(b) + Poly(r) == Poly(a) * b[-1] ** s

    def test_shorter_dividend_is_the_remainder(self):
        assert pseudo_divmod([3, 1], [1, 2, -4]) == ([], [3, 1])
        assert pseudo_divmod([], [5]) == ([], [])

    def test_negative_leading_coefficient(self):
        # (-2)^2 (T^2 + 1) = (-2T - 1)(-2T + 1) + 5.
        assert pseudo_divmod([1, 0, 1], [1, -2]) == ([-1, -2], [5])


def test_traced_methods_exist():
    # perfbench/tracing.py METHODS wraps these through vars(cls)[name]:
    # deleting one breaks the benchmark's --trace run.
    for cls, name in ((Poly, "__mul__"), (Poly, "__rmul__"), (Poly, "__divmod__"), (ResidueSet, "reduce")):
        assert name in vars(cls), name


class TestIntegralityResidues:
    def test_integer_coefficients(self):
        rs = integrality_residues(Poly((3, -2, 7)))
        assert (rs.modulus, set(rs.allowed)) == (1, {0})

    def test_half_t(self):
        rs = integrality_residues(X / 2)
        assert (rs.modulus, set(rs.allowed)) == (2, {0})

    def test_cubic_candidate_reduces_to_mod_16(self):
        # The (c_x, n_x) = (15, 1) candidate: the raw modulus is 48, and the
        # odd part imposes nothing, so the canonical set is mod 16.
        from hkrr.hkprofile import cubic_prr

        p = cubic_prr(15, 1)
        assert scanned_residues(p).modulus == 48
        assert integrality_residues(p) == ResidueSet(16, frozenset({0, 6, 8, 14, 15}))

    def test_equals_full_period_scan(self):
        # Denominators mix the prime powers 2^4, 3^2, 5 and 7, so M runs
        # from 1 to 5040; constants and integer polynomials give M = 1.
        rng = random.Random(5)
        denominators = (1, 1, 2, 4, 8, 16, 3, 9, 5, 7, 12, 18, 45, 63, 80, 112, 144)
        moduli = set()
        for i in range(80):
            deg = rng.randint(-1, 4) if i % 4 else 0
            p = Poly(Fraction(rng.randint(-30, 30), rng.choice(denominators)) for _ in range(deg + 1))
            scanned = scanned_residues(p)
            assert integrality_residues(p) == scanned.reduce(), p
            moduli.add(scanned.modulus)
        assert 1 in moduli and max(moduli) >= 720

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_is_the_reduced_scan(self, data):
        # N / D of degree -1..6 for D among prime powers up to 2^10, their
        # products and 2^5 3^3; N has repeated linear factors and a content
        # that may cancel part of D.
        d = data.draw(st.sampled_from(RESIDUE_DENOMINATORS))
        roots = data.draw(st.lists(st.integers(-3, 3), max_size=6))
        rest = data.draw(st.lists(st.integers(-500, 500), max_size=7 - len(roots)))
        p = Poly(rest) * data.draw(st.sampled_from((1, 2, 3, 4, 7, 9, 8 * 27)))
        for r in roots:
            p = p * (X - r)
        p = p / d
        rs = integrality_residues(p)
        assert rs.reduce() == rs
        assert rs == scanned_residues(p).reduce(), p
        for q in data.draw(st.lists(st.integers(-(10**9), 10**9), min_size=5, max_size=5)):
            assert (q % rs.modulus in rs.allowed) == (p(q).denominator == 1), (p, q)

    def test_explicit_cases(self):
        assert integrality_residues(ZERO) == ResidueSet(1, frozenset({0}))
        assert integrality_residues(Poly((Fraction(1, 2),))) == ResidueSet(1, frozenset())
        # The part at 2 allows the even q, the part at 3 nothing: S is empty.
        p = X / 2 + Fraction(1, 3) + X**2 / 5
        assert integrality_residues(p) == ResidueSet(1, frozenset()) == scanned_residues(p).reduce()

    def test_sound_and_complete_on_random_integers(self):
        rng = random.Random(7)
        for _ in range(20):
            p = rand_poly(rng)
            rs = integrality_residues(p)
            for _ in range(50):
                q = rng.randint(-10**6, 10**6)
                assert (q % rs.modulus in rs.allowed) == (p(q).denominator == 1)


def scanned_reduce(rs: ResidueSet) -> ResidueSet:
    """The former reduction: compare each preimage, rebuilt from range(M)."""
    m, allowed = rs.modulus, rs.allowed
    changed = True
    while changed and m > 1:
        changed = False
        for p in (d for d in range(2, m + 1) if m % d == 0 and all(d % k for k in range(2, d))):
            m2 = m // p
            proj = frozenset(r % m2 for r in allowed)
            if frozenset(r for r in range(m) if r % m2 in proj) == allowed:
                m, allowed = m2, proj
                changed = True
                break
    return ResidueSet(m, allowed)


# 2^10 3^6 7^3 itself is left out: its M of 2.6e8 is past any scan.
RESIDUE_DENOMINATORS = (2**10, 3**6, 7**3, 2**10 * 3**6, 2**10 * 7**3, 3**6 * 7**3, 2**5 * 3**3)


def scanned_residues(p: Poly) -> ResidueSet:
    """The former criterion: every q in range(M), with M p(q) taken mod M by Horner's rule."""
    m = math.lcm(1, *(c.denominator for c in p.coeffs))
    nums = [int(c * m) for c in reversed(p.coeffs)]

    def allowed(q: int) -> bool:
        acc = 0
        for c in nums:
            acc = (acc * q + c) % m
        return not acc

    return ResidueSet(m, frozenset(filter(allowed, range(m))))


class TestIntegerForm:
    def test_scales_to_lowest_common_denominator(self):
        p = Poly((Fraction(1, 6), Fraction(-3, 4), 2))
        assert integer_form(p) == ((2, -9, 24), 12)
        assert integer_form(ZERO) == ((), 1)

    def test_horner_matches_exact_value(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rand_poly(rng)
            coeffs, m = integer_form(p)
            for x in range(-5, 6):
                assert Fraction(int_horner(coeffs, x), m) == p(x)


# -- the former Fraction-list Poly, kept as the oracle ----------------------
#
# Coefficients are reduced Fractions, ascending, trailing zeros stripped;
# every coefficient operation is a Fraction operation.  The integer-numerator
# Poly must give the same coefficients for every operation.


class FractionPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        return FractionPoly(
            a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0))
        )

    def __neg__(self):
        return FractionPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionPoly):
            c = as_rat(other)
            return FractionPoly(c * a for a in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return FractionPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return FractionPoly(out)

    def __truediv__(self, scalar):
        c = as_rat(scalar)
        return FractionPoly(a / c for a in self.coeffs)

    def __pow__(self, n):
        result, base = FractionPoly((1,)), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d, lead = other.degree, other.coeffs[-1]
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            c = rem[-1] / lead
            q[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
            rem.pop()
        return FractionPoly(q), FractionPoly(rem)

    def __call__(self, x):
        x = as_rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def fraction_compose_affine(p: FractionPoly, a, b) -> FractionPoly:
    a, b = as_rat(a), as_rat(b)
    if b == 0:
        scaled, power = [], Fraction(1)
        for c in p.coeffs:
            scaled.append(c * power)
            power *= a
        return FractionPoly(scaled)
    inner = FractionPoly((b, a))
    acc = FractionPoly()
    for c in reversed(p.coeffs):
        acc = acc * inner + FractionPoly((c,))
    return acc


def fraction_binomial(n: int, scale, shift) -> FractionPoly:
    scale, shift = as_rat(scale), as_rat(shift)
    acc = FractionPoly((1,))
    for i in range(n):
        acc = acc * FractionPoly((shift - i, scale))
    return acc / math.factorial(n)


def fraction_integer_form(p: FractionPoly) -> tuple[list[int], int]:
    m = math.lcm(1, *(c.denominator for c in p.coeffs))
    return [c.numerator * (m // c.denominator) for c in p.coeffs], m


ORACLE_CASES = 250  # per test below: 9 tests, 2,250 cases


def rand_rat(rng: random.Random) -> Fraction:
    den = rng.choice((1, 1, 2, 3, 4, 6, 7, 12, 16, 45, 97, 10**6 + 3))
    return Fraction(rng.randint(-(10**rng.randint(0, 7)), 10**rng.randint(0, 7)), den)


def rand_pair(rng: random.Random, max_deg: int = 7) -> tuple[Poly, FractionPoly]:
    cs = [rand_rat(rng) for _ in range(rng.randint(0, max_deg + 1))]
    if cs and rng.random() < 0.2:
        cs[-1] = 0  # a trailing zero to strip
    return Poly(cs), FractionPoly(cs)


def assert_same(p: Poly, ref: FractionPoly) -> None:
    """p has ref's coefficients and is stored in canonical form."""
    nums, den = integer_form(p)
    assert p.coeffs == ref.coeffs
    assert den > 0 and math.gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0
    assert (list(nums), den) == fraction_integer_form(ref)


class TestAgainstFractionOracle:
    def test_construction_add_sub_neg(self):
        rng = random.Random(901)
        for _ in range(ORACLE_CASES):
            (p, fp), (q, fq) = rand_pair(rng), rand_pair(rng)
            assert_same(p, fp)
            assert_same(p + q, fp + fq)
            assert_same(p - q, fp - fq)
            assert_same(-p, -fp)
            c = rand_rat(rng)
            assert_same(p + c, fp + FractionPoly((c,)))
            assert_same(c - p, FractionPoly((c,)) - fp)

    def test_mul_by_poly_and_scalar(self):
        rng = random.Random(902)
        for i in range(ORACLE_CASES):
            (p, fp), (q, fq) = rand_pair(rng), rand_pair(rng)
            c = 0 if i % 10 == 0 else rand_rat(rng)
            assert_same(p * q, fp * fq)
            assert_same(p * c, fp * c)
            assert_same(c * p, fp * c)
            assert_same(p * int(c), fp * int(c))

    def test_truediv_by_scalar(self):
        rng = random.Random(903)
        for _ in range(ORACLE_CASES):
            p, fp = rand_pair(rng)
            c = rand_rat(rng) or Fraction(-3, 7)
            assert_same(p / c, fp / c)
            assert_same(p / c.numerator, fp / c.numerator)

    def test_pow(self):
        rng = random.Random(904)
        for _ in range(ORACLE_CASES):
            p, fp = rand_pair(rng, max_deg=4)
            n = rng.randint(0, 5)
            assert_same(p**n, fp**n)

    def test_divmod(self):
        rng = random.Random(905)
        for _ in range(ORACLE_CASES):
            (p, fp), (q, fq) = rand_pair(rng, max_deg=9), rand_pair(rng, max_deg=5)
            if q.is_zero():
                continue
            quo, rem = divmod(p, q)
            fquo, frem = divmod(fp, fq)
            assert_same(quo, fquo)
            assert_same(rem, frem)

    def test_evaluation_at_rationals(self):
        rng = random.Random(907)
        for _ in range(ORACLE_CASES):
            p, fp = rand_pair(rng)
            x = rand_rat(rng)
            assert p(x) == fp(x)
            assert p(x.numerator) == fp(x.numerator)
            nums, den = integer_form(p)
            b, d = x.denominator, max(p.degree, 0)
            assert Fraction(int_horner(nums, x.numerator, b), den * b**d) == fp(x)

    def test_compose_affine_both_branches(self):
        rng = random.Random(908)
        for i in range(ORACLE_CASES):
            p, fp = rand_pair(rng)
            a = rand_rat(rng) if i % 7 else 0
            b = 0 if i % 2 else rand_rat(rng) or 1
            assert_same(poly_compose_affine(p, a, b), fraction_compose_affine(fp, a, b))

    def test_binomial_poly(self):
        rng = random.Random(909)
        for i in range(ORACLE_CASES):
            n = rng.randint(1, 12)
            s = rand_rat(rng) if i % 9 else 0
            t = rand_rat(rng)
            assert_same(binomial_poly(n, s, t), fraction_binomial(n, s, t))


class TestCanonicalForm:
    def test_one_denominator_for_equal_polynomials(self):
        half = Poly([Fraction(1, 2), 1])
        assert half == Poly([1, 2]) / 2
        assert hash(half) == hash(Poly([1, 2]) / 2)
        assert integer_form(half) == ((1, 2), 2)

    def test_zero_has_unit_denominator(self):
        for zero in (ZERO, Poly((0, 0)), Poly((Fraction(1, 3),)) - Fraction(1, 3), X * 0):
            assert integer_form(zero) == ((), 1)
            assert zero == ZERO and hash(zero) == hash(ZERO)

    def test_constant_hashes_as_its_value(self):
        for value in (3, -7, Fraction(-3, 7), Fraction(4, 2)):
            const = Poly((value,))
            assert const == value and hash(const) == hash(value)
        assert ZERO == 0 and hash(ZERO) == hash(0)
        assert {3: "x"}[Poly((3,))] == "x"
        assert {Fraction(1, 2): "half"}[Poly((Fraction(1, 2),))] == "half"
        assert len({Poly((3,)), 3}) == 1 and len({ZERO, 0}) == 1

    def test_division_by_zero_raises(self):
        p = Poly((1, Fraction(2, 3)))
        for zero in (0, Fraction(0), "0"):
            with pytest.raises(ZeroDivisionError):
                p / zero
        with pytest.raises(ZeroDivisionError):
            divmod(p, ZERO)


# -- the integer kernels against the loops they replaced --


def former_int_horner(coeffs, a, b=1):
    """int_horner's former loop: one running power of b for every b."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * scale
        scale *= b
    return acc


def former_compose_affine(p: Poly, a, b) -> Poly:
    """poly_compose_affine's former loop: Horner's rule in b1 a2 + a1 b2 T, for every b."""
    a, b = as_rat(a), as_rat(b)
    nums, den = integer_form(p)
    u, v, w = b.numerator * a.denominator, a.numerator * b.denominator, a.denominator * b.denominator
    acc, scale = [], 1
    for c in reversed(nums):
        acc = [x * u + y * v for x, y in zip(acc + [0], [0] + acc)]
        acc[0] += c * scale
        scale *= w
    return Poly(Fraction(c, den * w ** max(p.degree, 0)) for c in acc)


def former_pseudo_divmod(a, b):
    """pseudo_divmod's former loop: one division step per quotient term, for every degree."""
    lead = b[-1]
    r = list(a)
    q = []
    for k in range(len(r) - len(b), -1, -1):
        top = r.pop()
        q.append(top * lead**k)
        r = [lead * c for c in r]
        for j, c in enumerate(b[:-1], k):
            r[j] -= top * c
    while r and not r[-1]:
        r.pop()
    return q[::-1], r


def rand_ints(rng: random.Random, length: int, bits: int = 40) -> list[int]:
    return [rng.randint(-(1 << bits), 1 << bits) for _ in range(length)]


class TestKernelsAgainstFormerLoops:
    def test_evaluation(self):
        # b = 1, b = 2^m up to m = 80 and other b; negative a; empty and all-zero lists.
        rng = random.Random(3501)
        lists = [[], [0], [0, 0, 0], [5], [-3, 0, 0, 0]] + [rand_ints(rng, rng.randint(1, 40)) for _ in range(200)]
        for coeffs in lists:
            a = rng.randint(-(1 << 70), 1 << 70)
            bs = [1, 2, 3, 6, -1, -2, 0, rng.randint(2, 10**9)] + [1 << m for m in (1, 2, 7, 34, 63, 64, 80)]
            for x in (a, -abs(a) or -1, 0, 1, -1):
                for b in bs:
                    assert int_horner(coeffs, x, b) == former_int_horner(coeffs, x, b), (coeffs, x, b)

    def test_evaluation_on_every_power_of_two_exponent(self):
        # Each m from 0 to 80, so that c << m*j cannot be off by a step.
        rng = random.Random(3502)
        for m in range(81):
            coeffs = rand_ints(rng, rng.randint(2, 12))
            a = rng.randint(-(1 << 90), 1 << 90)
            assert int_horner(coeffs, a, 1 << m) == former_int_horner(coeffs, a, 1 << m), m

    def test_shift(self):
        # a and b rational of both signs, b = 0 and a = 1 among them, degrees 0 to 60.
        rng = random.Random(3503)
        values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(7, 3)]
        for d in range(61):
            p = Poly(Fraction(rng.randint(-(10**9), 10**9), rng.choice((1, 2, 3, 48, 97))) for _ in range(d + 1))
            for _ in range(4):
                a = rng.choice(values + [rand_rat(rng) or Fraction(5, 4)])
                b = rng.choice(values + [rand_rat(rng)])
                got = poly_compose_affine(p, a, b)
                assert integer_form(got) == integer_form(former_compose_affine(p, a, b)), (d, a, b)
        assert poly_compose_affine(ZERO, 3, -2) == ZERO == former_compose_affine(ZERO, 3, -2)

    def test_shift_of_the_family_polynomials(self):
        # The profile's own shift, P_RR(V - n_x), on both families.
        for kind in ("split", "product"):
            for n in range(1, 61):
                p = hkprofile.known_family_prr(kind, n)
                n_x = hkprofile.profile_from_prr(n, p).n_x
                assert poly_compose_affine(p, 1, -n_x) == former_compose_affine(p, 1, -n_x), (kind, n)

    def test_division_one_degree_apart(self):
        # deg a = deg b + 1, the normal step of a Sturm chain, with leading coefficients of both signs.
        rng = random.Random(3504)
        for i in range(800):
            b = rand_ints(rng, rng.randint(0, 30), bits=rng.choice((3, 60))) + [rng.choice((-1, 1)) * rng.randint(1, 99)]
            a = rand_ints(rng, len(b), bits=rng.choice((3, 60))) + [rng.choice((-1, 1)) * rng.randint(1, 99)]
            if i % 5 == 0:
                a[-2] = 0  # a_(m-1) = 0
            assert pseudo_divmod(a, b) == former_pseudo_divmod(a, b), (a, b)

    def test_division_at_other_degrees(self):
        rng = random.Random(3505)
        for _ in range(400):
            b = rand_ints(rng, rng.randint(0, 8), bits=8) + [rng.choice((-7, -1, 1, 4))]
            a = rand_ints(rng, rng.randint(0, 14), bits=8)
            assert pseudo_divmod(a, b) == former_pseudo_divmod(a, b), (a, b)

    @staticmethod
    def sturm_pairs():
        """(label, integer coefficients) of each polynomial whose Sturm chains are compared."""
        for kind in ("split", "product"):
            for n in range(1, 81):
                prof = hkprofile.profile_from_prr(n, hkprofile.known_family_prr(kind, n))
                yield f"{kind} R {n}", list(prof.centred[0])
                if n <= 40:
                    yield f"{kind} P_RR {n}", list(integer_form(prof.p_rr)[0])
        rng = random.Random(3506)
        for i in range(60):  # products with repeated roots, real and complex
            p = Poly((rng.choice((-3, -1, 2, 5)),))
            for _ in range(rng.randint(1, 4)):
                root = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                p = p * Poly((-root, 1)) ** rng.randint(1, 4)
            if i % 2:
                p = p * Poly((rng.randint(1, 9), rng.randint(-4, 4), 1)) ** rng.randint(1, 3)
            yield f"product {i}", list(integer_form(p)[0])

    def test_sturm_chains(self, monkeypatch):
        from hkrr import qkbasis

        for label, ints in self.sturm_pairs():
            if len(ints) < 2:
                continue
            ints = qkbasis._primitive(ints)
            got = qkbasis._sturm_chain(ints)
            with monkeypatch.context() as patch:
                patch.setattr(qkbasis, "pseudo_divmod", former_pseudo_divmod)
                want = qkbasis._sturm_chain(ints)
            assert got == want, label
