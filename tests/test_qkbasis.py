import hashlib
import itertools
import json
import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrr import qkbasis
from hkrr.cli import run
from hkrr.exactpoly import ONE, Poly, X, ZERO, integer_form, poly_compose_affine, pseudo_divmod, rat_str
from hkrr.qkbasis import (
    NotInSpan,
    _primitive,
    _sign,
    _sturm_chain,
    _sturm_step,
    all_roots_real,
    decompose_qk,
    decompose_shifted,
    qk_laurent_check,
    qk_poly,
    qk_roots,
)


class TestQkPoly:
    def test_small_values(self):
        assert qk_poly(0) == ONE
        assert qk_poly(1) == Poly((2, 1))
        assert qk_poly(2) == Poly((3, 4, 1))
        assert qk_poly(3) == Poly((4, 10, 6, 1))

    @pytest.mark.parametrize("k", range(0, 51))
    def test_monic_with_positive_integer_coefficients(self, k):
        q = qk_poly(k)
        assert q.degree == k and q.leading() == 1
        assert all(c.denominator == 1 and c > 0 for c in q.coeffs)
        assert q.coeff(0) == k + 1
        if k >= 1:
            assert q.coeff(k - 1) == 2 * k

    @pytest.mark.parametrize("k", range(0, 51))
    def test_reflection_symmetry(self, k):
        q = qk_poly(k)
        sign = -1 if k % 2 else 1
        assert poly_compose_affine(q, -1, -4) == q * sign


class TestLaurentIdentity:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 10, 25, 50])
    def test_identity_holds(self, k):
        assert qk_laurent_check(k)

    def test_identity_is_discriminating(self):
        # The check distinguishes the genuine basis from a perturbation:
        # rebuild the left side with q_1 replaced by q_1 + 1 and observe
        # the right side no longer matches.
        square = (X - 1) ** 2
        perturbed = qk_poly(1) + 1
        lhs = ZERO
        for j, c in enumerate(perturbed.coeffs):
            lhs = lhs + c * X ** (1 - j) * square**j
        rhs = Poly((1, 0, 1))
        assert lhs != rhs


class TestQkRoots:
    def test_k0_has_no_roots(self):
        assert qk_roots(0) == []
        with pytest.raises(ValueError, match="k must be >= 0"):
            qk_roots(-1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            qk_laurent_check(-1)

    def test_k1(self):
        assert qk_roots(1) == pytest.approx([-2.0], abs=1e-9)

    def test_k2(self):
        assert qk_roots(2) == pytest.approx([-3.0, -1.0], abs=1e-9)

    def test_k3_closed_form(self):
        want = sorted(-4 * math.sin(j * math.pi / 8) ** 2 for j in (1, 2, 3))
        assert qk_roots(3) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_against_closed_form(self, k):
        got = qk_roots(k)
        want = sorted(-4 * math.sin(j * math.pi / (2 * (k + 1))) ** 2 for j in range(1, k + 1))
        assert got == pytest.approx(want, abs=1e-9)

    def test_factorization_k2(self):
        assert qk_poly(2) == Poly((1, 1)) * Poly((3, 1))


def _q3_certificate():
    """q_3's integer coefficients, separators and signs, as qk_roots builds them."""
    ps = [4, 10, 6, 1]  # roots -2 - sqrt(2), -2, -2 + sqrt(2)
    closed = [-4 * math.sin(j * math.pi / 8) ** 2 for j in range(4, -1, -1)]
    seps = qkbasis._separators(closed)
    assert seps == [Fraction(-15, 4), Fraction(-11, 4), Fraction(-5, 4), Fraction(-1, 4)]
    return ps, seps, [qkbasis._sign(qkbasis.int_horner(ps, t.numerator, t.denominator)) for t in seps]


def _cell_fractions(cell: tuple[int, int], grid: tuple[int, int, int]) -> tuple[Fraction, Fraction]:
    """The ends of a cell that _root_cell returns as numerators over the grid's den."""
    return Fraction(cell[0], grid[2]), Fraction(cell[1], grid[2])


def _qk_cauchy_bound(k: int) -> int:
    """B = 1 + the largest coefficient of q_k, without building q_k.

    c_j = binom(k+j+1, 2j+1) has c_{j+1}/c_j = (k+j+2)(k-j)/((2j+3)(2j+2)),
    which is >= 1 iff 5j^2 + 12j + 6 <= k^2 + 2k: the coefficients rise,
    then fall, and peak within two of j0 = (isqrt(5k^2 + 10k + 6) - 6) // 5.
    """
    j0 = (math.isqrt(5 * k * k + 10 * k + 6) - 6) // 5
    return 1 + max(math.comb(k + j + 1, 2 * j + 1) for j in range(max(j0 - 1, 0), min(j0 + 2, k) + 1))


CERTIFIED_SIZES = (*range(0, 61), 80, 100)

# sha256 of the stdout of `hkrr qk k --roots --laurent-check` for every k in
# CERTIFIED_SIZES, recorded when qk_roots still had a bisection walk of its
# own.  test_equals_real_roots_midpoints checks the grid against the Fraction
# walk below up to k = 40 only, where it costs under 2 s in all; the larger
# sizes rest on this digest and on QK_ROOTS_DIGESTS.
QK_REPORTS_DIGEST = "187fc96f658108e464aefc8f5520a62c74a96b3ea08b748ec5a919b441682b38"

# sha256 of repr(qk_roots(k)), recorded when qk_roots still ran the walk.
QK_ROOTS_DIGESTS = {
    120: "c174fdcd51d83cfb43f8c453c66d19880ce993f7ae34c839b04b3146969d1c37",
    150: "0a67da1ee22b3bb5dad509fb3fc96a17bf7f141bcc7e4dc66bf88c806ca2d498",
}


class TestQkRootCertificate:
    @pytest.mark.parametrize("k", range(0, 41))
    def test_equals_real_roots_midpoints(self, k):
        # The Fraction walk is the oracle; k = 60 alone costs it about 1 s.
        want = [float((lo + hi) / 2) for lo, hi in fraction_real_roots(qk_poly(k))]
        assert qk_roots(k) == want

    def test_reports_digest(self, capsys):
        digest = hashlib.sha256()
        for k in CERTIFIED_SIZES:
            assert run(["qk", str(k), "--roots", "--laurent-check"]) == 0
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == QK_REPORTS_DIGEST

    @pytest.mark.parametrize("k", sorted(QK_ROOTS_DIGESTS))
    def test_roots_digest_past_the_oracle(self, k):
        assert hashlib.sha256(repr(qk_roots(k)).encode()).hexdigest() == QK_ROOTS_DIGESTS[k]

    def test_every_cell_comes_from_the_closed_form(self, monkeypatch):
        # k + 1 separator signs and two cell ends per root: a fallback
        # bisection would cost about 30 more evaluations for its root.
        calls = []
        horner = qkbasis.int_horner
        monkeypatch.setattr(qkbasis, "int_horner", lambda *args: calls.append(args) or horner(*args))
        for k in CERTIFIED_SIZES:
            calls.clear()
            qk_roots(k)
            assert len(calls) <= 3 * k + 1, k

    def test_cauchy_bound_from_the_peak_coefficient(self):
        for k in range(0, 411):
            assert _qk_cauchy_bound(k) == 1 + max(integer_form(qk_poly(k))[0]), k

    def test_rational_roots_are_off_the_grid(self):
        # q_k's only rational roots are -1, -2 and -3, interior grid points
        # of (-B, B) only if B is 2^a or 3 2^a: then the Fraction walk would
        # split a node off its midpoint, and its cells would leave the grid.
        # README states it for 2 <= k < 3000.
        for k in range(2, 3000):
            bound = _qk_cauchy_bound(k)
            assert bound >> (bound & -bound).bit_length() - 1 not in (1, 3), k

    @pytest.mark.parametrize("cells", [-1, 0, 1])
    def test_guess_a_cell_off_falls_back_to_refine(self, monkeypatch, cells):
        # A guess one cell off fails its two end signs, and the grid indices
        # inside the bracket are bisected to the same cell.
        ps, seps, signs = _q3_certificate()
        grid = qkbasis._grid(-11, 11, Fraction(1, 10**10))  # qk_roots' grid for q_3
        want = fraction_real_roots(qk_poly(3))[2]
        _, step, den = grid
        assert want[1] - want[0] == Fraction(step, den)
        guess = math.sqrt(2) - 2 + cells * step / den
        calls = []
        horner = qkbasis.int_horner
        monkeypatch.setattr(qkbasis, "int_horner", lambda *args: calls.append(args) or horner(*args))
        assert _cell_fractions(qkbasis._root_cell(ps, grid, seps[2:], signs[2:], guess), grid) == want
        assert (len(calls) > 2) == (cells != 0)

    def test_root_on_the_grid_falls_back_to_refine(self):
        # -2 is a root of q_3 and the midpoint of (-3, -1), so a point of
        # that grid: the bisection meets it and returns (-2, -2).
        ps, seps, signs = _q3_certificate()
        grid = qkbasis._grid(-3, -1, Fraction(1, 10**10))
        for guess in (-2.0, -2.5, -1.3):
            cell = qkbasis._root_cell(ps, grid, seps[1:3], signs[1:3], guess)
            assert _cell_fractions(cell, grid) == (Fraction(-2), Fraction(-2))

    @pytest.mark.parametrize("guess", [-4.0, -1.0, -0.25, 0.0])
    def test_guess_outside_its_cell_is_bisected_inside_the_bracket(self, guess):
        # A cell below or above the bracket has both ends read as one
        # separator's sign, so it fails and the bracket is bisected.  Over
        # (-4, 4) the separators -5/4 and -1/4 are grid points, so the cell
        # holding -1/4 has both ends at or above the bracket.
        # The grid over (-1, 0) has the same step, 2^-34, and points.
        ps, seps, signs = _q3_certificate()
        tol = Fraction(1, 10**10)
        grid = qkbasis._grid(-4, 4, tol)
        want = _fraction_refine(Poly(ps), Fraction(-1), Fraction(0), tol)
        assert _cell_fractions(qkbasis._root_cell(ps, grid, seps[2:], signs[2:], guess), grid) == want

    def test_a_cell_across_a_separator_reads_the_separator(self, monkeypatch):
        # 2^40 T - 2^38 - 1 has its root 1/4 + 2^-40 in the grid cell
        # (1/4, 1/4 + 2^-34) over (-4, 4), across the separator 1/4 + 2^-41:
        # the cell's lower end takes that separator's sign, unevaluated.
        ps, tol = [-(2**38) - 1, 2**40], Fraction(1, 10**10)
        grid = qkbasis._grid(-4, 4, tol)
        calls = []
        horner = qkbasis.int_horner
        monkeypatch.setattr(qkbasis, "int_horner", lambda *args: calls.append(args) or horner(*args))
        cell = qkbasis._root_cell(ps, grid, [Fraction(1, 4) + Fraction(1, 2**41), Fraction(1)], [-1, 1], 0.25)
        cell = _cell_fractions(cell, grid)
        assert cell == (Fraction(1, 4), Fraction(1, 4) + Fraction(1, 2**34))
        assert len(calls) == 1
        assert cell == _fraction_refine(Poly(ps), Fraction(-4), Fraction(4), tol)

    @pytest.mark.parametrize(
        "lo, hi, tol, m",
        [
            (0, 1, Fraction(1), 0),  # width equal to tol
            (0, 1, Fraction(3, 2), 0),  # width below tol
            (0, 3, Fraction(3, 4), 2),  # width equal to tol after two halvings
            (0, 3, Fraction(74, 100), 3),
            (1, 8, Fraction(1, 5), 6),
            (-2, 19, Fraction(1, 7), 8),
            (-4, 4, Fraction(1, 10**10), 37),
            (-11, 11, Fraction(1, 10**10), 38),  # qk_roots' grid for q_3
            (-(2**70), 2**70, Fraction(1, 10**10), 105),
        ],
    )
    def test_grid_halvings(self, lo, hi, tol, m):
        # m is the least number of halvings that bring hi - lo to width <= tol.
        assert m == next(i for i in itertools.count() if Fraction(hi - lo, 2**i) <= tol)
        assert qkbasis._grid(lo, hi, tol) == (lo << m, hi - lo, 1 << m)


class TestDecomposeQk:
    def test_basis_vectors(self):
        assert decompose_qk(qk_poly(3) + qk_poly(1)) == [1, 1]

    def test_known_quadratic(self):
        p = Poly((3, Fraction(25, 8), Fraction(25, 32)))
        assert decompose_qk(p) == [Fraction(25, 32), Fraction(21, 32)]

    def test_outside_span_raises(self):
        with pytest.raises(NotInSpan, match="not in span"):
            decompose_qk(Poly((0, 1, 0, 1)))

    def test_round_trip_random_nonnegative(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 9)
            coeffs = [Fraction(rng.randint(0, 30), rng.randint(1, 8)) for _ in range(n // 2 + 1)]
            if coeffs[0] == 0:
                coeffs[0] = Fraction(1)
            p = ZERO
            for i, b in enumerate(coeffs):
                p = p + qk_poly(n - 2 * i) * b
            assert decompose_qk(p) == coeffs

    def test_full_symmetric_span(self):
        # Anything symmetric about -2 (built from powers of T+2) decomposes.
        rng = random.Random(12)
        shifted = Poly((2, 1))
        for _ in range(50):
            n = rng.randint(1, 8)
            p = shifted**n
            for j in range(1, n // 2 + 1):
                p = p + shifted ** (n - 2 * j) * Fraction(rng.randint(-30, 30), rng.randint(1, 6))
            coeffs = decompose_qk(p)
            rebuilt = ZERO
            for i, b in enumerate(coeffs):
                rebuilt = rebuilt + qk_poly(n - 2 * i) * b
            assert rebuilt == p


class TestDecomposeShifted:
    def test_trivial_example(self):
        p = Poly((5, 1)) ** 3 + Poly((5, 1)) * 7
        assert decompose_shifted(p, 5) == [1, 7]

    def test_split_family_matches_closed_form(self):
        from hkrr.hkprofile import known_family_prr

        p = known_family_prr("split", 3)
        got = decompose_shifted(p, 6)
        # Cross-check against b = 4/n_x - c_x n_x^2 / 720 at (c_x, n_x) = (15, 6).
        b = Fraction(4, 6) - Fraction(15, 720) * 36
        assert got == [Fraction(1, 48), b]
        assert b == Fraction(-1, 12)

    def test_wrong_shift_raises(self):
        with pytest.raises(NotInSpan):
            decompose_shifted(X**3, 1)

    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 8)
            s = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            shifted = Poly((s, 1))
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(n // 2 + 1)]
            coeffs[0] = Fraction(rng.randint(1, 9))
            p = ZERO
            for j, c in enumerate(coeffs):
                p = p + shifted ** (n - 2 * j) * c
            assert decompose_shifted(p, s) == coeffs


def eliminate(p: Poly, basis) -> list[Fraction]:
    """Descending-degree elimination, the oracle for both decompositions.

    Coefficient n - 2i is the degree-(n-2i) coefficient of the running
    residual over the leading one of basis(n - 2i); a nonzero final residual
    means p is outside the span.
    """
    n = p.degree
    if n < 0:
        raise ValueError("polynomial must be nonzero")
    out, residual = [], p
    for d in range(n, -1, -2):
        b = basis(d)
        c = residual.coeff(d) / b.leading()
        out.append(c)
        residual = residual - b * c
    if not residual.is_zero():
        raise NotInSpan("not in span")
    return out


def _outcome(f, *args):
    try:
        return f(*args)
    except NotInSpan as exc:
        return str(exc)


RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=6)


class TestDecompositionsAgainstElimination:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 12),
        qk=st.booleans(),
        shift=st.one_of(st.just(Fraction(0)), RATIONALS),
        as_text=st.booleans(),
        kind=st.sampled_from(["span", "perturbed", "random"]),
        data=st.data(),
    )
    def test_equal_to_elimination(self, n, qk, shift, as_text, kind, data):
        # In the span, one term of the other parity added (never in the span)
        # or any polynomial of degree n; a rational, negative or zero shift,
        # also passed as a "p/q" string.
        basis = qk_poly if qk else (lambda d: Poly((shift, 1)) ** d)
        if kind == "random":
            p = Poly(data.draw(st.lists(RATIONALS, min_size=n, max_size=n)) + [data.draw(RATIONALS.filter(bool))])
        else:
            bs = [data.draw(RATIONALS.filter(bool))] + data.draw(st.lists(RATIONALS, min_size=n // 2, max_size=n // 2))
            p = sum((basis(n - 2 * i) * b for i, b in enumerate(bs)), Poly())
            if kind == "perturbed" and n:
                d = n - 1 - 2 * data.draw(st.integers(0, (n - 1) // 2))
                p = p + X**d * data.draw(RATIONALS.filter(bool))
        if qk:
            got = _outcome(decompose_qk, p)
        else:
            got = _outcome(decompose_shifted, p, rat_str(shift) if as_text else shift)
        assert got == _outcome(eliminate, p, basis)
        if kind == "span":
            assert isinstance(got, list) and all(type(c) is Fraction for c in got)
        elif kind == "perturbed" and n:
            assert got == "not in span"

    def test_zero_polynomial_is_not_a_span_question(self):
        for decompose in (decompose_qk, lambda p: decompose_shifted(p, "-1/2")):
            with pytest.raises(ValueError, match="^polynomial must be nonzero$") as info:
                decompose(ZERO)
            assert type(info.value) is ValueError

    def test_float_shift_refused(self):
        with pytest.raises(TypeError):
            decompose_shifted(ZERO, 0.5)


# sha256 of the exit code, stdout and stderr of `hkrr decompose` on 80
# seeded files, in and out of either span, recorded with the elimination.
DECOMPOSE_REPORTS_DIGEST = "bdc3feaca7cd10c6b196c14c838d614d9577883e5ed36dfee18290e0db70506f"


def test_decompose_reports_digest(tmp_path, capsys):
    rng = random.Random(2601)
    digest = hashlib.sha256()
    path = tmp_path / "poly.json"
    for i in range(80):
        n = rng.randint(0, 16)
        shift = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        basis = qk_poly if i % 2 == 0 else (lambda d: Poly((shift, 1)) ** d)
        bs = [Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 9)) for _ in range(n // 2 + 1)]
        p = sum((basis(n - 2 * j) * b for j, b in enumerate(bs)), ZERO)
        if i % 4 >= 2 and n:
            p = p + X ** (n - 1 - 2 * rng.randint(0, (n - 1) // 2)) * rng.choice((-1, Fraction(1, 3)))
        path.write_text(json.dumps(p.to_json()))
        argv = ["decompose", "--poly", str(path), "--basis", "qk" if i % 2 == 0 else "shifted"]
        if i % 2:
            argv.append(f"--shift={rat_str(shift)}")
        code = run(argv)
        out, err = capsys.readouterr()
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == DECOMPOSE_REPORTS_DIGEST


class TestRootMachinery:
    def test_count_handles_multiplicity(self):
        assert all_roots_real((X - 1) ** 2 * (X + 2))
        assert not all_roots_real((X**2 + 1) ** 2 * (X - 1))
        assert not all_roots_real(((X - 2) ** 2 + 1) ** 3)
        assert all_roots_real((X - 1) ** 2 * (X + 2) ** 3)
        assert all_roots_real(X**3)
        assert all_roots_real((X + 1) ** 4 * -3)

    def test_complex_roots_flagged(self):
        assert not all_roots_real(Poly((1, 0, 1)))
        assert not all_roots_real((X - 3) * Poly((1, 1, 1)))

# -- the former Fraction isolation: the oracle for the Sturm chains and qk_roots --


def _derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def _fraction_squarefree_part(p: Poly) -> Poly:
    g = _fraction_gcd(p, _derivative(p))
    if g.degree < 1:
        return p
    q, r = divmod(p, g)
    assert r.is_zero()
    return q


def _fraction_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    if a.is_zero():
        return a
    return a / a.leading()


def fraction_sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, _derivative(p)]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = divmod(chain[-2], chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero()]


def _fraction_sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _fraction_root_bound(p: Poly) -> Fraction:
    return 1 + max(abs(c) for c in p.coeffs) / abs(p.leading())


def fraction_all_roots_real(p: Poly) -> bool:
    ps = _fraction_squarefree_part(p)
    if ps.degree < 1:
        return ps.degree == 0
    bound = _fraction_root_bound(ps)
    chain = fraction_sturm_chain(ps)
    return _fraction_sign_variations(chain, -bound) - _fraction_sign_variations(chain, bound) == ps.degree


def _fraction_split_point(p: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    k = 2
    while True:
        for i in range(1, k):
            m = lo + (hi - lo) * Fraction(i, k)
            if p(m) != 0:
                return m
        k = k * 2 + 1


def fraction_real_roots(p: Poly, tol: Fraction = Fraction(1, 10**10)) -> list[tuple[Fraction, Fraction]]:
    """The isolation as it was over Fraction: Sturm chain of monic gcds, rational bisection."""
    if p.degree < 1:
        return []
    ps = _fraction_squarefree_part(p)
    chain = fraction_sturm_chain(ps)
    bound = _fraction_root_bound(ps)
    found = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        count = _fraction_sign_variations(chain, lo) - _fraction_sign_variations(chain, hi)
        if count == 0:
            continue
        if count == 1:
            found.append(_fraction_refine(ps, lo, hi, tol))
            continue
        mid = _fraction_split_point(ps, lo, hi)
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(found)


def _fraction_refine(p: Poly, lo: Fraction, hi: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    flo, fhi = p(lo), p(hi)
    assert flo != 0
    if fhi == 0:
        return (hi, hi)
    assert (flo > 0) != (fhi > 0)
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


def random_root_poly(rng: random.Random) -> Poly:
    """A signed rational constant times a sparse trinomial or random factors.

    A trinomial T^m + a T^j + c has a Sturm chain that skips degrees, so
    some steps divide with delta = deg a - deg b = 2.  Factors: (X - r)^m
    for rational r, often dyadic or 0 (roots that the bisection meets at a
    midpoint), X^2 - c without rational roots, a complex pair
    (X - a)^2 + b^2, and a dense monic cubic with rational coefficients.
    """
    p = Poly((Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)),))
    if rng.randrange(6) == 0:
        m = rng.randint(3, 8)
        a, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
        return p * (X**m + a * X ** rng.randint(1, m - 2) + c)
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(5)
        if kind == 0:
            r = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 4, 8, 3, 5)))
            p = p * (X - r) ** rng.randint(1, 3)
        elif kind == 1:
            p = p * X ** rng.randint(1, 2)
        elif kind == 2:
            p = p * (X**2 - rng.choice((2, 3, 5, Fraction(7, 3))))
        elif kind == 3:
            a, b = Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(1, 5), rng.randint(1, 4))
            p = p * ((X - a) ** 2 + b**2)
        else:
            p = p * (Poly(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3)) + X**3)
    return p


def repeated_pair_poly(rng: random.Random, real: bool) -> Poly:
    """((X - a)^2 + b^2)^m, m = 2..3, times real factors and a power X^j.

    b = 0 when real, so that gcd(p, p') has only real roots; otherwise it
    holds the pair a +- ib.  Each real factor X - r has multiplicity 1..4.
    """
    a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    b = 0 if real else Fraction(rng.randint(1, 5), rng.randint(1, 3))
    p = ((X - a) ** 2 + b**2) ** rng.randint(2, 3) * X ** rng.randint(0, 2)
    for _ in range(rng.randint(1, 2)):
        p = p * (X - Fraction(rng.randint(-9, 9), rng.randint(1, 4))) ** rng.randint(1, 4)
    return p * Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))


@cache
def oracle_cases() -> tuple[Poly, ...]:
    """q_k for k = 1..40, both families' Q_RR for n = 1..40, 300 random
    polynomials, then 30 with repeated factors: in 24 of them gcd(p, p')
    has a pair of non-real roots, in every fifth it has real roots only."""
    from hkrr.hkprofile import known_family_prr, profile_from_prr

    cases = [qk_poly(k) for k in range(1, 41)]
    for kind in ("split", "product"):
        cases += [profile_from_prr(n, known_family_prr(kind, n)).q_rr for n in range(1, 41)]
    rng = random.Random(601)
    cases += [random_root_poly(rng) for _ in range(300)]
    rng = random.Random(701)
    cases += [repeated_pair_poly(rng, real=i % 5 == 4) for i in range(30)]
    return tuple(cases)


def _positive_multiple(ints: list[int], poly: Poly) -> bool:
    q = Poly(ints)
    ratio = q.leading() / poly.leading()
    return ratio > 0 and q == poly * ratio


def _sign_rule_dropped(a: list[int], b: list[int]) -> list[int]:
    r = pseudo_divmod(a, b)[1]
    return r and _primitive([-c for c in r])


def _parity_inverted(a: list[int], b: list[int]) -> list[int]:
    r = pseudo_divmod(a, b)[1]
    negative = b[-1] < 0 and (len(a) - len(b)) % 2 == 1
    return r and _primitive(r if negative else [-c for c in r])


def _chain_matches(p: Poly) -> bool:
    """Each element of all_roots_real's Sturm chain of p is a primitive positive multiple of the Fraction one's.

    Both chains stop at gcd(p, p'), so p need not be squarefree.
    """
    chain = _sturm_chain(_primitive(integer_form(p)[0]))
    want = fraction_sturm_chain(p)
    return (
        len(chain) == len(want)
        and all(math.gcd(*got) == 1 and _positive_multiple(got, ref) for got, ref in zip(chain, want))
    )


class TestIntegerIsolationAgainstFractionOracle:
    @pytest.mark.parametrize(
        "mutant", [None, _sign_rule_dropped, _parity_inverted], ids=["exact", "sign_rule_dropped", "parity_inverted"]
    )
    def test_chain_is_primitive_positive_multiple_of_fraction_chain(self, monkeypatch, mutant):
        # A wrong sign rule in _sturm_step must show in the chains themselves
        # (in 7 and in 224 of the cases for these two mutants): all_roots_real
        # reads them only at -inf and +inf.
        if mutant:
            monkeypatch.setattr(qkbasis, "_sturm_step", mutant)
        wrong = [p for p in oracle_cases() if not _chain_matches(p)]
        assert bool(wrong) == bool(mutant), wrong[:3]

    def test_verdicts_equal(self):
        verdicts = [all_roots_real(p) for p in oracle_cases()]
        assert verdicts == [fraction_all_roots_real(p) for p in oracle_cases()]
        assert set(verdicts) == {True, False}

    def test_cases_include_gcds_with_nonreal_roots(self):
        # The one chain's count rests on gcd(p, p') changing no sign count,
        # also when the gcd has non-real roots.
        repeated = oracle_cases()[-30:]
        gcds = [_fraction_gcd(p, _derivative(p)) for p in repeated]
        assert sum(not fraction_all_roots_real(g) for g in gcds) == 24
        assert {fraction_all_roots_real(p) for p in repeated} == {True, False}

    def test_constants(self):
        for p in (ZERO, ONE, Poly((Fraction(-3, 7),))):
            assert all_roots_real(p) == fraction_all_roots_real(p) == (not p.is_zero())


class _Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in hkrr can catch it."""


def _on_alarm(signum, frame):
    raise _Deadline


@contextmanager
def _hang_detector(what):
    """Fail the test if its body runs past 20 s."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 20)
    try:
        yield
    except _Deadline:
        pytest.fail(f"{what} still running after 20 s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSturmChainGuard:
    def test_wrong_bracket_count_fails_instead_of_hanging(self, monkeypatch):
        # With every cell sign spoiled at random (the k + 1 separator signs
        # are left alone), qk_roots must still end, in a result or in
        # AssertionError: its cell search only ever narrows a finite range
        # of grid indices.
        with _hang_detector("qk_roots with spoiled cell signs"):
            for k in [*range(2, 61), 80, 100, 150]:
                rng, exact = random.Random(k), iter(range(k + 1))

                def spoiled(v):
                    return _sign(v) if next(exact, None) is not None else rng.choice((-1, 0, 1))

                monkeypatch.setattr(qkbasis, "_sign", spoiled)
                try:
                    qk_roots(k)
                except AssertionError:
                    pass


class TestPseudoRemainderSign:
    def test_odd_power_of_negative_leading_coefficient(self):
        # delta + 1 = 1: prem = -(a mod b), so the step must not negate it.
        a, b = [5, 3, 1], [0, 1, -1]
        assert pseudo_divmod(a, b)[1] == [-5, -4]
        assert _sturm_step(a, b) == [-5, -4]
        assert _positive_multiple(_sturm_step(a, b), -divmod(Poly(a), Poly(b))[1])
        # delta + 1 = 3: prem = (-2)^3 (T^3 + 2)(1/2) = -17.
        assert pseudo_divmod([2, 0, 0, 1], [1, -2])[1] == [-17]
        assert _sturm_step([2, 0, 0, 1], [1, -2]) == [-1]

    def test_even_power_keeps_the_sign(self):
        # delta + 1 = 2: prem = (+1)(a mod b), negated as usual.
        assert pseudo_divmod([1, 0, 1], [0, -1])[1] == [1]
        assert _sturm_step([1, 0, 1], [0, -1]) == [-1]
