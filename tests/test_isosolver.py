import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from hkrr import isosolver
from hkrr.cli import render_json
from hkrr.exactpoly import Poly, ResidueSet, X, integrality_residues
from hkrr.hkprofile import cubic_prr, denominator_check, even_values_check, known_family_prr
from hkrr.isosolver import (
    UnsupportedCase,
    _analyze_candidate,
    _nth_root_upper,
    divisibility_residues,
    fujiki_from_pairing,
    gcd_constraint,
    mx_upper_bounds,
    pairing_candidates,
    pairing_congruence,
    solve_case,
    square_closure,
)


class TestPairingCandidates:
    def test_a1(self):
        assert pairing_candidates(3, 1, even_form=True) == [1, 2]
        assert pairing_candidates(3, 1, even_form=False) == [1]

    def test_a2(self):
        assert pairing_candidates(3, 2, even_form=True) == [1, 2]
        assert pairing_candidates(3, 2, even_form=False) == [1]


class TestFujiki:
    def test_published_values(self):
        assert fujiki_from_pairing(3, 1, 1) == 15
        assert fujiki_from_pairing(3, 2, 1) == 30
        assert fujiki_from_pairing(3, 1, 2) == Fraction(15, 8)
        assert fujiki_from_pairing(3, 2, 2) == Fraction(15, 4)


class TestMxBounds:
    def test_a1_qlm1(self):
        b = mx_upper_bounds(3, 1, 1)
        # True bound 2 * 6^(1/3) = 3.6342...; over-approximation within 1/100.
        assert Fraction(363, 100) < b.pairing_bound < Fraction(366, 100)
        assert b.pairing_bound**3 >= 8 * 6  # genuinely an upper bound
        assert 7 <= 2 * b.pairing_bound < 8  # n_x sweep stops at 7

    def test_a2_qlm1(self):
        b = mx_upper_bounds(3, 2, 1)
        assert b.pairing_bound**3 >= 8 * 3
        assert 5 <= 2 * b.pairing_bound < 6  # n_x sweep stops at 5

    def test_a2_qlm2(self):
        b = mx_upper_bounds(3, 2, 2)
        assert 5 <= b.pairing_bound < 6  # m_x sweep stops at 5

    def test_gcd_bound(self):
        b = mx_upper_bounds(3, 1, 1)
        assert b.gcd_bound**3 >= 8 * 4320
        assert (b.gcd_bound - Fraction(1, 100)) ** 3 < 8 * 4320

    def test_meaningless_bound_rejected(self):
        with pytest.raises(ValueError):
            mx_upper_bounds(3, 7, 1)


class TestNthRootUpper:
    @staticmethod
    def cases():
        rng = random.Random(2502)
        for n in range(1, 7):
            for _ in range(150):
                x = Fraction(rng.randint(0, 10**9), rng.randint(1, 10**4))
                eps = Fraction(rng.randint(1, 10**3), rng.randint(1, 10**5))
                yield x, n, eps
            # x = 0, and exact n-th powers of a multiple of eps, where a bracket
            # that tests "<=" instead of "<" lands one step high.
            yield Fraction(0), n, Fraction(1, 100)
            for _ in range(30):
                eps = Fraction(rng.randint(1, 50), rng.randint(1, 500))
                yield (rng.randint(1, 10**4) * eps) ** n, n, eps

    def test_smallest_positive_multiple_at_or_above_the_root(self):
        for x, n, eps in self.cases():
            r = _nth_root_upper(x, n, eps)
            h = r / eps
            assert h.denominator == 1 and h >= 1, (x, n, eps)
            assert r**n >= x, (x, n, eps)
            assert h == 1 or (r - eps) ** n < x, (x, n, eps)

    @pytest.mark.parametrize(
        "x,n,eps,message",
        [
            (Fraction(-1), 3, Fraction(1, 100), "x must be >= 0"),
            (Fraction(6), 3, Fraction(0), "eps must be > 0"),
            (Fraction(6), 3, Fraction(-1, 100), "eps must be > 0"),
            (Fraction(0), 3, Fraction(-1, 100), "eps must be > 0"),
            (Fraction(6), 0, Fraction(1, 100), "n must be >= 1"),
            (Fraction(6), -2, Fraction(1, 100), "n must be >= 1"),
        ],
    )
    def test_bad_arguments_refused(self, x, n, eps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _nth_root_upper(x, n, eps)


@pytest.mark.parametrize("f", [pairing_congruence, mx_upper_bounds, fujiki_from_pairing])
@pytest.mark.parametrize("n, a", [(3, 0), (3, -2), (0, 1), (-1, 1)])
def test_sizes_below_one_refused(f, n, a):
    with pytest.raises(ValueError, match=r"^need n >= 1 and a >= 1$"):
        f(n, a, 1)


class TestPairingCongruence:
    def test_a1_qlm1(self):
        facts = pairing_congruence(3, 1, 1)
        assert facts.nx_integral
        assert facts.qm_plus_nx_congruence == (2, 0)  # q(m) + n_x even
        assert not facts.form_even_forced

    def test_a2_qlm1(self):
        facts = pairing_congruence(3, 2, 1)
        assert facts.nx_integral
        assert facts.qm_plus_nx_congruence.modulus == 1  # no parity coupling

    def test_a1_qlm2(self):
        facts = pairing_congruence(3, 1, 2)
        assert facts.form_even_forced and facts.mx_integral
        assert facts.qm_plus_nx_congruence == (4, 0)
        assert facts.half_congruence == (2, 0)  # q(m)/2 + m_x even

    def test_congruences_serialize_as_objects(self):
        blob = pairing_congruence(3, 1, 2).to_json()
        assert blob["qm_plus_nx_congruence"] == {"modulus": 4, "residue": 0}
        assert blob["half_congruence"] == {"modulus": 2, "residue": 0}
        assert pairing_congruence(3, 1, 1).to_json()["half_congruence"] is None

    def test_a2_qlm2(self):
        facts = pairing_congruence(3, 2, 2)
        assert facts.form_even_forced and facts.mx_integral
        assert facts.qm_plus_nx_congruence == (2, 0)

    def test_coset_step(self):
        assert pairing_congruence(3, 1, 1).nx_coset_step == 2
        assert pairing_congruence(3, 2, 1).nx_coset_step == 1
        assert pairing_congruence(3, 1, 2).nx_coset_step == 4


DIVISIBILITY_DIGEST = "906a354718d0d3442f51a807972355e0cc7b3111b6bb31964f21080623d43a9f"


class TestDivisibilityResidues:
    def test_c15_n1(self):
        rs = divisibility_residues(3, 15, 1)
        assert rs == ResidueSet(16, frozenset({0, 6, 8, 14, 15})).reduce()

    def test_c15_n2_even(self):
        rs = divisibility_residues(3, 15, 2)
        assert rs == ResidueSet(16, frozenset(range(0, 16, 2))).reduce()

    def test_c30_n4(self):
        rs = divisibility_residues(3, 30, 4)
        assert rs == ResidueSet(8, frozenset({0, 2, 4, 6})).reduce()

    def test_only_degree_three(self):
        with pytest.raises(UnsupportedCase):
            divisibility_residues(2, 15, 1)

    @pytest.mark.parametrize("c_x,n_x", [(15, n) for n in range(1, 8)] + [(30, n) for n in range(1, 6)])
    def test_brute_force_oracle(self, c_x, n_x):
        rs = divisibility_residues(3, c_x, n_x)
        p = cubic_prr(c_x, n_x)
        for q in range(-200, 201):
            assert (q % rs.modulus in rs.allowed) == (p(q).denominator == 1)

    def test_residue_digest(self):
        # sha256 of [modulus, sorted residues] for every Fujiki value the
        # n = 3 pipeline meets and n_x = 1..64, one set a line: pinned.
        digest = hashlib.sha256()
        for c_x in (Fraction(15), Fraction(30), Fraction(60), Fraction(15, 8), Fraction(15, 4)):
            for n_x in range(1, 65):
                rs = divisibility_residues(3, c_x, n_x)
                digest.update(json.dumps([rs.modulus, rs.sorted_residues()]).encode() + b"\n")
        assert digest.hexdigest() == DIVISIBILITY_DIGEST


class TestSquareClosure:
    def test_full_set_closed(self):
        rs = ResidueSet(16, frozenset(range(16)))
        assert square_closure(rs) == rs

    def test_removes_residue_15(self):
        rs = ResidueSet(16, frozenset({0, 6, 8, 14, 15}))
        assert set(square_closure(rs).allowed) == {0, 6, 8, 14}

    def test_residue_5_mod_8_survives(self):
        rs = ResidueSet(8, frozenset({0, 2, 4, 5, 6}))
        assert square_closure(rs) == rs

    def test_iterates_to_fixed_point(self):
        # 4 * 9 = 36 = 4 mod 32, 4 not allowed, so 9 goes; 0 and 16 stay
        # (orbits {0} and {16, 0}), and the result is its own closure.
        rs = ResidueSet(32, frozenset({0, 9, 16}))
        closed = square_closure(rs)
        assert set(closed.allowed) == {0, 16}
        assert square_closure(closed) == closed

    def test_matches_fixed_point_iteration(self):
        # The earlier construction: filter by square orbits until nothing changes.
        def iterated(rs):
            m = rs.modulus
            squares = {(k * k) % m for k in range(1, m + 1)}
            allowed = set(rs.allowed)
            while True:
                viable = {r for r in allowed if all((s * r) % m in allowed for s in squares)}
                if viable == allowed:
                    return ResidueSet(m, frozenset(viable))
                allowed = viable

        rng = random.Random(7)
        for _ in range(3000):
            m = rng.randint(1, 200)
            rs = ResidueSet(m, frozenset(r for r in range(m) if rng.random() < rng.random()))
            assert square_closure(rs) == iterated(rs), rs


class TestHyperbolicExclusion:
    def test_bilinear_congruence_has_no_solution_mod_4(self):
        # The lemma behind the rule, for any lone odd class: whatever the
        # pair products (x, y), some (t, u) breaks t*u + t*x + u*y = 0 mod 4.
        r4 = range(4)
        assert all(
            any((t * u + t * x + u * y) % 4 for t, u in product(r4, r4))
            for x, y in product(r4, r4)
        )

    @staticmethod
    def _lone_class_broken(residue, modulus):
        # q(v + t e + u f) = q(v) + 2 (t u + t x + u y) with x = b(v, e),
        # y = b(v, f): for every pairing (x, y) some shift (t, u) moves the
        # value out of the lone class residue mod modulus.
        rm = range(modulus)
        return all(
            any(
                (residue + 2 * (t * u + t * x + u * y)) % modulus != residue % modulus
                for t, u in product(rm, rm)
            )
            for x, y in product(rm, rm)
        )

    @pytest.mark.parametrize("residue,modulus", [(7, 8), (5, 8), (15, 16), (1, 8), (13, 16)])
    def test_every_odd_class_excluded(self, residue, modulus):
        assert self._lone_class_broken(residue, modulus)

    def test_monotone_under_refinement(self):
        # A lone class mod 16 is a lone class mod 8, so exclusion mod 8
        # carries over to both of its lifts mod 16.
        for r in (1, 3, 5, 7):
            if self._lone_class_broken(r, 8):
                assert self._lone_class_broken(r, 16)
                assert self._lone_class_broken(r + 8, 16)


class TestGcdConstraint:
    def test_all_divisible_by_four_contradicts_even_form(self):
        rs = ResidueSet(16, frozenset({0, 4, 8, 12}))
        assert gcd_constraint(rs, 2) == "contradiction"

    def test_even_residues_consistent(self):
        rs = ResidueSet(16, frozenset(range(0, 16, 2)))
        assert gcd_constraint(rs, 2) == "consistent"

    def test_trivial_modulus_consistent(self):
        assert gcd_constraint(ResidueSet(1, frozenset({0})), 1) == "consistent"

    def test_bad_required_gcd(self):
        with pytest.raises(ValueError):
            gcd_constraint(ResidueSet(4, frozenset({0})), 3)

    def test_halved_fold_identity(self):
        # The halved branch's gcd rule reads the half-value set with gcd 1 in
        # place of the doubled value set with gcd 2; that needs this identity
        # for every modulus that is a multiple of 16.
        rng = random.Random(1305)
        for i in range(600):
            work = 16 * rng.randint(1, 12)
            pool = range(0, work, 2) if i % 2 else range(work)
            closed = ResidueSet(work, frozenset(r for r in pool if rng.random() < rng.choice((0.0, 0.1, 0.5))))
            doubled = ResidueSet(2 * work, frozenset(2 * r for r in closed.allowed))
            assert gcd_constraint(doubled, 2) == gcd_constraint(closed, 1), closed


def surviving_prr(case):
    """n_x -> P_RR over every candidate that survived its branch."""
    return {c.n_x: c.p_rr for b in case.branches for c in b.candidates if c.status == "survives"}


@pytest.fixture(scope="module")
def case_a1():
    return solve_case(3, 1)


@pytest.fixture(scope="module")
def case_a2():
    return solve_case(3, 2)


class TestSolveCaseA1:
    @pytest.fixture
    def case(self, case_a1):
        return case_a1

    def test_branches_cover_both_pairings(self, case):
        assert [b.q_lm for b in case.branches] == [1, 2]

    def test_main_branch_statement(self, case):
        branch = case.branches[0]
        assert branch.c_x == 15
        assert branch.survivors == [2, 6]
        assert branch.parity_verdict == "even"
        assert branch.sweep_max == 7

    def test_surviving_polynomials(self, case):
        prrs = surviving_prr(case)
        for n_x in (2, 6):
            expected = Poly((4, Fraction(13, 6), Fraction(n_x, 16), Fraction(1, 48)))
            assert prrs[n_x] == expected == cubic_prr(15, n_x)
            # Equivalent closed form: split family minus (6 - n_x)/16 T^2.
            assert prrs[n_x] == known_family_prr("split", 3) - X**2 * Fraction(6 - n_x, 16)

    def test_rejected_pairing_two_branch(self, case):
        branch = case.branches[1]
        assert branch.q_lm == 2 and branch.c_x == Fraction(15, 8)
        assert branch.status == "rejected" and branch.parity_verdict == "contradiction"
        assert branch.form_even_forced

    def test_mod4_gcd_contradiction_in_trace(self, case):
        branch = case.branches[1]
        details = [
            step.detail
            for cand in branch.candidates
            for step in cand.trace
            if step.rule == "gcd"
        ]
        assert any("0 mod 4" in d for d in details)

    def test_rejection_rules_cover_paper_mechanisms(self, case):
        branch = case.branches[0]
        by_nx = {c.n_x: c for c in branch.candidates}
        assert by_nx[1].rejected_by == "parity"
        assert {by_nx[n].rejected_by for n in (4, 5, 7)} == {"gcd"}
        assert any(step.rule == "square closure" for step in by_nx[1].trace)

    def test_not_even_assumption_restricts_pairing(self):
        case = solve_case(3, 1, even_form=False)
        assert [b.q_lm for b in case.branches] == [1]
        assert case.survivors == []  # an odd form is impossible here


class TestSolveCaseA2:
    @pytest.fixture
    def case(self, case_a2):
        return case_a2

    def test_main_branch_statement(self, case):
        branch = case.branches[0]
        assert branch.c_x == 30
        assert branch.survivors == [1, 2, 3, 4]
        assert branch.parity_verdict == "even"
        assert branch.sweep_max == 5

    def test_surviving_polynomials(self, case):
        prrs = surviving_prr(case)
        for n_x in (1, 2, 3, 4):
            expected = Poly(
                (
                    4,
                    Fraction(4, n_x) + Fraction(n_x**2, 12),
                    Fraction(n_x, 8),
                    Fraction(1, 24),
                )
            )
            assert prrs[n_x] == expected == cubic_prr(30, n_x)

    def test_nx5_rejected_by_gcd_rule(self, case):
        branch = case.branches[0]
        cand5 = next(c for c in branch.candidates if c.n_x == 5)
        assert cand5.status == "rejected" and cand5.rejected_by == "gcd"
        assert any("divisible by 5" in step.detail for step in cand5.trace)

    def test_odd_classes_removed_by_hyperbolic_exclusion(self, case):
        branch = case.branches[0]
        by_nx = {c.n_x: c for c in branch.candidates}
        for n_x, odd_class in ((1, 7), (3, 5)):
            steps = [s for s in by_nx[n_x].trace if s.rule == "hyperbolic exclusion"]
            assert steps and f"{odd_class} mod 8" in steps[0].detail

    def test_rejected_pairing_two_branch(self, case):
        branch = case.branches[1]
        assert branch.q_lm == 2 and branch.c_x == Fraction(15, 4)
        assert branch.status == "rejected"
        details = [
            s.detail for c in branch.candidates for s in c.trace if s.rule == "gcd"
        ]
        assert any("0 mod 4" in d for d in details)


class TestCrossModuleConsistency:
    @pytest.mark.parametrize("a", [1, 2])
    def test_survivors_pass_section3_checks(self, a):
        case = solve_case(3, a)
        for n_x, p_rr in surviving_prr(case).items():
            assert denominator_check(3, p_rr, even_form=True).ok
            assert even_values_check(3, p_rr).ok

    def test_survivor_invariant(self):
        for a in (1, 2):
            case = solve_case(3, a)
            for branch in case.branches:
                assert branch.c_x * branch.q_lm**3 == a * 15

    def test_halved_branch_residues_match_direct_integrality(self):
        # The halved sieve must agree with brute-force integrality of
        # P(2q) for the substituted polynomial.
        from hkrr.exactpoly import poly_compose_affine

        for a in (1, 2):
            case = solve_case(3, a)
            branch = case.branches[1]
            for cand in branch.candidates:
                p_half = poly_compose_affine(cand.p_rr, 2, 0)
                rs = integrality_residues(p_half)
                for q in range(-100, 101):
                    assert (q % rs.modulus in rs.allowed) == (cand.p_rr(2 * q).denominator == 1)


# sha256 of the JSON of every _analyze_candidate call over the grid below, one
# report a line: every trace, verdict and residue set of the sieve, pinned.
ANALYSIS_GRID_DIGEST = "d5c99267d7c6aaf9215070a06c354edebc692172162b929f24abcf93c0e64f2a"


def test_analyze_candidate_grid_digest():
    # a <= 3! and q_lm <= 8 reach pairings that solve_case never sweeps.
    digest = hashlib.sha256()
    for a, q_lm in product(range(1, 7), range(1, 9)):
        c_x = fujiki_from_pairing(3, a, q_lm)
        cong = pairing_congruence(3, a, q_lm)
        for value, assumed_even in product(range(1, 41), (None, True, False)):
            analysis = _analyze_candidate(c_x, value, cong, assumed_even)
            digest.update(json.dumps(analysis.to_json()).encode() + b"\n")
    assert digest.hexdigest() == ANALYSIS_GRID_DIGEST


# sha256 of the JSON and repr of the six solve_case(3, a, even_form) reports,
# a in {1, 2} under each parity assumption: every branch, trace and verdict.
ISOTROPIC_REPORTS_DIGEST = "03ee96f5896878394c5534ee87026acbead2342cbdd4ebfa7d0c1d4e75c6e2a1"


def test_isotropic_reports_digest():
    digest = hashlib.sha256()
    for a, even_form in product((1, 2), (None, True, False)):
        case = solve_case(3, a, even_form)
        digest.update(f"{render_json(case)}\n{case!r}\n".encode())
    assert digest.hexdigest() == ISOTROPIC_REPORTS_DIGEST


def test_sieve_scans_once(monkeypatch):
    # integrality_residues returns the canonical set, so divisibility_residues
    # and _analyze_candidate make one scan per candidate and no second reduction.
    scans, reductions = [], []

    def scanning(p, residues=integrality_residues):
        scans.append(p)
        return residues(p)

    def reducing(rs, reduce=ResidueSet.reduce):
        reductions.append(rs)
        return reduce(rs)

    monkeypatch.setattr(isosolver, "integrality_residues", scanning)
    monkeypatch.setattr(ResidueSet, "reduce", reducing)
    for c_x, n_x in product((15, 30, 60, Fraction(15, 8), Fraction(15, 4)), range(1, 17)):
        scans.clear()
        divisibility_residues(3, c_x, n_x)
        assert len(scans) == 1 and not reductions, (c_x, n_x, reductions)
    for a, q_lm in product((1, 2), (1, 2, 4)):
        c_x, cong = fujiki_from_pairing(3, a, q_lm), pairing_congruence(3, a, q_lm)
        for value in range(1, 9):
            scans.clear()
            _analyze_candidate(c_x, value, cong, None)
            assert len(scans) == 1 and not reductions, (a, q_lm, value, reductions)


class TestUnsupportedCases:
    @pytest.mark.parametrize("n,a", [(2, 1), (4, 1), (3, 3), (3, 0)])
    def test_rejected(self, n, a):
        with pytest.raises(UnsupportedCase, match="unsupported case"):
            solve_case(n, a)
