"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines;
every tolerance is pinned here (exact equality unless stated otherwise).
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hkrr.chernrr import ChernData, partitions, q_rr_from_chern
from hkrr.cli import EXIT_OK, run
from hkrr.cnconst import cn_prime_support, cn_value
from hkrr.exactpoly import Poly, poly_compose_affine
from hkrr.hkprofile import (
    cubic_prr,
    denominator_check,
    double_factorial,
    even_values_check,
    known_family_prr,
    profile_from_prr,
)
from hkrr.isosolver import divisibility_residues
from hkrr.qkbasis import decompose_qk, qk_laurent_check, qk_roots

CN_TABLE = {
    1: {},
    2: {2: 2, 3: 1},
    3: {2: 5, 3: 3, 5: 1},
    4: {2: 11, 3: 5, 5: 2, 7: 1},
    5: {2: 18, 3: 9, 5: 4, 7: 2},
    6: {2: 27, 3: 14, 5: 6, 7: 3, 11: 1},
    7: {2: 37, 3: 19, 5: 8, 7: 5, 11: 2, 13: 1},
}


def report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {label}")


def cli_report(argv):
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run(argv)
    assert code == EXIT_OK
    return json.loads(buffer.getvalue())


def test_criterion_01_cn_table_with_time_budget():
    budgets = {1: 60, 2: 60, 3: 60, 4: 60, 5: 60, 6: 1800, 7: 1800}
    for n, budget in budgets.items():
        start = time.perf_counter()
        cert = cn_value(n)
        elapsed = time.perf_counter() - start
        expected = math.prod(p**e for p, e in CN_TABLE[n].items())
        assert cert.value == expected, f"C_{n} mismatch"
        assert elapsed < budget, f"C_{n} took {elapsed:.1f}s (budget {budget}s)"
    report(1, "gcd constants match the reference table for n=1..7 within time budget")


def test_criterion_02_prime_support():
    for n in range(2, 8):
        cert = cn_value(n)
        primes = [p for p, _ in cert.factorization]
        assert primes == cn_prime_support(n)
        assert primes == [p for p in range(2, 2 * n) if all(p % d for d in range(2, p))]
    report(2, "factorization primes are exactly the primes <= 2n-1 for n=2..7")


def test_criterion_03_case_a1_reproduction():
    start = time.perf_counter()
    rep = cli_report(["isotropic", "--n", "3", "--a", "1"])
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"case a=1 took {elapsed:.1f}s"
    results = rep["results"]
    main = results["branches"][0]
    assert main["q_lm"] == 1 and main["c_x"] == "15"
    assert main["parity_verdict"] == "even"
    assert main["survivors"] == [2, 6]
    for cand in main["candidates"]:
        if cand["status"] == "survives":
            n_x = cand["n_x"]
            expected = Poly((4, Fraction(13, 6), Fraction(n_x, 16), Fraction(1, 48)))
            assert Poly.from_json(cand["p_rr"]) == expected
    halved = results["branches"][1]
    assert halved["q_lm"] == 2 and halved["status"] == "rejected"
    gcd_details = [
        s["detail"] for c in halved["candidates"] for s in c["trace"] if s["rule"] == "gcd"
    ]
    assert any("0 mod 4" in d for d in gcd_details)
    report(3, "case a=1: q_lm=1, c_x=15, even form, n_x in {2,6}, halved branch dies mod 4")


def test_criterion_04_case_a2_reproduction():
    start = time.perf_counter()
    rep = cli_report(["isotropic", "--n", "3", "--a", "2"])
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"case a=2 took {elapsed:.1f}s"
    results = rep["results"]
    main = results["branches"][0]
    assert main["q_lm"] == 1 and main["c_x"] == "30"
    assert main["parity_verdict"] == "even"
    assert main["survivors"] == [1, 2, 3, 4]
    candidates = {c["n_x"]: c for c in main["candidates"]}
    assert candidates[5]["rejected_by"] == "gcd"
    for n_x, odd_class in ((1, 7), (3, 5)):
        steps = [s for s in candidates[n_x]["trace"] if s["rule"] == "hyperbolic exclusion"]
        assert steps and f"{odd_class} mod 8" in steps[0]["detail"]
    for n_x in (1, 2, 3, 4):
        expected = cubic_prr(30, n_x)
        assert Poly.from_json(candidates[n_x]["p_rr"]) == expected
    assert results["branches"][1]["status"] == "rejected"
    report(4, "case a=2: q_lm=1, c_x=30, even form, n_x in {1..4}, exclusions as stated")


def test_criterion_05_symmetry_property_suite():
    checked = 0
    for n in range(1, 7):
        rng = random.Random(5000 + n)
        sign = -1 if n % 2 else 1
        parts = partitions(n)
        for _ in range(200):
            data = ChernData(n, {p: rng.randint(-(10**6), 10**6) for p in parts})
            q = q_rr_from_chern(data)
            assert poly_compose_affine(q, -1, -4) == q * sign
            checked += 1
    assert checked == 1200
    report(5, "reflection symmetry holds exactly on 200 random inputs per n <= 6")


def test_criterion_06_basis_identities_and_roots():
    for k in range(0, 51):
        assert qk_laurent_check(k)
    for k in range(1, 11):
        got = qk_roots(k)
        want = sorted(-4 * math.sin(j * math.pi / (2 * (k + 1))) ** 2 for j in range(1, k + 1))
        assert len(got) == k
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9
    report(6, "Laurent identity for k <= 50; roots within 1e-9 of closed form for k <= 10")


def test_criterion_07_nonnegative_decomposition_of_known_families():
    for n in range(2, 11):
        for kind in ("split", "product"):
            prof = profile_from_prr(n, known_family_prr(kind, n))
            coeffs = decompose_qk(prof.q_rr)
            assert len(coeffs) == n // 2 + 1
            assert all(b >= 0 for b in coeffs)
            assert coeffs[0] == prof.a_x
            assert coeffs[1] > 0
    split2 = profile_from_prr(2, known_family_prr("split", 2))
    assert decompose_qk(split2.q_rr) == [Fraction(25, 32), Fraction(21, 32)]
    assert split2.a_x == Fraction(25, 32)
    report(7, "both families decompose with b_i >= 0, b_0 = a_x, b_1 > 0 for n = 2..10")


def test_criterion_08_denominator_and_even_value_checks():
    for n in range(1, 8):
        for kind in ("split", "product"):
            p = known_family_prr(kind, n)
            den = denominator_check(n, p, even_form=True)
            assert den.ok and den.fujiki_in_lattice
            even = even_values_check(n, p)
            assert even.ok
            assert (even.c_x / double_factorial(2 * n - 1)).denominator == 1
    report(8, "denominator and even-value checks pass for both families, n <= 7")


def test_criterion_09_residue_oracle_equivalence():
    pairs = [(15, n_x) for n_x in range(1, 8)] + [(30, n_x) for n_x in range(1, 6)]
    for c_x, n_x in pairs:
        rs = divisibility_residues(3, c_x, n_x)
        p = cubic_prr(c_x, n_x)
        for q in range(-200, 201):
            assert (q % rs.modulus in rs.allowed) == (p(q).denominator == 1), (c_x, n_x, q)
    report(9, "residue criterion equals brute-force integrality on [-200, 200]")


def test_criterion_10_readme_states_computational_limits():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert "## What this toolkit does not do" in readme
    for phrase in (
        "classification",
        "cannot be reproduced computationally",
        "not ruled out",
    ):
        assert phrase in readme, f"README must state: {phrase}"
    report(10, "README states which claims are outside computational reach")
