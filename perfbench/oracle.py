"""Answer checks for every request kind, written without hkrr.

``check(request, answer)`` returns None for a correct answer and a
one-line reason otherwise.  For a ``cli.run`` request the answer is
``{"exit": code, "report": parsed JSON or None}``; for a library call it
is ``{"value": plain data}`` (``to_json()`` of the result, or the
modulus and sorted residues of a residue set).
"""

from __future__ import annotations

import math
from fractions import Fraction

import polyref

ROOT_TOLERANCE = 1e-9

# Survivors (q_lm, n_x) and candidate verdicts (q_lm, n_x, status,
# rejected_by) of solve_case(3, a, even_form), recorded at the seed.
_REJ = {"p": "parity", "g": "gcd"}


def _verdicts(rows: str) -> list[list]:
    out = []
    for item in rows.split():
        q, nx, tag = item.split(":")
        out.append([int(q), int(nx), "survives" if tag == "s" else "rejected", None if tag == "s" else _REJ[tag]])
    return out


_A1 = "1:1:p 1:2:s 1:3:g 1:4:g 1:5:g 1:6:s 1:7:g 2:2:p 2:4:g 2:6:g 2:8:g 2:10:g 2:12:g 2:14:g"
_A2 = "1:1:s 1:2:s 1:3:s 1:4:s 1:5:g 2:2:g 2:4:g 2:6:g 2:8:g 2:10:g"
GOLDEN_ISOTROPIC = {
    (1, None): ([[1, 2], [1, 6]], _verdicts(_A1)),
    (1, True): ([[1, 2], [1, 6]], _verdicts(_A1)),
    (1, False): ([], _verdicts("1:1:p 1:2:g 1:3:g 1:4:g 1:5:g 1:6:g 1:7:g")),
    (2, None): ([[1, 1], [1, 2], [1, 3], [1, 4]], _verdicts(_A2)),
    (2, True): ([[1, 1], [1, 2], [1, 3], [1, 4]], _verdicts(_A2)),
    (2, False): ([], _verdicts("1:1:g 1:2:g 1:3:g 1:4:g 1:5:g")),
}
# The paper's survivors for the open-parity case.
PAPER_SURVIVORS = {1: {2, 6}, 2: {1, 2, 3, 4}}


def _rats(strings: list[str]) -> list[Fraction]:
    return [Fraction(s) for s in strings]


def _s(x) -> str:
    return str(Fraction(x))


def check(request: dict, answer: dict) -> str | None:
    kind = request["kind"]
    params = request["params"]
    if "argv" in request:
        if answer.get("exit") != 0:
            return f"exit code {answer.get('exit')}"
        report = answer.get("report")
        if not isinstance(report, dict) or "results" not in report:
            return "no JSON report"
        value = report["results"]
    else:
        value = answer["value"]
    try:
        return _CHECKS[kind](params, value)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"


def _cn(params: dict, res: dict) -> str | None:
    n = params["n"]
    want = polyref.closed_form_cn(n)
    if res["value"] != str(want):
        return f"C({n}) = {res['value']}, closed form gives {want}"
    prod = 1
    for p, e in res["factorization"]:
        if p > 2 * n - 1:
            return f"factor prime {p} exceeds 2n-1"
        prod *= p**e
    if prod != want:
        return "factorization does not multiply to the value"
    return None


def _qk(params: dict, res: dict) -> str | None:
    k = params["k"]
    if res["poly"]["coeffs"] != [str(c) for c in polyref.qk_coeffs(k)]:
        return f"q_{k} coefficients differ from binom(k+j+1, 2j+1)"
    got = res["roots"]["values"]
    want = sorted(-4 * math.sin(j * math.pi / (2 * (k + 1))) ** 2 for j in range(1, k + 1))
    if len(got) != k:
        return f"{len(got)} roots for q_{k}"
    for g, w in zip(got, want):
        if abs(g - w) > ROOT_TOLERANCE:
            return f"root {g} of q_{k} is not within {ROOT_TOLERANCE} of {w}"
    if res["laurent_identity"] is not True:
        return f"Laurent identity not confirmed for q_{k}"
    return None


def _profile(params: dict, res: dict) -> str | None:
    n = params["n"]
    p = polyref.family_prr(params["family"], n)
    inv = polyref.invariants(p)
    if _rats(res["p_rr"]["coeffs"]) != p:
        return "p_rr differs from the family polynomial"
    for key in ("c_x", "n_x", "m_x", "a_x"):
        if res[key] != _s(inv[key]):
            return f"{key} = {res[key]}, expected {_s(inv[key])}"
    if res["n_x_is_integer"] != (inv["n_x"].denominator == 1):
        return "n_x_is_integer flag is wrong"
    if _rats(res["q_rr"]["coeffs"]) != polyref.compose_affine(p, inv["m_x"], 0):
        return "q_rr is not p_rr(m_x T)"
    roots = res["roots"]
    a = inv["a_x"]
    method, disc = {1: ("degree", None), 2: ("discriminant", 4 * a * (4 * a - 3)), 3: ("factored-discriminant", 8 * a * (2 * a - 1))}.get(n, ("isolation", None))
    if roots["method"] != method:
        return f"root method {roots['method']}, expected {method}"
    if disc is not None and roots["discriminant"] != _s(disc):
        return f"discriminant {roots['discriminant']}, expected {_s(disc)}"
    # Family polynomials are products of real linear factors.
    if roots["all_real"] is not True:
        return "family roots reported non-real"
    return None


def _decompose(params: dict, res: dict) -> str | None:
    p = _rats(params["poly"])
    coeffs = _rats(res["coefficients"])
    d = len(p) - 1
    if len(coeffs) != d // 2 + 1:
        return f"{len(coeffs)} coefficients for degree {d}"
    if params["basis"] == "qk":
        back: list[Fraction] = []
        for i, b in enumerate(coeffs):
            back = polyref.add(back, polyref.scale(polyref.trim(polyref.qk_coeffs(d - 2 * i)), b))
    else:
        back = polyref.shifted_combination(coeffs, Fraction(2), d)
    if back != p:
        return "coefficients do not recompose the input"
    return None


def _qrr(params: dict, res: dict) -> str | None:
    n = params["n"]
    q = _rats(res["q_rr"]["coeffs"])
    if len(q) - 1 > n or res["degree"] != len(q) - 1:
        return f"degree {res['degree']} for n = {n}"
    if polyref.compose_affine(q, -1, -4) != polyref.scale(q, (-1) ** n):
        return "q(-T-4) != (-1)^n q(T)"
    return None


def expected_denominator(coeffs: list[Fraction], n: int, even: bool) -> dict:
    cn = polyref.closed_form_cn(n)
    a = lambda i: coeffs[i] if i < len(coeffs) else Fraction(0)  # noqa: E731
    flags = [(a(i) * cn * (2**i if even else 1)).denominator == 1 for i in range(n + 1)]
    return {
        "ok": all(flags),
        "even_form": even,
        "c_n": str(cn),
        "coefficient_ok": flags,
        "fujiki_in_lattice": (a(n) * 2**n * cn).denominator == 1,
    }


def expected_even_values(coeffs: list[Fraction], n: int) -> dict:
    a_n = coeffs[n] if n < len(coeffs) else Fraction(0)
    integral = polyref.integral_on_evens(coeffs)
    leading = (a_n * math.factorial(n) * 2**n).denominator == 1
    c_x = math.factorial(2 * n) * a_n
    odd_double = math.prod(range(1, 2 * n, 2))
    fujiki = (c_x / odd_double).denominator == 1
    return {
        "ok": integral and leading and fujiki,
        "integral_on_even": integral,
        "leading_in_lattice": leading,
        "fujiki_multiple_of_double_factorial": fujiki,
        "c_x": _s(c_x),
    }


def _check(params: dict, res: dict) -> str | None:
    coeffs, n = _rats(params["poly"]), params["n"]
    want = {
        "denominator": expected_denominator(coeffs, n, params["even"]),
        "even_values": expected_even_values(coeffs, n),
    }
    for part in ("denominator", "even_values"):
        if res[part] != want[part]:
            return f"{part} report {res[part]} differs from {want[part]}"
    return None


def _denominator(params: dict, res: dict) -> str | None:
    want = expected_denominator(_rats(params["poly"]), params["n"], params["even"])
    if res != want:
        return f"denominator report {res} differs from {want}"
    return None


def _isotropic(params: dict, res: dict) -> str | None:
    a, even_form = params["a"], params["even_form"]
    survivors = [[s["q_lm"], s["n_x"]] for s in res["survivors"]]
    verdicts = [[b["q_lm"], c["n_x"], c["status"], c["rejected_by"]] for b in res["branches"] for c in b["candidates"]]
    if even_form is None and {nx for _, nx in survivors} != PAPER_SURVIVORS[a]:
        return f"survivors {survivors} for a = {a}, expected n_x in {sorted(PAPER_SURVIVORS[a])}"
    want_survivors, want_verdicts = GOLDEN_ISOTROPIC[(a, even_form)]
    if survivors != want_survivors:
        return f"survivors {survivors}, golden {want_survivors}"
    if verdicts != want_verdicts:
        return "candidate verdicts differ from the golden answer"
    return None


def _divisibility(params: dict, res: dict) -> str | None:
    c_x, n_x = Fraction(params["c_x"]), params["n_x"]
    shifted = [Fraction(n_x), Fraction(1)]
    b = Fraction(4, n_x) - c_x * n_x**2 / 720
    cubic = polyref.add(polyref.scale(polyref.mul(polyref.mul(shifted, shifted), shifted), c_x / 720), polyref.scale(shifted, b))
    period = math.lcm(*(c.denominator for c in cubic))
    scaled = [int(c * period) for c in cubic]
    m, allowed = res["modulus"], set(res["allowed"])
    if period % m:
        return f"modulus {m} does not divide the period {period}"
    for q in range(period):
        acc = 0
        for c in reversed(scaled):
            acc = acc * q + c
        if (acc % period == 0) != (q % m in allowed):
            return f"membership of {q} disagrees with brute force"
    for p in _prime_factors(m):
        proj = {r % (m // p) for r in allowed}
        if {r for r in range(m) if r % (m // p) in proj} == allowed:
            return f"modulus {m} is not reduced: prime {p} can be peeled"
    return None


def _square_closure(params: dict, res: dict) -> str | None:
    m = params["modulus"]
    squares = {(k * k) % m for k in range(1, m + 1)}
    allowed = set(params["allowed"])
    while True:
        viable = {r for r in allowed if all((s * r) % m in allowed for s in squares)}
        if viable == allowed:
            break
        allowed = viable
    if res["modulus"] != m or sorted(res["allowed"]) != sorted(allowed):
        return f"closure {res}, expected {sorted(allowed)} mod {m}"
    return None


def _gcd_constraint(params: dict, res: str) -> str | None:
    d = 2 * params["required"]
    m, allowed = params["modulus"], params["allowed"]
    want = "consistent" if m % d or any(r % d for r in allowed) else "contradiction"
    if res != want:
        return f"gcd verdict {res}, expected {want}"
    return None


def pairing_candidates(a: int, even: bool) -> list[int]:
    budget = a * polyref.closed_form_cn(3)
    base = 6 * (1 if even else 8)
    out, q = [], 1
    while base * q**3 <= budget:
        if budget % (base * q**3) == 0:
            out.append(q)
        q += 1
    return out


def _pairing_candidates(params: dict, res: list) -> str | None:
    want = pairing_candidates(params["a"], params["even"])
    if res != want:
        return f"pairing candidates {res}, expected {want}"
    return None


def _pairing_congruence(params: dict, res: dict) -> str | None:
    n, a, q = 3, params["a"], params["q_lm"]
    g = math.gcd(a, 2 * q)
    modulus = 2 * q // g
    residue = ((n - 1) * q) % modulus
    nx_integral = (2 * q) % a == 0
    forced = q not in pairing_candidates(a, even=False)
    half = None
    if forced and q % 2 == 0 and modulus % 2 == 0 and residue % 2 == 0:
        hm = modulus // 2
        half = {"modulus": hm, "residue": (residue // 2) % hm if hm > 0 else 0}
    want = {
        "n": n,
        "a": a,
        "q_lm": q,
        "nx_coset_step": _s(Fraction(2 * q, a)),
        "nx_integral": nx_integral,
        "qm_plus_nx_congruence": {"modulus": modulus, "residue": residue},
        "form_even_forced": forced,
        "mx_integral": bool(forced and nx_integral and modulus % 2 == 0 and residue % 2 == 0),
        "half_congruence": half,
    }
    if res != want:
        return f"pairing congruence {res} differs from {want}"
    return None


def _mx_bounds(params: dict, res: dict) -> str | None:
    a, q = params["a"], params["q_lm"]
    step = Fraction(1, 100)
    pb, gb = Fraction(res["pairing_bound"]), Fraction(res["gcd_bound"])
    target = Fraction(6, a)
    if (pb / step).denominator != 1 or not ((pb / (2 * q)) ** 3 >= target > ((pb - step) / (2 * q)) ** 3):
        return f"pairing bound {pb} is not 2 q (3!/a)^(1/3) rounded up to 1/100"
    cn = polyref.closed_form_cn(3)
    if (gb / step).denominator != 1 or not ((gb / 2) ** 3 >= cn > ((gb - step) / 2) ** 3):
        return f"gcd bound {gb} is not 2 C(3)^(1/3) rounded up to 1/100"
    return None


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


_CHECKS = {
    "cn": _cn,
    "qk": _qk,
    "profile": _profile,
    "decompose": _decompose,
    "qrr": _qrr,
    "check": _check,
    "denominator": _denominator,
    "isotropic": _isotropic,
    "divisibility": _divisibility,
    "square_closure": _square_closure,
    "gcd_constraint": _gcd_constraint,
    "pairing_candidates": _pairing_candidates,
    "pairing_congruence": _pairing_congruence,
    "mx_bounds": _mx_bounds,
}
