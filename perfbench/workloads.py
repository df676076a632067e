"""Seeded request streams for the hkrr benchmark.

A workload round is a list of requests built from (workload, seed, round)
alone, so the same arguments always give the same list.  Nothing here
imports hkrr: requests carry only generated inputs.

A request is a dict with

* ``id``: position in the round;
* ``kind``: what the oracle checks (``cn``, ``qk``, ``profile``, ...);
* ``params``: the generated inputs, which the oracle reads;
* either ``argv`` plus ``files`` (a ``cli.run`` call; an argv entry
  ``@name`` stands for the path of ``files[name]`` written as JSON), or
  ``func`` plus ``args`` (a library call ``module.function(*args)``; an
  argument ``("Poly", coeffs)`` or ``("ResidueSet", modulus, allowed)``
  is built into the hkrr type before the call is timed).
"""

from __future__ import annotations

import random
from fractions import Fraction

import polyref

WORKLOADS = ("basis-roots", "certify", "sieve")

# c_x values of the n = 3 sieve: the Fujiki constants 15 (K3^[3]-type),
# 30 and 60.  The non-integral Fujiki values (15/8, 15/4) give periods up
# to 23424 and single calls of 0.6 s, which would swamp the other calls.
SIEVE_FUJIKI = (Fraction(15), Fraction(30), Fraction(60))

def rat(x: Fraction) -> str:
    return str(Fraction(x))


def poly_json(coeffs: list[Fraction]) -> dict:
    return {"coeffs": [rat(c) for c in polyref.trim(coeffs)]}


def build(workload: str, seed: int, round_no: int = 0) -> list[dict]:
    """The request list of one round; identical for identical arguments.

    Problem sizes are fixed per workload, so every round costs about the
    same; the seed draws the values (perturbations, random polynomials,
    Chern data, residue sets, pairing arguments) and the order.
    """
    try:
        generate = _GENERATORS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}/{round_no}")
    requests = generate(rng)
    rng.shuffle(requests)
    return number(requests)


def number(requests: list[dict]) -> list[dict]:
    """Set each request's id to its position and make its file names unique."""
    for i, req in enumerate(requests):
        req["id"] = i
        files = req.get("files")
        if files:
            req["files"] = {f"r{i}-{name}": obj for name, obj in files.items()}
            req["argv"] = [f"@r{i}-{a[1:]}" if a.startswith("@") else a for a in req["argv"]]
    return requests


def cli_request(kind: str, argv: list[str], params: dict, files: dict | None = None) -> dict:
    return {"kind": kind, "argv": argv, "files": files or {}, "params": params}


def call_request(kind: str, func: str, args: list, params: dict) -> dict:
    return {"kind": kind, "func": func, "args": args, "params": params}


# -- basis-roots -------------------------------------------------------------


def _basis_roots(rng: random.Random) -> list[dict]:
    out = []
    # q_k with roots and the Laurent identity, k = 3, 6, ..., 30: a fixed set, since
    # root isolation grows like k^3 and these requests dominate the round.
    for k in range(3, 31, 3):
        out.append(cli_request("qk", ["qk", str(k), "--roots", "--laurent-check"], {"k": k}))
    # Family profiles for every n = 1..40 (n >= 4 isolates roots).
    for family in ("split", "product"):
        for n in range(1, 41):
            out.append(cli_request("profile", ["profile", "--family", family, "--n", str(n)], {"family": family, "n": n}))
    # Decompositions of symmetric polynomials: even degrees 2..30 into q_k, odd
    # degrees 1..29 into shifted powers; alternately a family q_rr or random.
    for basis, first in (("qk", 2), ("shifted", 1)):
        for i, d in enumerate(range(first, 31, 2)):
            if i % 2:
                coeffs = _random_symmetric(rng, d)
            else:
                coeffs = polyref.family_qrr(rng.choice(("split", "product")), d)
            argv = ["decompose", "--poly", "@poly.json", "--basis", basis]
            if basis == "shifted":
                argv += ["--shift", "2"]
            params = {"basis": basis, "poly": [rat(c) for c in coeffs]}
            out.append(cli_request("decompose", argv, params, {"poly.json": poly_json(coeffs)}))
    # Riemann-Roch polynomials from random Chern data, n = 1..10 twice.
    for n in list(range(1, 11)) * 2:
        values = [
            {"partition": list(part), "value": rat(Fraction(rng.randint(-60, 60), rng.choice((1, 1, 2, 3))))}
            for part in polyref.partitions(n)
        ]
        chern = {"n": n, "values": values}
        out.append(cli_request("qrr", ["qrr", "--chern", "@chern.json"], {"n": n}, {"chern.json": chern}))
    return out


def _random_symmetric(rng: random.Random, d: int) -> list[Fraction]:
    """sum_j c_j (T+2)^(d-2j) with random rational c_j and c_0 > 0."""
    cs = [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4, 6)))]
    cs += [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))) for _ in range(d // 2)]
    return polyref.shifted_combination(cs, Fraction(2), d)


# -- certify -----------------------------------------------------------------


def _certify(rng: random.Random) -> list[dict]:
    out = []
    for n in range(1, 17):
        out.append(cli_request("cn", ["cn", str(n)], {"n": n}))
    for n in range(1, 11):
        s = (1, 2, 4)[n % 3]
        out.append(cli_request("cn", ["cn", str(n), "--stability", str(s)], {"n": n, "stability": s}))
    for family in ("split", "product"):
        for n in range(1, 8):
            out.append(check_request(polyref.family_prr(family, n), n, even=True))
    count = iter(range(10**6))

    def perturbed_check() -> dict:
        i = next(count)
        n = 1 + i % 7
        coeffs = polyref.family_prr(rng.choice(("split", "product")), n)
        j = rng.randrange(n + 1)
        if n <= 5 and i % 3 == 0:
            # Integer shifts keep integrality, so the check samples a full period.
            coeffs[j] += rng.choice((-2, -1, 1, 2))
        else:
            # An odd denominator breaks integrality at T = 2 already.
            coeffs[j] += Fraction(rng.choice((-1, 1)), rng.choice((3, 5, 7, 11, 13)))
        return check_request(coeffs, n, even=rng.random() < 0.75)

    out += _distinct(58, perturbed_check)
    for a in (1, 2):
        out.append(cli_request("isotropic", ["isotropic", "--n", "3", "--a", str(a)], {"a": a, "even_form": None}))
    return out


def check_request(coeffs: list[Fraction], n: int, even: bool) -> dict:
    argv = ["check", "--poly", "@poly.json", "--n", str(n)] + (["--even"] if even else [])
    params = {"n": n, "even": even, "poly": [rat(c) for c in coeffs]}
    return cli_request("check", argv, params, {"poly.json": poly_json(coeffs)})


def beyond_frontier() -> list[dict]:
    """Requests past today's frontier, run apart from the timed stream.

    cn fails with RecursionError for n >= 17; the sampled even-value check
    needs 19 s at n = 8 and far longer at n = 10.
    """
    out = [cli_request("cn", ["cn", str(n)], {"n": n}) for n in range(17, 21)]
    out += [check_request(polyref.family_prr("split", n), n, even=True) for n in (8, 10)]
    return number(out)


# -- sieve -------------------------------------------------------------------


def _sieve(rng: random.Random) -> list[dict]:
    out = []
    for a in (1, 2):
        for even_form in (None, True, False):
            out.append(call_request("isotropic", "isosolver.solve_case", [3, a, even_form], {"a": a, "even_form": even_form}))
    for c_x in SIEVE_FUJIKI:
        for n_x in range(1, 65):
            params = {"c_x": rat(c_x), "n_x": n_x}
            out.append(call_request("divisibility", "isosolver.divisibility_residues", [3, c_x, n_x], params))

    def closure() -> dict:
        m = rng.choice((8, 12, 16, 24, 32, 48, 64))
        allowed = sorted(rng.sample(range(m), rng.randint(1, m // 2)))
        return call_request("square_closure", "isosolver.square_closure", [("ResidueSet", m, allowed)], {"modulus": m, "allowed": allowed})

    def gcd() -> dict:
        m = rng.choice((2, 3, 4, 6, 8, 12, 16))
        # Half of the sets hold only multiples of 2 or 4, where contradictions live.
        pool = list(range(0, m, rng.choice((1, 2, 4)) if rng.random() < 0.5 else 1))
        allowed = sorted(rng.sample(pool, rng.randint(1, len(pool))))
        required = rng.choice((1, 2))
        params = {"modulus": m, "allowed": allowed, "required": required}
        return call_request("gcd_constraint", "isosolver.gcd_constraint", [("ResidueSet", m, allowed), required], params)

    out += _distinct(30, closure)
    out += _distinct(20, gcd)
    for a, even in rng.sample([(a, e) for a in range(1, 13) for e in (False, True)], 10):
        out.append(call_request("pairing_candidates", "isosolver.pairing_candidates", [3, a, even], {"a": a, "even": even}))
    pairs = [(a, q) for a in range(1, 7) for q in range(1, 9)]
    for a, q in rng.sample(pairs, 10):
        out.append(call_request("pairing_congruence", "isosolver.pairing_congruence", [3, a, q], {"a": a, "q_lm": q}))
    for a, q in rng.sample(pairs, 10):
        out.append(call_request("mx_bounds", "isosolver.mx_upper_bounds", [3, a, q], {"a": a, "q_lm": q}))
    for i in range(30):
        n = 1 + i % 7
        coeffs = [Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 5, 8, 16))) for _ in range(n + 1)]
        even = rng.random() < 0.5
        params = {"n": n, "even": even, "poly": [rat(c) for c in coeffs]}
        out.append(call_request("denominator", "hkprofile.denominator_check", [n, ("Poly", coeffs), even], params))
    return out


def _distinct(count: int, draw) -> list[dict]:
    """count requests from draw(), redrawing any whose inputs repeat."""
    seen, out = set(), []
    while len(out) < count:
        req = draw()
        key = repr((req["kind"], req["params"]))
        if key not in seen:
            seen.add(key)
            out.append(req)
    return out


_GENERATORS = {"basis-roots": _basis_roots, "certify": _certify, "sieve": _sieve}
