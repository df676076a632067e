"""Self-tests of the benchmark harness: request generation, oracle, tracing, deadline.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import copy
import json
import math
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import polyref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def hkrr():
    return worker.import_hkrr()


# -- request generation -------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_request_list(name):
    assert workloads.build(name, 7, 3) == workloads.build(name, 7, 3)
    assert workloads.build(name, 7, 3) != workloads.build(name, 8, 3)
    assert workloads.build(name, 7, 3) != workloads.build(name, 7, 4)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_round_has_at_least_100_distinct_requests(name):
    requests = workloads.build(name, 1, 0)
    assert len(requests) >= 100
    inputs = {
        json.dumps([r["kind"], r["params"], r.get("args"), list(r.get("files", {}).values())], default=str)
        for r in requests
    }
    assert len(inputs) == len(requests)


# -- oracle -------------------------------------------------------------------


def _corrupt(kind: str, answer: dict) -> dict:
    bad = copy.deepcopy(answer)
    res = bad["report"]["results"] if "report" in bad else None
    if kind == "cn":
        res["value"] = str(int(res["value"]) + 1)
    elif kind == "qk":
        res["roots"]["values"][0] += 1e-6
    elif kind == "profile":
        res["q_rr"]["coeffs"][-1] = str(Fraction(res["q_rr"]["coeffs"][-1]) * 2)
    elif kind == "decompose":
        res["coefficients"][0] = str(Fraction(res["coefficients"][0]) + 1)
    elif kind == "qrr":
        coeffs = res["q_rr"]["coeffs"]
        coeffs[1] = str(Fraction(coeffs[1]) + 1)
    elif kind == "check":
        res["even_values"]["ok"] = not res["even_values"]["ok"]
    elif kind == "isotropic":
        target = res if res is not None else bad["value"]
        target["survivors"] = target["survivors"][:-1] or [{"q_lm": 1, "n_x": 5}]
    elif kind == "denominator":
        bad["value"]["ok"] = not bad["value"]["ok"]
    elif kind == "divisibility":
        bad["value"]["allowed"] = sorted(set(bad["value"]["allowed"]) ^ {0})
    elif kind == "square_closure":
        m = bad["value"]["modulus"]
        missing = [r for r in range(m) if r not in bad["value"]["allowed"]]
        bad["value"]["allowed"] = sorted(bad["value"]["allowed"] + missing[:1]) if missing else []
    elif kind == "gcd_constraint":
        bad["value"] = "consistent" if bad["value"] == "contradiction" else "contradiction"
    elif kind == "pairing_candidates":
        bad["value"] = bad["value"] + [99]
    elif kind == "pairing_congruence":
        bad["value"]["nx_integral"] = not bad["value"]["nx_integral"]
    elif kind == "mx_bounds":
        bad["value"]["pairing_bound"] = str(Fraction(bad["value"]["pairing_bound"]) + Fraction(1, 100))
    else:
        raise AssertionError(f"no corruption for {kind}")
    return bad


def _cheapest_of_each_kind() -> list[dict]:
    chosen: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        for req in workloads.build(name, 1, 0):
            size = len(json.dumps(req["params"]))
            if req["kind"] == "qrr" and req["params"]["n"] < 2:
                continue  # the qrr corruption edits the T coefficient
            if req["kind"] not in chosen or size < len(json.dumps(chosen[req["kind"]]["params"])):
                chosen[req["kind"]] = req
    return list(chosen.values())


@pytest.mark.parametrize("req", _cheapest_of_each_kind(), ids=lambda r: r["kind"])
def test_oracle_accepts_real_answer_and_flags_corrupted_one(hkrr, tmp_path, req):
    runner = worker.Runner(hkrr, tmp_path, deadline=10.0)
    latency, outcome, raw = runner.execute(req, runner.prepare(req))
    assert outcome == "ok"
    answer = runner.answer(req, raw)
    assert oracle.check(req, answer) is None
    assert oracle.check(req, _corrupt(req["kind"], answer)) is not None


def test_oracle_flags_bad_exit_code():
    req = workloads.cli_request("cn", ["cn", "3"], {"n": 3})
    assert oracle.check(req, {"exit": 1, "report": None}) == "exit code 1"


def test_cn_closed_form_small_values():
    assert [polyref.closed_form_cn(n) for n in (1, 2, 3)] == [1, 12, 4320]


def test_polya_criterion_matches_sampling():
    for kind in ("split", "product"):
        for n in range(1, 6):
            p = polyref.family_prr(kind, n)
            for shift in (Fraction(0), Fraction(1, 3), Fraction(1)):
                q = polyref.add(p, [shift])
                lcm = math.lcm(*(c.denominator for c in q))
                sampled = all(polyref.evaluate(q, 2 * t).denominator == 1 for t in range(2 * lcm + 1))
                assert polyref.integral_on_evens(q) == sampled


# -- tracing ------------------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_calls():
    # outer [0, 10] holds inner [1, 3] and inner [4, 5]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 10]))
    inner = tracer.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("m.outer", body)()
    summary = tracer.summary()
    assert summary["m.outer"] == {"calls": 1, "self_s": 7, "total_s": 10}
    assert summary["m.inner"] == {"calls": 2, "self_s": 3, "total_s": 3}
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_recursive_total_counts_outermost_span_only():
    # rec(2) [0, 9] > rec(1) [1, 6] > rec(0) [2, 3]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 6, 9]))

    def rec(n):
        if n:
            traced(n - 1)

    traced = tracer.wrap("m.rec", rec)
    traced(2)
    row = tracer.summary()["m.rec"]
    assert row["calls"] == 3
    assert row["total_s"] == 9
    assert row["self_s"] == 9  # 4 + 4 + 1


def test_install_wraps_every_binding_and_restores(hkrr):
    modules = {layer: getattr(hkrr, layer) for layer in tracing.LAYERS}
    original = hkrr.cnconst.cn_value
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, hkrr, modules)
    try:
        wrapped = hkrr.cnconst.cn_value
        assert wrapped is not original and wrapped.__wrapped__ is original
        for ns in (hkrr, hkrr.hkprofile, hkrr.isosolver, hkrr.cli):
            assert ns.cn_value is wrapped
        assert isinstance(hkrr.exactpoly.X, hkrr.exactpoly.Poly)
        hkrr.isosolver.pairing_candidates(3, 1, True)
        names = {tracer.names[s[0]] for s in tracer.spans}
        assert {"isosolver.pairing_candidates", "cnconst.cn_value", "cnconst.min_padic_valuation"} <= names
    finally:
        tracing.uninstall(restore)
    assert hkrr.cli.cn_value is original
    assert hkrr.exactpoly.Poly.__mul__ is hkrr.exactpoly.Poly.__rmul__


# -- deadline and failure classes ---------------------------------------------


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_deadline_fires_on_slow_call():
    start = time.perf_counter()
    with pytest.raises(worker.DeadlineExceeded):
        worker.call_with_deadline(lambda: _spin(5.0), 0.2)
    assert time.perf_counter() - start < 2.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fast_call_returns_and_disarms_timer():
    assert worker.call_with_deadline(lambda: 42, 1.0) == 42
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_failures_are_classified(hkrr, tmp_path):
    runner = worker.Runner(hkrr, tmp_path, deadline=0.2)
    req = {"id": 0, "kind": "cn", "params": {"n": 1}, "func": "x.y", "args": []}

    def recurse():
        return recurse()

    assert runner.execute(req, recurse)[1] == "exception:RecursionError"
    assert runner.execute(req, lambda: _spin(5.0))[1] == "deadline"
    cli_req = workloads.cli_request("cn", ["cn", "0"], {"n": 0})
    latency, outcome, raw = runner.execute(cli_req, runner.prepare(cli_req))
    assert worker.classify(cli_req, outcome, runner.answer(cli_req, raw)) == "exit:1"


# -- benchmark definition -----------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_percentile_counts_failures_as_missing_every_limit():
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert run.percentile([1.0] * 9 + [math.inf], 0.9) == 1.0
    assert math.isinf(run.percentile([1.0] * 8 + [math.inf] * 2, 0.9))
