"""hkrr benchmark: seeded closed-loop workloads, oracle-checked answers.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --frontier                    # largest n within 1 s

Each round of a workload runs in a fresh worker process: one client, one
request at a time, every request under a deadline, answers checked by an
oracle that does not use hkrr.  Rounds repeat with new round seeds until
``--seconds`` is spent.  Times are scaled to a reference CPU speed by a
probe timed around every request (see ``worker.speed_factors``); the
summary also prints the wall-clock values.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs round 0 untraced and then traced,
and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

DEADLINE_S = 3.0  # per request; the slowest passing request (check n = 7) takes about 1.1 s
SETUP_SAMPLES = 7
FRONTIER_LIMIT_S = 1.0
BUDGET_S = 170.0  # a whole invocation stays under this

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "exactpoly.Poly.mul.calls": "count",
    "exactpoly.Poly.mul.self_s": "s",
    "exactpoly.Poly.divmod.calls": "count",
    "exactpoly.Poly.divmod.self_s": "s",
    "exactpoly.poly_compose_affine.self_s": "s",
    "exactpoly.Poly.max_coeff_bits": "bits",
    "exactpoly.poly_eval.calls": "count",
    "exactpoly.poly_eval.self_s": "s",
    "exactpoly.integrality_residues.calls": "count",
    "exactpoly.integrality_residues.self_s": "s",
    "exactpoly.ResidueSet.reduce.self_s": "s",
    "qkbasis.qk_laurent_check.self_s": "s",
    "qkbasis.real_roots.self_s": "s",
    "qkbasis.qk_roots.self_s": "s",
    "qkbasis.all_roots_real.self_s": "s",
    "qkbasis.decompose_qk.self_s": "s",
    "qkbasis.decompose_shifted.self_s": "s",
    "qkbasis.qk_poly.cache_hit_ratio": "ratio",
    "chernrr.q_rr_from_chern.self_s": "s",
    "chebbern.pk_poly.self_s": "s",
    "chebbern.pk_poly.cache_hit_ratio": "ratio",
    "chebbern.bernoulli.cache_hit_ratio": "ratio",
    "cnconst.cn_value.calls": "count",
    "cnconst.cn_value.self_s": "s",
    "cnconst.cn_value.total_s": "s",
    "cnconst.min_padic_valuation.calls": "count",
    "cnconst.min_padic_valuation.self_s": "s",
    "cnconst.layer_gcd.calls": "count",
    "cnconst.layer_gcd.self_s": "s",
    "cnconst.layer_gcd.tuples": "count",
    "cnconst.certified_per_dp_call": "ratio",
    "hkprofile.even_values_check.calls": "count",
    "hkprofile.even_values_check.self_s": "s",
    "hkprofile.denominator_check.self_s": "s",
    "hkprofile.profile_from_prr.self_s": "s",
    "hkprofile.real_root_classifier.self_s": "s",
    "isosolver.solve_case.calls": "count",
    "isosolver.solve_case.self_s": "s",
    "isosolver.divisibility_residues.self_s": "s",
    "isosolver.square_closure.self_s": "s",
    "isosolver.pairing_candidates.self_s": "s",
    "isosolver.candidates": "count",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Clock:
    """Remaining share of the invocation's time budget."""

    def __init__(self, budget: float) -> None:
        self.end = time.monotonic() + budget

    def left(self) -> float:
        return self.end - time.monotonic()


def spawn(spec: dict, clock: Clock) -> dict:
    """Run one job in a fresh worker; returns its JSON result."""
    timeout = clock.left()
    if timeout <= 1:
        raise BenchError("time budget exhausted")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {spec['job']} exceeded the time budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise BenchError(f"worker {spec['job']} exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; inf stands for a failed request."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(clock: Clock) -> list[dict]:
    """Import times (with speed factors) of SETUP_SAMPLES fresh workers."""
    spawn({"job": "import"}, clock)  # compiles bytecode once; not counted
    return [spawn({"job": "import"}, clock) for _ in range(SETUP_SAMPLES)]


def run_rounds(workload: str, seed: int, seconds: float, clock: Clock) -> list[dict]:
    """Fresh-worker rounds 0, 1, ... while the next one fits in ``seconds``."""
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        spec = {"job": "round", "workload": workload, "seed": seed, "round": len(rounds), "deadline": DEADLINE_S}
        rounds.append(spawn(spec, clock))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def request_metrics(records: list) -> dict[str, float]:
    """Throughput and latency percentiles of records, with times scaled by each speed factor."""
    scaled = [r[2] * r[4] for r in records]
    ok = sum(1 for r in records if r[3] == "ok")
    latencies = [t if r[3] == "ok" else math.inf for t, r in zip(scaled, records)]
    return {
        "throughput_rps": ok / sum(scaled),
        "latency_p50_ms": percentile(latencies, 0.5) * 1000,
        "latency_p90_ms": percentile(latencies, 0.9) * 1000,
    }


def summarize(workload: str, seed: int, rounds: list[dict], setup: list[dict]) -> tuple[dict, list[str]]:
    records = [r for rnd in rounds for r in rnd["records"]]
    metrics = request_metrics(records)
    if math.isinf(metrics["latency_p90_ms"]):
        raise BenchError("more than a tenth of the requests failed; latency_p90_ms is undefined")
    metrics["setup_s"] = statistics.median(s["import_s"] * s["speed_factor"] for s in setup)
    metrics["peak_rss_mb"] = statistics.median(rnd["peak_rss_kb"] for rnd in rounds) / 1024
    wall = request_metrics([r[:4] + [1.0] for r in records])
    wall["setup_s"] = statistics.median(s["import_s"] for s in setup)
    n = len(records)
    failed = sum(1 for r in records if r[3] != "ok")
    beyond = sum(1 for r in records if r[3] != "ok" or r[2] * r[4] * 1000 > metrics["latency_p90_ms"])
    factors = sorted(r[4] for r in records)
    notes = {
        "throughput_rps": f"{n - failed} correct requests",
        "latency_p50_ms": f"n={n}",
        "latency_p90_ms": f"n={n}, {beyond} beyond",
        "setup_s": f"median of {len(setup)} fresh imports",
        "peak_rss_mb": f"median of {len(rounds)} workers",
    }
    lines = [
        f"workload {workload}  seed {seed}  rounds {len(rounds)}  requests {n}  failed {failed} (failed_ratio {failed / n:.4f})",
        f"  speed factor median {statistics.median(factors):.3f} (range {factors[0]:.3f}-{factors[-1]:.3f}); wall-clock values in brackets",
    ]
    for name, value in metrics.items():
        raw = f"[{wall[name]:.4f}]" if name in wall else ""
        lines.append(f"  {name:<16} {value:>12.4f} {END_TO_END[name]:<5} {raw:<12} ({notes[name]})")
    lines += _failure_lines(records, rounds)
    return metrics, lines


def _failure_lines(records: list, rounds: list[dict]) -> list[str]:
    classes: dict[str, int] = {}
    for r in records:
        if r[3] != "ok":
            key = f"{r[1]} {r[3]}"
            classes[key] = classes.get(key, 0) + 1
    lines = [f"  failed: {count} x {key}" for key, count in sorted(classes.items())]
    for rnd in rounds:
        for rid, reason in rnd["wrong"].items():
            lines.append(f"  wrong answer, request {rid}: {reason}")
    return lines


def run_untraced(workload: str, seed: int, seconds: float, clock: Clock) -> tuple[dict, list[str]]:
    setup = measure_setup(clock)
    rounds = run_rounds(workload, seed, seconds, clock)
    metrics, lines = summarize(workload, seed, rounds, setup)
    records = [r for rnd in rounds for r in rnd["records"]]
    correct = not any(rnd["wrong"] for rnd in rounds)
    if workload == "certify":
        beyond = spawn({"job": "beyond", "deadline": DEADLINE_S}, clock)
        correct = correct and not beyond["wrong"]
        lines.append("  beyond the frontier (run apart, not counted in attempted/failed):")
        for req, (_, kind, latency, outcome, _) in zip(workloads.beyond_frontier(), beyond["records"]):
            lines.append(f"    {kind} n={req['params']['n']}: {outcome} after {latency:.3f} s")
    metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}
    return _result(correct, records, metrics), lines


def run_traced(workload: str, seed: int, clock: Clock) -> tuple[dict, list[str]]:
    base = {"job": "round", "workload": workload, "seed": seed, "round": 0, "deadline": DEADLINE_S}
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
    plain = spawn(base, clock)
    traced = spawn(dict(base, trace=1, spans_file=str(spans_file)), clock)
    layers = traced["layers"]
    scaled_time = lambda rnd: sum(r[2] * r[4] for r in rnd["records"])  # noqa: E731
    layers["trace.overhead_ratio"] = scaled_time(traced) / scaled_time(plain)
    metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
    records = plain["records"] + traced["records"]
    lines = [f"workload {workload}  seed {seed}  traced round 0: {traced['spans']} spans in {spans_file.relative_to(ROOT)}"]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    lines += _failure_lines(records, [plain, traced])
    return _result(not (plain["wrong"] or traced["wrong"]), records, metrics), lines


def _result(correct: bool, records: list, metrics: dict) -> dict:
    """The final JSON line."""
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[3] != "ok"),
        "metrics": metrics,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frontier", action="store_true", help="report the largest n each command finishes within 1 s")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hkrr" / "__init__.py").is_file():
        print(f"error: no hkrr sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.frontier:
            result = spawn({"job": "frontier", "limit": FRONTIER_LIMIT_S, "max_n": 60}, Clock(BUDGET_S))
            for name, row in result.items():
                print(f"{name:<18} largest n within {FRONTIER_LIMIT_S} s: {row['largest_n']}  (n={row['stopped_at']}: {row['outcome']})")
            print(json.dumps(result))
            return 0
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            clock = Clock(BUDGET_S)
            if args.trace:
                result, lines = run_traced(name, args.seed, clock)
            else:
                result, lines = run_untraced(name, args.seed, args.seconds, clock)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
