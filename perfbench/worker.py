"""One fresh benchmark worker process: runs a single job and prints JSON.

Jobs (the first argument is a JSON object with a ``job`` key):

* ``import``: time ``import hkrr, hkrr.cli`` in this fresh interpreter;
* ``round``: run one round of a workload's requests, closed loop, one at a
  time, each under a deadline; check every answer after the loop;
* ``beyond``: the beyond-frontier requests of ``workloads.beyond_frontier``;
* ``frontier``: the largest size each probed command finishes within a limit.

The result is the last line of standard output.  Requests run in-process:
``cli.run(argv)`` with standard output captured, or a library call.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a request; a BaseException so hkrr cannot catch it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def call_with_deadline(fn, seconds: float):
    """fn() under a wall-clock deadline enforced with ITIMER_REAL."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def import_hkrr():
    """Import hkrr from this checkout's src/ and nowhere else."""
    if not (SOURCE / "hkrr" / "__init__.py").is_file():
        raise SystemExit(f"hkrr sources not found under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import hkrr
    import hkrr.cli

    if Path(hkrr.__file__).resolve().parent != SOURCE / "hkrr":
        raise SystemExit(f"imported hkrr from {hkrr.__file__}, not from {SOURCE}")
    return hkrr


def _build_arg(arg, hkrr):
    if isinstance(arg, tuple) and arg and arg[0] == "Poly":
        return hkrr.exactpoly.Poly(arg[1])
    if isinstance(arg, tuple) and arg and arg[0] == "ResidueSet":
        return hkrr.exactpoly.ResidueSet(arg[1], frozenset(arg[2]))
    return arg


def _plain(value, hkrr):
    if isinstance(value, hkrr.exactpoly.ResidueSet):
        return {"modulus": value.modulus, "allowed": value.sorted_residues()}
    if hasattr(value, "to_json"):
        return value.to_json()
    return value


class Runner:
    """Prepares requests, times each one, and keeps raw answers for the oracle."""

    def __init__(self, hkrr, workdir: Path, deadline: float) -> None:
        self.hkrr = hkrr
        self.workdir = workdir
        self.deadline = deadline

    def prepare(self, req: dict):
        """A zero-argument callable doing exactly the timed work of req."""
        if "argv" in req:
            for name, obj in req["files"].items():
                (self.workdir / name).write_text(json.dumps(obj), encoding="utf-8")
            argv = [str(self.workdir / a[1:]) if a.startswith("@") else a for a in req["argv"]]
            run = self.hkrr.cli.run
            return lambda: run(argv)
        module, name = req["func"].split(".")
        fn = getattr(getattr(self.hkrr, module), name)
        args = [_build_arg(a, self.hkrr) for a in req["args"]]
        return lambda: fn(*args)

    def execute(self, req: dict, call, tracer=None) -> tuple[float, str, object]:
        """(latency_s, outcome, raw result); outcome is "ok" until checked."""
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = req["id"]
            tracer.stack.clear()
        outcome, result = "ok", None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                result = call_with_deadline(call, self.deadline)
            except DeadlineExceeded:
                outcome = "deadline"
            except Exception as exc:  # noqa: BLE001 - every failure is classified, not fatal
                outcome = f"exception:{type(exc).__name__}"
            latency = time.perf_counter() - start
        if tracer is not None:
            tracer.request = -1
        if outcome != "ok":
            return latency, outcome, None
        if "argv" in req:
            return latency, outcome, {"exit": result, "stdout": out.getvalue()}
        return latency, outcome, {"value": result}

    def answer(self, req: dict, raw) -> dict:
        if "argv" in req:
            try:
                report = json.loads(raw["stdout"]) if raw["exit"] == 0 else None
            except json.JSONDecodeError:
                report = None
            return {"exit": raw["exit"], "report": report}
        return {"value": _plain(raw["value"], self.hkrr)}


def classify(req: dict, outcome: str, answer: dict | None) -> str:
    """Final outcome: ok, deadline, exception:T, exit:N or wrong."""
    if outcome != "ok":
        return outcome
    if "argv" in req and answer["exit"] != 0:
        return f"exit:{answer['exit']}"
    return "ok" if oracle.check(req, answer) is None else "wrong"


# CPU speed on a shared host drifts by up to 2x over seconds, so each
# request's latency is also reported scaled to a reference speed: a fixed
# probe is timed before every request and after the last, and a request's
# speed factor is PROBE_REF_S over the median of the probes around it.
# PROBE_REF_S is about the probe's fastest time on the 2-core x86-64 VM
# (Python 3.11) where the bounds were set.
PROBE_REF_S = 6.0e-4
PROBE_WINDOW = 3  # probes taken on each side of a request


def _probe_work() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(1, i)
    return acc


def speed_probe() -> float:
    """Median duration of three runs of a fixed Fraction workload."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def speed_factors(probes: list[float]) -> list[float]:
    """Factor of request i from probes[i] (before it) and probes[i + 1] (after it)."""
    out = []
    for i in range(len(probes) - 1):
        window = probes[max(0, i + 1 - PROBE_WINDOW) : i + 1 + PROBE_WINDOW]
        out.append(PROBE_REF_S / statistics.median(window))
    return out


def run_requests(hkrr, requests: list[dict], deadline: float, tracer=None) -> dict:
    """Closed loop over requests; answers are checked after the loop.

    Each record is [id, kind, latency_s, outcome, speed_factor].
    """
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{id(requests)}-{time.time_ns()}"
    workdir.mkdir()
    try:
        runner = Runner(hkrr, workdir, deadline)
        calls = [runner.prepare(req) for req in requests]
        raw, probes = [], []
        for req, call in zip(requests, calls):
            probes.append(speed_probe())
            raw.append(runner.execute(req, call, tracer))
        probes.append(speed_probe())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records, reasons = [], {}
    for req, (latency, outcome, result), factor in zip(requests, raw, speed_factors(probes)):
        answer = runner.answer(req, result) if outcome == "ok" else None
        final = classify(req, outcome, answer)
        if final == "wrong":
            reasons[req["id"]] = oracle.check(req, answer)
        records.append([req["id"], req["kind"], latency, final, factor])
    return {"records": records, "wrong": reasons}


def _layer_metrics(tracer: tracing.Tracer, caches: dict, factors: dict[int, float]) -> dict[str, float]:
    summary = tracer.summary(factors)
    out: dict[str, float] = {}
    for name, row in summary.items():
        for field in ("calls", "self_s", "total_s"):
            out[f"{name}.{field}"] = row[field]
    out.update(tracer.observed)
    dp_calls = summary.get("cnconst.min_padic_valuation", {}).get("calls", 0)
    out["cnconst.certified_per_dp_call"] = tracer.observed["cnconst.certified_primes"] / dp_calls if dp_calls else 0.0
    for name, cached in caches.items():
        out[f"{name}.cache_hit_ratio"] = tracing.cache_hit_ratio(cached)
    return out


def job_round(spec: dict) -> dict:
    hkrr = import_hkrr()
    requests = workloads.build(spec["workload"], spec["seed"], spec["round"])
    tracer = None
    if spec.get("trace"):
        modules = {layer: getattr(hkrr, layer) for layer in tracing.LAYERS}
        caches = {
            "qkbasis.qk_poly": hkrr.qkbasis.qk_poly,
            "chebbern.pk_poly": hkrr.chebbern.pk_poly,
            "chebbern.bernoulli": hkrr.chebbern.bernoulli,
        }
        tracer = tracing.Tracer()
        tracing.install(tracer, hkrr, modules)
    result = run_requests(hkrr, requests, spec["deadline"], tracer)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        factors = {rec[0]: rec[4] for rec in result["records"]}
        result["layers"] = _layer_metrics(tracer, caches, factors)
        result["spans"] = len(tracer.spans)
        if spec.get("spans_file"):
            tracer.write(spec["spans_file"])
    return result


def job_import(spec: dict) -> dict:
    before = speed_probe()
    start = time.perf_counter()
    import_hkrr()
    import_s = time.perf_counter() - start
    factor = speed_factors([before, speed_probe()])[0]
    return {"import_s": import_s, "speed_factor": factor}


def job_beyond(spec: dict) -> dict:
    hkrr = import_hkrr()
    return run_requests(hkrr, workloads.beyond_frontier(), spec["deadline"])


def job_frontier(spec: dict) -> dict:
    """Largest size n with every size up to n answered correctly within the limit."""
    hkrr = import_hkrr()
    limit = spec["limit"]
    probes = {
        "cn": lambda n: workloads.cli_request("cn", ["cn", str(n)], {"n": n}),
        "check_even_split": lambda n: workloads.check_request(workloads.polyref.family_prr("split", n), n, even=True),
        "qk_roots": lambda k: workloads.cli_request("qk", ["qk", str(k), "--roots", "--laurent-check"], {"k": k}),
    }
    out = {}
    for name, make in probes.items():
        largest, n = 0, 1
        while n <= spec["max_n"]:
            result = run_requests(hkrr, workloads.number([make(n)]), limit)
            _, _, latency, outcome, _ = result["records"][0]
            if outcome != "ok" or latency > limit:
                out[name] = {"largest_n": largest, "stopped_at": n, "outcome": outcome, "latency_s": latency}
                break
            largest, n = n, n + 1
        else:
            out[name] = {"largest_n": largest, "stopped_at": None, "outcome": "ok", "latency_s": None}
    return out


JOBS = {"import": job_import, "round": job_round, "beyond": job_beyond, "frontier": job_frontier}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    result = JOBS[spec["job"]](spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
