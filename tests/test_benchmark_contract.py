"""What the benchmark in perfbench/ needs of hkrr: every name it reaches for exists.

perfbench wraps methods by name, calls library functions by name, reads
attributes of their results in its ``tracing.AFTER`` hooks and sends fixed
command lines.  A deleted method would make ``tracing.install`` raise
KeyError, a reshaped result would make a hook raise AttributeError, and a
deleted option would make every request that sends it exit 64, in the
benchmark and not in this suite.  These tests only read
perfbench/: they import its modules as its own tests do and restore
``sys.path`` after.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hkrr import cli
from hkrr.cnconst import cn_value
from hkrr.exactpoly import Poly
from hkrr.isosolver import solve_case

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _import_bench(*names: str) -> list:
    saved = list(sys.path)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path[:] = saved


tracing, workloads = _import_bench("tracing", "workloads")


def test_traced_methods_are_defined_on_their_classes():
    for layer, cls_name, method, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"hkrr.{layer}"), cls_name)
        assert method in vars(cls), f"{layer}.{cls_name}.{method}"
    assert ("exactpoly", "Poly", "__divmod__") in {entry[:3] for entry in tracing.METHODS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_reach_hkrr(workload):
    # A library call names an hkrr callable; a command line parses.  An
    # "@name" argument stands for an input file's path, which parsing does not open.
    parser, argvs = cli.build_parser(), []
    for req in workloads.build(workload, 1, 0):
        if "func" in req:
            module, name = req["func"].split(".")
            assert callable(getattr(importlib.import_module(f"hkrr.{module}"), name, None)), req["func"]
        else:
            args = parser.parse_args([a[1:] if a.startswith("@") else a for a in req["argv"]])
            assert args.command == req["argv"][0], req["argv"]
            argvs.append(req["argv"])
    if workload == "certify":
        assert any(argv[0] == "cn" and "--stability" in argv for argv in argvs)


@pytest.mark.parametrize("workload", [*workloads.WORKLOADS, "beyond-frontier"])
def test_command_lines_take_the_table_route(workload):
    # Every command line the benchmark sends is read by the table parser,
    # with no argparse, into the namespace argparse would return: the
    # benchmark measures the route a well-formed request takes.
    requests = workloads.beyond_frontier() if workload == "beyond-frontier" else workloads.build(workload, 1, 0)
    for req in requests:
        if "argv" in req:
            argv = [a[1:] if a.startswith("@") else a for a in req["argv"]]
            args = cli._parse_canonical(argv)
            assert args is not None, argv
            assert vars(args) == vars(cli.build_parser().parse_args(argv)), argv


# The counter each AFTER hook feeds, and a real result of its span's function.
HOOK_RESULTS = {
    "exactpoly.Poly.mul": ("exactpoly.Poly.max_coeff_bits", lambda: Poly((1, 2)) * Poly((Fraction(1, 3), 5))),
    "exactpoly.Poly.divmod": ("exactpoly.Poly.max_coeff_bits", lambda: divmod(Poly((1, 0, 3)), Poly((1, 2)))),
    "cnconst.cn_value": ("cnconst.certified_primes", lambda: cn_value(3)),
    "isosolver.solve_case": ("isosolver.candidates", lambda: solve_case(3, 1)),
}


@pytest.mark.parametrize("span", sorted(tracing.AFTER))
def test_after_hook_counts_a_real_result(span):
    layer, name = span.split(".", 1)
    if span not in HOOK_RESULTS:
        # A hook on a function hkrr no longer has is never installed.
        assert not hasattr(importlib.import_module(f"hkrr.{layer}"), name), span
        return
    counter, make_result = HOOK_RESULTS[span]
    tracer = tracing.Tracer()
    tracing.AFTER[span](tracer, (), make_result())
    assert tracer.observed[counter] > 0, span
