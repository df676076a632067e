"""What the benchmark in perfbench/ needs of hkrr: every name it reaches for exists.

perfbench wraps methods by name, calls library functions by name and sends
fixed command lines.  A deleted method would make ``tracing.install`` raise
KeyError, and a deleted option would make every request that sends it exit
64, in the benchmark and not in this suite.  These tests only read
perfbench/: they import its modules as its own tests do and restore
``sys.path`` after.
"""

import importlib
import sys
from pathlib import Path

import pytest

from hkrr import cli

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
