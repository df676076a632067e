"""Span tracing installed from outside the package.

``install`` replaces every public function of the traced modules, in every
module namespace that binds it, with a wrapper that records a span
(name, start, end, parent, request).  Methods named in ``METHODS`` are
wrapped on their classes.  A span's self time is its duration minus the
durations of its direct children; calls are strictly nested because the
worker runs one request at a time on one thread.
"""

from __future__ import annotations

import gzip
import math
import time
import types
from collections import defaultdict
from typing import Callable, Iterable

# Layers in dependency order; the span prefix is the module's short name.
LAYERS = ("exactpoly", "chebbern", "chernrr", "qkbasis", "cnconst", "hkprofile", "isosolver", "cli")

# (module, class, method, span name).  __rmul__ is the same function as
# __mul__, so both feed exactpoly.Poly.mul.
METHODS = (
    ("exactpoly", "Poly", "__mul__", "exactpoly.Poly.mul"),
    ("exactpoly", "Poly", "__rmul__", "exactpoly.Poly.mul"),
    ("exactpoly", "Poly", "__divmod__", "exactpoly.Poly.divmod"),
    ("exactpoly", "ResidueSet", "reduce", "exactpoly.ResidueSet.reduce"),
)


class Tracer:
    """Spans kept in memory; ``request`` tags the spans of the current request."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.stack: list[int] = []
        self.request = -1
        self.observed: dict[str, int] = defaultdict(int)
        self._name_ids: dict[str, int] = {}

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """fn with a span per call; ``after(tracer, args, result)`` runs outside the span."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name_id, 0.0, 0.0, parent, self.request))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.request)
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def summary(self, factors: dict[int, float] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, and total_s (outermost spans only).

        ``factors`` maps a request id to the speed factor its times are scaled by.
        """
        factors = factors or {}
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names
        }
        for i, (name_id, start, end, parent, request) in enumerate(self.spans):
            scale = factors.get(request, 1.0)
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += ((end - start) - child[i]) * scale
            if not self._inside_same_name(i):
                row["total_s"] += (end - start) * scale
        return out

    def _inside_same_name(self, index: int) -> bool:
        name_id, parent = self.spans[index][0], self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name_id:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """Spans as gzip-compressed tab-separated text, one per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for name_id, start, end, parent, request in self.spans:
                fh.write(f"{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")


def _max_coeff_bits(tracer: Tracer, args, result) -> None:
    polys = result if isinstance(result, tuple) else (result,)
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for p in polys for c in p.coeffs),
        default=0,
    )
    if bits > tracer.observed["exactpoly.Poly.max_coeff_bits"]:
        tracer.observed["exactpoly.Poly.max_coeff_bits"] = bits


def _layer_tuples(tracer: Tracer, args, result) -> None:
    n, bound = args[0], args[1]
    tracer.observed["cnconst.layer_gcd.tuples"] += math.comb(bound, n)


def _certified_primes(tracer: Tracer, args, result) -> None:
    tracer.observed["cnconst.certified_primes"] += len(result.factorization)


def _candidates(tracer: Tracer, args, result) -> None:
    tracer.observed["isosolver.candidates"] += sum(len(b.candidates) for b in result.branches)


AFTER = {
    "exactpoly.Poly.mul": _max_coeff_bits,
    "exactpoly.Poly.divmod": _max_coeff_bits,
    "cnconst.layer_gcd": _layer_tuples,
    "cnconst.cn_value": _certified_primes,
    "isosolver.solve_case": _candidates,
}


def public_functions(module) -> Iterable[str]:
    """Names in ``__all__`` (``run`` for the cli) bound to plain or cached functions."""
    names = getattr(module, "__all__", None) or ["run"]
    for name in names:
        obj = getattr(module, name, None)
        if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
            yield name


def install(tracer: Tracer, package, modules: dict) -> list[tuple[object, str, object]]:
    """Wrap the public functions and METHODS; returns (owner, attr, original) to restore."""
    namespaces = [package] + list(modules.values())
    restore: list[tuple[object, str, object]] = []
    for layer, module in modules.items():
        for fname in public_functions(module):
            original = getattr(module, fname)
            if getattr(original, "__module__", module.__name__) != module.__name__:
                continue  # re-exported from another layer; wrapped there
            span = f"{layer}.{fname}"
            wrapper = tracer.wrap(span, original, AFTER.get(span))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        restore.append((ns, attr, value))
                        setattr(ns, attr, wrapper)
    wrapped: dict[tuple[object, object], Callable] = {}
    for layer, cls_name, method, span in METHODS:
        cls = getattr(modules[layer], cls_name)
        original = vars(cls)[method]
        key = (cls, original)
        if key not in wrapped:
            wrapped[key] = tracer.wrap(span, original, AFTER.get(span))
        restore.append((cls, method, original))
        setattr(cls, method, wrapped[key])
    return restore


def uninstall(restore: list[tuple[object, str, object]]) -> None:
    for owner, attr, value in reversed(restore):
        setattr(owner, attr, value)


def cache_hit_ratio(cached) -> float:
    info = cached.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0
