"""Riemann-Roch polynomial of a holomorphic-symplectic manifold from Chern numbers.

The polynomial is the weight-n part of exp(sum_k c_k x_k P_k(T)), with
c_k = -B_{2k}/(2k) and x_k a formal variable of weight k (an integral over a
2n-fold picks up only weight n), once the supplied intersection numbers are
substituted for the weight-n monomials x_{k_1}...x_{k_r}.  Monomials are keyed
by the multiset {k_1,...,k_r}, since products of cohomology classes commute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Iterable

from .chebbern import bernoulli, pk_poly
from .exactpoly import Poly, Report, _poly, as_rat, integer_form, json_echo, rat_from_json, rat_str

__all__ = ["ChernData", "Partition", "partitions", "q_rr_from_chern"]

Partition = tuple[int, ...]


def partitions(n: int) -> list[Partition]:
    """All partitions of n as ascending tuples, in lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[Partition] = []

    def rec(remaining: int, minimum: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(minimum, remaining + 1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, 1, ())
    return sorted(out)


def _canonical_key(key: Iterable[int]) -> Partition:
    parts = tuple(key)
    ints = tuple(map(int, parts))
    if ints != parts:
        raise ValueError(f"partition {key!r} must consist of integers")
    return tuple(sorted(ints))


def _values_json(values: dict[Partition, Fraction]) -> list[dict]:
    return [{"partition": list(key), "value": rat_str(v)} for key, v in sorted(values.items())]


@dataclass(eq=False, repr=False)
class ChernData(Report):
    """Intersection numbers of Chern character components, keyed by multiset.

    ``values[{k_1,...,k_r}]`` holds the integral of ch_{2k_1}...ch_{2k_r};
    every key must be a nonempty multiset of positive integers summing to n.
    Any mapping is accepted and stored as a dict of sorted keys to Fractions.
    Missing keys are treated as 0.  The data is not checked for coming from
    an actual manifold: the property suites rely on arbitrary inputs.
    """

    n: int
    values: dict[Partition, Fraction] = field(metadata={"json": _values_json})

    def __post_init__(self) -> None:
        if int(self.n) != self.n:
            raise ValueError(f"half-dimension n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("half-dimension n must be >= 1")
        self.n = int(self.n)
        canon: dict[Partition, Fraction] = {}
        for raw_key, raw_value in self.values.items():
            key = _canonical_key(raw_key)
            if not key or any(k < 1 for k in key):
                raise ValueError(f"partition {key} must consist of positive integers")
            if sum(key) != self.n:
                raise ValueError(f"partition {key} does not sum to n={self.n}")
            if key in canon:
                raise ValueError(f"duplicate partition {key}")
            canon[key] = as_rat(raw_value)
        self.values = canon

    @classmethod
    def from_json(cls, obj: dict) -> "ChernData":
        if not isinstance(obj, dict) or "n" not in obj or not isinstance(obj.get("values"), list):
            raise ValueError("Chern data JSON must carry 'n' and a 'values' list")
        n = obj["n"]
        if not _is_json_int(n):
            raise ValueError(f"n: expected an integer, got {json_echo(n)}")
        values = {}
        for i, entry in enumerate(obj["values"]):
            part = entry.get("partition") if isinstance(entry, dict) else None
            if not isinstance(part, list) or "value" not in entry:
                raise ValueError(f"values[{i}]: expected an object with a 'partition' list and a 'value'")
            if not all(_is_json_int(k) for k in part):
                raise ValueError(f"values[{i}].partition: expected integers, got {json_echo(part)}")
            if tuple(part) in values:
                raise ValueError(f"values[{i}]: duplicate partition {part}")
            values[tuple(part)] = rat_from_json(entry["value"], f"values[{i}].value")
        return cls(n, values)


def _is_json_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@cache
def _factor(k: int, e: int) -> Poly:
    """(c_k P_k)^e / e!, with c_k = -B_2k/(2k): one factor of a partition's term."""
    return (pk_poly(k) * (-bernoulli(2 * k) / (2 * k))) ** e / math.factorial(e)


def q_rr_from_chern(data: ChernData) -> Poly:
    """Degree-n Riemann-Roch polynomial (normalized form) from Chern numbers.

    exp(sum_k c_k x_k P_k) = prod_k exp(c_k x_k P_k), so the coefficient of
    x_{k_1}^{e_1}... is prod_k (c_k P_k)^{e_k} / e_k!: one product of cached
    factors per supplied nonzero value, whatever n is.  The terms v N/M
    (v = a/b, N/M the product's integer form) are summed as integers over
    the lcm D of the bM, each scaled by a D/(bM), and the sum is reduced once.
    """
    terms = []
    for key, v in data.values.items():
        if v:
            factors = [_factor(k, key.count(k)) for k in dict.fromkeys(key)]
            terms.append((v, integer_form(math.prod(factors[1:], start=factors[0]))))
    den = math.lcm(*(v.denominator * m for v, (_, m) in terms))
    out = [0] * (data.n + 1)
    for v, (nums, m) in terms:
        scale = v.numerator * (den // (v.denominator * m))
        for i, c in enumerate(nums):
            out[i] += scale * c
    return _poly(out, den)
