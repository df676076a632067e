import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrr.chebbern import bernoulli, pk_poly
from hkrr.chernrr import ChernData, partitions, q_rr_from_chern
from hkrr.cli import run
from hkrr.exactpoly import ONE, Poly, ZERO, poly_compose_affine, rat_str


def _mul_truncated(a: dict, b: dict, cap: int) -> dict:
    out = {}
    for ka, pa in a.items():
        wa = sum(ka)
        for kb, pb in b.items():
            if wa + sum(kb) > cap:
                continue
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, ZERO) + pa * pb
    return {k: v for k, v in out.items() if not v.is_zero()}


def truncated_exponential_oracle(data: ChernData) -> Poly:
    """Independent check: expand the whole weight-graded algebra.

    exp(sum_k c_k x_k P_k) is summed term by term as sum_j arg^j / j! over
    every monomial of weight <= n (keyed by its multiset of weights), and
    only then is the weight-n part paired with the supplied values.  It
    never factors the exponential, so it shares none of the
    partition-product formula's multiplicity bookkeeping.
    """
    n = data.n
    arg = {(k,): pk_poly(k) * (-bernoulli(2 * k) / (2 * k)) for k in range(1, n + 1)}
    series = {(): ONE}
    power = {(): ONE}
    for j in range(1, n + 1):
        power = _mul_truncated(power, arg, n)
        inv_fact = Fraction(1, math.factorial(j))
        for key, poly in power.items():
            series[key] = series.get(key, ZERO) + poly * inv_fact
    out = ZERO
    for key, poly in series.items():
        if sum(key) == n:
            out = out + poly * data.values.get(key, 0)
    return out


def per_partition_oracle(data: ChernData) -> Poly:
    """The partition-product formula term by term, one Fraction scalar and one sum per partition."""
    out = ZERO
    for key, v in data.values.items():
        if not v:
            continue
        scalar, term = v, ONE
        for k, e in Counter(key).items():
            scalar *= (-bernoulli(2 * k) / (2 * k)) ** e / math.factorial(e)
            term = term * pk_poly(k) ** e
        out = out + term * scalar
    return out


VALUES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-(10**6), 10**6).map(Fraction),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**15)),
)


@st.composite
def chern_data(draw) -> ChernData:
    """Full, sparse, all-zero, single-part and repeated-part data for n <= 12."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["full", "sparse", "zero", "single", "repeated"]))
    if shape == "full":
        keys = partitions(n)
    elif shape == "sparse":
        keys = draw(st.lists(st.sampled_from(partitions(n)), max_size=6, unique=True))
    elif shape == "zero":
        return ChernData(n, {key: 0 for key in draw(st.lists(st.sampled_from(partitions(n)), unique=True))})
    elif shape == "single":
        keys = [(n,)]
    else:
        k = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        keys = [(k,) * (n // k)]
    return ChernData(n, {key: draw(VALUES) for key in keys})


def random_chern(rng, n, lo=-(10**6), hi=10**6) -> ChernData:
    return ChernData(n, {part: rng.randint(lo, hi) for part in partitions(n)})


class TestChernData:
    def test_keys_canonicalized_to_multisets(self):
        d = ChernData(3, {(2, 1): 5})
        assert d.values.get((1, 2), 0) == 5
        assert ChernData(3, {(1, 2): 5}).values == d.values == {(1, 2): 5}

    def test_missing_keys_are_zero(self):
        assert ChernData(2, {}).values.get((1, 1), 0) == 0

    def test_rejects_wrong_weight(self):
        with pytest.raises(ValueError):
            ChernData(3, {(1, 1): 1})

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            ChernData(2, {(0, 2): 1})

    @pytest.mark.parametrize(
        "n, values, message",
        [
            (2.9, {(2,): 3}, "half-dimension n must be an integer, got 2.9"),
            (3, {(1.5, 1.5): 3}, r"partition \(1.5, 1.5\) must consist of integers"),
            (3, {"12": 3}, "partition '12' must consist of integers"),
        ],
    )
    def test_rejects_non_integers(self, n, values, message):
        # int() would truncate each of these to a valid half-dimension or partition.
        with pytest.raises(ValueError, match=f"^{message}$"):
            ChernData(n, values)

    def test_rejects_duplicate_partitions(self):
        with pytest.raises(ValueError):
            ChernData(2, {(1, 2): 1, (2, 1): 2})

    def test_json_round_trip(self):
        d = ChernData(3, {(1, 1, 1): Fraction(5, 3), (1, 2): -7})
        blob = json.dumps(d.to_json())
        back = ChernData.from_json(json.loads(blob))
        assert back.n == d.n and back.values == d.values

    def test_report_shape_repr_and_identity(self):
        d = ChernData(2, {(2,): Fraction(1, 2), (1, 1): -3})
        assert d.to_json() == {
            "n": 2,
            "values": [{"partition": [1, 1], "value": "-3"}, {"partition": [2], "value": "1/2"}],
        }
        assert repr(d) == "ChernData(n=2, values={(2,): Fraction(1, 2), (1, 1): Fraction(-3, 1)})"
        # Equality and hashing stay by identity.
        assert d == d and d != ChernData(2, dict(d.values)) and len({d, d}) == 1


class TestPartitions:
    def test_small_counts(self):
        # 1, 2, 3, 5, 7, 11 partitions of 1..6.
        assert [len(partitions(n)) for n in range(1, 7)] == [1, 2, 3, 5, 7, 11]

    def test_each_sums_to_n(self):
        for n in range(1, 8):
            for part in partitions(n):
                assert sum(part) == n and all(k >= 1 for k in part)


class TestQrrFromChern:
    def test_all_zero_data_gives_zero(self):
        assert q_rr_from_chern(ChernData(4, {})) == ZERO

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=chern_data())
    def test_matches_per_partition_formula(self, data):
        assert q_rr_from_chern(data) == per_partition_oracle(data)

    def test_k3_surface(self):
        # n = 1 with integral of ch_2 equal to -24 gives T + 2.
        assert q_rr_from_chern(ChernData(1, {(1,): -24})) == Poly((2, 1))

    def test_n2_expansion_coefficients(self):
        # Weight-2 part: v/288 (T/2+1)^2 + w/120 (T^2/2+2T+1).
        v, w = Fraction(7, 3), Fraction(-11, 2)
        got = q_rr_from_chern(ChernData(2, {(1, 1): v, (2,): w}))
        p1, p2 = pk_poly(1), pk_poly(2)
        assert got == p1 * p1 * (v / 288) + p2 * (w / 120)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_partition_formula_oracle(self, n):
        # The partition-product formula in hkrr against the truncated exponential,
        # on full data and on sparse data with zero values and keys out of order.
        rng = random.Random(100 + n)
        for _ in range(25):
            full = random_chern(rng, n, -999, 999)
            sparse = ChernData(
                n,
                {
                    tuple(rng.sample(key, len(key))): rng.choice([0, v / rng.randint(1, 9)])
                    for key, v in full.values.items()
                    if rng.random() < 0.5
                },
            )
            for data in (full, sparse):
                assert q_rr_from_chern(data) == truncated_exponential_oracle(data)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_single_part_closed_form(self, n):
        v = Fraction(-7, 5)
        expected = pk_poly(n) * (v * -bernoulli(2 * n) / (2 * n))
        assert q_rr_from_chern(ChernData(n, {(n,): v})) == expected

    @pytest.mark.parametrize("n", range(1, 31))
    def test_all_ones_closed_form(self, n):
        v = Fraction(3, 2)
        expected = (pk_poly(1) * Fraction(-1, 12)) ** n * Fraction(v, math.factorial(n))
        assert q_rr_from_chern(ChernData(n, {(1,) * n: v})) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetry_property(self, n):
        rng = random.Random(200 + n)
        sign = -1 if n % 2 else 1
        for _ in range(20):
            q = q_rr_from_chern(random_chern(rng, n))
            assert poly_compose_affine(q, -1, -4) == q * sign

    def test_linearity(self):
        rng = random.Random(9)
        n = 4
        for _ in range(20):
            d1, d2 = random_chern(rng, n, -99, 99), random_chern(rng, n, -99, 99)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            combo = ChernData(
                n, {part: a * d1.values.get(part, 0) + b * d2.values.get(part, 0) for part in partitions(n)}
            )
            assert q_rr_from_chern(combo) == q_rr_from_chern(d1) * a + q_rr_from_chern(d2) * b

    @pytest.mark.parametrize("n", range(1, 7))
    def test_degree_never_exceeds_n(self, n):
        rng = random.Random(300 + n)
        for _ in range(20):
            q = q_rr_from_chern(random_chern(rng, n, -50, 50))
            assert q.degree <= n

    def test_degree_exactly_n_for_single_partition(self):
        # With only the all-ones partition set, the leading term cannot cancel.
        for n in range(1, 7):
            q = q_rr_from_chern(ChernData(n, {(1,) * n: 1}))
            assert q.degree == n


# sha256 of the exit code, stdout and stderr of `hkrr qrr` on 120 seeded
# Chern data files, recorded with the per-partition Fraction formula.
QRR_REPORTS_DIGEST = "8ed0a2751c516776b06a846868707ee383a52d08d4ea033458bc681225814d85"


def test_qrr_reports_digest(tmp_path, capsys):
    rng = random.Random(2701)
    digest = hashlib.sha256()
    path = tmp_path / "chern.json"
    for i in range(120):
        shape = i % 6
        n = rng.randint(1, 40) if shape in (2, 3) else rng.randint(1, 14)
        if shape == 2:
            keys = [(n,)]
        elif shape == 3:
            k = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            keys = [(k,) * (n // k)]
        elif shape == 4:
            keys = rng.sample(partitions(n), min(3, len(partitions(n))))
        else:
            keys = partitions(n)
        values = []
        for key in keys:
            kind = rng.random()
            if shape == 5 or kind < 0.15:
                v = Fraction(0)
            elif kind < 0.6:
                v = Fraction(rng.randint(-(10**6), 10**6))
            else:
                v = Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**12))
            values.append({"partition": list(rng.sample(key, len(key))), "value": rat_str(v)})
        path.write_text(json.dumps({"n": n, "values": values}))
        argv = ["qrr", "--chern", str(path)] + (["--markdown"] if i % 7 == 0 else [])
        code = run(argv)
        out, err = capsys.readouterr()
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == QRR_REPORTS_DIGEST
