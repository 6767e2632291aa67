import numpy as np
import pytest

from detpf.exactlin import PrimeField
from detpf.mpoly import sample_points
from detpf.polymat import LinearSkewMatrix
from detpf.rng import FieldRng, below_table

# 2**62 + 1 does not divide 2**64, and `below` rejects about a quarter of
# the raw draws: rows of the array route fall back to FieldRng
REJECTING = 2**62 + 1
SEEDS = [0, 7, 2**63 + 12345, 2**64 - 1, "labelled"]


def scalar_points(p, nvars, seed, start, count):
    """sample_points as a loop over one FieldRng per point."""
    rows = []
    for i in range(count):
        rng = FieldRng(seed, "point", start + i)
        rows.append([rng.below(p) for _ in range(nvars)])
    return np.array(rows, dtype=np.int64).reshape(count, nvars)


def rejected_rows(seed, start, count, width, n):
    """Indices of the rows holding a raw draw that below(n) rejects."""
    limit = (1 << 64) - ((1 << 64) % n)
    rows = [FieldRng(seed, "point", start + i) for i in range(count)]
    return [i for i, rng in enumerate(rows) if any(rng.next_uint64() >= limit for _ in range(width))]


@pytest.mark.parametrize("p", [3, 31991, 2**31 - 1])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start", [0, 1000])
def test_sample_points_matches_the_scalar_stream(p, seed, start):
    got = sample_points(PrimeField(p), 4, seed, start, 60)
    assert got.dtype == np.int64
    assert np.array_equal(got, scalar_points(p, 4, seed, start, 60))


def test_sample_points_of_no_point():
    assert sample_points(PrimeField(7), 3, 1, 5, 0).shape == (0, 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_rejected_draw_sends_its_row_to_the_scalar_route(seed):
    start, count, width = 3, 40, 4
    rejected = rejected_rows(seed, start, count, width, REJECTING)
    assert 0 < len(rejected) < count
    got = below_table(seed, "point", start, count, width, REJECTING)
    assert np.array_equal(got, scalar_points(REJECTING, width, seed, start, count))


@pytest.mark.parametrize("n", [3, 31991, 2**31 - 1, 2**32])
@pytest.mark.parametrize("seed", SEEDS)
def test_below_many_continues_the_stream(n, seed):
    fast, slow = FieldRng(seed, "many"), FieldRng(seed, "many")
    assert fast.below(n) == slow.below(n)
    for count in (0, 1, 50):
        assert fast.below_many(n, count).tolist() == [slow.below(n) for _ in range(count)]
    assert fast.below(n) == slow.below(n)


def test_below_many_falls_back_on_a_rejected_draw():
    rng = FieldRng(5, "many")
    limit = (1 << 64) - ((1 << 64) % REJECTING)
    probe = FieldRng(5, "many")
    assert any(probe.next_uint64() >= limit for _ in range(20))
    slow = FieldRng(5, "many")
    assert rng.below_many(REJECTING, 20).tolist() == [slow.below(REJECTING) for _ in range(20)]
    assert rng.next_uint64() == slow.next_uint64()


@pytest.mark.parametrize("p", [3, 31991, 2**31 - 1])
def test_random_linear_skew_matches_the_scalar_loop(p):
    field = PrimeField(p)
    rng, slow = FieldRng(2**63 + 1, "skew"), FieldRng(2**63 + 1, "skew")
    L = LinearSkewMatrix.random(field, 4, 6, rng)
    coeff = np.zeros((4, 6, 6), dtype=np.int64)
    for k in range(4):
        for i in range(6):
            for j in range(i + 1, 6):
                v = slow.below(p)
                coeff[k, i, j], coeff[k, j, i] = v, (-v) % p
    assert np.array_equal(L.coeff, coeff)
    assert rng.next_uint64() == slow.next_uint64()
