import os
import subprocess
import sys
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from detpf import exactlin
from detpf.exactlin import (
    DEFAULT_PRIME,
    Inconsistent,
    PrimeField,
    RankDeficient,
    ScalarMatrix,
    Singular,
    determinant,
    invert,
    pfaffian_skew,
    rank,
    solve_many,
)
from detpf.rng import FieldRng
from reference import kernel_basis

F = PrimeField(DEFAULT_PRIME)
P = DEFAULT_PRIME


def random_matrix(rng, rows, cols):
    return ScalarMatrix(F, [[rng.below(P) for _ in range(cols)] for _ in range(rows)])


def random_skew(rng, n):
    u = np.array([[rng.below(P) for _ in range(n)] for _ in range(n)], dtype=np.int64)
    u = np.triu(u, 1)
    return ScalarMatrix(F, u - u.T)


def test_field_context_rejects_bad_moduli():
    for bad in (0, 1, 2, 4, 9, 15, 31989, 2**31 + 11):
        with pytest.raises(ValueError):
            PrimeField(bad)
    PrimeField(3)
    PrimeField(101)
    PrimeField(31991)


def test_field_arithmetic_exact():
    rng = FieldRng(1)
    for _ in range(200):
        a, b, c = (rng.below(P) for _ in range(3))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        if a:
            assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_field_sqrt():
    rng = FieldRng(2)
    for _ in range(50):
        a = rng.below(P)
        s = F.sqrt(a * a % P)
        assert s is not None and s * s % P == a * a % P
    # p = 31991 is 3 mod 4, so -1 is not a square
    assert F.sqrt(P - 1) is None
    F13 = PrimeField(13)  # 1 mod 4 exercises Tonelli-Shanks
    for a in range(13):
        s = F13.sqrt(a * a % 13)
        assert s is not None and s * s % 13 == a * a % 13


def test_rank_examples():
    assert rank(ScalarMatrix.identity(F, 3)) == 3
    assert rank(ScalarMatrix.zeros(F, 5, 7)) == 0
    assert rank(ScalarMatrix(F, [[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel_basis(ScalarMatrix.identity(F, 4)) == []
    (v,) = kernel_basis(ScalarMatrix(F, [[1, -1]]))
    assert v[0] == v[1] != 0
    (v,) = kernel_basis(ScalarMatrix(F, [[1, 2], [2, 4]]))
    assert (v[0] + 2 * v[1]) % P == 0


def test_invert_examples():
    assert invert(ScalarMatrix.identity(F, 3)) == ScalarMatrix.identity(F, 3)
    A = ScalarMatrix(F, [[0, 1], [-1, 0]])
    assert invert(A) == ScalarMatrix(F, [[0, -1], [1, 0]])
    with pytest.raises(Singular):
        invert(ScalarMatrix(F, [[1, 2], [2, 4]]))


def test_solve_many_examples():
    B = ScalarMatrix(F, [[5, 6], [7, 8], [9, 10]])
    assert solve_many(ScalarMatrix.identity(F, 3), B) == B
    A = ScalarMatrix(F, [[2, 0], [0, 3]])
    X = solve_many(A, ScalarMatrix(F, [[4], [9]]))
    assert X.a[:, 0].tolist() == [2, 3]
    # 3x2 of rank 2 with consistent rhs: unique solution checked by substitution
    rng = FieldRng(3)
    for _ in range(20):
        A = random_matrix(rng, 3, 2)
        if rank(A) < 2:
            continue
        X = random_matrix(rng, 2, 4)
        B = A @ X
        got = solve_many(A, B)
        assert A @ got == B
        assert got == X
    with pytest.raises(RankDeficient):
        solve_many(ScalarMatrix(F, [[1, 2], [2, 4]]), ScalarMatrix(F, [[1], [2]]))
    with pytest.raises(Inconsistent):
        solve_many(ScalarMatrix(F, [[1, 0], [0, 1], [0, 0]]), ScalarMatrix(F, [[0], [0], [1]]))


def test_rank_transpose_invariant():
    rng = FieldRng(4)
    for shape in ((3, 5), (6, 4), (7, 7)):
        for _ in range(100):
            A = random_matrix(rng, *shape)
            assert rank(A) == rank(A.T)


def test_rank_nullity():
    rng = FieldRng(5)
    for _ in range(100):
        rows = 2 + rng.below(6)
        cols = 2 + rng.below(6)
        A = random_matrix(rng, rows, cols)
        # sprinkle some dependencies
        if rows > 2 and rng.below(2):
            A.a[rows - 1] = A.a[0]
        assert rank(A) + len(kernel_basis(A)) == cols


def test_invert_roundtrip():
    rng = FieldRng(6)
    for n in (1, 2, 3, 5, 8):
        for _ in range(20):
            A = random_matrix(rng, n, n)
            try:
                Ainv = invert(A)
            except Singular:
                continue
            assert Ainv @ A == ScalarMatrix.identity(F, n)
            assert A @ Ainv == ScalarMatrix.identity(F, n)


def test_determinant_matches_pivot_free_cases():
    assert determinant(ScalarMatrix.identity(F, 4)) == 1
    assert determinant(ScalarMatrix(F, [[1, 2], [2, 4]])) == 0
    A = ScalarMatrix(F, [[2, 1], [1, 1]])
    assert determinant(A) == 1
    rng = FieldRng(7)
    for _ in range(50):
        A = random_matrix(rng, 3, 3)
        B = random_matrix(rng, 3, 3)
        assert determinant(A @ B) == determinant(A) * determinant(B) % P


def test_pfaffian_convention():
    assert pfaffian_skew(ScalarMatrix(F, [[0, 7], [-7, 0]])) == 7
    rng = FieldRng(8)
    for _ in range(50):
        vals = [rng.below(P) for _ in range(6)]
        a12, a13, a14, a23, a24, a34 = vals
        A = ScalarMatrix(
            F,
            [
                [0, a12, a13, a14],
                [-a12, 0, a23, a24],
                [-a13, -a23, 0, a34],
                [-a14, -a24, -a34, 0],
            ],
        )
        assert pfaffian_skew(A) == (a12 * a34 - a13 * a24 + a14 * a23) % P


def test_pfaffian_squares_to_determinant():
    rng = FieldRng(9)
    for n in (2, 4, 6, 8, 10, 12):
        for _ in range(25):
            A = random_skew(rng, n)
            pf = pfaffian_skew(A)
            assert pf * pf % P == determinant(A)


def test_elimination_deterministic():
    rng = FieldRng(10)
    A = random_matrix(rng, 12, 9)
    r1, k1 = rank(A), kernel_basis(A)
    r2, k2 = rank(A), kernel_basis(A)
    assert r1 == r2
    assert all(np.array_equal(a, b) for a, b in zip(k1, k2))


# ---- recursive kernel against a plain-integer reference ----------------------


def _float_boundary(n: int) -> tuple[int, int]:
    """The primes either side of n*(p-1)**2 + 2p < 2**53, the bound under
    which the recursive elimination runs in float64 with up to n pivots."""
    m = isqrt((exactlin.FLOAT_EXACT - 1) // n) + 2
    while n * (m - 1) ** 2 + 2 * m >= exactlin.FLOAT_EXACT:
        m -= 1
    return _primes_around(m)


def _primes_around(m: int) -> tuple[int, int]:
    """The largest prime <= m and the smallest prime > m."""
    lo, hi = m, m + 1
    while not exactlin._is_prime(lo):
        lo -= 1
    while not exactlin._is_prime(hi):
        hi += 1
    return lo, hi


# within one leaf, one leaf, one leaf and a column, and three to five
# levels, with spans on both sides of BLOCK: up to it a span hands its parent
# L^-1, above it a solve
BLOCK = exactlin.BLOCK
WIDTHS = (1, 7, exactlin.LEAF, exactlin.LEAF + 1, 33, BLOCK + 1, 67, 130, 2 * BLOCK + 3)
# the largest prime at which 32 pivots may stay unreduced: matrices up to 32
# wide delay their products there, wider ones take them reduced
FLOAT_PRIME = _float_boundary(32)[0]
PRIMES = (3, 31991, FLOAT_PRIME, 2**31 - 1)
# and the largest prime at which every width above delays its products
KERNEL_PRIMES = PRIMES + (_float_boundary(max(WIDTHS))[0],)


def _row_op(a, f, b, p):
    return [(x - f * y) % p for x, y in zip(a, b)]


def reference_eliminate(rows, p, ncols):
    """Gauss-Jordan on lists of Python ints, with the kernel's pivot rule (the
    first nonzero entry in row order).  Returns (echelon, reduced, pivots, sign)."""
    m = [[x % p for x in r] for r in rows]
    pivots, sign, row = [], 1, 0
    for col in range(ncols):
        if row == len(m):
            break
        r = next((i for i in range(row, len(m)) if m[i][col]), None)
        if r is None:
            continue
        if r != row:
            m[row], m[r] = m[r], m[row]
            sign = -sign
        inv = pow(m[row][col], p - 2, p)
        m[row] = [x * inv % p for x in m[row]]
        for i in range(row + 1, len(m)):
            if m[i][col]:
                m[i] = _row_op(m[i], m[i][col], m[row], p)
        pivots.append(col)
        row += 1
    echelon = [r[:] for r in m]
    for k in range(len(pivots) - 1, 0, -1):
        for i in range(k):
            if m[i][pivots[k]]:
                m[i] = _row_op(m[i], m[i][pivots[k]], m[k], p)
    return echelon, m, pivots, sign


def _as_int64(rows, shape):
    return np.array(rows, dtype=np.int64).reshape(shape)


def structured(p, ncols, nrows, rhs, rank_cap, lead, zero_share, seed):
    """(p, ncols, matrix) whose first ncols columns have rank at most rank_cap.

    Rows are combinations of rank_cap random basis rows whose first `lead`
    columns and a random share of the others are zero, so whole panels can
    lack a pivot; the `rhs` columns past ncols are independent and random.
    """
    rng = np.random.default_rng(seed)
    basis = rng.integers(0, p, (rank_cap, ncols), dtype=np.int64).astype(object)
    basis[:, :lead] = 0
    basis[:, rng.random(ncols) < zero_share] = 0
    coef = rng.integers(0, p, (nrows, rank_cap), dtype=np.int64).astype(object)
    coef[rng.random(nrows) < 0.2] = 0
    a = coef.dot(basis) % p if rank_cap else np.zeros((nrows, ncols), dtype=object)
    b = rng.integers(0, p, (nrows, rhs), dtype=np.int64)
    return p, ncols, np.hstack([a.astype(np.int64), b])


@st.composite
def structured_matrices(draw):
    ncols = draw(st.sampled_from(WIDTHS))
    nrows = draw(st.sampled_from((2, ncols, ncols + 12)))
    top = min(nrows, ncols)
    return structured(
        p=draw(st.sampled_from(KERNEL_PRIMES)),
        ncols=ncols,
        nrows=nrows,
        rhs=draw(st.sampled_from((0, 1, 3))),
        rank_cap=draw(st.sampled_from((top, top, top // 2, 0))),
        lead=draw(st.sampled_from((0, 0, 1, exactlin.LEAF, ncols))),
        zero_share=draw(st.sampled_from((0.0, 0.3, 0.9))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


WIDE = 67
# cases a small example budget might miss: each spans four recursion levels
EXAMPLES = (
    structured(31991, WIDE, WIDE + 12, 3, WIDE, 0, 0.0, 1),  # tall, full column rank
    structured(KERNEL_PRIMES[-1], WIDE, WIDE, 1, WIDE - 7, 0, 0.3, 2),  # pivots skip columns
    structured(3, WIDE, 40, 2, 40, 2 * exactlin.LEAF, 0.0, 3),  # first two leaves without pivot
    structured(2**31 - 1, WIDE, WIDE, 3, WIDE, 0, 0.0, 4),  # split, reduced products
    structured(31991, 130, 40, 2, 40, 0, 0.0, 5),  # rows run out halfway
    # above BLOCK, solves of solves: split products, and a rank-deficient
    # matrix at p = 3 whose zero rows and columns force row swaps
    structured(2**31 - 1, 2 * BLOCK + 3, 2 * BLOCK + 7, 2, 2 * BLOCK + 3, 0, 0.0, 6),
    structured(3, 2 * BLOCK + 3, 2 * BLOCK + 3, 1, BLOCK + 9, 1, 0.3, 7),
)


@settings(max_examples=150, deadline=None)
@given(structured_matrices())
@example(EXAMPLES[0])
@example(EXAMPLES[1])
@example(EXAMPLES[2])
@example(EXAMPLES[3])
@example(EXAMPLES[4])
@example(EXAMPLES[5])
@example(EXAMPLES[6])
def test_kernel_matches_reference_byte_for_byte(case):
    p, ncols, a = case
    echelon, reduced, ref_pivots, ref_sign = reference_eliminate(a.tolist(), p, ncols)
    m = a.copy()
    pivots, sign = exactlin._forward_eliminate(m, p, ncols)
    assert (pivots, sign) == (ref_pivots, ref_sign)
    assert m.dtype == np.int64
    assert m.tobytes() == _as_int64(echelon, a.shape).tobytes()
    exactlin._back_substitute(m, p, pivots)
    assert m.tobytes() == _as_int64(reduced, a.shape).tobytes()


@settings(max_examples=150, deadline=None)
@given(structured_matrices())
@example(EXAMPLES[2])
@example(EXAMPLES[4])
@example(EXAMPLES[5])
@example(EXAMPLES[6])
def test_rank_is_the_pivot_count_of_forward_eliminate(case):
    p, ncols, a = case
    A = ScalarMatrix(PrimeField(p), a[:, :ncols])
    pivots, _ = exactlin._forward_eliminate(a.copy(), p, ncols)
    assert rank(A) == len(pivots)
    assert rank(A.T) == len(pivots)


@settings(max_examples=60, deadline=None)
@given(structured_matrices())
@example(EXAMPLES[0])
@example(EXAMPLES[1])
@example(EXAMPLES[2])
@example(EXAMPLES[4])
@example(EXAMPLES[6])
def test_public_api_matches_reference(case):
    p, ncols, a = case
    field = PrimeField(p)
    A = ScalarMatrix(field, a[:, :ncols])
    _, reduced, pivots, _ = reference_eliminate(A.a.tolist(), p, ncols)
    assert rank(A) == len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    want = []
    for c in free:
        v = [0] * ncols
        v[c] = 1
        for row, col in enumerate(pivots):
            v[col] = -reduced[row][c] % p
        want.append(v)
    assert [v.tolist() for v in kernel_basis(A)] == want

    B = ScalarMatrix(field, a[:, ncols:] if a.shape[1] > ncols else a[:, :1])
    echelon, reduced, pivots, _ = reference_eliminate(np.hstack([A.a, B.a]).tolist(), p, ncols)
    if len(pivots) < ncols:
        with pytest.raises(RankDeficient):
            solve_many(A, B)
    elif any(x for r in echelon[ncols:] for x in r[ncols:]):
        with pytest.raises(Inconsistent):
            solve_many(A, B)
    else:
        assert solve_many(A, B).a.tolist() == [r[ncols:] for r in reduced[:ncols]]

    S = ScalarMatrix(field, a[: min(a.shape[0], ncols), : min(a.shape[0], ncols)])
    n = S.rows
    _, reduced, pivots, _ = reference_eliminate(
        np.hstack([S.a, np.eye(n, dtype=np.int64)]).tolist(), p, n
    )
    if len(pivots) < n:
        with pytest.raises(Singular):
            invert(S)
    else:
        assert invert(S).a.tolist() == [r[n:] for r in reduced]


def _matmul_reference(a, b, p):
    return [
        [sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a
    ]


@pytest.mark.parametrize(
    "p, n, route",
    [
        (31991, exactlin.LEAF, "leaf"),
        (31991, exactlin.LEAF + 1, "recursive"),
        (_float_boundary(33)[0], 33, "recursive"),
        (_float_boundary(33)[1], 33, "reduced"),  # the next prime fails the delayed bound
        (2**31 - 1, WIDE, "reduced"),
    ],
)
def test_path_choice_depends_on_width_and_prime(monkeypatch, p, n, route):
    # one recursion at every prime; only whether it delays its products
    # (the last argument of both kernels) depends on the prime
    calls = {"_leaf": [], "_update_right": []}
    for name in calls:
        def counted(*args, name=name, kernel=getattr(exactlin, name)):
            calls[name].append(args[-1])
            return kernel(*args)

        monkeypatch.setattr(exactlin, name, counted)
    a = np.random.default_rng(n).integers(0, p, (n, n), dtype=np.int64)
    A = ScalarMatrix(PrimeField(p), a)
    assert rank(A) == n
    if route == "leaf":  # one lean pass: no split, no L^-1, no update
        assert calls == {"_leaf": [True], "_update_right": []}
    else:
        delayed = route == "recursive"
        assert len(calls["_leaf"]) > 1 and calls["_update_right"]
        assert set(calls["_leaf"]) == set(calls["_update_right"]) == {delayed}
    inv = invert(A)
    assert _matmul_reference(a, inv.a, p) == np.eye(n, dtype=np.int64).tolist()


@pytest.mark.parametrize("n", (29, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 4 * BLOCK + 9))
def test_no_inverse_is_wider_than_the_block(monkeypatch, n):
    # spans up to BLOCK hand their parent L^-1; wider spans hand a solve, so
    # the elimination never assembles an L^-1 of more than BLOCK pivots
    seen = []
    solve = exactlin._solve

    def recording(f, p, s, u, delayed):
        seen.append(s.shape[0] if isinstance(s, np.ndarray) else None)
        return solve(f, p, s, u, delayed)

    monkeypatch.setattr(exactlin, "_solve", recording)
    p = 31991
    m = np.random.default_rng(n).integers(0, p, (n, n + 2), dtype=np.int64)
    assert exactlin._forward_eliminate(m, p, n)[0] == list(range(n))
    widths = [w for w in seen if w is not None]
    assert max(widths) <= BLOCK
    assert (None in seen) == (n > BLOCK)


@pytest.mark.parametrize("p", PRIMES + (67108859,))
@pytest.mark.parametrize("k", (1, 2, 5, 40))
def test_matmul_exact_on_both_paths(p, k):
    # one float64 product for k <= 32 at FLOAT_PRIME and k <= 2 at 67108859;
    # the 16-bit split beyond that, and always at 2**31 - 1
    rng = np.random.default_rng(k)
    a = rng.integers(0, p, (3, k), dtype=np.int64)
    b = rng.integers(0, p, (k, 4), dtype=np.int64)
    F_p = PrimeField(p)
    assert (ScalarMatrix(F_p, a) @ ScalarMatrix(F_p, b)).a.tolist() == _matmul_reference(a, b, p)


def _split_chunk(p: int) -> int:
    """Terms per chunk of `_matmul`'s 16-bit split: the largest c with
    c*(p-1)*(2**16 - 1) + 2p < 2**53."""
    return (exactlin.FLOAT_EXACT - 1 - 2 * p) // ((p - 1) * (2**16 - 1))


def _one_product_boundary() -> int:
    """The first prime at which one product of two residues, plus p, is no
    longer below 2**53: from there on `_matmul` splits at every k."""
    m = isqrt(exactlin.FLOAT_EXACT)
    while (m - 1) ** 2 + m >= exactlin.FLOAT_EXACT:
        m -= 1
    return _primes_around(m)[1]


@pytest.mark.parametrize("p", (_one_product_boundary(), 2**31 - 1))
@pytest.mark.parametrize("extra", (0, 1))
def test_split_product_with_worst_case_entries(monkeypatch, p, extra):
    # a of all p - 1 against b of all p - 1 and of the largest residue whose
    # low 16 bits are all ones, the split's worst case; an inner dimension of
    # one chunk, and one past it so that a second chunk adds to the first
    chunk = _split_chunk(p)
    assert exactlin._max_terms(p, exactlin.FLOAT_EXACT, p) == 0
    assert chunk == 64 if p == 2**31 - 1 else chunk > 64
    k = chunk + extra
    a = np.full((2, 3, k), p - 1, dtype=np.int64)
    b = np.full((2, k, 2), p - 1, dtype=np.int64)
    b[:, :, 1] = ((p - 1) >> 16 << 16) - 1
    assert (b[0, 0, 1] & 0xFFFF, b[0, 0, 1] < p) == (0xFFFF, True)
    want = [_matmul_reference(a[t], b[t], p) for t in range(2)]
    assert exactlin._matmul(a[1], b[1], p).tolist() == want[1]
    seen = []
    reduce_float = exactlin._reduce_float

    def watched(c, q, out=None):
        seen.append(int(np.abs(c).max(initial=0)))
        return reduce_float(c, q, out=out)

    monkeypatch.setattr(exactlin, "_reduce_float", watched)
    assert exactlin._matmul(a, b, p).tolist() == want
    # one reduction per chunk for each half of b, then one for the sum
    assert len(seen) == 2 * (1 + extra) + 1
    # the first chunk of the low half is the bound's worst case exactly
    assert max(seen) == chunk * (p - 1) * (2**16 - 1)
    assert max(seen) + p < exactlin.FLOAT_EXACT
    assert (chunk + 1) * (p - 1) * (2**16 - 1) + 2 * p >= exactlin.FLOAT_EXACT


# ---- batched inverse ------------------------------------------------------------


def _schur_boundary(n: int) -> tuple[int, int]:
    """The primes either side of k*(p-1)**2 + 2p < 2**53, k = max(h, n - h),
    the bound under which the Schur recursion on n x n adds B^T X and Z X^T
    unreduced."""
    h = exactlin._schur_split(n)
    k = max(h, n - h)
    m = isqrt((exactlin.FLOAT_EXACT - 1) // k) + 2
    while k * (m - 1) ** 2 + 2 * m >= exactlin.FLOAT_EXACT:
        m -= 1
    return _primes_around(m)


# ---- batched Gauss-Jordan on general stacks ----------------------------------

INVERT_SIZES = (1, 2, 4, 5, 6, 30, 32, 33)
# 2**31 - 1 reduces every product for every n; 16777213 leaves n = 32 delayed
# and reduces n = 33, and the prime below it sits on the delayed bound for
# n = 33
INVERT_PRIMES = (3, 7, 31991, 16777213, _float_boundary(33)[0], 2**31 - 1)
INVERT_KINDS = ("random", "swap", "dependent", "zero", "lead2", "leadh", "skew")


def stacked(p, n, kinds, seed):
    """(count, n, n) stack, one member per entry of `kinds`:
    "random", "swap" (column 0 zero in the top rows, forcing row swaps),
    "dependent" (last row a combination of the others), "zero", "lead2"
    (leading 2 x 2 block zero), "leadh" (leading h x h block singular for
    h = `_schur_split(n)`, the rest random) or "skew"."""
    rng = np.random.default_rng(seed)
    out = rng.integers(0, p, (len(kinds), n, n), dtype=np.int64)
    h = exactlin._schur_split(n)
    for t, kind in enumerate(kinds):
        if kind == "swap":
            out[t, : max(1, n - 1), 0] = 0
        elif kind == "dependent":
            c = rng.integers(0, p, n - 1).astype(object)
            out[t, -1] = (c.dot(out[t, :-1].astype(object)) % p).astype(np.int64)
        elif kind == "zero":
            out[t] = 0
        elif kind == "lead2":
            out[t, :2, :2] = 0
        elif kind == "leadh" and 1 < h < n:
            c = rng.integers(0, p, h - 1).astype(object)
            out[t, h - 1, :h] = (c.dot(out[t, : h - 1, :h].astype(object)) % p).astype(np.int64)
        elif kind == "skew":
            upper = np.triu(out[t], 1)
            out[t] = (upper - upper.T) % p
    return out


@st.composite
def stacks(draw):
    p = draw(st.sampled_from(INVERT_PRIMES))
    n = draw(st.sampled_from(INVERT_SIZES))
    kinds = draw(st.lists(st.sampled_from(INVERT_KINDS), min_size=1, max_size=5))
    return p, stacked(p, n, kinds, draw(st.integers(0, 2**32 - 1)))


def assert_inverses_match_reference(stack, p, inverses, invertible):
    """Each member's inverse equals the plain-int Gauss-Jordan's and, byte
    for byte, `invert`'s; a singular member is flagged and comes back zero."""
    field = PrimeField(p)
    n = stack.shape[1]
    eye = np.eye(n, dtype=np.int64)
    assert inverses.dtype == np.int64 and inverses.shape == stack.shape
    for t, a in enumerate(stack):
        _, reduced, pivots, _ = reference_eliminate(np.hstack([a, eye]).tolist(), p, n)
        if len(pivots) < n:
            assert not invertible[t]
            assert not inverses[t].any()
            with pytest.raises(Singular):
                invert(ScalarMatrix(field, a))
        else:
            assert invertible[t]
            assert inverses[t].tolist() == [r[n:] for r in reduced]
            assert inverses[t].tobytes() == invert(ScalarMatrix(field, a)).a.tobytes()


@settings(max_examples=80, deadline=None)
@given(stacks())
@example((2**31 - 1, stacked(2**31 - 1, 33, ["swap", "dependent", "random"], 1)))
@example((31991, stacked(31991, 32, ["random", "zero", "swap", "dependent"], 2)))
@example((3, stacked(3, 30, ["random"] * 5, 3)))
@example((7, stacked(7, 30, ["lead2", "leadh", "skew", "random"], 4)))
@example((16777213, stacked(16777213, 32, ["lead2", "leadh", "skew", "swap"], 5)))
@example((31991, stacked(31991, 33, ["leadh", "lead2", "skew"], 6)))
def test_invert_many_matches_invert_and_reference(case):
    # `_gauss_jordan_many`, the fallback of invert_skew_many, on general stacks
    p, stack = case
    inverses, invertible = exactlin._gauss_jordan_many(stack % p, p)
    assert_inverses_match_reference(stack, p, inverses, invertible)


def test_invert_many_members_do_not_interact():
    p = 31991
    stack = stacked(p, 30, ["random", "zero", "swap", "dependent", "random"], 5)
    inverses, invertible = exactlin._gauss_jordan_many(stack, p)
    assert invertible.tolist() == [True, False, True, False, True]
    for t in range(len(stack)):
        alone, ok = exactlin._gauss_jordan_many(stack[t : t + 1], p)
        assert ok[0] == invertible[t]
        assert alone[0].tobytes() == inverses[t].tobytes()


def test_invert_many_edge_shapes():
    for invert_stack in (exactlin._gauss_jordan_many, exactlin.invert_skew_many):
        inverses, invertible = invert_stack(np.zeros((0, 4, 4), dtype=np.int64), P)
        assert inverses.shape == (0, 4, 4) and invertible.shape == (0,)
        inverses, invertible = invert_stack(np.zeros((3, 0, 0), dtype=np.int64), P)
        assert inverses.shape == (3, 0, 0) and invertible.tolist() == [True] * 3
    inverses, invertible = exactlin._gauss_jordan_many(np.array([[[2]], [[0]]]), P)
    assert inverses[:, 0, 0].tolist() == [F.inv(2), 0]
    assert invertible.tolist() == [True, False]
    # a 1 x 1 matrix has no strict upper triangle: its skew matrix is 0
    inverses, invertible = exactlin.invert_skew_many([[[P + 2]], [[0]]], P)
    assert not inverses.any() and invertible.tolist() == [False, False]
    with pytest.raises(ValueError):
        exactlin.invert_skew_many(np.zeros((2, 3, 4), dtype=np.int64), P)


# ---- batched inverse of skew stacks ---------------------------------------------

SKEW_SIZES = (0, 1, 2, 3, 4, 6, 30, 32, 33)
# the Schur recursion runs for every even n >= 2 at every prime; at the
# first five its products are delayed at n = 32, the fifth being the last
# one under that bound, and at 2**31 - 1 they are split and reduced
SCHUR_PRIME = _schur_boundary(32)[0]
SKEW_PRIMES = (3, 7, 31991, 16777213, SCHUR_PRIME, 2**31 - 1)
SKEW_KINDS = ("random", "zero", "a01", "leadh", "deficient")


def _make_dependent(m, size, rng, p):
    """Make row and column size - 1 of the leading size x size block of the
    skew m the combination A c of the columns before them, A the leading
    (size - 1) x (size - 1) block; the block [[A, A c], [c^T A, 0]] then has
    the rank of A, at most size - 2, as A is skew of odd size."""
    c = rng.integers(0, p, size - 1).astype(object)
    v = (m[: size - 1, : size - 1].astype(object).dot(c) % p).astype(np.int64)
    m[: size - 1, size - 1] = v
    m[size - 1, : size - 1] = (-v) % p


def skew_members(p, n, kinds, seed, garbage=False):
    """(count, n, n) stack of skew matrices, one per entry of `kinds`:
    "random", "zero", "a01" (entry (0, 1) zero, M invertible for n >= 4 in
    general), "leadh" (the Schur recursion's leading h x h block singular,
    M invertible in general) or "deficient" (rank at most n - 2).  With
    `garbage`, the diagonal and lower triangle are random instead."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(0, p, (len(kinds), n, n), dtype=np.int64), 1)
    out = (upper - upper.transpose(0, 2, 1)) % p
    h = exactlin._schur_split(n)
    for t, kind in enumerate(kinds):
        if kind == "zero":
            out[t] = 0
        elif kind == "a01" and n >= 2:
            out[t, 0, 1] = out[t, 1, 0] = 0
        elif kind == "leadh" and 2 <= h < n:
            _make_dependent(out[t], h, rng, p)
        elif kind == "deficient" and n >= 2:
            _make_dependent(out[t], n, rng, p)
    if garbage:
        lower = np.tril_indices(n)
        out[:, lower[0], lower[1]] = rng.integers(0, p, (len(kinds), len(lower[0])))
    return out


@st.composite
def skew_member_stacks(draw):
    p = draw(st.sampled_from(SKEW_PRIMES))
    n = draw(st.sampled_from(SKEW_SIZES))
    kinds = draw(st.lists(st.sampled_from(SKEW_KINDS), min_size=1, max_size=5))
    return p, skew_members(p, n, kinds, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(skew_member_stacks())
@example((3, skew_members(3, 30, ["random"] * 5, 1)))
@example((7, skew_members(7, 30, ["a01", "leadh", "deficient", "random"], 2)))
@example((31991, skew_members(31991, 32, ["random", "zero", "a01", "leadh", "deficient"], 3)))
@example((16777213, skew_members(16777213, 32, ["leadh", "a01", "random"], 4)))
@example((SCHUR_PRIME, skew_members(SCHUR_PRIME, 32, ["random", "leadh", "a01"], 5)))
@example((2**31 - 1, skew_members(2**31 - 1, 32, ["random", "deficient", "a01"], 6)))
@example((31991, skew_members(31991, 33, ["random", "random"], 7)))
@example((31991, skew_members(31991, 0, ["random"], 8)))
def test_invert_skew_many_matches_invert_and_reference(case):
    p, stack = case
    inverses, invertible = exactlin.invert_skew_many(stack, p)
    assert_inverses_match_reference(stack, p, inverses, invertible)
    for t in range(len(stack)):  # members do not interact
        alone, ok = exactlin.invert_skew_many(stack[t : t + 1], p)
        assert ok[0] == invertible[t]
        assert alone[0].tobytes() == inverses[t].tobytes()


@pytest.mark.parametrize("p", (7, 31991, 2**31 - 1))
@pytest.mark.parametrize("n", (2, 4, 30, 33))
def test_invert_skew_many_reads_only_the_strict_upper_triangle(p, n):
    # random diagonals and lower triangles change neither the recursion, with
    # delayed or reduced products, nor the members it reruns
    kinds = ["random", "a01", "leadh", "deficient", "zero", "random"]
    clean = skew_members(p, n, kinds, n)
    dirty = skew_members(p, n, kinds, n, garbage=True)
    assert (np.triu(dirty, 1) == np.triu(clean, 1)).all() and (dirty != clean).any()
    stats, dirty_stats = {}, {}
    inverses, invertible = exactlin.invert_skew_many(clean, p, stats)
    again, ok = exactlin.invert_skew_many(dirty, p, dirty_stats)
    assert again.tobytes() == inverses.tobytes()
    assert ok.tolist() == invertible.tolist()
    assert dirty_stats == stats


def test_singular_leading_blocks_fall_back_to_gauss_jordan():
    p = 31991
    kinds = ["a01", "random", "leadh", "zero", "deficient"]
    stack = skew_members(p, 30, kinds, 8)
    stats = {}
    inverses, invertible = exactlin.invert_skew_many(stack, p, stats)
    # M stays invertible when only a01 or the leading 16 x 16 block is
    # singular, and the recursion fails at the 2 x 2 base or at the top;
    # those members and the two singular ones are rerun
    assert invertible.tolist() == [True, True, True, False, False]
    assert stats == {"fallbacks": 4}
    skew = exactlin._skew_from_upper(stack, p)
    for t in (0, 1, 2):
        assert _matmul_reference(skew[t], inverses[t], p) == np.eye(30, dtype=np.int64).tolist()
    exactlin.invert_skew_many(stack[2:], p, stats)
    assert stats == {"fallbacks": 7}  # accumulated over calls
    untouched = {}
    exactlin.invert_skew_many(stack[:, :29, :29], p, untouched)
    assert untouched == {}  # at odd n no recursion ran, so nothing fell back
    # above the delayed bound the recursion runs all the same and reruns the
    # same kinds of member
    big, wide = 2**31 - 1, {}
    inverses, invertible = exactlin.invert_skew_many(skew_members(big, 30, kinds, 8), big, wide)
    assert invertible.tolist() == [True, True, True, False, False]
    assert wide == {"fallbacks": 4}


@pytest.mark.parametrize(
    "p, n, delayed",
    [
        (31991, 2, True),
        (31991, 4, True),
        (31991, 30, True),
        (31991, 32, True),
        (31991, 33, False),
        (2**31 - 1, 32, False),
    ],
)
def test_invert_many_route_by_size_and_prime(monkeypatch, p, n, delayed):
    calls = {"schur": 0, "jordan": [], "products": []}
    recurse, jordan, product = (
        exactlin._schur_inverse,
        exactlin._gauss_jordan_many,
        exactlin._product,
    )

    def counted_schur(a, q):
        calls["schur"] += 1
        return recurse(a, q)

    def counted_jordan(a, q):
        calls["jordan"].append(a.shape)
        return jordan(a, q)

    def counted_product(a, b, q, flag):
        calls["products"].append(flag)
        return product(a, b, q, flag)

    monkeypatch.setattr(exactlin, "_schur_inverse", counted_schur)
    monkeypatch.setattr(exactlin, "_gauss_jordan_many", counted_jordan)
    monkeypatch.setattr(exactlin, "_product", counted_product)
    stack = skew_members(p, n, ["random"] * 4 + ["a01", "deficient"], n)
    stats = {}
    inverses, invertible = exactlin.invert_skew_many(stack, p, stats)
    if n % 2:
        assert calls == {"schur": 0, "jordan": [], "products": []} and stats == {}
        assert not invertible.any() and not inverses.any()
        return
    # at n = 2 the "a01" member is the zero matrix
    assert invertible.tolist() == [True] * 4 + [n > 2, False]
    # at every prime: the top call and every block down to n/2 blocks of
    # 2 x 2; only the "a01" and "deficient" members are rerun
    assert calls["schur"] == n - 1 and calls["jordan"] == [(2, n, n)]
    assert stats == {"fallbacks": 2}
    # B^T X and Z X^T at each of the n/2 - 1 levels above the base, delayed
    # under the bound and reduced by `_matmul` above it
    assert calls["products"] == [delayed] * (n - 2)
    skew = exactlin._skew_from_upper(stack, p)
    for t in np.flatnonzero(invertible):
        assert _matmul_reference(skew[t], inverses[t], p) == np.eye(n, dtype=np.int64).tolist()


@pytest.mark.parametrize("p", SKEW_PRIMES)
@pytest.mark.parametrize("n", (2, 4, 30, 32, 33))
def test_invert_skew_many_on_float64_residues_matches_int64(p, n):
    # a float64 stack is taken as residues and gets float64 inverses, equal
    # to the int64 stack's, with the same flags and reruns, at every prime
    kinds = ["random", "a01", "leadh", "deficient", "zero", "random"]
    stack = skew_members(p, n, kinds, n)
    stats, float_stats = {}, {}
    inverses, invertible = exactlin.invert_skew_many(stack, p, stats)
    again, ok = exactlin.invert_skew_many(stack.astype(np.float64), p, float_stats)
    assert inverses.dtype == np.int64 and again.dtype == np.float64
    assert again.tolist() == inverses.tolist()
    assert ok.tolist() == invertible.tolist()
    assert float_stats == stats


def test_float64_matrix_is_held_as_residues_and_factored_in_place():
    rng = np.random.default_rng(4)
    a = rng.integers(0, P, (12, 9))
    a[:, 8] = (a[:, :8] @ rng.integers(0, P, 8)) % P  # rank 8
    square = rng.integers(0, P, (8, 8))
    wide, tall = ScalarMatrix(F, a.T.astype(np.float64)), ScalarMatrix(F, a)
    assert wide.a.dtype == np.float64 and tall.a.dtype == np.int64
    held = np.ascontiguousarray(a.T, dtype=np.float64)
    assert ScalarMatrix(F, held).a is held  # no copy
    assert [v.tolist() for v in kernel_basis(ScalarMatrix(F, a.astype(np.float64)))] == [
        v.tolist() for v in kernel_basis(tall)
    ]
    assert (wide @ tall).a.tolist() == (tall.T @ tall).a.tolist()
    f = ScalarMatrix(F, square.astype(np.float64))
    assert invert(f) == invert(ScalarMatrix(F, square))
    assert determinant(f) == determinant(ScalarMatrix(F, square))
    # rank copies an int64 matrix and factors a float64 one in place
    assert rank(tall) == rank(ScalarMatrix(F, held)) == 8
    assert tall.a.tolist() == a.tolist()
    assert held.tolist() != a.T.tolist()


# ---- worst-case entries at the exactness bounds -------------------------------


@pytest.mark.parametrize("n", (2, 5, 6, 30, 32, 33))
def test_bound_predicates_switch_at_the_documented_primes(n):
    lo, hi = _float_boundary(n)
    assert exactlin._float_is_delayed(lo, n) and not exactlin._float_is_delayed(hi, n)


def delayed_worst_case(n, p):
    """M = L U with L unit lower triangular with -1 below the diagonal and U
    unit upper triangular with -1 above it.

    Each elimination step pivots on 1 in place, every row below holds p - 1
    in the pivot column and the pivot row holds p - 1 right of the pivot,
    so every unreduced update subtracts exactly (p-1)**2: the last row
    takes n - 1 of them, the most `_eliminate_stack` lets any entry take.
    """
    lower = 2 * np.eye(n, dtype=object) - np.tril(np.ones((n, n), dtype=object))
    upper = np.triu(np.full((n, n), -1, dtype=object), 1) + np.eye(n, dtype=object)
    return lower, upper, (lower.dot(upper) % p).astype(np.int64)


@pytest.mark.parametrize("n", (2, 5, 33))
@pytest.mark.parametrize("side", (0, 1))
def test_delayed_reduction_bound_with_worst_case_entries(n, side):
    # on the bound's last prime the stack stays unreduced; on the next
    # prime every update's products are reduced
    p = _float_boundary(n)[side]
    lower, upper, a = delayed_worst_case(n, p)
    echelon, reduced, pivots, sign = reference_eliminate(a.tolist(), p, n)
    # the elimination the family is built for: no swap, U as the echelon form
    assert (pivots, sign) == (list(range(n)), 1)
    assert echelon == (upper % p).tolist()
    assert exactlin._det_array(np.stack([a, a]), p).tolist() == [1, 1]
    inverses, invertible = exactlin._gauss_jordan_many(a[None], p)
    eye = np.eye(n, dtype=np.int64)
    _, reduced, _, _ = reference_eliminate(np.hstack([a, eye]).tolist(), p, n)
    assert invertible.tolist() == [True]
    assert inverses[0].tolist() == [r[n:] for r in reduced]


def schur_worst_case(n, p):
    """Skew [[A, B], [-B^T, D]] whose product B^T X, X = A^-1 B, sums
    h products (p-2)**2 in its (0, 1) entry, with h = `_schur_split(n)`,
    which is max(h, n - h).

    A and D are J (+) J (+) ... with J = [[0, 1], [-1, 0]], so A^-1 = -A.
    Column 0 of B is -2 times the ones vector 1, column 1 is -2 A 1, which
    makes column 1 of X all -2, and the other columns are 0.  So S = D +
    B^T X is D with 1 + 4h in place of its (0, 1) entry 1, and invertible,
    as are all the blocks the recursion meets.  The reduction of S sees
    h*(p-2)**2 + 1, which is odd, so a float64 sum past 2**53 would round.
    """
    h = exactlin._schur_split(n)
    J = np.array([[0, 1], [-1, 0]], dtype=np.int64)
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(0, n, 2):
        a[i : i + 2, i : i + 2] = J
    B = np.zeros((h, n - h), dtype=np.int64)
    B[:, 0] = -2
    B[:, 1] = -2 * a[:h, :h].sum(axis=1)
    a[:h, h:] = B
    a[h:, :h] = -B.T
    return a % p


@pytest.mark.parametrize("n", (4, 6, 30, 32))
def test_schur_bound_with_worst_case_entries(monkeypatch, n):
    p, beyond = _schur_boundary(n)
    h = exactlin._schur_split(n)
    k = max(h, n - h)
    assert k == h
    seen = []
    reduce_float = exactlin._reduce_float

    def watched(c, q, out=None):
        seen.append(float(np.abs(c).max(initial=0)))
        return reduce_float(c, q, out=out)

    flags = []
    product = exactlin._product

    def flagged(x, y, q, delayed):
        flags.append(delayed)
        return product(x, y, q, delayed)

    monkeypatch.setattr(exactlin, "_reduce_float", watched)
    monkeypatch.setattr(exactlin, "_product", flagged)
    a = schur_worst_case(n, p)
    stats = {}
    inverses, invertible = exactlin.invert_skew_many(a[None], p, stats)
    assert stats == {"fallbacks": 0}
    assert flags and all(flags)
    # the reduction of S sees k products (p-2)**2 plus one: within 2k(p-1)
    # of k*(p-1)**2, the most the bound allows for
    assert max(seen) >= k * (p - 2) ** 2 + 1
    eye = np.eye(n, dtype=np.int64)
    _, reduced, pivots, _ = reference_eliminate(np.hstack([a, eye]).tolist(), p, n)
    assert invertible.tolist() == [len(pivots) == n] == [True]
    assert inverses[0].tolist() == [r[n:] for r in reduced]
    # one prime further the same recursion takes the family; the top level's
    # B^T X and Z X^T are reduced by `_matmul` before they are added, while
    # the smaller blocks below it still delay theirs
    a = schur_worst_case(n, beyond)
    stats = {}
    seen.clear()
    flags.clear()
    inverses, _ = exactlin.invert_skew_many(a[None], beyond, stats)
    assert stats == {"fallbacks": 0}
    assert flags.count(False) == 2
    assert max(seen) + beyond < exactlin.FLOAT_EXACT
    assert _matmul_reference(a, inverses[0], beyond) == eye.tolist()


def float_worst_case(n, p):
    """M = L U with L unit lower triangular and U unit upper triangular,
    both with -1 off the diagonal.

    Each step of the recursive elimination pivots on 1 in place; every
    multiplier and every pivot-row entry right of the pivot is p - 1, so each
    pivot subtracts exactly (p-1)**2 from every entry below and right of it:
    the last entry takes n - 1 of them before it is reduced.
    """
    lower = np.tril(np.full((n, n), -1, dtype=object), -1) + np.eye(n, dtype=object)
    upper = np.triu(np.full((n, n), -1, dtype=object), 1) + np.eye(n, dtype=object)
    return upper, (lower.dot(upper) % p).astype(np.int64)


@pytest.mark.parametrize("n", (exactlin.LEAF + 1, 33, 130, 2 * BLOCK + 5))
@pytest.mark.parametrize("side", (0, 1))
def test_float_bound_with_worst_case_entries(monkeypatch, n, side):
    # on the bound's last prime the last leaf takes entries from which every
    # pivot left of it has been subtracted unreduced; on the next prime the
    # same recursion subtracts reduced products, less than p per level
    p = _float_boundary(n)[side]
    upper, a = float_worst_case(n, p)
    seen = []
    leaf = exactlin._leaf

    def watched(f, q, row, c0, c1, inverse, delayed):
        seen.append((c0, float(np.abs(f[row:, c0:c1]).max(initial=0))))
        return leaf(f, q, row, c0, c1, inverse, delayed)

    monkeypatch.setattr(exactlin, "_leaf", watched)
    m = a.copy()
    assert exactlin._forward_eliminate(m, p, n) == (list(range(n)), 1)
    assert m.tolist() == (upper % p).tolist()
    assert rank(ScalarMatrix(PrimeField(p), a)) == n
    if side == 0:
        c0, largest = max(seen)
        assert c0 > n - exactlin.LEAF - 1 and largest > c0 * (p - 2) ** 2
    else:
        assert seen and max(largest for _, largest in seen) < n.bit_length() * p


@pytest.mark.parametrize("p", (3, 5, 31991, 16777213, 94906249, 2**31 - 1))
def test_reduce_float_needs_no_correction(p):
    # floor(c / p) in float64 is the true quotient for |c| + p < 2**53, right
    # up to that edge and on both sides of every multiple of p near it
    edge = exactlin.FLOAT_EXACT - 2 * p
    values = [s * (edge - k) for s in (1, -1) for k in range(200)]
    for q in (1, 2, 7, 10**6, edge // p - 1, -(edge // p) + 1):
        values += [q * p + e for e in range(-2, 3)]
    values += [exactlin.FLOAT_EXACT - p - 1, -(exactlin.FLOAT_EXACT - p - 1)]
    got = exactlin._reduce_float(np.array(values, dtype=np.float64), p)
    assert got.tolist() == [v % p for v in values]
    out = np.empty(len(values))
    assert exactlin._reduce_float(np.array(values, dtype=np.float64), p, out=out) is out
    assert out.tolist() == got.tolist()


@pytest.mark.parametrize("p", PRIMES + (16777213, 67108859))
def test_reduce_float_at_the_edges(p):
    limit = exactlin.FLOAT_EXACT - 2 * p
    values = np.array(
        [0, 1, p - 1, p, p + 1, -1, -p, -p - 1, limit - 1, -(limit - 1), limit - p, 7 * p + 3],
        dtype=np.int64,
    )
    got = exactlin._reduce_float(values.astype(np.float64), p)
    assert got.tolist() == [int(v) % p for v in values]


# ---- scalar determinant and pfaffian against plain-int expansions ------------


def reference_det(a, p):
    """Cofactor expansion along the first row, in Python ints."""
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * reference_det([row[:j] + row[j + 1 :] for row in a[1:]], p)
        for j in range(len(a))
        if a[0][j]
    ) % p


def reference_pf(a, p):
    """First-row expansion pf(A) = sum_{j>0} (-1)^(j+1) a_0j pf(A without 0, j)."""
    if not a:
        return 1
    keep = lambda j: [k for k in range(1, len(a)) if k != j]
    return sum(
        (-1) ** (j + 1) * a[0][j] * reference_pf([[a[r][c] for c in keep(j)] for r in keep(j)], p)
        for j in range(1, len(a))
        if a[0][j]
    ) % p


def sparse_square(p, n, zero_share, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, (n, n), dtype=np.int64)
    a[rng.random((n, n)) < zero_share] = 0
    return a


def sparse_skew(p, n, zero_share, seed):
    u = np.triu(sparse_square(p, n, zero_share, seed), 1)
    return (u - u.T) % p


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(PRIMES),
    st.integers(0, 6),
    st.sampled_from((0.0, 0.4, 0.8)),
    st.integers(0, 2**32 - 1),
)
def test_det_matches_cofactor_expansion(p, n, zero_share, seed):
    a = sparse_square(p, n, zero_share, seed)
    want = reference_det(a.tolist(), p)
    assert int(exactlin._det_array(a[None], p)[0]) == want
    if n:
        assert determinant(ScalarMatrix(PrimeField(p), a)) == want


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(PRIMES),
    st.sampled_from((0, 2, 4, 6)),
    st.sampled_from((0.0, 0.4, 0.8)),
    st.integers(0, 2**32 - 1),
)
def test_pfaffian_matches_expansion(p, n, zero_share, seed):
    a = sparse_skew(p, n, zero_share, seed)
    want = reference_pf(a.tolist(), p)
    assert exactlin._pfaffian_array(a, p) == want
    if n:
        assert pfaffian_skew(ScalarMatrix(PrimeField(p), a)) == want


def skew_stacked(p, n, kinds, seed):
    """(count, n, n) skew stack, one member per entry of `kinds`, from the
    strict lower part of a `stacked` member: "random", "swap" (column 0 zero
    down to row n-2, forcing a swap at the first step), "zero", or
    "singular" (C S tC with C of size n x (n-2) and S from `sparse_skew`)."""
    base = stacked(p, n, ["random" if k == "singular" else k for k in kinds], seed)
    lower = np.tril(base, -1)
    out = (lower - lower.transpose(0, 2, 1)) % p
    rng = np.random.default_rng(seed)
    for t, kind in enumerate(kinds):
        if kind == "singular":
            c = rng.integers(0, p, (n, n - 2)).astype(object)
            s = sparse_skew(p, n - 2, 0.0, int(rng.integers(2**32))).astype(object)
            out[t] = (c.dot(s).dot(c.T) % p).astype(np.int64)
    return out


@st.composite
def skew_stacks(draw):
    n = draw(st.sampled_from((2, 4, 6, 8)))
    kinds = draw(
        st.lists(st.sampled_from(("random", "swap", "singular", "zero")), min_size=1, max_size=5)
    )
    return n, kinds, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=25, deadline=None)
@given(skew_stacks())
@example((8, ["swap", "singular", "random", "zero", "swap"], 1))
def test_stacked_pfaffian_matches_expansion(p, case):
    stack = skew_stacked(p, *case)
    got = exactlin._pfaffian_array(stack, p)
    assert got.dtype == np.int64 and got.shape == (len(stack),)
    for t, a in enumerate(stack):
        want = reference_pf(a.tolist(), p)
        assert int(got[t]) == want
        single = exactlin._pfaffian_array(a, p)
        assert type(single) is int and single == want
    # members do not interact: any order or subset of the stack gives the same values
    assert np.array_equal(exactlin._pfaffian_array(stack[::-1], p), got[::-1])
    assert np.array_equal(exactlin._pfaffian_array(stack[1:], p), got[1:])
    assert exactlin._pfaffian_array(stack[:0], p).shape == (0,)
    assert exactlin._pfaffian_array(np.zeros((2, 0, 0), dtype=np.int64), p).tolist() == [1, 1]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(PRIMES),
    st.sampled_from((2, 4, 6, 8, 10, 12)),
    st.sampled_from((0.0, 0.5, 0.9)),
    st.integers(0, 2**32 - 1),
)
def test_pfaffian_squares_to_determinant_at_every_prime(p, n, zero_share, seed):
    a = sparse_skew(p, n, zero_share, seed)
    pf = exactlin._pfaffian_array(a, p)
    assert pf * pf % p == determinant(ScalarMatrix(PrimeField(p), a))


# ---- stacked determinant against a plain-int elimination ---------------------


def reference_det_by_elimination(a, p):
    """Gaussian elimination on lists of Python ints; det = sign * pivot product."""
    m = [[x % p for x in r] for r in a]
    det = 1
    for col in range(len(m)):
        r = next((i for i in range(col, len(m)) if m[i][col]), None)
        if r is None:
            return 0
        if r != col:
            m[col], m[r] = m[r], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], p - 2, p)
        for i in range(col + 1, len(m)):
            if m[i][col]:
                m[i] = _row_op(m[i], m[i][col] * inv % p, m[col], p)
    return det % p


DET_SIZES = (1, 2, 5, 14, 33)
DET_PRIMES = (3, 31991, 2**31 - 1)


@st.composite
def det_stacks(draw):
    p = draw(st.sampled_from(DET_PRIMES))
    n = draw(st.sampled_from(DET_SIZES))
    kinds = draw(
        st.lists(st.sampled_from(("random", "swap", "dependent", "zero")), min_size=1, max_size=5)
    )
    return p, stacked(p, n, kinds, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(det_stacks())
@example((3, stacked(3, 5, ["swap", "random", "dependent", "zero", "swap"], 1)))
@example((31991, stacked(31991, 33, ["random", "swap", "dependent"], 2)))
@example((2**31 - 1, stacked(2**31 - 1, 14, ["swap", "random", "zero"], 3)))
def test_stacked_det_matches_reference(case):
    p, stack = case
    n = stack.shape[1]
    got = exactlin._det_array(stack, p)
    assert got.dtype == np.int64 and got.shape == (len(stack),)
    for t, a in enumerate(stack):
        want = reference_det_by_elimination(a.tolist(), p)
        assert int(got[t]) == want
        # the LU determinant of one matrix returns the same value as an int
        single = determinant(ScalarMatrix(PrimeField(p), a))
        assert type(single) is int and single == want
        if n <= 5:
            assert want == reference_det(a.tolist(), p)


@pytest.mark.parametrize("p", DET_PRIMES)
def test_determinant_above_the_block_width(monkeypatch, p):
    # above BLOCK the pivots' inverses come off the diagonals of the L^-1
    # blocks of a solve, not of one L^-1: an invertible matrix, a singular
    # one and one whose column 0 forces a row swap
    kinds = ["random", "dependent", "swap"]
    # seeds at which the random and swap members are invertible at every
    # prime, so that their pivots are read
    for n, seed in ((2 * BLOCK + 3, 22), (7, 14)):
        stack = stacked(p, n, kinds, seed)
        dets = exactlin._det_array(stack, p).tolist()
        assert dets[0] and dets[1] == 0 and dets[2]
        for a, det in zip(stack, dets):
            assert determinant(ScalarMatrix(PrimeField(p), a)) == det
            if n > BLOCK:
                assert det == reference_det_by_elimination(a.tolist(), p)
            else:  # blocks small enough for the cofactor expansion
                assert det == reference_det(a.tolist(), p)
        # the 7 x 7 matrices go through solves of 1-column leaves
        monkeypatch.setattr(exactlin, "LEAF", 1)
        monkeypatch.setattr(exactlin, "BLOCK", 2)


def test_stacked_det_kinds_and_edge_shapes():
    p = 31991
    stack = stacked(p, 14, ["random", "zero", "swap", "dependent", "random"], 7)
    dets = exactlin._det_array(stack, p)
    assert dets[1] == 0 and dets[3] == 0
    assert all(dets[[0, 2, 4]])
    # unreduced and negative entries are taken mod p first
    assert np.array_equal(exactlin._det_array(stack - p, p), dets)
    assert np.array_equal(exactlin._det_array(stack + 5 * p, p), dets)
    # a swap negates: exchanging two rows of every member
    swapped = stack[:, [1, 0] + list(range(2, 14))]
    assert np.array_equal(exactlin._det_array(swapped, p), (-dets) % p)
    assert exactlin._det_array(np.zeros((0, 3, 3), dtype=np.int64), p).shape == (0,)
    assert exactlin._det_array(np.zeros((4, 0, 0), dtype=np.int64), p).tolist() == [1] * 4
    assert determinant(ScalarMatrix(PrimeField(p), np.zeros((0, 0), dtype=np.int64))) == 1


# ---- member-last float64 kernels against the int64 loops they replaced ---------

# both sides of the inverse and log tables' limit, the delayed bound of n = 33
# (16777213), and the largest prime, where every product is split
STACK_PRIMES = (3, 5, 7, 31991, 65521, 65537, 16777213, 2**31 - 1)
STACK_KINDS = ("random", "swap", "dependent", "zero", "random", "skew")


def int64_swap_rows(a, members, i, r):
    rows = a[members, i]
    a[members, i] = a[members, r[members]]
    a[members, r[members]] = rows


def int64_eliminate_stack(m, p, n, jordan):
    """The member-first int64 elimination of a (count, n, width) stack, with
    its rank-1 updates unreduced while n*(p-1)**2 + p < 2**63."""
    det = np.ones(m.shape[0], dtype=np.int64)
    delayed = n <= (2**63 - 1 - p) // ((p - 1) * (p - 1))
    for col in range(n):
        column = m[:, :, col]
        np.remainder(column, p, out=column)
        r = col + (column[:, col:] != 0).argmax(axis=1)
        swap = np.nonzero(r != col)[0]
        if swap.size:
            int64_swap_rows(m, swap, col, r)
            det[swap] = p - det[swap]
        pivot = m[:, col, col:]
        np.remainder(pivot, p, out=pivot)
        det = det * pivot[:, 0] % p
        pivot *= exactlin._fermat_inverses(pivot[:, 0], p)[:, None]
        np.remainder(pivot, p, out=pivot)
        first = 0 if jordan else col + 1
        f = (-m[:, first:, col]) % p
        if jordan:
            f[:, col] = 0
        rest = m[:, first:, col + 1 :]
        rest += f[:, :, None] * pivot[:, None, 1:]
        if not delayed:
            np.remainder(rest, p, out=rest)
    return det


def int64_det_array(a, p):
    a = np.mod(np.asarray(a, dtype=np.int64), p)
    return int64_eliminate_stack(a, p, a.shape[1], jordan=False)


def int64_gauss_jordan_many(a, p):
    count, n, _ = a.shape
    m = np.zeros((count, n, 2 * n), dtype=np.int64)
    m[:, :, :n] = a
    m[:, :, n:] = np.eye(n, dtype=np.int64)
    invertible = int64_eliminate_stack(m, p, n, jordan=True) != 0
    inverses = m[:, :, n:] % p
    inverses[~invertible] = 0
    return inverses, invertible


def int64_pfaffian_array(a, p):
    """The member-first int64 congruence elimination, reduced every step."""
    a = np.mod(np.asarray(a, dtype=np.int64), p)
    count, n = a.shape[:2]
    pf = np.ones(count, dtype=np.int64)
    for k in range(0, n - 1, 2):
        nonzero = a[:, k + 1 :, k] != 0
        r = k + 1 + nonzero.argmax(axis=1)
        swap = np.nonzero(r != k + 1)[0]
        if swap.size:
            int64_swap_rows(a, swap, k + 1, r)
            int64_swap_rows(a.transpose(0, 2, 1), swap, k + 1, r)
            pf[swap] = p - pf[swap]
        pf = pf * a[:, k, k + 1] % p
        if k + 2 < n:
            f = a[:, k + 2 :, k] * exactlin._fermat_inverses(a[:, k + 1, k], p)[:, None] % p
            g = a[:, k + 2 :, k + 1] * exactlin._fermat_inverses(a[:, k, k + 1], p)[:, None] % p
            trailing = a[:, k + 2 :, k + 2 :]
            trailing[...] = (trailing - f[:, :, None] * a[:, k + 1, None, k + 2 :]) % p
            trailing[...] = (trailing - g[:, :, None] * a[:, k, None, k + 2 :]) % p
    return pf


def assert_stack_kernels_match_int64_loops(stack, p):
    """det, Gauss-Jordan and the pfaffian of the skew matrices that the
    stack's strict upper triangles define, byte for byte."""
    dets = exactlin._det_array(stack, p)
    assert dets.dtype == np.int64
    assert dets.tobytes() == int64_det_array(stack, p).tobytes()
    # the LU determinant of each member on its own
    field = PrimeField(p)
    assert [determinant(ScalarMatrix(field, a)) for a in stack] == dets.tolist()
    inverses, invertible = exactlin._gauss_jordan_many(stack, p)
    want, want_ok = int64_gauss_jordan_many(stack, p)
    assert inverses.dtype == np.int64
    assert inverses.tobytes() == want.tobytes()
    assert invertible.tolist() == want_ok.tolist() == (dets != 0).tolist()
    skew = exactlin._skew_from_upper(stack, p)
    pf = exactlin._pfaffian_array(skew, p)
    assert pf.dtype == np.int64
    assert pf.tobytes() == int64_pfaffian_array(skew, p).tobytes()


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_stack_kernels_match_the_int64_loops(p):
    # every n from 1 to 33 at counts 0, 1 and 2, with forced swaps and
    # singular and zero members; 16777213 crosses the delayed bound at n = 33
    assert exactlin._float_is_delayed(16777213, 32)
    assert not exactlin._float_is_delayed(16777213, 33)
    for n in range(1, 34):
        for count in (0, 1, 2):
            kinds = [STACK_KINDS[(n + count + t) % len(STACK_KINDS)] for t in range(count)]
            assert_stack_kernels_match_int64_loops(stacked(p, n, kinds, n * 3 + count), p)


@pytest.mark.parametrize(
    "p, n", [(31991, 14), (31991, 33), (16777213, 33), (2**31 - 1, 14)]
)
def test_stack_kernels_match_the_int64_loops_on_680_members(p, n):
    kinds = [STACK_KINDS[t % len(STACK_KINDS)] for t in range(680)]
    assert_stack_kernels_match_int64_loops(stacked(p, n, kinds, n), p)


def test_stack_kernels_take_a_single_matrix_and_any_integers():
    p = 31991
    a = stacked(p, 9, ["swap"], 4)[0]
    assert determinant(ScalarMatrix(PrimeField(p), a)) == int(int64_det_array(a[None], p)[0])
    skew = exactlin._skew_from_upper(a[None], p)
    assert exactlin._pfaffian_array(skew[0], p) == int(int64_pfaffian_array(skew, p)[0])
    # entries outside [0, p) and float64 residues are read as integers mod p
    stack = stacked(p, 9, ["random", "swap"], 5)
    for shifted in (stack - 3 * p, stack + 2**40 * p, stack.astype(np.float64)):
        assert exactlin._det_array(shifted, p).tolist() == int64_det_array(stack, p).tolist()
    # a member-last copy in float64; the caller's array is not written
    held = stack.copy()
    exactlin._det_array(held, p)
    exactlin._pfaffian_array(exactlin._skew_from_upper(held, p), p)
    assert held.tobytes() == stack.tobytes()


def test_swaps_move_the_rows_of_the_listed_members_only():
    m = np.arange(4 * 3 * 5, dtype=np.float64).reshape(4, 3, 5)
    want = m.copy()
    members, rows = np.array([1, 4]), np.array([3, 2])
    exactlin._swap_rows(m, members, 0, rows, 1)
    for t, r in zip(members, rows):
        want[[0, r], 1:, t] = want[[r, 0], 1:, t]
    assert m.tobytes() == want.tobytes()


@pytest.mark.parametrize("side", ("small", "below", "above", "largest"))
def test_mul_mod_matches_integers_on_both_sides_of_the_one_product_bound(side):
    # below the bound one product of two residues, plus p, stays under
    # 2**53; from the first prime above it `_mul_mod` splits
    above = _one_product_boundary()
    below = _primes_around(above - 1)[0]
    p = {"small": 3, "below": below, "above": above, "largest": 2**31 - 1}[side]
    assert bool(exactlin._max_terms(p, exactlin.FLOAT_EXACT, p)) == (p <= below)
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, (5, 1, 7))
    b = rng.integers(0, p, (4, 7))
    a[0, 0, :2] = p - 1
    b[0, :] = p - 1
    b[1, :] = ((p - 1) >> 16 << 16) - 1 if p > 2**16 else p - 1
    want = (a.astype(object) * b.astype(object)) % p
    got = exactlin._mul_mod(a.astype(np.float64), b.astype(np.float64), p)
    assert got.dtype == np.float64 and got.tolist() == want.tolist()
    out = np.empty(got.shape)
    assert exactlin._mul_mod(a.astype(np.float64), b.astype(np.float64), p, out=out) is out


@pytest.mark.parametrize("p", [3, 5, 7, 11, 31991, 65521])
def test_log_tables_invert_each_other_on_every_residue(p):
    log, antilog = exactlin._log_tables(p)
    assert log.dtype == antilog.dtype == np.uint16
    assert log.shape == antilog.shape == (p,)
    g = int(antilog[1])
    assert g == exactlin._primitive_root(p)
    assert sorted(antilog[: p - 1].tolist()) == list(range(1, p))  # g generates
    assert antilog[p - 1] == 0
    assert antilog[: p - 1].tolist() == [pow(g, k, p) for k in range(p - 1)]
    residues = np.arange(1, p)
    assert np.array_equal(antilog[log[residues]], residues)
    assert exactlin._LOG_TABLES[p] is exactlin._log_tables(p)


def test_importing_detpf_builds_no_log_table():
    code = "import detpf, detpf.mpoly, detpf.exactlin as e; print(len(e._LOG_TABLES))"
    env = {**os.environ, "PYTHONPATH": str(Path(exactlin.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("p", [3, 5, 7, 11, 31991, 65521])
def test_inverse_table_matches_the_fermat_ladder_on_every_residue(p):
    residues = np.arange(p, dtype=np.int64)
    got = exactlin._inverse_residues(residues, p)
    assert got.dtype == np.int64
    assert got.tobytes() == exactlin._fermat_inverses(residues, p).tobytes()
    assert got[0] == 0 and np.all(got[1:] * residues[1:] % p == 1)
    table = exactlin._INVERSE_TABLES[p]
    assert table.dtype == np.uint16 and table.shape == (p,)
    # a stack of residues keeps its shape and dtype
    stack = residues[::-1].reshape(1, -1).astype(np.int32)
    inverses = exactlin._inverse_residues(stack, p)
    assert inverses.dtype == np.int32 and inverses.shape == stack.shape
    assert np.array_equal(inverses[0], got[::-1])


@pytest.mark.parametrize("p", [65537, 16777213, 2**31 - 1])
def test_primes_above_the_table_limit_run_the_ladder(monkeypatch, p):
    def no_table(q):
        raise AssertionError(f"table built at p = {q}")

    monkeypatch.setattr(exactlin, "_inverse_table", no_table)
    x = np.array([0, 1, 2, p - 1, p // 2, 12345 % p], dtype=np.int64)
    got = exactlin._inverse_residues(x, p)
    assert got.tolist() == [0] + [pow(int(v), -1, p) for v in x[1:]]
    assert p not in exactlin._INVERSE_TABLES


def test_importing_detpf_builds_no_inverse_table():
    code = "import detpf, detpf.exactlin as e; print(len(e._INVERSE_TABLES))"
    env = {**os.environ, "PYTHONPATH": str(Path(exactlin.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


@settings(max_examples=150, deadline=None)
@given(structured_matrices())
@example(EXAMPLES[2])
@example(EXAMPLES[4])
@example(EXAMPLES[5])
@example(EXAMPLES[6])
def test_pivot_columns_are_the_pivots_of_forward_eliminate(case):
    p, ncols, a = case
    pivots, _ = exactlin._forward_eliminate(a.copy(), p, ncols)
    assert exactlin.pivot_columns(ScalarMatrix(PrimeField(p), a[:, :ncols])) == pivots
    f = a[:, :ncols].astype(np.float64)
    assert exactlin.pivot_columns(ScalarMatrix(PrimeField(p), f)) == pivots


def test_elimination_runs_no_leaf_below_the_last_row(monkeypatch):
    leaf = exactlin._leaf
    rows_seen = []

    def recording_leaf(f, p, row, *args):
        rows_seen.append((row, f.shape[0]))
        return leaf(f, p, row, *args)

    monkeypatch.setattr(exactlin, "_leaf", recording_leaf)
    p = 31991
    a = np.random.default_rng(6).integers(0, p, (16, 130), dtype=np.int64)
    assert rank(ScalarMatrix(PrimeField(p), a)) == 16
    assert rows_seen and all(row < nrows for row, nrows in rows_seen)
    # the rows run out after two leaves of the 17 the columns would take
    assert len(rows_seen) == 2
