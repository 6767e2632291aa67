import itertools
from math import isqrt

import numpy as np
import pytest

from detpf import exactlin, mpoly, polymat
from detpf.exactlin import (
    DEFAULT_PRIME,
    OddSize,
    PrimeField,
    ScalarMatrix,
    Singular,
    pfaffian_skew,
)
from detpf.exactlin import determinant as numeric_det
from detpf.mpoly import (
    DegeneratePencil,
    HomogeneousForm,
    VariableCountMismatch,
    monomial_count,
    principal_lattice,
    sample_points,
)
from detpf.polymat import (
    SKEW,
    SYMMETRIC,
    GradedMatrix,
    InterpolationFailure,
    LinearSkewMatrix,
    congruence_transform,
    determinant,
    determinant_expansion,
    is_minimal,
    maximal_minors,
    parse_graded_matrix,
    pfaffian,
    pfaffian_expansion,
    submaximal_pfaffians,
    submaximal_pfaffians_by_deletion,
    verify_representation,
)
from detpf.constructions import (
    ResolutionShape,
    linear_skew_shape,
    linear_square_shape,
    linear_symmetric_shape,
    random_graded_matrix,
)
from detpf.rng import FieldRng, derive_seed
from test_exactlin import reference_det, reference_pf
from test_mpoly import refuse, term_walk
from reference import skew_from_graded

F = PrimeField(DEFAULT_PRIME)
P = DEFAULT_PRIME


def form(degree, seed, nvars=3):
    return HomogeneousForm.random(F, nvars, degree, FieldRng(seed))


def random_linear_skew(nvars, size, seed):
    return LinearSkewMatrix.random(F, nvars, size, FieldRng("skew", seed))


def uniform_matrix(size, entry_degree, seed, nvars=3):
    rng = FieldRng("uniform", seed)
    entries = [
        [HomogeneousForm.random(F, nvars, entry_degree, rng.fork(i, j)) for j in range(size)]
        for i in range(size)
    ]
    return GradedMatrix(F, nvars, (0,) * size, (-entry_degree,) * size, entries)


def test_graded_matrix_validation():
    f1 = form(1, 1)
    with pytest.raises(ValueError):
        GradedMatrix(F, 3, (0,), (-2,), [[f1]])  # degree 1 where twists say 2
    with pytest.raises(ValueError):
        GradedMatrix(F, 3, (0,), (1,), [[f1]])  # negative twist gap, nonzero entry
    M = GradedMatrix(F, 3, (0,), (1,), [[None]])  # zero entry is fine there
    assert M[0, 0].is_zero()
    # skew validation: diagonal and mirror
    with pytest.raises(ValueError):
        GradedMatrix(F, 3, (0, 0), (-1, -1), [[f1, f1], [f1, None]], SKEW)
    GradedMatrix(F, 3, (0, 0), (-1, -1), [[None, f1], [-f1, None]], SKEW)


def test_evaluate_matrix_preserves_symmetry():
    L = random_linear_skew(3, 6, 1)
    M = L.to_graded()
    pt = [3, 14, 159]
    A = M.evaluate(pt)
    assert A.is_skew()
    B = L.evaluate(pt)
    assert A == B
    zero = GradedMatrix(F, 3, (0, 0), (-1, -1), [[None, None], [None, None]])
    assert not zero.evaluate(pt).a.any()


def test_evaluate_commutes_with_determinant():
    rng = FieldRng(2)
    for rep in range(50):
        size = 2 + rng.below(4)  # sizes 2..5
        M = uniform_matrix(size, 1, rep)
        det_form = determinant_expansion(M)
        pt = [rng.below(P) for _ in range(3)]
        assert det_form.evaluate(pt) == numeric_det(M.evaluate(pt))


def test_determinant_trivial_cases():
    f = form(3, 5)
    M1 = GradedMatrix(F, 3, (3,), (0,), [[f]])
    assert determinant(M1) == f
    g = form(2, 6)
    blk = GradedMatrix(F, 3, (3, 2), (0, 0), [[f, None], [None, g]])
    assert determinant(blk) == f * g


def test_determinant_interpolation_matches_expansion():
    rng = FieldRng(3)
    cases = 0
    for size in (2, 3, 4, 5, 6):
        for entry_degree in (1, 2, 3):
            if size >= 5 and entry_degree == 3:
                continue  # covered by the acceptance suite's budgeted sweep
            M = uniform_matrix(size, entry_degree, rng.below(10**6))
            d1 = determinant_expansion(M)
            d2 = determinant(M, seed=cases)
            assert d1 == d2
            cases += 1
    assert cases >= 12


def test_determinant_of_negative_degree_is_zero_of_degree_0():
    # every entry has degree 0 - 1 < 0 and is forced to zero
    def twisted(size):
        return GradedMatrix(F, 3, (0,) * size, (1,) * size, [[None] * size] * size)

    small = determinant_expansion(twisted(3))
    assert small == HomogeneousForm.zero(F, 3, 0) and small.degree == 0
    assert determinant(twisted(7)) == small


def test_pfaffian_of_negative_degree_is_zero_of_degree_0():
    # row twists 0 and column twists 1: every entry has degree -1 and the
    # pfaffian degree is -size / 2
    def twisted(size):
        return GradedMatrix(F, 3, (0,) * size, (1,) * size, [[None] * size] * size, SKEW)

    small = pfaffian_expansion(twisted(4))
    assert small == HomogeneousForm.zero(F, 3, 0) and small.degree == 0
    assert pfaffian(twisted(10)) == small


def _no_expansion(M):
    raise AssertionError("the expansion ran")


@pytest.mark.parametrize("p", [7, 31991])
def test_a_degree_at_most_p_is_interpolated(p, monkeypatch):
    field = PrimeField(p)
    cases = [
        random_graded_matrix(field, 3, linear_square_shape(n), FieldRng("route", p, n))
        for n in range(1, 7)
    ]
    cases += [
        LinearSkewMatrix.random(field, 3, n, FieldRng("route", p, n)).to_graded()
        for n in (2, 4, 6, 8)
    ]
    want = [pfaffian_expansion(M) if M.symmetry == SKEW else determinant_expansion(M) for M in cases]
    monkeypatch.setattr(polymat, "determinant_expansion", _no_expansion)
    monkeypatch.setattr(polymat, "pfaffian_expansion", _no_expansion)
    got = [pfaffian(M) if M.symmetry == SKEW else determinant(M) for M in cases]
    assert got == want


def test_a_small_matrix_of_degree_above_p_is_expanded():
    # over GF(3) values on GF(3)^3 do not determine these forms, so only the
    # expansion answers; each answer is checked at every point of GF(3)^3
    F3 = PrimeField(3)
    points = list(itertools.product(range(3), repeat=3))
    for n in (4, 5, 6):
        M = random_graded_matrix(F3, 3, linear_square_shape(n), FieldRng("fallback", n))
        det = determinant(M)
        assert det.degree == n
        assert [det.evaluate(x) for x in points] == [numeric_det(M.evaluate(x)) for x in points]
    shape = ResolutionShape((0,) * 4, (-2,) * 4, SKEW)
    M = random_graded_matrix(F3, 3, shape, FieldRng("fallback", "pf"))
    pf = pfaffian(M)
    assert pf.degree == 4 and not pf.is_zero()
    assert [pf.evaluate(x) for x in points] == [pfaffian_skew(M.evaluate(x)) for x in points]


@pytest.mark.parametrize(
    "p, shape, route, needed",
    [
        pytest.param(13, linear_square_shape(14), determinant, 14, id="det14-p13"),
        pytest.param(3, linear_square_shape(7), determinant, 7, id="det7-p3"),
        pytest.param(3, linear_skew_shape(10), pfaffian, 5, id="pf10-p3"),
    ],
)
def test_a_degree_above_p_is_refused_before_any_point(p, shape, route, needed, monkeypatch):
    M = random_graded_matrix(PrimeField(p), 4, shape, FieldRng("refused", p, needed))

    def no_points(self, points):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(GradedMatrix, "evaluate_batch", no_points)
    monkeypatch.setattr(polymat, "determinant_expansion", _no_expansion)
    monkeypatch.setattr(polymat, "pfaffian_expansion", _no_expansion)
    with pytest.raises(InterpolationFailure, match=rf"GF\({p}\); .* needs p >= {needed}"):
        route(M)


def test_pfaffian_numeric_convention_and_errors():
    assert pfaffian_skew(ScalarMatrix(F, [[0, 9], [-9, 0]])) == 9
    with pytest.raises(OddSize):
        pfaffian_skew(ScalarMatrix(F, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        pfaffian_skew(ScalarMatrix(F, [[1, 0], [0, 1]]))


def test_pfaffian_block_diagonal_product():
    fs = [form(1, seed) for seed in (7, 8, 9)]
    n = 6
    entries = [[None] * n for _ in range(n)]
    for t, f in enumerate(fs):
        entries[2 * t][2 * t + 1] = f
        entries[2 * t + 1][2 * t] = -f
    M = GradedMatrix(F, 3, (0,) * n, (-1,) * n, entries, SKEW)
    assert pfaffian(M) == fs[0] * fs[1] * fs[2]


def test_pfaffian_squares_to_determinant_symbolic():
    rng = FieldRng(4)
    for size in (2, 4, 6, 8):
        for rep in range(3):
            L = random_linear_skew(3, size, rng.below(10**6))
            M = L.to_graded()
            pf = pfaffian_expansion(M)
            assert pf.degree == size // 2
            assert pf * pf == determinant(M, seed=rep)


def test_pfaffian_interpolation_matches_expansion():
    rng = FieldRng(5)
    for size in (4, 6, 8):
        L = random_linear_skew(3, size, rng.below(10**6))
        M = L.to_graded()
        assert pfaffian(M) == pfaffian_expansion(M)


def test_submaximal_size4_reduces_to_entries():
    L = random_linear_skew(3, 4, 11)
    M = L.to_graded()
    pf = submaximal_pfaffians(L)
    assert pf[(0, 1)] == M[2, 3]
    assert pf[(0, 2)] == M[1, 3]
    assert pf[(0, 3)] == M[1, 2]
    assert pf[(1, 2)] == M[0, 3]
    assert pf[(1, 3)] == M[0, 2]
    assert pf[(2, 3)] == M[0, 1]


def test_submaximal_inverse_identity_matches_deletion():
    # the sign calibration frozen into the implementation: for 1-based i < j,
    # P_ij = (-1)^(i+j) pf(M) (M^{-1})_ij, verified coefficient-exact
    rng = FieldRng(6)
    for size in (4, 6):
        for rep in range(25):
            L = random_linear_skew(3, size, rng.below(10**6))
            got = submaximal_pfaffians(L, seed=rep)
            want = submaximal_pfaffians_by_deletion(L.to_graded())
            assert got == want


@pytest.mark.parametrize("size", [4, 6])
def test_submaximal_drops_singular_points_at_small_prime(size):
    # over GF(7) M(x) is often singular; lattice points where it is are
    # holes, stream points where it is are dropped and replaced from the
    # same stream, and the forms still match the deletion oracle
    F7 = PrimeField(7)
    degree = size // 2 - 1
    N = monomial_count(4, degree)
    total_dropped = 0
    for seed in range(10):
        L = LinearSkewMatrix.random(F7, 4, size, FieldRng("skew7", seed))
        stats = {}
        got = submaximal_pfaffians(L, seed=seed, stats=stats)
        assert got == submaximal_pfaffians_by_deletion(L.to_graded())
        stream = derive_seed(seed, "subpf")
        lattice, _ = principal_lattice(F7, 4, degree, stream)
        holes = sum(numeric_det(L.evaluate(pt)) == 0 for pt in lattice)
        drawn = sample_points(F7, 4, stream, 0, stats["points_used"] - N)
        singular = [numeric_det(L.evaluate(pt)) == 0 for pt in drawn]
        assert stats["points_degenerate"] == holes + sum(singular)
        # ceil(0.1 N) + holes usable stream points, doubled while the holes'
        # rank is short
        target = -(-N // 10) + holes
        assert len(drawn) - sum(singular) in {target << j for j in range(4)}
        assert not singular[-1]
        total_dropped += holes + sum(singular)
    assert total_dropped > 0


def deletion_by_submatrices(M):
    """The per-pair route: build the matrix without rows and columns i, j
    and expand its pfaffian on its own."""
    n = M.nrows
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            keep = [k for k in range(n) if k not in (i, j)]
            sub = GradedMatrix(
                M.field,
                M.nvars,
                [M.row_twists[k] for k in keep],
                [M.col_twists[k] for k in keep],
                [[M.entries[a][b] for b in keep] for a in keep],
                SKEW,
            )
            out[(i, j)] = pfaffian_expansion(sub)
    return out


@pytest.mark.parametrize("p", [3, 7, 31991])
@pytest.mark.parametrize(
    "rows, cols, zeros",
    [
        ((0,) * 4, (-1,) * 4, {(0, 1)}),
        # the pairs of negative degree ({2, 3} with {4, 5}, and 4 with 5) are zero
        ((1, 1, 0, 0, -1, -1), (-1, -1, 0, 0, 1, 1), {(0, 2), (2, 3)}),
        ((1, 1, 1, 0, 0, 0, 0, 0), (-2, -2, -2, -1, -1, -1, -1, -1), {(0, 1), (3, 7), (5, 6)}),
    ],
    ids=["n4", "n6", "n8"],
)
def test_deletion_oracle_matches_the_per_pair_route(p, rows, cols, zeros):
    shape = ResolutionShape(rows, cols, SKEW, frozenset(zeros))
    M = random_graded_matrix(PrimeField(p), 3, shape, FieldRng("deletion", p, len(rows)))
    assert all(M[i, j].is_zero() for i, j in zeros)
    assert submaximal_pfaffians_by_deletion(M) == deletion_by_submatrices(M)


@pytest.mark.parametrize("p", [3, 7, 31991])
def test_expansions_match_the_scalar_references_at_points(p):
    field = PrimeField(p)
    points = np.random.default_rng(p).integers(0, p, (8, 3)).tolist()
    squares = [linear_square_shape(n) for n in (1, 3, 5)] + [
        ResolutionShape((2, 1, 1, 0, 0), (0, 0, -1, -1, 1)),
        ResolutionShape((0,) * 3, (1,) * 3),
    ]
    for k, shape in enumerate(squares):
        M = random_graded_matrix(field, 3, shape, FieldRng("square", p, k))
        det = determinant_expansion(M)
        for x in points:
            assert det.evaluate(x) == reference_det(M.evaluate(x).a.tolist(), p)
    skews = [linear_skew_shape(n) for n in (2, 4, 6, 8)] + [
        ResolutionShape((1, 1, 0, 0, -1, -1), (-1, -1, 0, 0, 1, 1), SKEW),
        ResolutionShape((0,) * 4, (-2,) * 4, SKEW),
        # every entry and the pfaffian have negative degree
        ResolutionShape((0,) * 10, (1,) * 10, SKEW),
    ]
    for k, shape in enumerate(skews):
        M = random_graded_matrix(field, 3, shape, FieldRng("skew", p, k))
        pf = pfaffian_expansion(M)
        for x in points:
            assert pf.evaluate(x) == reference_pf(M.evaluate(x).a.tolist(), p)
    assert pf == HomogeneousForm.zero(field, 3, 0) and pf.degree == 0


def test_submaximal_laplace_recombination():
    # sum_j (-1)^j m_1j P_1j recovers pf(M) numerically (1-based signs)
    L = random_linear_skew(3, 6, 12)
    M = L.to_graded()
    pf_forms = submaximal_pfaffians(L)
    rng = FieldRng(7)
    for _ in range(20):
        pt = [rng.below(P) for _ in range(3)]
        A = L.evaluate(pt)
        acc = 0
        for j in range(1, 6):
            sign = 1 if (j + 1) % 2 == 0 else -1  # (-1)^(1-based column)
            acc = (acc + sign * int(A[0, j]) * pf_forms[(0, j)].evaluate(pt)) % P
        assert acc == pfaffian_skew(A)


def test_submaximal_degenerate_pencil():
    coeff = np.zeros((3, 4, 4), dtype=np.int64)
    L = LinearSkewMatrix(F, 3, coeff)
    with pytest.raises(DegeneratePencil):
        submaximal_pfaffians(L)


def test_congruence_transform():
    L = random_linear_skew(3, 4, 13)
    M = L.to_graded()
    identity = ScalarMatrix.identity(F, 4)
    assert congruence_transform(M, identity) == M
    rng = FieldRng(8)
    for rep in range(10):
        A = ScalarMatrix(F, [[rng.below(P) for _ in range(4)] for _ in range(4)])
        try:
            transformed = congruence_transform(M, A)
        except Singular:
            continue
        det_a = numeric_det(A)
        assert pfaffian_expansion(transformed) == pfaffian_expansion(M).scale(det_a)
    Ms = random_graded_matrix(F, 3, linear_symmetric_shape(4), FieldRng(9))
    for rep in range(5):
        A = ScalarMatrix(F, [[rng.below(P) for _ in range(4)] for _ in range(4)])
        try:
            transformed = congruence_transform(Ms, A)
        except Singular:
            continue
        det_a = numeric_det(A)
        assert determinant_expansion(transformed) == determinant_expansion(Ms).scale(
            det_a * det_a % P
        )


@pytest.mark.parametrize("modulus", [7, 31991, 2**31 - 1])
@pytest.mark.parametrize("col_twist, symmetry", [(-1, SKEW), (-1, SYMMETRIC), (-2, SYMMETRIC)])
def test_congruence_transform_matches_pointwise(modulus, col_twist, symmetry):
    """(A M tA)(x) = A M(x) tA with Python-int products, at three points."""
    field = PrimeField(modulus)
    rng = FieldRng("congruence", modulus, col_twist, symmetry)
    for n in (2, 4):
        shape = ResolutionShape((0,) * n, (col_twist,) * n, symmetry)
        M = random_graded_matrix(field, 3, shape, rng.fork("M", n))
        while True:
            a = [[rng.below(modulus) for _ in range(n)] for _ in range(n)]
            if numeric_det(ScalarMatrix(field, a)):
                break
        transformed = congruence_transform(M, ScalarMatrix(field, a))
        for _ in range(3):
            x = [rng.below(modulus) for _ in range(3)]
            m = M.evaluate(x).a.tolist()
            want = [
                [
                    sum(a[i][s] * m[s][t] * a[j][t] for s in range(n) for t in range(n)) % modulus
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert transformed.evaluate(x).a.tolist() == want, (n, x)
    singular = [[1] * n for _ in range(n)]
    with pytest.raises(Singular):
        congruence_transform(M, ScalarMatrix(field, singular))


def test_graded_evaluate_without_rows():
    M = GradedMatrix(F, 3, (), (0,), [])
    assert M.evaluate((1, 2, 3)).shape == (0, 1)


def test_is_minimal():
    M = random_graded_matrix(F, 3, linear_square_shape(3), FieldRng(10))
    assert is_minimal(M)
    one = HomogeneousForm.constant(F, 3, 1)
    bad = GradedMatrix(F, 3, (0, 1), (0, 0), [[one, one], [form(1, 14), form(1, 15)]])
    assert not is_minimal(bad)


def test_verify_representation():
    f = form(2, 16)
    lam = 12345
    M = GradedMatrix(F, 3, (2,), (0,), [[f.scale(lam)]])
    res = verify_representation(M, f, "det")
    assert res.ok and res.scalar == lam
    wrong = form(2, 17)
    assert not verify_representation(M, wrong, "det").ok
    with pytest.raises(ValueError):
        verify_representation(M, HomogeneousForm.zero(F, 3, 2), "det")
    with pytest.raises(ValueError):
        verify_representation(M, f, "adjugate")


def test_matrix_text_roundtrip_bit_exact():
    rng = FieldRng(11)
    for rep in range(5):
        L = random_linear_skew(4, 6, rng.below(10**6))
        M = L.to_graded()
        text = M.to_text()
        back = parse_graded_matrix(text)
        assert back == M
        assert back.to_text() == text
    # mixed twists with zero blocks
    f3, f1 = form(3, 18), form(1, 19)
    M = GradedMatrix(F, 3, (3, 1), (0, 0), [[f3, f3], [f1, f1]])
    assert parse_graded_matrix(M.to_text()) == M


def test_matrix_parse_errors_cite_lines():
    with pytest.raises(ValueError, match="line 1"):
        parse_graded_matrix("entry 0 0 nterms=0\n")
    good = "gradedmatrix p=31991 nvars=3 symmetry=general\nrows 1\ncols 0\n"
    with pytest.raises(ValueError, match="line 4"):
        parse_graded_matrix(good + "entry 0 0 nterms=bogus\n")


def _evaluation_boundary(nvars):
    """The primes either side of nvars*(p-1)**2 + p < 2**53, the bound under
    which `LinearSkewMatrix.evaluate_batch` is one float64 product."""
    m = isqrt((exactlin.FLOAT_EXACT - 1) // nvars) + 2
    while nvars * (m - 1) ** 2 + m >= exactlin.FLOAT_EXACT:
        m -= 1
    lo, hi = m, m + 1
    while not exactlin._is_prime(lo):
        lo -= 1
    while not exactlin._is_prime(hi):
        hi += 1
    return lo, hi


@pytest.mark.parametrize("nvars", (1, 4, 6))
@pytest.mark.parametrize("side", (0, 1))
def test_evaluation_bound_with_worst_case_entries(monkeypatch, nvars, side):
    # every coefficient and coordinate is p - 1, so each upper entry of M(x)
    # sums nvars products (p-1)**2 before it is reduced: on the bound's last
    # prime that stays exact in float64, on the next prime `_matmul` splits
    # the coefficients into 16-bit halves
    p = _evaluation_boundary(nvars)[side]
    size = 4
    i, j = np.triu_indices(size, 1)
    coeff = np.zeros((nvars, size, size), dtype=np.int64)
    coeff[:, i, j] = p - 1
    coeff[:, j, i] = 1
    L = LinearSkewMatrix(PrimeField(p), nvars, coeff)
    seen = []
    reduce_float = exactlin._reduce_float

    def watched(c, q, out=None):
        seen.append(int(np.abs(c).max(initial=0)))
        return reduce_float(c, q, out=out)

    monkeypatch.setattr(exactlin, "_reduce_float", watched)
    got = L.evaluate_batch(np.full((3, nvars), p - 1))
    assert got.dtype == np.float64
    expected = np.zeros((size, size), dtype=object)
    expected[i, j] = nvars * (p - 1) ** 2 % p
    expected[j, i] = nvars * (p - 1) % p
    assert got.tolist() == [expected.tolist()] * 3
    if side == 0:
        assert seen == [nvars * (p - 1) ** 2]
    else:
        # one reduction per half of the coefficients p - 1 and 1, then their sum
        hi, lo = (p - 1) >> 16, (p - 1) & 0xFFFF
        assert seen[:2] == [nvars * (p - 1) * hi, nvars * (p - 1) * max(lo, 1)]
        assert len(seen) == 3 and max(seen) + p < exactlin.FLOAT_EXACT


def test_linear_skew_graded_roundtrip():
    L = random_linear_skew(4, 8, 20)
    M = L.to_graded()
    back = skew_from_graded(M)
    assert np.array_equal(back.coeff, L.coeff)
    pts = np.array([[1, 2, 3, 4], [5, 6, 7, 8]], dtype=np.int64)
    batch = L.evaluate_batch(pts)
    for t in range(2):
        assert np.array_equal(batch[t], L.evaluate(pts[t]).a)


@pytest.mark.parametrize("modulus", [7, 31991, 2**31 - 1])
@pytest.mark.parametrize(
    "size,nvars", [(4, 3), (5, 4), (12, 5), (17, 6), (32, 3), (32, 6)]
)
def test_linear_skew_content_hash_matches_graded_text(modulus, size, nvars):
    field = PrimeField(modulus)
    L = LinearSkewMatrix.random(field, nvars, size, FieldRng("hash", modulus, size, nvars))
    assert L.content_hash() == L.to_graded().content_hash()
    # zero coefficient matrices leave entries with fewer terms than variables
    coeff = L.coeff.copy()
    coeff[1:nvars:2] = 0
    sparse = LinearSkewMatrix(field, nvars, coeff)
    assert sparse.content_hash() == sparse.to_graded().content_hash()
    assert sparse.content_hash() != L.content_hash()


def mixed_matrix(field, nvars, seed):
    """Row twists (2, 1, 0), column twists (0, -1, 1, -2): entry degrees 0..4,
    two positions forced to zero by a negative gap, others zeroed at random."""
    rows, cols = (2, 1, 0), (0, -1, 1, -2)
    rng = FieldRng("mixed", seed)
    entries = [
        [
            HomogeneousForm.random(field, nvars, d - e, rng.fork(i, j))
            if d >= e and rng.below(4)
            else None
            for j, e in enumerate(cols)
        ]
        for i, d in enumerate(rows)
    ]
    return GradedMatrix(field, nvars, rows, cols, entries)


@pytest.mark.parametrize("modulus", [7, 31991, 2**31 - 1])
@pytest.mark.parametrize("nvars", [1, 2, 4])
def test_evaluate_batch_matches_pointwise(modulus, nvars):
    field = PrimeField(modulus)
    for seed in range(4):
        M = mixed_matrix(field, nvars, seed)
        pts = sample_points(field, nvars, seed, 0, 9)
        pts[0] = 0
        pts[1] += modulus  # unreduced coordinates are taken mod p
        batch = M.evaluate_batch(pts)
        # float64 residues, equal entry for entry to the int64 ones of evaluate
        assert batch.dtype == np.float64 and batch.shape == (9, 3, 4)
        for t in range(9):
            assert batch[t].tolist() == M.evaluate(pts[t]).a.tolist()
        # one degree in every slot: the product's own output is the stack
        linear = random_graded_matrix(field, nvars, linear_square_shape(3), FieldRng("fill", seed))
        batch = linear.evaluate_batch(pts)
        assert batch.dtype == np.float64 and batch.shape == (9, 3, 3)
        for t in range(9):
            assert batch[t].tolist() == linear.evaluate(pts[t]).a.tolist()
    zero = GradedMatrix(field, nvars, (0, 0), (-1, -1), [[None, None], [None, None]])
    assert not zero.evaluate_batch(pts).any()
    assert M.evaluate_batch(pts[:0]).shape == (0, 3, 4)


@pytest.mark.parametrize("modulus", [7, 31991, 2**31 - 1])
@pytest.mark.parametrize("nvars", [1, 2, 4])
def test_evaluate_matches_the_entrywise_term_walk(monkeypatch, modulus, nvars):
    # evaluate reads no coefficient stack, Vandermonde matrix or log table,
    # so it stays the independent reference of evaluate_batch
    monkeypatch.setattr(mpoly, "vandermonde", refuse)
    monkeypatch.setattr(mpoly, "_log_tables", refuse)
    field = PrimeField(modulus)
    for seed in range(3):
        M = mixed_matrix(field, nvars, seed)
        M._stacks = None
        rng = FieldRng("graded-evaluate", seed)
        points = [[rng.below(modulus) for _ in range(nvars)] for _ in range(3)]
        points += [[0] * nvars, [-1] * nvars, [modulus + 3] * nvars]
        for pt in points:
            got = M.evaluate(pt)
            assert got.a.dtype == np.int64 and got.shape == (3, 4)
            assert got.a.tolist() == [[term_walk(f, pt) for f in row] for row in M.entries]
        with pytest.raises(VariableCountMismatch):
            M.evaluate([1] * (nvars + 1))
    with pytest.raises(VariableCountMismatch):
        GradedMatrix(field, 3, (), (0,), []).evaluate((1, 2))


def test_matrices_from_equal_entries_are_equal():
    field = PrimeField(31991)
    M = mixed_matrix(field, 3, 1)
    copies = [
        GradedMatrix(field, 3, M.row_twists, M.col_twists, M.entries),
        # fresh forms, and None where M holds a zero form
        GradedMatrix(
            field,
            3,
            M.row_twists,
            M.col_twists,
            [
                [None if f.is_zero() else HomogeneousForm(field, 3, f.degree, f.coeffs) for f in row]
                for row in M.entries
            ],
        ),
    ]
    pts = sample_points(field, 3, 1, 0, 5)
    for N in copies:
        assert N == M and M == N
        assert N.evaluate_batch(pts).tobytes() == M.evaluate_batch(pts).tobytes()
    assert mixed_matrix(field, 3, 2) != M


def column_deleted(M, j):
    keep = [c for c in range(M.ncols) if c != j]
    return GradedMatrix(
        M.field,
        M.nvars,
        M.row_twists,
        tuple(M.col_twists[c] for c in keep),
        tuple(tuple(row[c] for c in keep) for row in M.entries),
    )


@pytest.mark.parametrize("modulus", [7, 31991])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_maximal_minors_match_expansion(modulus, d):
    field = PrimeField(modulus)
    for rep in range(2):
        M = random_graded_matrix(field, 4, linear_square_shape(d), FieldRng("minors", d, rep))
        below = GradedMatrix(field, 4, M.row_twists[1:], M.col_twists, M.entries[1:])
        minors = maximal_minors(below, seed=rep)
        assert len(minors) == d
        for j, minor in enumerate(minors):
            assert minor == determinant_expansion(column_deleted(below, j))
            assert minor.degree == d - 1 and not minor.is_zero()


def test_maximal_minors_of_mixed_degrees():
    f = [form(k, 40 + k) for k in range(4)]
    # deleting column 2 (twist -1) lowers the minor's degree by one
    M = GradedMatrix(F, 3, (1, 1), (0, 0, -1), [[f[1], None, f[2]], [f[1], f[1], f[2]]])
    minors = maximal_minors(M, seed=3)
    assert [m.degree for m in minors] == [3, 3, 2]
    for j, minor in enumerate(minors):
        assert minor == determinant_expansion(column_deleted(M, j))
    # a minor of negative degree is zero
    N = GradedMatrix(F, 3, (0,), (5, 0), [[None, f[0]]])
    assert maximal_minors(N) == [f[0], HomogeneousForm.zero(F, 3, 0)]
    with pytest.raises(ValueError):
        maximal_minors(GradedMatrix(F, 3, (0,), (0,), [[f[0]]]))


def test_maximal_minors_need_degree_at_most_p():
    F3 = PrimeField(3)
    for d in (4, 5):
        M = random_graded_matrix(F3, 4, linear_square_shape(d), FieldRng("minors3", d))
        below = GradedMatrix(F3, 4, M.row_twists[1:], M.col_twists, M.entries[1:])
        if d - 1 <= 3:
            minors = maximal_minors(below, seed=d)
            assert minors == [determinant_expansion(column_deleted(below, j)) for j in range(d)]
        else:
            with pytest.raises(InterpolationFailure):
                maximal_minors(below, seed=d)
    # cubic minors in 2 variables are within the rule at p = 3: the lattice
    # uses every element of GF(3) as a node and recovers them
    shape = ResolutionShape((0, 0, 0), (-1, -1, -1, -1))
    M = random_graded_matrix(F3, 2, shape, FieldRng("m"))
    minors = maximal_minors(M, seed=0)
    assert minors == [determinant_expansion(column_deleted(M, j)) for j in range(4)]
    assert all(minor.degree == 3 for minor in minors)
