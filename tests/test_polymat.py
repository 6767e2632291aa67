import numpy as np
import pytest

from detpf.exactlin import DEFAULT_PRIME, PrimeField, ScalarMatrix, Singular
from detpf.exactlin import determinant as numeric_det
from detpf.mpoly import HomogeneousForm, monomial_count, sample_points
from detpf.polymat import (
    SKEW,
    DegeneratePencil,
    GradedMatrix,
    LinearSkewMatrix,
    OddSize,
    congruence_transform,
    determinant,
    determinant_expansion,
    is_minimal,
    parse_graded_matrix,
    pfaffian,
    pfaffian_expansion,
    pfaffian_numeric,
    submaximal_pfaffians,
    submaximal_pfaffians_by_deletion,
    verify_representation,
)
from detpf.constructions import (
    linear_square_shape,
    linear_symmetric_shape,
    random_graded_matrix,
)
from detpf.rng import FieldRng, derive_seed

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
            d2 = determinant(M, seed=cases, cutoff=0)
            assert d1 == d2
            cases += 1
    assert cases >= 12


def test_pfaffian_numeric_convention_and_errors():
    assert pfaffian_numeric(ScalarMatrix(F, [[0, 9], [-9, 0]])) == 9
    with pytest.raises(OddSize):
        pfaffian_numeric(ScalarMatrix(F, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        pfaffian_numeric(ScalarMatrix(F, [[1, 0], [0, 1]]))


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
            pf = pfaffian(M)
            assert pf.degree == size // 2
            assert pf * pf == determinant(M, seed=rep, cutoff=0)


def test_pfaffian_interpolation_matches_expansion():
    rng = FieldRng(5)
    for size in (4, 6, 8):
        L = random_linear_skew(3, size, rng.below(10**6))
        M = L.to_graded()
        assert pfaffian(M, cutoff=0) == pfaffian_expansion(M)


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
    # over GF(7) M(x) is often singular; those points are dropped and
    # replaced from the same stream, and the forms still match the
    # deletion oracle
    F7 = PrimeField(7)
    kept_target = -(-11 * monomial_count(4, size // 2 - 1) // 10)  # ceil(1.1 N)
    total_dropped = 0
    for seed in range(10):
        L = LinearSkewMatrix.random(F7, 4, size, FieldRng("skew7", seed))
        stats = {}
        got = submaximal_pfaffians(L, seed=seed, stats=stats)
        assert got == submaximal_pfaffians_by_deletion(L.to_graded())
        drawn = sample_points(F7, 4, derive_seed(seed, "subpf"), 0, stats["points_used"])
        singular = [numeric_det(L.evaluate(pt)) == 0 for pt in drawn]
        assert stats["points_degenerate"] == sum(singular)
        assert stats["points_used"] == kept_target + sum(singular)
        assert not singular[-1]
        total_dropped += sum(singular)
    assert total_dropped > 0


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
        assert acc == pfaffian_numeric(A)


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


def test_linear_skew_graded_roundtrip():
    L = random_linear_skew(4, 8, 20)
    M = L.to_graded()
    back = LinearSkewMatrix.from_graded(M)
    assert np.array_equal(back.coeff, L.coeff)
    pts = np.array([[1, 2, 3, 4], [5, 6, 7, 8]], dtype=np.int64)
    batch = L.evaluate_batch(pts)
    for t in range(2):
        assert np.array_equal(batch[t], L.evaluate(pts[t]).a)
