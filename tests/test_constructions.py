import pytest

from detpf.exactlin import DEFAULT_PRIME, PrimeField
from detpf.mpoly import HomogeneousForm
from detpf.polymat import (
    determinant,
    determinant_expansion,
    is_minimal,
    pfaffian,
    pfaffian_expansion,
    verify_representation,
)
from detpf.constructions import (
    DegreeInconsistency,
    UnsupportedAmbient,
    block_skew_from,
    block_skew_sign,
    cyclic_matrix,
    cyclic_sign,
    fermat_matrix,
    fermat_target,
    linear_skew_shape,
    linear_square_shape,
    linear_symmetric_shape,
    prop_35_shape,
    pullback_squares,
    quadratic_shape,
    random_graded_matrix,
    theta_shape_random,
)
from detpf.rng import FieldRng
from reference import skew_from_graded

F = PrimeField(DEFAULT_PRIME)
P = DEFAULT_PRIME


def rand_form(degree, *seed, nvars=3):
    return HomogeneousForm.random(F, nvars, degree, FieldRng("cons", *seed))


def product(forms):
    acc = forms[0]
    for f in forms[1:]:
        acc = acc * f
    return acc


def test_cyclic_sign_is_frozen_against_oracle():
    # sigma(l) = (-1)^(l-1), derived from the l = 2, 3 expansions and pinned here
    for l in (2, 3, 4, 5):
        fs = [rand_form(1, "f", l, i) for i in range(l)]
        gs = [rand_form(1, "g", l, i) for i in range(l)]
        M = cyclic_matrix(fs, gs)
        expected = product(fs) + product(gs).scale(cyclic_sign(l))
        assert determinant_expansion(M) == expected
        assert cyclic_sign(l) == (-1) ** (l - 1)


def test_cyclic_examples():
    x0, x1, x2 = (HomogeneousForm.variable(F, 3, j) for j in range(3))
    M = cyclic_matrix([x0, x1], [x1, x2])
    assert determinant_expansion(M) == x0 * x1 + (x1 * x2).scale(cyclic_sign(2))
    zero = HomogeneousForm.zero(F, 3, 1)
    M = cyclic_matrix([x0, x1, x2], [zero, zero, zero])
    assert determinant_expansion(M) == x0 * x1 * x2
    # l = 3 with linear entries is a plane cubic as a 3x3 linear determinant
    fs = [rand_form(1, "c", i) for i in range(3)]
    gs = [rand_form(1, "d", i) for i in range(3)]
    M = cyclic_matrix(fs, gs)
    assert M.nrows == 3 and determinant_expansion(M).degree == 3


def test_cyclic_mixed_degrees_and_errors():
    f1, f2 = rand_form(1, "m", 0), rand_form(2, "m", 1)
    g1, g2 = rand_form(2, "m", 2), rand_form(1, "m", 3)
    M = cyclic_matrix([f1, f2], [g1, g2])
    assert determinant_expansion(M) == f1 * f2 - g1 * g2
    with pytest.raises(DegreeInconsistency):
        cyclic_matrix([f1, f2], [g1, g1])  # degree sums disagree
    with pytest.raises(DegreeInconsistency):
        cyclic_matrix([f1], [g2])


def test_fermat_plane_curves():
    for d in range(1, 9):
        built = fermat_matrix(F, 2, d)
        assert not built.footnote_variant
        res = verify_representation(built.matrix, built.target, "det")
        assert res.ok and res.scalar == 1, d
        assert built.target == fermat_target(F, 2, d)
        assert is_minimal(built.matrix), d


def test_fermat_threefolds():
    for d in range(1, 6):
        built = fermat_matrix(F, 3, d)
        res = verify_representation(built.matrix, built.target, "det")
        assert res.ok and res.scalar == 1, d


def test_fermat_footnote_variant():
    F3 = PrimeField(3)
    built = fermat_matrix(F3, 3, 3)
    assert built.footnote_variant
    res = verify_representation(built.matrix, built.target, "det")
    assert res.ok
    # the flagged surface is the footnote's, not the Fermat form
    x = [HomogeneousForm.variable(F3, 4, j) for j in range(4)]
    footnote = x[0] * (x[0] * x[0] + x[1] * x[1]) + (x[1] + x[2]) * (
        x[2] * x[2] + x[3] * x[3]
    )
    assert built.target == footnote


def test_fermat_rejections():
    with pytest.raises(UnsupportedAmbient):
        fermat_matrix(F, 4, 3)
    with pytest.raises(DegreeInconsistency):
        fermat_matrix(PrimeField(5), 2, 10)  # p | d without a plane fallback


def test_fermat_works_at_other_primes():
    for p in (101, 1009, 65537):
        Fp = PrimeField(p)
        for d in (2, 3, 4, 5):
            if d % p == 0:
                continue
            built = fermat_matrix(Fp, 2, d)
            assert verify_representation(built.matrix, built.target, "det").ok, (p, d)
    # degree 2 is the quaternion norm, with determinant exactly the target
    for p in (3, 5, 7, 2**31 - 1):
        Fp = PrimeField(p)
        for n in (2, 3):
            built = fermat_matrix(Fp, n, 2)
            assert built.matrix.nrows == 2 and is_minimal(built.matrix), (p, n)
            result = verify_representation(built.matrix, built.target, "det")
            assert result.ok and result.scalar == 1, (p, n)
            assert determinant_expansion(built.matrix) == built.target, (p, n)


def test_block_skew_sign_frozen():
    # pinned by the size-1..4 oracles: sign(d) = (-1)^(d(d-1)/2)
    rng = FieldRng("blk")
    for d in (1, 2, 3, 4):
        N = random_graded_matrix(F, 4, linear_square_shape(d), rng.fork(d))
        M = block_skew_from(N)
        assert M.symmetry == "skew" and M.nrows == 2 * d
        pf = pfaffian_expansion(M)
        det_n = determinant_expansion(N)
        assert pf == det_n.scale(block_skew_sign(d)), d
        assert block_skew_sign(d) == (-1) ** (d * (d - 1) // 2)


def test_block_skew_from_gives_pfaffian_fermat_surface():
    built = fermat_matrix(F, 3, 3)
    M = block_skew_from(built.matrix)
    pf = pfaffian(M)
    d = built.matrix.nrows
    assert pf == built.target.scale(block_skew_sign(d))
    assert verify_representation(M, built.target, "pf").ok


def test_pullback_squares():
    from detpf.polymat import GradedMatrix

    x0, x1 = HomogeneousForm.variable(F, 3, 0), HomogeneousForm.variable(F, 3, 1)
    diag = pullback_squares(
        GradedMatrix(F, 3, (0, 0), (-1, -1), [[x0, None], [None, x1]], "symmetric")
    )
    assert determinant_expansion(diag) == HomogeneousForm.monomial(F, (2, 2, 0))
    squares = [HomogeneousForm.variable(F, 3, j, 2) for j in range(3)]
    for rep in range(5):
        M = random_graded_matrix(F, 3, linear_symmetric_shape(4), FieldRng("pb", rep))
        pulled = pullback_squares(M)
        assert pulled.symmetry == "symmetric"
        assert determinant_expansion(pulled) == determinant_expansion(M).substitute(squares)
    with pytest.raises(ValueError):
        pullback_squares(random_graded_matrix(F, 3, linear_square_shape(3), FieldRng("pb2")))


def test_theta_shape():
    built = theta_shape_random(F, 4, FieldRng("th", 4))
    assert built.nrows == 2
    assert built[0, 0].degree == 1 and built[0, 1].degree == 2 and built[1, 1].degree == 3
    for d in range(4, 9):
        M = theta_shape_random(F, d, FieldRng("th", d))
        assert M.symmetry == "symmetric"
        for i in range(M.nrows):
            for j in range(M.ncols):
                assert M[i, j] == M[j, i]
        det = determinant(M, seed=d)
        assert det.degree == d and not det.is_zero()
    # entries of a theta matrix are not all linear; pullback must refuse it
    M = theta_shape_random(F, 5, FieldRng("th2"))
    with pytest.raises(ValueError):
        pullback_squares(M)


def test_random_graded_matrix_shapes():
    sk = random_graded_matrix(F, 4, linear_skew_shape(6), FieldRng("sh", 1))
    assert sk.symmetry == "skew"
    L = skew_from_graded(sk)
    assert not L.coeff[:, range(6), range(6)].any()
    sh = prop_35_shape(5, 2)
    assert sh.row_twists == (-1, 0, 0) and sh.col_twists == (-2, -2, -2)
    M35 = random_graded_matrix(F, 3, sh, FieldRng("sh", 2))
    assert M35[0, 0].degree == 1 and M35[1, 0].degree == 2
    q = random_graded_matrix(F, 3, quadratic_shape(3), FieldRng("sh", 3))
    assert all(q[i, j].degree == 2 for i in range(3) for j in range(3))
    with pytest.raises(DegreeInconsistency):
        prop_35_shape(4, 3)


def test_random_matrix_deterministic_in_seed():
    a = random_graded_matrix(F, 4, linear_skew_shape(8), FieldRng(123))
    b = random_graded_matrix(F, 4, linear_skew_shape(8), FieldRng(123))
    c = random_graded_matrix(F, 4, linear_skew_shape(8), FieldRng(124))
    assert a == b
    assert a != c
