import numpy as np
import pytest

from detpf import exactlin, graded
from detpf.exactlin import DEFAULT_PRIME, PrimeField, ScalarMatrix
from detpf.mpoly import (
    HomogeneousForm,
    monomial_basis,
    monomial_count,
    multiplication_matrix,
    vandermonde,
)
from detpf.polymat import GradedMatrix, LinearSkewMatrix
from detpf.constructions import (
    ResolutionShape,
    fermat_target,
    linear_square_shape,
    prop_35_shape,
    random_graded_matrix,
)
from detpf.graded import (
    CharDividesDegree,
    DuplicatePoint,
    PointSet,
    coker_hilbert,
    det_in_minor_ideal,
    form_in_ideal_piece,
    gorenstein_check,
    graded_piece_matrix,
    ideal_piece_dim,
    parse_point_set,
    random_point_set,
    smoothness_certificate,
    stabilizer_lie_dim,
)
from detpf.rng import FieldRng
from reference import kernel_basis

F = PrimeField(DEFAULT_PRIME)
P = DEFAULT_PRIME


def test_ideal_piece_dim_examples():
    x0 = HomogeneousForm.variable(F, 3, 0)
    assert ideal_piece_dim([x0], 2) == 3
    gens = [HomogeneousForm.variable(F, 3, j) for j in range(3)]
    for D in (1, 3, 5):
        assert ideal_piece_dim(gens, D) == monomial_count(3, D)
    # partials of the Fermat cubic span all of degree 4 (smooth curve)
    fermat = fermat_target(F, 2, 3)
    partials = [fermat.partial_derivative(j) for j in range(3)]
    assert ideal_piece_dim(partials, 4) == monomial_count(3, 4) == 15


def test_coker_hilbert_plane_linear():
    for d in (3, 4, 5):
        for seed in range(3):
            M = random_graded_matrix(F, 3, linear_square_shape(d), FieldRng("ch", d, seed))
            for j in range(7):
                assert coker_hilbert(M, j) == d * (j + 1)


def test_coker_hilbert_vanishes_below_generators():
    M = random_graded_matrix(F, 3, prop_35_shape(5, 2), FieldRng("ch2"))
    assert coker_hilbert(M, -1) == 0
    assert coker_hilbert(M, -2) == 0


def _piece_rank_hilbert(M, j):
    """Reference: the target dimension minus the rank of the degree-j piece."""
    target = sum(monomial_count(M.nvars, j + d) for d in M.row_twists)
    return target - exactlin.rank(graded_piece_matrix(M, j))


def _count_pieces(monkeypatch):
    """Patch graded's piece builder to count its calls; returns the counter."""
    calls = []
    real = graded.graded_piece_matrix

    def counting(M, j):
        calls.append(j)
        return real(M, j)

    monkeypatch.setattr(graded, "graded_piece_matrix", counting)
    return calls


def _no_pieces(monkeypatch):
    def refuse(M, j):
        raise AssertionError("coker_hilbert built a graded piece")

    monkeypatch.setattr(graded, "graded_piece_matrix", refuse)


@pytest.mark.parametrize("p", [7, P])
@pytest.mark.parametrize(
    "rows, cols",
    [
        ((0, 0, 0), (-1, -1, -1)),
        ((0, 1), (-1, -1)),
        ((0, 0, 1), (-1, -2)),
        ((0, 1, 1, 2), (-1, 0, -1)),
        ((2, 0, 1), (-1, 0)),
    ],
)
def test_coker_hilbert_of_injective_matrices_matches_piece_ranks(monkeypatch, p, rows, cols):
    field = PrimeField(p)
    rng = FieldRng("inj", p, str(rows), str(cols))
    M = random_graded_matrix(field, 3, ResolutionShape(rows, cols), rng)
    degrees = range(-max(rows) - 2, 7)
    expected = [_piece_rank_hilbert(M, j) for j in degrees]
    _no_pieces(monkeypatch)  # a witness point is found, so the twists answer
    assert [coker_hilbert(M, j) for j in degrees] == expected


def _linear_columns(field, nvars, nrows, seed):
    rng = FieldRng("cols", seed)
    return [HomogeneousForm.random(field, nvars, 1, rng.fork(i)) for i in range(nrows)]


@pytest.mark.parametrize("p", [7, P])
@pytest.mark.parametrize("case", ["equal-columns", "zero-column", "wide"])
def test_coker_hilbert_of_non_injective_matrices_takes_piece_ranks(monkeypatch, p, case):
    field = PrimeField(p)
    a = _linear_columns(field, 3, 3, "a")
    b = _linear_columns(field, 3, 3, "b")
    zero = [None] * 3
    columns = {
        "equal-columns": [a, b, a],
        "zero-column": [a, zero, b],
        "wide": [a[:2], b[:2], _linear_columns(field, 3, 2, "c")],
    }[case]
    entries = [list(row) for row in zip(*columns)]
    M = GradedMatrix(field, 3, (0,) * len(entries), (-1,) * len(columns), entries)
    expected = [_piece_rank_hilbert(M, j) for j in range(-2, 7)]
    calls = _count_pieces(monkeypatch)
    assert [coker_hilbert(M, j) for j in range(-2, 7)] == expected
    assert calls == list(range(-2, 7))


def test_coker_hilbert_when_every_point_of_a_small_field_fails_the_witness(monkeypatch):
    # x0^3 x1 - x0 x1^3 is a nonzero form that vanishes on all of GF(3)^2:
    # [f] is injective, but no point can show it, and the ranks answer
    field = PrimeField(3)
    f = HomogeneousForm(field, 2, 4, {(3, 1): 1, (1, 3): 2})
    M = GradedMatrix(field, 2, (0,), (-4,), [[f]])
    calls = _count_pieces(monkeypatch)
    assert [coker_hilbert(M, j) for j in range(-4, 6)] == [0, 0, 0, 0, 1, 2, 3, 4, 4, 4]
    assert len(calls) == 10


def _witness_entry_by_entry(M):
    """The index of the first of the WITNESS_POINTS stream points at which
    M(x), evaluated one entry at a time, has full column rank; None if none."""
    rng = FieldRng(0, "graded.coker_hilbert witness")
    points = [
        [rng.below(M.field.p) for _ in range(M.nvars)] for _ in range(graded.WITNESS_POINTS)
    ]
    for t, x in enumerate(points):
        if exactlin.rank(M.evaluate(x)) == M.ncols:
            return t, points
    return None, points


def test_the_batched_witness_answers_as_the_entry_by_entry_one(monkeypatch):
    # square linear matrices over small fields: det M(x) vanishes at some
    # stream points, so witnesses are found at a later point or not at all
    found_late = missed = 0
    evaluate_batch = GradedMatrix.evaluate_batch
    for p in (3, 5, 7):
        field = PrimeField(p)
        for seed in range(12):
            M = random_graded_matrix(
                field, 3, linear_square_shape(3), FieldRng("witness", p, seed)
            )
            first, points = _witness_entry_by_entry(M)
            seen = []
            with monkeypatch.context() as patch:
                patch.setattr(
                    GradedMatrix,
                    "evaluate_batch",
                    lambda self, x: seen.append(x.tolist()) or evaluate_batch(self, x),
                )
                assert graded._has_injectivity_witness(M) == (first is not None)
            assert seen == [points]
            found_late += first is not None and first > 0
            missed += first is None
    assert found_late and missed


def _counting_evaluations(monkeypatch):
    """Patch `GradedMatrix.evaluate_batch` to record each call's point count."""
    calls = []
    evaluate_batch = GradedMatrix.evaluate_batch
    monkeypatch.setattr(
        GradedMatrix,
        "evaluate_batch",
        lambda self, x: calls.append(len(x)) or evaluate_batch(self, x),
    )
    return calls


def test_the_witness_is_found_once_per_matrix(monkeypatch):
    # one matrix asked for 9 degrees, as `detpf hilbert` asks: the witness
    # points are evaluated in one batch, once
    M = random_graded_matrix(F, 4, linear_square_shape(4), FieldRng("once"))
    fresh = GradedMatrix(F, 4, M.row_twists, M.col_twists, M.entries)
    calls = _counting_evaluations(monkeypatch)
    assert [coker_hilbert(M, j) for j in range(9)] == [4 * (j + 2) * (j + 1) // 2 for j in range(9)]
    assert calls == [graded.WITNESS_POINTS]
    # the kept witness is no part of the matrix's value
    assert M._witness is True and fresh._witness is None
    assert M == fresh and fresh == M
    # no point shows a matrix with a repeated row injective: the failed
    # search is kept too, and every degree takes the rank of its piece
    rows = list(M.entries[:3]) + [M.entries[0]]
    singular = GradedMatrix(F, 4, M.row_twists, M.col_twists, rows)
    copy = GradedMatrix(F, 4, M.row_twists, M.col_twists, rows)
    calls.clear()
    pieces = _count_pieces(monkeypatch)
    got = [coker_hilbert(singular, j) for j in range(9)]
    assert calls == [graded.WITNESS_POINTS] and pieces == list(range(9))
    assert singular._witness is False and singular == copy
    assert got == [coker_hilbert(copy, j) for j in range(9)]


def test_a_wide_matrix_is_never_evaluated_for_a_witness(monkeypatch):
    M = random_graded_matrix(F, 3, ResolutionShape((0, 0), (-1, -1, -1)), FieldRng("wide"))
    calls = _counting_evaluations(monkeypatch)
    assert [coker_hilbert(M, j) for j in range(6)] == [2, 3, 3, 3, 3, 3]
    assert calls == [] and M._witness is False


def test_coker_hilbert_of_a_matrix_without_rows():
    # S(0) -> 0: no witness point can exist, and the cokernel is 0
    M = GradedMatrix(F, 3, (), (0,), [])
    assert not graded._has_injectivity_witness(M)
    assert [coker_hilbert(M, j) for j in range(-1, 3)] == [0, 0, 0, 0]


def test_coker_hilbert_of_a_matrix_without_columns(monkeypatch):
    _no_pieces(monkeypatch)
    M = GradedMatrix(F, 3, (0, 1), (), [[], []])
    assert [coker_hilbert(M, j) for j in range(-2, 4)] == [
        monomial_count(3, j) + monomial_count(3, j + 1) for j in range(-2, 4)
    ]
    empty = GradedMatrix(F, 3, (), (), [])
    assert [coker_hilbert(empty, j) for j in range(3)] == [0, 0, 0]


def test_coker_hilbert_of_an_injective_matrix_builds_no_piece(monkeypatch):
    M = random_graded_matrix(F, 3, linear_square_shape(4), FieldRng("nopiece"))
    _no_pieces(monkeypatch)
    assert [coker_hilbert(M, j) for j in range(7)] == [4 * (j + 1) for j in range(7)]


def test_smoothness_fermat_and_singular():
    for d in (2, 3, 4, 7, 10):
        cert = smoothness_certificate(fermat_target(F, 2, d))
        assert cert.verdict == "smooth", d
    tri = HomogeneousForm(F, 3, 3, {(1, 1, 1): 1})
    cert = smoothness_certificate(tri)
    assert cert.verdict == "singular"
    assert cert.witness is not None
    partials = [tri.partial_derivative(j) for j in range(3)]
    assert all(g.evaluate(cert.witness) == 0 for g in partials)


def test_smoothness_char_divides_degree():
    F5 = PrimeField(5)
    with pytest.raises(CharDividesDegree):
        smoothness_certificate(fermat_target(F5, 2, 5))


def test_smoothness_work_limit_gives_unknown():
    cert = smoothness_certificate(fermat_target(F, 2, 9), max_certificate_degree=10)
    assert cert.verdict == "unknown"
    assert cert.certificate_degree == 3 * 7 + 1


def test_smoothness_work_limit_comes_before_the_partials(monkeypatch):
    # over the limit no partial is taken: a derivative of a degree-60 form
    # would cost the whole degree-59 basis
    f = fermat_target(F, 3, 60)
    want = smoothness_certificate(f)

    def refuse(self, index):
        raise AssertionError("partial derivative taken above the work limit")

    monkeypatch.setattr(HomogeneousForm, "partial_derivative", refuse)
    assert smoothness_certificate(f) == want
    assert (want.verdict, want.certificate_degree, want.achieved_dim) == ("unknown", 233, None)


def _refuse_partials(monkeypatch):
    def refuse(self, index):
        raise AssertionError("partial derivative taken above the size bound")

    monkeypatch.setattr(HomogeneousForm, "partial_derivative", refuse)


def test_smoothness_size_bound_on_either_side(monkeypatch):
    # the Fermat cubic curve: J = 4, and the piece of its 3 partials is
    # dim S_4 = 15 rows by 3 dim S_2 = 18 columns
    f = fermat_target(F, 2, 3)
    monkeypatch.setattr(graded, "MAX_JACOBIAN_ENTRIES", 15 * 18)
    assert smoothness_certificate(f) == graded.SmoothnessCertificate("smooth", 4, 15, 15)
    monkeypatch.setattr(graded, "MAX_JACOBIAN_ENTRIES", 15 * 18 - 1)
    _refuse_partials(monkeypatch)
    assert smoothness_certificate(f) == graded.SmoothnessCertificate("unknown", 4, None, 15)


def test_smoothness_size_bound_admits_octic_surfaces_only(monkeypatch):
    # in P3 the degree-8 piece (J = 25) is under the bound and the degree-9
    # one (J = 29) over it; every test and CI input is far below
    assert monomial_count(4, 25) * 4 * monomial_count(4, 18) == 3276 * 5320
    assert 3276 * 5320 <= graded.MAX_JACOBIAN_ENTRIES < 4960 * 8096
    assert monomial_count(4, 29) * 4 * monomial_count(4, 21) == 4960 * 8096
    _refuse_partials(monkeypatch)
    for d in (9, 10, 11):
        cert = smoothness_certificate(fermat_target(F, 3, d))
        assert (cert.verdict, cert.certificate_degree, cert.achieved_dim) == (
            "unknown", 4 * (d - 2) + 1, None
        )


def test_smoothness_monotonicity_spot_check():
    f = fermat_target(F, 2, 4)
    partials = [f.partial_derivative(j) for j in range(3)]
    J = 3 * (4 - 2) + 1
    for extra in (0, 1, 2):
        assert ideal_piece_dim(partials, J + extra) == monomial_count(3, J + extra)


def test_stabilizer_examples():
    # single invertible 2x2 coefficient matrix: A M + M tA = 0 is exactly
    # trace(A) = 0, a 3-dimensional space (checked by hand elimination)
    L0 = LinearSkewMatrix(F, 1, np.array([[[0, 1], [-1, 0]]]))
    assert stabilizer_lie_dim(L0) == 3
    Lz = LinearSkewMatrix(F, 3, np.zeros((3, 4, 4), dtype=np.int64))
    assert stabilizer_lie_dim(Lz) == 16
    for size in (8, 10):
        for seed in range(3):
            L = LinearSkewMatrix.random(F, 3, size, FieldRng("st", size, seed))
            assert stabilizer_lie_dim(L) == 0, (size, seed)


def stabilizer_dim_by_columns(L):
    """n^2 minus the rank of X -> (triu(X M_k + M_k tX))_k, with one column
    per unit matrix X = E_rc."""
    n, p = L.size, L.field.p
    upper = np.triu_indices(n, 1)
    columns = []
    for r in range(n):
        for c in range(n):
            X = np.zeros((n, n), dtype=np.int64)
            X[r, c] = 1
            columns.append(
                np.concatenate([((X @ mk + mk @ X.T) % p)[upper] for mk in L.coeff])
            )
    if not columns or not len(columns[0]):
        return n * n
    return n * n - exactlin.rank(ScalarMatrix(L.field, np.array(columns).T))


@pytest.mark.parametrize("modulus", [7, 31991])
def test_stabilizer_matches_column_reference(modulus):
    field = PrimeField(modulus)
    for size in (0, 1, 2, 4, 6):
        for nvars in (1, 3):
            L = LinearSkewMatrix.random(field, nvars, size, FieldRng("stref", modulus, size, nvars))
            assert stabilizer_lie_dim(L) == stabilizer_dim_by_columns(L), (size, nvars)
        zero = LinearSkewMatrix(field, 2, np.zeros((2, size, size), dtype=np.int64))
        assert stabilizer_lie_dim(zero) == stabilizer_dim_by_columns(zero) == size * size


def test_stabilizer_small_sizes_recorded():
    # empirical record for 2d = 4, 6 (d = 2, 3); no generic claim is asserted
    dims = {}
    for size in (4, 6):
        dims[size] = [
            stabilizer_lie_dim(LinearSkewMatrix.random(F, 3, size, FieldRng("sm", size, s)))
            for s in range(3)
        ]
    print(f"\nstabilizer dims at 2d=4: {dims[4]}, 2d=6: {dims[6]}")
    assert all(v >= 0 for vals in dims.values() for v in vals)


def test_stabilizer_congruence_invariant():
    from detpf.exactlin import determinant as numeric_det

    rng = FieldRng("stc")
    for seed in range(3):
        L = LinearSkewMatrix.random(F, 3, 6, rng.fork(seed))
        while True:
            A = np.array([[rng.below(P) for _ in range(6)] for _ in range(6)], dtype=np.int64)
            if numeric_det(ScalarMatrix(F, A)) != 0:
                break
        transformed = np.stack([(A @ mk % P) @ A.T % P for mk in L.coeff])
        LT = LinearSkewMatrix(F, 3, transformed)
        assert stabilizer_lie_dim(LT) == stabilizer_lie_dim(L)


def test_point_set_normalization_and_duplicates():
    Z = PointSet(F, 3, [(2, 4, 6), (0, 5, 5)])
    assert Z.points[0] == (1, 2, 3)
    assert Z.points[1] == (0, 1, 1)
    with pytest.raises(DuplicatePoint):
        PointSet(F, 3, [(1, 2, 3), (2, 4, 6)])
    with pytest.raises(ValueError):
        PointSet(F, 3, [(0, 0, 0)])


def test_point_set_text_roundtrip():
    Z = random_point_set(F, 4, 7, FieldRng("pts"))
    back = parse_point_set(Z.to_text())
    assert back.points == Z.points
    with pytest.raises(ValueError, match="line 2"):
        parse_point_set("points p=31991 nvars=3\n1 2\n")


def test_gorenstein_five_general_points():
    for seed in range(8):
        Z = random_point_set(F, 4, 5, FieldRng("g5", seed))
        rep = gorenstein_check(Z)
        assert rep.index == 1
        assert rep.hilbert == (1, 4, 5)
        assert rep.symmetry_ok and rep.cayley_bacharach_ok


def test_gorenstein_coplanar_failure():
    rng = FieldRng("g4")
    for seed in range(8):
        r = rng.fork(seed)
        a = [r.below(P) for _ in range(4)]
        b = [r.below(P) for _ in range(4)]
        c = [r.below(P) for _ in range(4)]
        d = [(x + y + z) % P for x, y, z in zip(a, b, c)]  # dependent fourth point
        e = [r.below(P) for _ in range(4)]
        try:
            Z = PointSet(F, 4, [a, b, c, d, e])
        except (DuplicatePoint, ValueError):
            continue
        rep = gorenstein_check(Z)
        assert not rep.passed


def test_gorenstein_work_limit():
    from detpf.graded import WorkLimitExceeded

    Z = random_point_set(F, 3, 12, FieldRng("gw"))
    with pytest.raises(WorkLimitExceeded):
        gorenstein_check(Z, work_limit=0)


def test_gorenstein_two_points_on_line():
    # 2 points in P^1: complete intersection, hence Gorenstein; N = 0 and the
    # CB condition is vacuous (no nonzero constant vanishes at a point)
    Z = PointSet(F, 2, [(1, 0), (1, 1)])
    rep = gorenstein_check(Z)
    assert rep.index == 0
    assert rep.degree == 2
    assert rep.symmetry_ok and rep.cayley_bacharach_ok


def test_det_in_minor_ideal():
    for d in (3, 4, 5):
        M = random_graded_matrix(F, 4, linear_square_shape(d), FieldRng("mi", d))
        assert det_in_minor_ideal(M)
    # negative control: a random degree-d form is outside the minors ideal
    M = random_graded_matrix(F, 4, linear_square_shape(4), FieldRng("mi2"))
    keep = list(range(1, 4))
    from detpf.polymat import GradedMatrix, determinant

    minors = []
    for skip in range(4):
        cols = [c for c in range(4) if c != skip]
        sub = GradedMatrix(
            F,
            4,
            tuple(M.row_twists[r] for r in keep),
            tuple(M.col_twists[c] for c in cols),
            tuple(tuple(M.entries[r][c] for c in cols) for r in keep),
        )
        minors.append(determinant(sub))
    random_form = HomogeneousForm.random(F, 4, 4, FieldRng("mi3"))
    assert not form_in_ideal_piece(minors, random_form)


@pytest.mark.parametrize("d", [4, 7])
def test_det_in_minor_ideal_when_det_vanishes(d):
    M = random_graded_matrix(F, 4, linear_square_shape(d), FieldRng("mi0", d))
    from detpf.polymat import GradedMatrix, determinant

    # first row repeated: det M = 0 while the minors of the other rows are not
    repeated = GradedMatrix(F, 4, M.row_twists, M.col_twists, (M.entries[1],) + M.entries[1:])
    assert determinant(repeated).is_zero()
    assert det_in_minor_ideal(repeated) is True
    zero = GradedMatrix(F, 4, M.row_twists, M.col_twists, [[None] * d] * d)
    assert det_in_minor_ideal(zero) is True


# ---- the rank routes against the kernel-basis and block definitions --------------


def _cayley_bacharach_by_kernel(Z, index):
    """Reference: every form of degree `index` vanishing on Z minus z, taken
    from a kernel basis, vanishes at z too."""
    p = Z.field.p
    coords = Z.coordinate_array()
    V = vandermonde(coords, monomial_basis(Z.nvars, index), p)
    for omit in range(len(Z)):
        rest = ScalarMatrix(Z.field, np.delete(V, omit, axis=0))
        if any(int(V[omit] @ v % p) for v in kernel_basis(rest)):
            return False
    return True


def _dependent_point_set(field, nvars, count, rng):
    """`count` points, one of them the sum of the first three, or None."""
    pts = [[rng.below(field.p) for _ in range(nvars)] for _ in range(count - 1)]
    pts.insert(count // 2, [sum(c) % field.p for c in zip(*pts[:3])])
    try:
        return PointSet(field, nvars, pts)
    except ValueError:  # a zero or repeated point
        return None


@pytest.mark.parametrize("p", [7, 101, 31991])
def test_cayley_bacharach_by_rank_matches_kernel_reference(p):
    field = PrimeField(p)
    rng = FieldRng("cb-ref", p)
    seen = set()
    for nvars in (3, 4):
        for count in range(2, 9):
            for seed in range(3):
                sets = [
                    random_point_set(field, nvars, count, rng.fork(nvars, count, seed)),
                    _dependent_point_set(field, nvars, count, rng.fork("dep", nvars, count, seed))
                    if count >= 4
                    else None,
                ]
                for Z in sets:
                    if Z is None:
                        continue
                    rep = gorenstein_check(Z)
                    want = _cayley_bacharach_by_kernel(Z, rep.index)
                    assert rep.cayley_bacharach_ok == want, (nvars, Z.points)
                    seen.add(want)
    assert seen == {True, False}


def _ideal_piece_dim_by_blocks(gens, nvars, j):
    """Reference: rank of the multiplication blocks S_{j - deg g} -> S_j side by side."""
    blocks = [
        multiplication_matrix(g, monomial_basis(nvars, j - g.degree), monomial_basis(nvars, j))
        for g in gens
        if g.degree <= j and not g.is_zero()
    ]
    if not blocks:
        return 0
    return exactlin.rank(ScalarMatrix(gens[0].field, np.hstack(blocks)))


def test_graded_piece_matrix_is_float64_multiplication_blocks():
    rng = FieldRng("piece-dtype")
    gens = [HomogeneousForm.random(F, 3, d, rng.fork(d)) for d in (1, 2, 2, 3)]
    row = GradedMatrix(F, 3, (0,), [-g.degree for g in gens], [gens])
    for j in range(5):
        piece = graded_piece_matrix(row, j).a
        blocks = [
            multiplication_matrix(g, monomial_basis(3, j - g.degree), monomial_basis(3, j))
            for g in gens
        ]
        assert piece.dtype == np.float64
        assert np.array_equal(piece, np.hstack(blocks))


def _sparse_form(field, nvars, degree, rng):
    """A form with at most three terms, zero one time in six."""
    exps = monomial_basis(nvars, degree).exponents
    if rng.below(6) == 0:
        return HomogeneousForm.zero(field, nvars, degree)
    terms = {exps[rng.below(len(exps))]: 1 + rng.below(field.p - 1) for _ in range(3)}
    return HomogeneousForm(field, nvars, degree, terms)


@pytest.mark.parametrize("p", [7, 31991, 2**31 - 1])
def test_ideal_pieces_match_the_block_reference(p):
    field = PrimeField(p)
    rng = FieldRng("ideal-ref", p)
    member_seen = set()
    for case in range(60):
        r = rng.fork(case)
        nvars = 2 + r.below(3)
        gens = [_sparse_form(field, nvars, r.below(4), r) for _ in range(1 + r.below(4))]
        for j in range(5):
            want = _ideal_piece_dim_by_blocks(gens, nvars, j)
            assert ideal_piece_dim(gens, j) == want, (case, j)
            # a member (a multiple of a generator) half the time, else a random form
            g = gens[r.below(len(gens))]
            if r.below(2) and g.degree <= j:
                F = g * HomogeneousForm.random(field, nvars, j - g.degree, r)
            else:
                F = _sparse_form(field, nvars, j, r)
            member = _ideal_piece_dim_by_blocks(gens + [F], nvars, j) == want
            assert form_in_ideal_piece(gens, F) == member, (case, j)
            member_seen.add(member)
    assert member_seen == {True, False}


@pytest.mark.parametrize("p", [7, 31991, 2**31 - 1])
def test_membership_with_zero_generators_and_zero_forms(p):
    field = PrimeField(p)
    rng = FieldRng("ideal-zero", p)
    for nvars in (2, 3):
        zeros = [HomogeneousForm.zero(field, nvars, d) for d in (0, 1, 2)]
        x0 = HomogeneousForm(field, nvars, 1, {(1,) + (0,) * (nvars - 1): 1})
        for j in range(4):
            F = HomogeneousForm.random(field, nvars, j, rng.fork(nvars, j))
            zero = HomogeneousForm.zero(field, nvars, j)
            # only zero generators: the ideal is 0, so only F = 0 is a member
            assert not form_in_ideal_piece(zeros, F)
            assert not form_in_ideal_piece([], F)
            assert form_in_ideal_piece(zeros, zero) and form_in_ideal_piece([], zero)
            # zero generators beside a real one change nothing
            want = _ideal_piece_dim_by_blocks([x0], nvars, j)
            member = _ideal_piece_dim_by_blocks([x0, F], nvars, j) == want
            assert form_in_ideal_piece([*zeros, x0, zeros[1]], F) == member
            assert form_in_ideal_piece([x0], F) == member
            cofactor = HomogeneousForm.random(field, nvars, j, rng.fork("cofactor", nvars, j))
            assert form_in_ideal_piece([zeros[0], x0], x0 * cofactor)


def test_membership_builds_one_piece(monkeypatch):
    built = []
    piece_matrix = graded.graded_piece_matrix
    monkeypatch.setattr(
        graded, "graded_piece_matrix", lambda M, j: built.append(j) or piece_matrix(M, j)
    )
    x0, x1 = (HomogeneousForm(F, 3, 1, {e: 1}) for e in ((1, 0, 0), (0, 1, 0)))
    assert form_in_ideal_piece([x0, x1], x0 * x1)
    assert not form_in_ideal_piece([x0, x1], HomogeneousForm(F, 3, 2, {(0, 0, 2): 1}))
    assert built == [2, 2]
