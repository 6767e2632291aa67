"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; the slowest item is the full surface sweep (degrees 3..16).
"""

import time

import numpy as np

from detpf.exactlin import DEFAULT_PRIME, PrimeField, ScalarMatrix, pfaffian_skew
from detpf.exactlin import determinant as numeric_det
from detpf.mpoly import HomogeneousForm
from detpf.polymat import (
    GradedMatrix,
    LinearSkewMatrix,
    determinant,
    determinant_expansion,
    pfaffian,
    pfaffian_expansion,
    submaximal_pfaffians,
    submaximal_pfaffians_by_deletion,
    congruence_transform,
    verify_representation,
)
from detpf.constructions import (
    block_skew_from,
    block_skew_sign,
    fermat_matrix,
    fermat_target,
    linear_square_shape,
    prop_35_shape,
    pullback_squares,
    random_graded_matrix,
    linear_symmetric_shape,
    theta_shape_random,
)
from detpf.graded import (
    PointSet,
    DuplicatePoint,
    coker_hilbert,
    det_in_minor_ideal,
    form_in_ideal_piece,
    gorenstein_check,
    random_point_set,
    smoothness_certificate,
    stabilizer_lie_dim,
)
from detpf.dominance import (
    NOT_DOMINANT_BY_COUNT,
    curve_invariants,
    gorenstein_degree,
    linear_system_dimension,
    lower_bound_for_dominant_degree,
    moduli_dimension,
    pfaffian_codim,
    plane_genus,
)
from detpf.rng import FieldRng

F = PrimeField(DEFAULT_PRIME)
P = DEFAULT_PRIME


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _uniform_matrix(size, entry_degree, seed, symmetry=None):
    rng = FieldRng("acc-mat", size, entry_degree, seed)
    if symmetry == "skew":
        entries = [[None] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                f = HomogeneousForm.random(F, 3, entry_degree, rng.fork(i, j))
                entries[i][j] = f
                entries[j][i] = -f
        return GradedMatrix(F, 3, (0,) * size, (-entry_degree,) * size, entries, "skew")
    entries = [
        [HomogeneousForm.random(F, 3, entry_degree, rng.fork(i, j)) for j in range(size)]
        for i in range(size)
    ]
    return GradedMatrix(F, 3, (0,) * size, (-entry_degree,) * size, entries)


def test_criterion_1_surfaces_threshold():
    t0 = time.perf_counter()
    threshold, trail = lower_bound_for_dominant_degree(3, seed=0, retries=3)
    elapsed = time.perf_counter() - t0
    ok = threshold == 15
    by_degree = {c.degree: c for c in trail}
    ok = ok and all(by_degree[d].codim == 0 for d in range(3, 16))
    c16 = by_degree[16]
    ok = ok and c16.codim > 0 and c16.codim >= 968 - 960
    ok = ok and elapsed < 600
    _report(
        1,
        ok,
        f"surfaces: threshold {threshold} (expected 15), cd=0 for d=3..15, "
        f"cd(16)={c16.codim} >= 8, sweep {elapsed:.1f}s < 600s",
    )


def test_criterion_2_threefolds_threshold():
    t0 = time.perf_counter()
    threshold, trail = lower_bound_for_dominant_degree(4, seed=0, retries=3)
    elapsed = time.perf_counter() - t0
    by_degree = {c.degree: c for c in trail}
    ok = threshold == 5
    ok = ok and all(by_degree[d].codim == 0 for d in (3, 4, 5))
    ok = ok and by_degree[6].verdict == NOT_DOMINANT_BY_COUNT
    ok = ok and elapsed < 120
    _report(
        2,
        ok,
        f"threefolds: threshold {threshold} (expected 5), cd=0 for d=3..5, "
        f"d=6 false by count, {elapsed:.1f}s < 120s",
    )


def test_criterion_3_cubic_fourfolds():
    codims = [pfaffian_codim(5, 3, seed=s).codim for s in range(5)]
    ok = all(cd == 1 for cd in codims)
    _report(3, ok, f"cubic fourfolds: cd over 5 seeds = {codims} (expected all 1)")


def test_criterion_4_formula_table():
    ok = all(moduli_dimension(3, d) == 4 * d * (d - 1) for d in range(1, 25))
    ok = ok and moduli_dimension(3, 15) == 840 >= 815 == linear_system_dimension(3, 15)
    ok = ok and moduli_dimension(3, 16) == 960 < 968 == linear_system_dimension(3, 16)
    ok = ok and moduli_dimension(5, 3) == 54 == linear_system_dimension(5, 3) - 1
    ok = ok and curve_invariants(3) == (3, 0) and curve_invariants(4) == (6, 3)
    ok = ok and gorenstein_degree(3) == 5 and gorenstein_degree(4) == 14
    ok = ok and all(plane_genus(d) - 1 == d * (d - 3) // 2 for d in range(2, 25))
    _report(4, ok, "formula table: moduli/linsys/curve/gorenstein/genus all exact")


def test_criterion_5_pfaffian_algebra():
    rng = FieldRng("acc5")
    cases = 0
    ok = True
    for n in (2, 4, 6, 8, 10, 12):
        for _ in range(20):
            u = np.array(
                [[rng.below(P) for _ in range(n)] for _ in range(n)], dtype=np.int64
            )
            u = np.triu(u, 1)
            A = ScalarMatrix(F, u - u.T)
            pf = pfaffian_skew(A)
            ok = ok and pf * pf % P == numeric_det(A)
            cases += 1
    numeric_cases = cases
    for size in (2, 4, 6, 8):
        for rep in range(4):
            M = _uniform_matrix(size, 1, rep, symmetry="skew")
            pf = pfaffian_expansion(M)
            ok = ok and pf * pf == determinant(M, seed=rep)
            cases += 1
    for rep in range(10):
        M = _uniform_matrix(6, 1, 100 + rep, symmetry="skew")
        while True:
            A = ScalarMatrix(
                F, [[rng.below(P) for _ in range(6)] for _ in range(6)]
            )
            if numeric_det(A) != 0:
                break
        ok = ok and pfaffian_expansion(congruence_transform(M, A)) == pfaffian_expansion(
            M
        ).scale(numeric_det(A))
    block_ok = True
    for d in (1, 2, 3):
        N = random_graded_matrix(F, 4, linear_square_shape(d), rng.fork("blk", d))
        pf = pfaffian_expansion(block_skew_from(N))
        block_ok = block_ok and pf == determinant_expansion(N).scale(block_skew_sign(d))
    ok = ok and block_ok
    _report(
        5,
        ok,
        f"pfaffian algebra: pf^2=det ({numeric_cases} numeric + symbolic cases), "
        f"congruence covariance, block sign consistent",
    )


def test_criterion_6_oracle_equivalence():
    cases = 0
    ok = True
    det_plan = []
    for size in (2, 3, 4):
        for deg in (1, 2, 3):
            det_plan += [(size, deg)] * 5
    det_plan += [(5, 1)] * 3 + [(5, 2)] * 3 + [(5, 3)] * 1
    det_plan += [(6, 1)] * 3 + [(6, 2)] * 2 + [(6, 3)] * 1
    for rep, (size, deg) in enumerate(det_plan):
        M = _uniform_matrix(size, deg, rep)
        ok = ok and determinant_expansion(M) == determinant(M, seed=rep)
        cases += 1
    pf_plan = [(4, d) for d in (1, 2, 3)] * 5 + [(6, d) for d in (1, 2, 3)] * 3 + [(8, 1)] * 3
    for rep, (size, deg) in enumerate(pf_plan):
        M = _uniform_matrix(size, deg, 1000 + rep, symmetry="skew")
        ok = ok and pfaffian_expansion(M) == pfaffian(M, seed=rep)
        cases += 1
    sub_cases = 0
    for size in (4, 6):
        for rep in range(10):
            L = LinearSkewMatrix.random(F, 3, size, FieldRng("acc6", size, rep))
            got = submaximal_pfaffians(L, seed=rep)
            want = submaximal_pfaffians_by_deletion(L.to_graded())
            ok = ok and got == want
            sub_cases += 1
            cases += 1
    total = cases
    ok = ok and total >= 100
    _report(
        6,
        ok,
        f"oracle equivalence: {total} dual-path cases (det/pf/submaximal incl. "
        f"{sub_cases} inverse-identity calibrations), all coefficient-exact",
    )


def test_criterion_7_hilbert_closed_forms():
    ok = True
    checked = 0
    for d in (3, 4, 5):
        for seed in range(10):
            M = random_graded_matrix(F, 3, linear_square_shape(d), FieldRng("h1", d, seed))
            for j in range(7):
                ok = ok and coker_hilbert(M, j) == d * (j + 1)
                checked += 1
    for d in (3, 4, 5):
        for sections in {1, d // 2}:
            for seed in range(10):
                M = random_graded_matrix(
                    F, 3, prop_35_shape(d, sections), FieldRng("h2", d, sections, seed)
                )
                for j in range(6):
                    ok = ok and coker_hilbert(M, j) == sections + d * j
                    checked += 1
    import math

    for d in (3, 4, 5):
        for seed in range(10):
            M = random_graded_matrix(F, 4, linear_square_shape(d), FieldRng("h3", d, seed))
            for j in range(5):
                ok = ok and coker_hilbert(M, j) == d * math.comb(j + 2, 2)
                checked += 1
    _report(7, ok, f"Hilbert closed forms: {checked} exact values across three families")


def test_criterion_8_constructions_verify():
    ok = True
    for d in range(1, 9):
        built = fermat_matrix(F, 2, d)
        res = verify_representation(built.matrix, built.target, "det")
        ok = ok and res.ok
    for d in range(1, 6):
        built = fermat_matrix(F, 3, d)
        res = verify_representation(built.matrix, built.target, "det")
        ok = ok and res.ok
    # footnote variant at a prime dividing the degree
    F5 = PrimeField(5)
    built = fermat_matrix(F5, 3, 5)
    ok = ok and built.footnote_variant
    ok = ok and verify_representation(built.matrix, built.target, "det").ok
    squares = [HomogeneousForm.variable(F, 3, j, 2) for j in range(3)]
    for rep in range(5):
        M = random_graded_matrix(F, 3, linear_symmetric_shape(4), FieldRng("acc8", rep))
        ok = ok and determinant_expansion(pullback_squares(M)) == determinant_expansion(
            M
        ).substitute(squares)
    for d in range(4, 9):
        det = determinant(theta_shape_random(F, d, FieldRng("acc8t", d)), seed=d)
        ok = ok and det.degree == d and not det.is_zero()
    _report(
        8,
        ok,
        "constructions verify: fermat P2 d<=8, P3 d<=5 (+GF(5) footnote), "
        "pullback commutes with det, theta determinants degree 4..8",
    )


def test_criterion_9_gorenstein_point_sets():
    ok = True
    passed = failed = 0
    for seed in range(20):
        Z = random_point_set(F, 4, 5, FieldRng("acc9", seed))
        rep = gorenstein_check(Z)
        ok = ok and rep.index == 1 and rep.passed
        passed += 1
    rng = FieldRng("acc9b")
    while failed < 20:
        r = rng.fork(failed, rng.below(1 << 30))
        a = [r.below(P) for _ in range(4)]
        b = [r.below(P) for _ in range(4)]
        c = [r.below(P) for _ in range(4)]
        lam, mu = 1 + r.below(P - 1), 1 + r.below(P - 1)
        d = [(lam * x + mu * y) % P for x, y in zip(a, b)]
        e = [r.below(P) for _ in range(4)]
        try:
            Z = PointSet(F, 4, [a, b, c, d, e])
        except (DuplicatePoint, ValueError):
            continue
        rep = gorenstein_check(Z)
        ok = ok and not rep.passed
        failed += 1
    _report(
        9,
        ok,
        f"Gorenstein point sets: {passed} general 5-point sets pass with N=1, "
        f"{failed} dependent configurations fail",
    )


def test_criterion_10_smoothness():
    ok = True
    for d in range(2, 11):
        cert = smoothness_certificate(fermat_target(F, 2, d))
        ok = ok and cert.verdict == "smooth"
    tri = HomogeneousForm(F, 3, 3, {(1, 1, 1): 1})
    cert = smoothness_certificate(tri)
    ok = ok and cert.verdict == "singular" and cert.witness is not None
    built = fermat_matrix(F, 2, 5)
    det = determinant(built.matrix)
    cert = smoothness_certificate(det)
    ok = ok and cert.verdict == "smooth"
    _report(
        10,
        ok,
        "smoothness: Fermat plane curves d<=10 smooth, X0X1X2 has a witness, "
        "det(fermat(2,5)) smooth",
    )


def test_criterion_11_stabilizer():
    ok = True
    dims = []
    for size in (8, 10):
        for seed in range(3):
            L = LinearSkewMatrix.random(F, 3, size, FieldRng("acc11", size, seed))
            dims.append(stabilizer_lie_dim(L))
    ok = ok and all(v == 0 for v in dims)
    rng = FieldRng("acc11c")
    L = LinearSkewMatrix.random(F, 3, 8, rng)
    while True:
        A = np.array([[rng.below(P) for _ in range(8)] for _ in range(8)], dtype=np.int64)
        if numeric_det(ScalarMatrix(F, A)) != 0:
            break
    transformed = np.stack([(A @ mk % P) @ A.T % P for mk in L.coeff])
    ok = ok and stabilizer_lie_dim(LinearSkewMatrix(F, 3, transformed)) == stabilizer_lie_dim(L)
    _report(
        11,
        ok,
        f"stabilizer: dims {dims} for 2d in (8,10) x 3 seeds (expected 0), "
        "congruence invariant",
    )


def test_criterion_12_minors_membership():
    ok = True
    for d in (3, 4, 5):
        M = random_graded_matrix(F, 4, linear_square_shape(d), FieldRng("acc12", d))
        ok = ok and det_in_minor_ideal(M)
    M = random_graded_matrix(F, 4, linear_square_shape(4), FieldRng("acc12n"))
    minors = []
    for skip in range(4):
        cols = [c for c in range(4) if c != skip]
        sub = GradedMatrix(
            F,
            4,
            tuple(M.row_twists[r] for r in range(1, 4)),
            tuple(M.col_twists[c] for c in cols),
            tuple(tuple(M.entries[r][c] for c in cols) for r in range(1, 4)),
        )
        minors.append(determinant(sub))
    control = HomogeneousForm.random(F, 4, 4, FieldRng("acc12c"))
    ok = ok and not form_in_ideal_piece(minors, control)
    _report(
        12,
        ok,
        "minors membership: det in the maximal-minors ideal for d=3,4,5; "
        "random form negative control rejected",
    )
