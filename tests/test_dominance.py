import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from detpf import dominance, exactlin
from detpf.constructions import random_linear_skew
from detpf.dominance import (
    _count_obstructed,
    _span_rank,
    DOMINANT,
    NOT_DOMINANT_BY_COUNT,
    DominanceCertificate,
    curve_invariants,
    dominance_sweep,
    formula_table,
    gorenstein_degree,
    is_dominant,
    linear_system_dimension,
    lower_bound_for_dominant_degree,
    moduli_dimension,
    pfaffian_codim,
    plane_genus,
    span_rank_by_interpolation,
)
from detpf.exactlin import PrimeField, ScalarMatrix
from detpf.mpoly import (
    DegeneratePencil,
    _shifted_rows,
    monomial_basis,
    monomial_count,
    sample_points,
    vandermonde,
)
from detpf.polymat import LinearSkewMatrix, submaximal_pfaffians
from detpf.rng import FieldRng, derive_seed


def test_moduli_dimension():
    for d in range(1, 20):
        assert moduli_dimension(3, d) == 4 * d * (d - 1)
    assert moduli_dimension(3, 16) == 960
    assert moduli_dimension(3, 15) == 840
    assert moduli_dimension(5, 3) == 54
    assert moduli_dimension(4, 6) == 186


def test_linear_system_dimension():
    assert linear_system_dimension(3, 16) == 968
    assert linear_system_dimension(3, 15) == 815
    assert linear_system_dimension(5, 3) == 55
    assert linear_system_dimension(2, 1) == 2
    assert linear_system_dimension(4, 6) == 209


def test_curve_invariants():
    assert curve_invariants(3) == (3, 0)
    assert curve_invariants(4) == (6, 3)
    assert curve_invariants(2) == (1, 0)


def test_closed_forms_are_exact():
    for d in range(1, 501):
        genus = Fraction((d - 2) * (d - 3) * (2 * d + 1), 6)
        values = (*curve_invariants(d), gorenstein_degree(d))
        assert values == (Fraction(d * (d - 1), 2), genus, Fraction(d * (d - 1) * (2 * d - 1), 6))
        assert all(type(v) is int for v in values)


def test_gorenstein_degree():
    assert gorenstein_degree(3) == 5
    assert gorenstein_degree(4) == 14
    assert gorenstein_degree(1) == 0
    # agrees with the curve degree formula family at a shared value? no:
    # it is its own cubic; spot-check integrality across a range instead
    for d in range(1, 30):
        assert gorenstein_degree(d) == d * (d - 1) * (2 * d - 1) // 6


def test_plane_genus_identity():
    assert plane_genus(4) == 3
    assert plane_genus(2) == 0
    for d in range(2, 20):
        assert plane_genus(d) - 1 == d * (d - 3) // 2


def test_formula_cross_checks():
    assert moduli_dimension(5, 3) == linear_system_dimension(5, 3) - 1
    t = formula_table(3, 3)
    assert t.curve_degree == 3 and t.curve_genus == 0 and t.gorenstein_degree == 5


def test_certificate_reproducibility():
    a = pfaffian_codim(3, 4, seed=99)
    b = pfaffian_codim(3, 4, seed=99)
    da, db = a.to_dict(), b.to_dict()
    da.pop("elapsed_seconds")
    db.pop("elapsed_seconds")
    assert da == db
    c = pfaffian_codim(3, 4, seed=100)
    assert c.matrix_hash != a.matrix_hash


def test_certificate_invariants():
    for (r, d) in ((2, 3), (3, 3), (3, 5), (4, 3), (5, 3)):
        cert = pfaffian_codim(r, d, seed=7)
        assert cert.codim == cert.target_dim - cert.rank_achieved >= 0
        assert cert.rank_achieved <= cert.target_dim
        assert (cert.verdict == DOMINANT) == (cert.codim == 0)


def test_cubic_fourfolds_codim_one():
    for seed in range(3):
        cert = pfaffian_codim(5, 3, seed=seed)
        assert cert.codim == 1
        assert cert.verdict == NOT_DOMINANT_BY_COUNT


def test_is_dominant_small_cases():
    ok, cert = is_dominant(3, 3, seed=1)
    assert ok and cert.codim == 0
    ok, cert = is_dominant(4, 6, seed=1)
    assert not ok and cert.verdict == NOT_DOMINANT_BY_COUNT
    # the sampled codimension respects the counting gap
    assert cert.codim >= linear_system_dimension(4, 6) - moduli_dimension(4, 6)


def test_lower_bound_threefolds():
    threshold, trail = lower_bound_for_dominant_degree(4, seed=2)
    assert threshold == 5
    assert [c.degree for c in trail] == [3, 4, 5, 6]
    assert all(c.codim == 0 for c in trail[:3])
    assert trail[3].verdict == NOT_DOMINANT_BY_COUNT


def test_threshold_scan_stops_at_the_first_count_obstructed_degree():
    first = {r: next(d for d in range(3, 100) if _count_obstructed(r, d)) for r in (3, 4, 5)}
    assert first == {3: 16, 4: 6, 5: 3}
    assert not any(_count_obstructed(2, d) for d in range(3, 500))


def test_lower_bound_refuses_plane_curves_before_any_certificate(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a certificate ran")

    monkeypatch.setattr(dominance, "is_dominant", never)
    for r in (2, 6):
        with pytest.raises(ValueError, match="3..5"):
            lower_bound_for_dominant_degree(r)


def test_sweep_ordering_and_workers():
    certs = dominance_sweep(2, 5, seed=3, min_degree=3)
    assert [c.degree for c in certs] == [3, 4, 5]
    threaded = dominance_sweep(2, 5, seed=3, min_degree=3, workers=3)
    strip = lambda c: {k: v for k, v in c.to_dict().items() if k != "elapsed_seconds"}
    assert [strip(c) for c in certs] == [strip(c) for c in threaded]


def test_lower_bound_alternate_prime_recorded():
    # robustness evidence at a small prime; the asserted thresholds live in
    # the acceptance suite at the default p = 31991
    threshold, trail = lower_bound_for_dominant_degree(4, prime=101, seed=5)
    print(f"\nlower bound for ambient 4 at p=101: {threshold} "
          f"(trail degrees {[c.degree for c in trail]})")
    assert all(c.prime == 101 for c in trail)
    assert 3 <= threshold <= 16


def test_csv_row_shape():
    cert = pfaffian_codim(2, 3, seed=4)
    header = DominanceCertificate.csv_header()
    assert header == "r,d,prime,seed,cd,rank,target,verdict,elapsed_ms"
    assert len(cert.csv_row().split(",")) == len(header.split(","))


def test_bad_arguments():
    with pytest.raises(ValueError):
        pfaffian_codim(7, 3)
    with pytest.raises(ValueError):
        pfaffian_codim(3, 1)
    with pytest.raises(ValueError):
        moduli_dimension(1, 3)


# ---- evaluation rank against the interpolated span ---------------------------


def sampled_matrix(r, d, prime, seed):
    """The matrix pfaffian_codim samples at its first attempt."""
    rng = FieldRng(seed, "dominance", r, d, 1)
    return random_linear_skew(PrimeField(prime), r + 1, 2 * d, rng)


CROSS_ROUTE = [
    (r, d, prime)
    for prime in (31991, 2**31 - 1)
    for (r, d) in ((2, 3), (2, 6), (3, 3), (3, 6), (4, 4), (4, 6), (5, 3), (5, 4))
]


def whole_blocks(L):
    """Every triu index in every x_k block: the uncut E."""
    return [np.arange(comb(L.size, 2))] * L.nvars


def rank_keeping(monkeypatch, L, d, seed, kept):
    """The rank of E built from the blocks' columns `kept` instead of
    `_kept_columns(L)`."""
    with monkeypatch.context() as patch:
        patch.setattr(dominance, "_kept_columns", lambda L: kept)
        return _span_rank(L, d, seed)[0]


def full_rank(monkeypatch, L, d, seed):
    """The rank of E with every column kept."""
    return rank_keeping(monkeypatch, L, d, seed, whole_blocks(L))


def x0_cut_rank(monkeypatch, L, d, seed):
    """The rank of E with only the x_0 cut: the x_1 block kept whole."""
    kept = dominance._kept_columns(L)
    kept[1] = whole_blocks(L)[1]
    return rank_keeping(monkeypatch, L, d, seed, kept)


def both_cuts(r, d):
    """The width of E when the x_0 and x_1 cuts both run."""
    return 1 + d + (r - 1) * comb(2 * d, 2)


def line_count(r, d):
    """The lines a certificate takes: ceil(N / (d+1)) + 1 for r >= 3, d + 1
    for plane curves."""
    return d + 1 if r == 2 else -(-comb(d + r, r) // (d + 1)) + 1


def line_ends(lines, r):
    """The points a = (a', 0, 1) and b = (b', 1, 0) of each drawn line."""
    a = np.zeros((len(lines), r + 1), dtype=np.int64)
    b = np.zeros_like(a)
    a[:, : r - 1], a[:, r] = lines[:, : r - 1], 1
    b[:, : r - 1], b[:, r - 1] = lines[:, r - 1 :], 1
    return a, b


def cut_matrix(monkeypatch, L, d, seed, kept):
    """(rank, E) of E built from the blocks' columns `kept`.  `exactlin.rank`
    factors a float64 E in place, so the spy keeps a copy of it."""
    ranked = []
    rank = exactlin.rank
    with monkeypatch.context() as patch:
        patch.setattr(dominance, "_kept_columns", lambda L: kept)
        patch.setattr(
            exactlin, "rank", lambda A: ranked.append(ScalarMatrix(A.field, A.a.copy())) or rank(A)
        )
        cut = _span_rank(L, d, seed)[0]
    return cut, ranked[-1]


def cut_ranks(monkeypatch, L, d, seed, column):
    """(rank of E with only x_0 column `column` kept and the other blocks
    whole, rank with it deleted too)."""
    kept = [np.array([column])] + whole_blocks(L)[1:]
    cut, E = cut_matrix(monkeypatch, L, d, seed, kept)
    # the kept column comes first
    return cut, exactlin.rank(ScalarMatrix(E.field, E.a[:, 1:]))


@pytest.mark.parametrize("r, d, prime", CROSS_ROUTE)
def test_evaluation_rank_matches_interpolated_span(monkeypatch, r, d, prime):
    seed = 3
    L = sampled_matrix(r, d, prime, seed)
    stream = derive_seed(seed, "interp", r, d, 1)
    route = {}
    rank, target, drawn = _span_rank(L, d, stream, route)
    span, span_target, _ = span_rank_by_interpolation(L, d, stream)
    assert target == span_target == comb(d + r, r)
    assert drawn == line_count(r, d)  # no unusable line at these primes and seeds
    assert route["columns"] == both_cuts(r, d)
    assert rank == x0_cut_rank(monkeypatch, L, d, stream) == full_rank(monkeypatch, L, d, stream)
    assert rank == span
    cert = pfaffian_codim(r, d, prime=prime, seed=seed)
    assert (cert.rank_achieved, cert.codim) == (rank, target - span)


def spied_lines(monkeypatch, run):
    """(run(), the lines kept from every batch `_line_matrix` evaluated, in
    G's order, a copy of G), read by spies on `_line_rows` and
    `exactlin.rank`."""
    kept, ranked = [], []
    line_rows, rank = dominance._line_rows, exactlin.rank

    def spy(L, d, lines, blocks, route):
        rows, usable = line_rows(L, d, lines, blocks, route)
        kept.append(lines[usable])
        return rows, usable

    with monkeypatch.context() as patch:
        patch.setattr(dominance, "_line_rows", spy)
        patch.setattr(
            exactlin, "rank", lambda A: ranked.append(ScalarMatrix(A.field, A.a.copy())) or rank(A)
        )
        result = run()
    return result, kept, ranked[-1]


@pytest.mark.parametrize("prime", [3, 7, 31991, 16777213, 94906249, 2**31 - 1])
def test_evaluation_matrix_matches_the_int64_construction(monkeypatch, prime):
    # each line's d + 1 rows of G are the coefficients of a polynomial in t
    # whose value at t is x(t) (x) triu(pf(M(x(t))) / pf(A) * M(x(t))^-1),
    # built in int64 from `invert` and `pfaffian_skew` at a few t where
    # M(x(t)) is invertible.  From 16777213 on G has more pivots than the
    # delayed bound allows, and above 94906249 even one product of two
    # residues is past 2**53, so `_matmul` and `_mul_mod` split the products
    cases = [(2, 3, 0)] if prime == 3 else [(2, 4, 1), (3, 5, 1), (4, 3, 2)]
    for r, d, seed in cases:
        certify = lambda: pfaffian_codim(r, d, prime=prime, seed=seed)
        cert, kept, G = spied_lines(monkeypatch, certify)
        lines = np.concatenate(kept)
        L = sampled_matrix(r, d, prime, seed)
        upper = np.triu_indices(L.size, 1)
        kept = dominance._kept_columns(L)
        # rows j = 1..d-1 of every line, then j = 0 and j = d
        rows = G.a.reshape(d + 1, len(lines), -1)[[d - 1, *range(d - 1), d]]
        checked = 0
        for (a, b), coeffs in zip(zip(*line_ends(lines, r)), rows.transpose(1, 0, 2)):
            scale = pow(exactlin.pfaffian_skew(L.evaluate(a)), -1, prime)
            for t in range(min(prime, 4)):
                x = (a + t * b) % prime
                M = L.evaluate(x)
                pf = exactlin.pfaffian_skew(M)
                if not pf:
                    continue
                Y = exactlin.invert(M).a * (pf * scale % prime) % prime
                entries = Y[upper]
                built = np.concatenate([x[k] * entries[cols] % prime for k, cols in enumerate(kept)])
                value = np.zeros(G.cols, dtype=np.int64)
                for row in coeffs[::-1].astype(np.int64):
                    value = (value * t + row) % prime
                assert value.tolist() == built.tolist()
                checked += 1
        assert checked >= 2 * len(lines)
        assert G.a.dtype == np.float64
        assert cert.rank_achieved == exactlin.rank(G)
        assert cert.columns == G.cols
        assert cert.sample_points_used >= len(lines) == G.rows // (d + 1)
        if prime >= 16777213 and d == 5:
            assert not exactlin._float_is_delayed(prime, min(G.shape))


def with_m0(L, m0):
    coeff = L.coeff.copy()
    coeff[0] = m0 % L.field.p
    return LinearSkewMatrix(L.field, L.nvars, coeff)


@pytest.mark.parametrize(
    "r, d, prime", [(2, 3, 31991), (3, 4, 31991), (4, 4, 31991), (5, 3, 31991), (2, 6, 2**31 - 1)]
)
def test_singular_m0_keeps_the_full_matrix(monkeypatch, r, d, prime):
    L = sampled_matrix(r, d, prime, 1)
    zero_row = L.coeff[0].copy()
    zero_row[0, :] = zero_row[:, 0] = 0
    e = np.eye(2 * d, dtype=np.int64)
    rank_two = np.outer(e[0], e[1]) - np.outer(e[1], e[0])
    for m0 in (zero_row, rank_two):
        M = with_m0(L, m0)
        route = {}
        rank, _, _ = _span_rank(M, d, 1, route)
        assert route["columns"] == (r + 1) * comb(2 * d, 2)
        assert rank == full_rank(monkeypatch, M, d, 1) == span_rank_by_interpolation(M, d, 1)[0]
    # with M_0 of rank two, no single x_0 column spans the x_0 block
    M = with_m0(L, rank_two)
    assert all(cut_ranks(monkeypatch, M, d, 1, t)[0] < rank for t in range(comb(2 * d, 2)))


FULL_RANK_P_DIVIDING_D = {(2, 3, 3): 10, (2, 6, 3): 28, (2, 5, 5): 21, (3, 5, 5): 53}


@pytest.mark.parametrize(
    "r, d, prime, seed", [(2, 3, 3, 0), (2, 6, 3, 0), (2, 5, 5, 0), (3, 5, 5, 0)]
)
def test_p_dividing_d_keeps_the_full_matrix(monkeypatch, r, d, prime, seed):
    # the cuts need M_0 invertible and nothing of d: the one kept x_0
    # column gives the full matrix's rank, and where the lines give the
    # whole target, deleting it loses a rank.  At (3, 5) over GF(5) the
    # lines impose only 53 of the 56 conditions, and the x_0 column is
    # among what they lose
    L = sampled_matrix(r, d, prime, seed)
    stream = derive_seed(seed, "interp", r, d, 1)
    route = {}
    rank, target, _ = _span_rank(L, d, stream, route)
    assert route["columns"] == both_cuts(r, d)
    assert rank == x0_cut_rank(monkeypatch, L, d, stream) == full_rank(monkeypatch, L, d, stream)
    assert rank == FULL_RANK_P_DIVIDING_D[r, d, prime]
    kept = dominance._kept_columns(L)[0][0]
    lost = rank - 1 if rank == target else rank
    assert cut_ranks(monkeypatch, L, d, stream, kept) == (rank, lost)
    if d - 1 < prime:  # the P_ij interpolate
        assert rank <= span_rank_by_interpolation(L, d, stream)[0] == target


@pytest.mark.parametrize("prime", [3, 5, 7, 31991, 2**31 - 1])
def test_cut_keeps_the_full_rank(monkeypatch, prime):
    cut = x1_cut = cut_where_p_divides_d = 0
    for seed in range(2):
        for r, d in ((2, 3), (2, 5), (2, 6), (2, 7), (3, 3), (3, 5), (4, 3), (5, 3)):
            L = sampled_matrix(r, d, prime, seed)
            route = {}
            try:
                rank, _, _ = _span_rank(L, d, seed, route)
            except DegeneratePencil:  # common at p = 3, and raised before any cut
                continue
            assert rank == x0_cut_rank(monkeypatch, L, d, seed) == full_rank(monkeypatch, L, d, seed)
            x0_cut = route["columns"] < (r + 1) * comb(2 * d, 2)
            cut += x0_cut
            x1_cut += route["columns"] == both_cuts(r, d)
            cut_where_p_divides_d += x0_cut and d % prime == 0
    # M_0 is singular, or the pencil degenerate, in a few of the 16 at small p
    assert cut >= 10
    assert x1_cut >= 10
    assert cut_where_p_divides_d >= (2 if prime <= 7 else 0)


@pytest.mark.parametrize("r, d", [(4, 5), (4, 6), (5, 3), (5, 4)])
def test_the_kept_x0_column_is_needed(monkeypatch, r, d):
    L = sampled_matrix(r, d, 31991, 0)
    kept = dominance._kept_columns(L)[0][0]
    rank = full_rank(monkeypatch, L, d, 0)
    assert cut_ranks(monkeypatch, L, d, 0, kept) == (rank, rank - 1)


@pytest.mark.parametrize("r, d", [(4, 5), (4, 6), (5, 3), (5, 4), (2, 6)])
def test_every_kept_x1_column_is_needed(monkeypatch, r, d):
    L = sampled_matrix(r, d, 31991, 0)
    kept = dominance._kept_columns(L)
    assert len(kept[1]) == d
    rank, E = cut_matrix(monkeypatch, L, d, 0, kept)
    assert rank == full_rank(monkeypatch, L, d, 0)
    # the x_1 columns follow the one x_0 column
    for t in range(1, d + 1):
        assert exactlin.rank(ScalarMatrix(E.field, np.delete(E.a, t, axis=1))) == rank - 1


def pencil_with_m1(L, B, g):
    """L with M_0 = [[0, I], [-I, 0]] and M_1 = [[0, B], [-B^t, 0]], then
    every M_k moved to g M_k g^t.  M_0^-1 M_1 is similar to B^t (+) B."""
    p, d = L.field.p, len(B)
    z, one = np.zeros((d, d), dtype=np.int64), np.eye(d, dtype=np.int64)
    coeff = L.coeff.copy()
    coeff[0] = np.block([[z, one], [-one, z]]) % p
    coeff[1] = np.block([[z, B], [-B.T, z]]) % p
    for k in range(L.nvars):
        coeff[k] = exactlin._matmul(exactlin._matmul(g, coeff[k], p), g.T, p)
    return LinearSkewMatrix(L.field, L.nvars, coeff)


def random_invertible(size, prime, rng):
    while True:
        g = rng.below_many(prime, size * size).reshape(size, size)
        if exactlin.determinant(ScalarMatrix(PrimeField(prime), g)):
            return g


@pytest.mark.parametrize("prime", [3, 5, 7, 31991])
def test_the_x1_cut_runs_when_m0_inverse_m1_is_cyclic_on_each_half(monkeypatch, prime):
    # K = M_0^-1 M_1 ~ B^t (+) B: with B a Jordan block the A_j = K^j M_0^-1,
    # j < d, are independent and the x_1 cut runs; with a repeated
    # eigenvalue of diagonal B, or B scalar (M_1 = c M_0), the minimal
    # polynomial of K has degree below d and the x_1 block is kept whole
    ran = kept_whole = 0
    for r, d in ((2, 3), (2, 4), (3, 3), (3, 4)):
        jordan = 2 * np.eye(d, dtype=np.int64) + np.eye(d, k=1, dtype=np.int64)
        repeated = np.diag([2, 2] + list(range(3, d + 1))).astype(np.int64)
        scalar = 3 * np.eye(d, dtype=np.int64)
        for seed in range(2):
            # without the congruence the pivots Q are not the first d columns
            g = np.eye(2 * d, dtype=np.int64)
            if seed:
                g = random_invertible(2 * d, prime, FieldRng(seed, "congruence", r, d))
            for B, cut in ((jordan, True), (repeated, False), (scalar, False)):
                L = pencil_with_m1(sampled_matrix(r, d, prime, seed), B, g)
                route = {}
                try:
                    rank, _, _ = _span_rank(L, d, seed, route)
                except DegeneratePencil:
                    continue
                width = both_cuts(r, d) if cut else 1 + r * comb(2 * d, 2)
                assert route["columns"] == width
                assert rank == x0_cut_rank(monkeypatch, L, d, seed)
                assert rank == full_rank(monkeypatch, L, d, seed)
                ran += cut
                kept_whole += not cut
    assert ran >= 4 and kept_whole >= 8


def test_certificate_records_the_route():
    cert = pfaffian_codim(3, 6, seed=3)
    doc = cert.to_dict()
    assert (doc["columns"], doc["inverse_fallbacks"]) == (both_cuts(3, 6), 0)
    # the Schur recursion runs at every prime, so the count is an integer
    assert pfaffian_codim(3, 6, prime=2**31 - 1, seed=3).to_dict()["inverse_fallbacks"] == 0
    # M_0 is singular here: the full matrix is kept
    assert exactlin.determinant(ScalarMatrix(PrimeField(7), sampled_matrix(3, 3, 7, 3).coeff[0])) == 0
    assert pfaffian_codim(3, 3, prime=7, seed=3).columns == 4 * comb(6, 2)
    # 3 divides the degree, and both cuts run
    assert pfaffian_codim(2, 3, prime=3, seed=0).columns == both_cuts(2, 3)
    # 2d = 4 rows recurse once, to two 2 x 2 blocks, and no member falls back
    assert pfaffian_codim(3, 2, seed=3).inverse_fallbacks == 0
    assert DominanceCertificate.csv_header().count(",") == len(cert.csv_row().split(",")) - 1


@pytest.mark.parametrize("r, d, prime, seed", [(3, 6, 31991, 0), (3, 10, 11, 1)])
def test_refills_build_the_whole_line_matrix(monkeypatch, r, d, prime, seed):
    # G is the rows of the kept lines of every batch, as one batch of those
    # lines would give them; at p = 11 some lines are unusable or drawn
    # twice, members of the stack of A rerun through Gauss-Jordan, and a
    # refill batch replaces the lines dropped
    L = sampled_matrix(r, d, prime, seed)
    stream = derive_seed(seed, "interp", r, d, 1)
    route = {}
    result, kept, G = spied_lines(monkeypatch, lambda: _span_rank(L, d, stream, route))
    rank, target, drawn = result
    lines = np.concatenate(kept)
    rows, usable = dominance._line_rows(L, d, lines, dominance._kept_columns(L), {})
    assert usable.all() and len(lines) == line_count(r, d)
    assert rows.reshape(G.shape).tobytes() == G.a.tobytes()
    if prime == 11:
        assert len(kept) > 1
        assert rank <= span_rank_by_interpolation(L, d, stream)[0] == target
        assert (rank, target, drawn) == (263, 286, 31)
        assert route == {"columns": 391, "inverse_fallbacks": 24}
    else:
        assert len(kept) == 1 and drawn == len(lines)


def test_the_certificate_peaks_below_twice_the_evaluation_matrix():
    # G, float64 with d + 1 rows more than N here, is the only large array:
    # the pencils' stacks are freed before its rank is taken
    tracemalloc.start()
    try:
        cert = pfaffian_codim(3, 16, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * cert.target_dim * cert.columns * 8


def test_the_certificate_peaks_below_1_45_times_the_evaluation_matrix():
    # beside G the rank holds no L^-1 wider than a block, and the pencils'
    # buffers take the line recurrence's products, so little is left over
    tracemalloc.start()
    try:
        cert = pfaffian_codim(3, 16, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.45 * cert.target_dim * cert.columns * 8


def scatter_span_rank(L, d, seed):
    """rank{X_k P_ij} from each X_k P_ij's coefficients scattered into the
    degree-d basis, independently of `graded.ideal_piece_dim`."""
    n = L.nvars
    pfaffs = submaximal_pfaffians(L, seed=seed)
    basis = monomial_basis(n, d - 1)
    rows = np.zeros((n * len(pfaffs), monomial_count(n, d)), dtype=np.int64)
    for t, form in enumerate(pfaffs.values()):
        for k in range(n):
            shift = _shifted_rows(n, d - 1, tuple(int(j == k) for j in range(n)))
            rows[t * n + k, shift] = form.coefficient_vector(basis)
    return exactlin.rank(ScalarMatrix(L.field, rows))


@pytest.mark.parametrize("prime", [7, 13, 101, 31991])
def test_interpolated_span_matches_a_scatter_of_the_forms(prime):
    for seed in range(2):
        for r, d in ((2, 3), (2, 5), (3, 3), (3, 4), (4, 3), (5, 3)):
            L = sampled_matrix(r, d, prime, seed)
            assert span_rank_by_interpolation(L, d, seed)[0] == scatter_span_rank(L, d, seed)
    # M_0 = 0 drops the span below the target (25 of 35)
    L = with_m0(sampled_matrix(3, 4, prime, 1), np.zeros((8, 8), dtype=np.int64))
    assert span_rank_by_interpolation(L, 4, 1)[0] == scatter_span_rank(L, 4, 1) == 25


def test_evaluation_rank_never_exceeds_span_at_a_small_prime():
    # at p = 5, 7 and 11 unusable lines are common, and lines over a small
    # field often impose dependent conditions on the forms, so at every
    # prime this grid sees both the top-up and a rank below the span
    for prime in (5, 7, 11):
        topped_up = dropped = 0
        for seed in range(4):
            for r, d in ((2, 3), (3, 3), (5, 3), (3, 4), (4, 3)):
                L = sampled_matrix(r, d, prime, seed)
                rank, target, drawn = _span_rank(L, d, seed)
                span, _, _ = span_rank_by_interpolation(L, d, seed)
                assert rank <= span <= target
                assert drawn >= line_count(r, d)
                topped_up += drawn > line_count(r, d)
                dropped += rank < span
        assert topped_up and dropped


def test_span_rank_stops_at_the_last_usable_line_of_the_stream():
    # replay the line stream: the sampler draws exactly up to the last line
    # it needs among the distinct usable lines, however the unusable and
    # repeated lines fall into its batches
    field = PrimeField(7)
    for seed in range(4):
        for r, d in ((2, 3), (3, 3), (5, 3)):
            L = sampled_matrix(r, d, 7, seed)
            _, _, drawn = _span_rank(L, d, seed)
            stream = sample_points(field, 2 * (r - 1), seed, 0, 8 * line_count(r, d))
            first = np.zeros(len(stream), dtype=bool)
            first[np.unique(stream, axis=0, return_index=True)[1]] = True
            _, usable = dominance._line_rows(L, d, stream, dominance._kept_columns(L), {})
            kept = np.cumsum(first & usable)
            assert kept[-1] >= line_count(r, d)
            assert drawn == int(np.argmax(kept == line_count(r, d))) + 1


def test_the_lines_of_the_stream_impose_independent_conditions():
    # the degree-10 forms on P^3 restrict injectively to the lines of every
    # seed's stream: the values at d + 1 points of each line have rank N.
    # One line fewer, which still gives N rows, loses a rank for some seeds
    r, d, p = 3, 10, 31991
    field, basis = PrimeField(p), monomial_basis(r + 1, d)
    t = np.arange(d + 1)[None, :, None]

    def restriction_rank(seed, count):
        lines = sample_points(field, 2 * (r - 1), derive_seed(seed, "interp", r, d, 1), 0, count)
        a, b = line_ends(lines, r)
        points = (a[:, None] + t * b[:, None]).reshape(-1, r + 1)
        return exactlin.rank(ScalarMatrix(field, vandermonde(points, basis, p)))

    count, N = line_count(r, d), comb(d + r, r)
    assert (count - 1) * (d + 1) >= N
    assert all(restriction_rank(seed, count) == N for seed in range(200))
    assert any(restriction_rank(seed, count - 1) < N for seed in range(200))


@pytest.mark.parametrize("j", range(1, 5))
def test_a_corrupted_nu_fails_the_closure_and_the_line_is_replaced(monkeypatch, j):
    # nu_j = (-1)^(j+1) x_(d-j) is read off column d of the Krylov
    # elimination; one wrong nu_j on line 0 fails the closure check, and the
    # certificate replaces the line from the stream with the same rank
    r, d, prime, seed = 3, 4, 31991, 0
    L = sampled_matrix(r, d, prime, seed)
    stream = derive_seed(seed, "interp", r, d, 1)
    rank, target, drawn = _span_rank(L, d, stream)
    eliminate, calls = exactlin._eliminate_stack, []

    def corrupt(m, p, n, jordan):
        out = eliminate(m, p, n, jordan)
        if m.shape[1] == d + 1 and not calls:  # the first batch's Krylov relation
            m[d - j, d, 0] = (m[d - j, d, 0] + 1) % p
            calls.append(m.shape[2])
        return out

    lines = sample_points(L.field, 2 * (r - 1), stream, 0, line_count(r, d))
    blocks = dominance._kept_columns(L)
    with monkeypatch.context() as patch:
        patch.setattr(exactlin, "_eliminate_stack", corrupt)
        _, usable = dominance._line_rows(L, d, lines, blocks, {})
        assert usable.tolist() == [False] + [True] * (len(lines) - 1)
        calls.clear()
        assert _span_rank(L, d, stream) == (rank, target, drawn + 1)


def test_lines_where_column_0_falls_short_take_column_1(monkeypatch):
    # over GF(5) the Krylov space of column 0 of A^-1 falls short of d on
    # some lines with A invertible; columns 0 and 1 together give nu there,
    # and those lines are usable
    relation, first = dominance._krylov_relation, []

    def spy(K, w, d, p):
        x, solved = relation(K, w, d, p)
        if w.shape[2] == 1:
            first.append(solved)
        return x, solved

    rescued = 0
    with monkeypatch.context() as patch:
        patch.setattr(dominance, "_krylov_relation", spy)
        for seed in range(3):
            for r, d in ((3, 3), (3, 4)):
                L = sampled_matrix(r, d, 5, seed)
                lines = sample_points(L.field, 2 * (r - 1), seed, 0, 40)
                first.clear()
                _, usable = dominance._line_rows(L, d, lines, dominance._kept_columns(L), {})
                rescued += int((~first[0] & usable).sum())
    assert rescued >= 3


def test_degenerate_pencil_raises_on_the_evaluation_route():
    # every M_k kills e_0, so M(x) is singular at every point
    coeff = sampled_matrix(3, 4, 31991, 0).coeff.copy()
    coeff[:, 0, :] = 0
    coeff[:, :, 0] = 0
    L = LinearSkewMatrix(PrimeField(31991), 4, coeff)
    with pytest.raises(DegeneratePencil):
        _span_rank(L, 4, 0)


def test_the_line_stream_stops_after_every_line_is_tried(monkeypatch):
    # a plane curve over GF(3) draws its lines from GF(3)^2: the stream
    # tries all 9 of them, fewer than the d + 1 = 10 it asks for, and stops
    tried = []
    line_rows = dominance._line_rows

    def spy(L, d, lines, blocks, route):
        tried.extend(map(tuple, lines.tolist()))
        return line_rows(L, d, lines, blocks, route)

    monkeypatch.setattr(dominance, "_line_rows", spy)
    cert = pfaffian_codim(2, 9, prime=3, seed=0)
    assert sorted(tried) == [(a, b) for a in range(3) for b in range(3)]
    assert (cert.rank_achieved, cert.codim, cert.sample_points_used, cert.columns) == (
        45, 10, 26, 163
    )
    assert cert.verdict == "NotDominantEvidence"


def test_the_line_stream_refuses_a_pencil_unusable_at_most_lines():
    message = r"^unusable at 12 of 17 sample lines over GF\(3\); try a larger prime$"
    with pytest.raises(DegeneratePencil, match=message):
        pfaffian_codim(3, 5, prime=3, seed=5)


def test_sample_points_used_counts_points_drawn():
    # the points are lines: ceil(35 / 5) + 1 of them at (3, 4)
    cert = pfaffian_codim(3, 4, seed=1)
    assert cert.sample_points_used == line_count(3, 4) == 8
    assert cert.codim == 0


# ---- the same cd at two primes ------------------------------------------------

CROSS_PRIME = (
    [(3, d) for d in range(3, 9)] + [(4, d) for d in range(3, 7)] + [(5, 3)]
)


@pytest.mark.parametrize("r, d", CROSS_PRIME)
def test_codim_agrees_across_primes(r, d):
    ok_a, a = is_dominant(r, d, prime=31991, seed=0)
    ok_b, b = is_dominant(r, d, prime=16777213, seed=0)
    assert (ok_a, a.codim, a.verdict) == (ok_b, b.codim, b.verdict)
