import itertools
import math

import numpy as np
import pytest

from detpf.exactlin import DEFAULT_PRIME, Inconsistent, PrimeField, ScalarMatrix, solve_many
from detpf.mpoly import (
    BasisMismatch,
    DegeneratePencil,
    DegreeMismatch,
    HomogeneousForm,
    InterpolationFailure,
    NonUniformImageDegrees,
    ParseError,
    VariableCountMismatch,
    check_degenerate,
    interpolate_many,
    monomial_basis,
    monomial_count,
    multiplication_matrix,
    parse_form,
    parse_forms,
    principal_lattice,
    sample_points,
)
from detpf import mpoly
from detpf.graded import parse_point_set
from detpf.polymat import parse_graded_matrix
from reference import evaluate_many, interpolate_homogeneous
from detpf.rng import FieldRng

F = PrimeField(DEFAULT_PRIME)
P = DEFAULT_PRIME


def test_monomial_count():
    assert monomial_count(4, 3) == 20  # binomial(3+3, 3)
    assert monomial_count(3, 0) == 1
    assert monomial_count(5, -2) == 0
    assert monomial_count(2, 7) == 8


def test_basis_is_canonical_and_sized():
    b = monomial_basis(3, 4)
    assert len(b) == monomial_count(3, 4)
    assert b.exponents[0] == (4, 0, 0)
    assert b.exponents[-1] == (0, 0, 4)
    assert all(sum(e) == 4 for e in b.exponents)
    assert b.exponents == monomial_basis(3, 4).exponents
    assert sorted(b.exponents, reverse=True) == list(b.exponents)


def test_ring_arithmetic():
    x0 = HomogeneousForm.variable(F, 3, 0)
    x1 = HomogeneousForm.variable(F, 3, 1)
    d = 5
    pow_form = HomogeneousForm.monomial(F, (d - 1, 0, 0))
    assert x0 * pow_form == HomogeneousForm.monomial(F, (d, 0, 0))
    f = HomogeneousForm.random(F, 3, 4, FieldRng(1))
    assert (f + f.scale(-1)).is_zero()
    s = x0 + x1
    sq = s * s
    assert sq.coeffs == {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}
    with pytest.raises(DegreeMismatch):
        x0 + sq


def test_ring_axioms_randomized():
    rng = FieldRng(2)
    for _ in range(30):
        a = HomogeneousForm.random(F, 3, 2, rng.fork("a", _))
        b = HomogeneousForm.random(F, 3, 3, rng.fork("b", _))
        c = HomogeneousForm.random(F, 3, 3, rng.fork("c", _))
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b).degree == a.degree + b.degree


def test_evaluate():
    fermat = HomogeneousForm(F, 4, 3, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1})
    assert fermat.evaluate((1, 1, 1, 1)) == 4
    f = HomogeneousForm.random(F, 4, 5, FieldRng(3))
    assert f.evaluate((0, 0, 0, 0)) == 0


def test_evaluate_homogeneity():
    rng = FieldRng(4)
    for _ in range(100):
        d = 1 + rng.below(6)
        f = HomogeneousForm.random(F, 3, d, rng.fork("f", _))
        lam = rng.below(P)
        pt = [rng.below(P) for _ in range(3)]
        scaled = [lam * x % P for x in pt]
        assert f.evaluate(scaled) == pow(lam, d, P) * f.evaluate(pt) % P


def test_evaluate_many_matches_pointwise():
    rng = FieldRng(5)
    f = HomogeneousForm.random(F, 4, 6, rng)
    pts = np.array([[rng.below(P) for _ in range(4)] for _ in range(25)], dtype=np.int64)
    vals = evaluate_many(f, pts)
    for i in range(25):
        assert vals[i] == f.evaluate(pts[i])


def test_evaluate_many_matches_pointwise_at_largest_prime():
    # at p = 2^31 - 1 the product of the Vandermonde matrix with the
    # coefficient vector is split into 16-bit halves
    p = 2**31 - 1
    field = PrimeField(p)
    rng = FieldRng("evaluate-many", p)
    pts = rng.below_many(p, 60).reshape(20, 3)
    forms = [HomogeneousForm.random(field, 3, d, rng.fork(d)) for d in (0, 1, 2, 5, 12)]
    forms += [HomogeneousForm.zero(field, 3, 0), HomogeneousForm.zero(field, 3, 4)]
    for f in forms:
        vals = evaluate_many(f, pts)
        assert vals.dtype == np.int64
        assert vals.tolist() == [f.evaluate(pt) for pt in pts.tolist()], f.degree


def term_walk(form, point):
    """The form at a point by a walk over its terms, each a product of the
    coordinates' `_power_row` entries: the reference for `evaluate`."""
    p = form.field.p
    pt = [int(x) % p for x in point]
    powers = [mpoly._power_row(x, form.degree, p) for x in pt]
    total = 0
    for e, c in form.terms():
        v = c
        for j, k in enumerate(e):
            if k:
                v = v * powers[j][k] % p
        total = (total + v) % p
    return total


def refuse(*args, **kwargs):
    raise AssertionError("the interpolation path was read")


@pytest.mark.parametrize("modulus", [3, 31991, 65537, 2**31 - 1])
@pytest.mark.parametrize("nvars", [1, 2, 4])
def test_evaluate_matches_the_term_walk(monkeypatch, modulus, nvars):
    # evaluate shares nothing with the batched path it is the reference for
    monkeypatch.setattr(mpoly, "vandermonde", refuse)
    monkeypatch.setattr(mpoly, "_log_tables", refuse)
    field = PrimeField(modulus)
    rng = FieldRng("term-walk", modulus, nvars)
    for d in (0, 1, 2, 5, 9):
        dense = HomogeneousForm.random(field, nvars, d, rng.fork(d))
        sparse = HomogeneousForm.monomial(field, [d] + [0] * (nvars - 1), modulus - 1)
        points = [[rng.below(modulus) for _ in range(nvars)] for _ in range(3)]
        points += [[0] * nvars, [modulus - 1] * nvars, [-1 - j for j in range(nvars)]]
        points += [[modulus + 2] * nvars, [0] + [1] * (nvars - 1)]
        for f in (dense, sparse, HomogeneousForm.zero(field, nvars, d)):
            for pt in points:
                assert f.evaluate(pt) == term_walk(f, pt), (d, pt)
    assert isinstance(dense.evaluate(points[0]), int)
    for wrong in ([1] * (nvars + 1), [1] * (nvars - 1)):
        with pytest.raises(VariableCountMismatch):
            dense.evaluate(wrong)


def test_exponent_array_is_one_read_only_array_per_basis():
    basis = monomial_basis(4, 6)
    exps = basis.exponent_array()
    assert exps is basis.exponent_array()
    assert exps.dtype == np.int64 and exps.shape == (len(basis), 4)
    assert [tuple(e) for e in exps.tolist()] == list(basis.exponents)
    with pytest.raises(ValueError):
        exps[0, 0] = 1
    assert mpoly.MonomialBasis(2, -1).exponent_array().shape == (0, 2)


VANDERMONDE_SHAPES = [(1, 0), (1, 5), (2, 0), (2, 3), (3, 7), (4, 6)]


@pytest.mark.parametrize("p", [3, 5, 7, 31991, 65521, 65537, 16777213])
def test_vandermonde_matches_the_power_route(p):
    # the log tables below TABLE_PRIME_LIMIT = 2**16, the power loop above;
    # over tiny fields the degree passes p - 1 and the exponents wrap
    shapes = VANDERMONDE_SHAPES
    if p < 100:
        shapes = shapes + [(1, p - 1), (1, p), (1, 2 * p + 1), (2, p - 1), (3, p + 1)]
    rng = np.random.default_rng(p)
    for nvars, degree in shapes:
        basis = monomial_basis(nvars, degree)
        pts = rng.integers(-p, 2 * p, (12, nvars))
        pts[0] = 0
        pts[1, 0] = 0
        pts[2, -1] = 0
        pts[3] = p
        want = mpoly._power_vandermonde(pts % p, basis.exponent_array(), degree, p)
        got = mpoly.vandermonde(pts, basis, p)
        assert got.dtype == np.int64 and got.shape == (12, len(basis))
        assert got.tobytes() == want.tobytes(), (nvars, degree)
        assert mpoly.vandermonde(pts[:0], basis, p).shape == (0, len(basis))
    # x**0 is 1 and 0**e is 0 for e > 0
    basis = monomial_basis(2, 2)
    assert mpoly.vandermonde([[0, 0], [0, 2]], basis, p).tolist() == [
        [0, 0, 0],
        [0, 0, 4 % p],
    ]
    assert mpoly.vandermonde([[0, 0]], monomial_basis(2, 0), p).tolist() == [[1]]


def test_vandermonde_of_one_variable_takes_any_degree():
    # x**D = x**(D mod (p - 1)) for x != 0: the exponents enter the product
    # reduced, which would otherwise leave float64's exact range
    p = 31991
    D = 10**15 + 7
    pts = np.array([[0], [1], [2], [p - 1], [12345]])
    want = [[pow(int(x), D, p)] for x in pts[:, 0]]
    assert mpoly.vandermonde(pts, monomial_basis(1, D), p).tolist() == want


@pytest.mark.parametrize("p", [65521, 65537])
def test_vandermonde_routes_switch_at_the_table_limit(monkeypatch, p):
    below = p < mpoly.TABLE_PRIME_LIMIT
    monkeypatch.setattr(mpoly, "_power_vandermonde" if below else "_log_tables", refuse)
    basis = monomial_basis(3, 4)
    pts = np.array([[1, 2, 3], [0, p - 1, 5], [7, 0, 0]])
    want = [[term_walk(HomogeneousForm.monomial(PrimeField(p), e), pt) for e in basis.exponents] for pt in pts]
    assert mpoly.vandermonde(pts, basis, p).tolist() == want


def multiplication_matrix_by_dict(g, from_basis, to_basis):
    """The per-(monomial, term) loop that `multiplication_matrix` replaced."""
    p = g.field.p
    out = np.zeros((len(to_basis), len(from_basis)), dtype=np.int64)
    for col, m in enumerate(from_basis.exponents):
        for e, c in g.coeffs.items():
            row = to_basis.index(tuple(a + b for a, b in zip(m, e)))
            out[row, col] = (out[row, col] + c) % p
    return out


@pytest.mark.parametrize("modulus", [7, 31991, 2**31 - 1])
@pytest.mark.parametrize("nvars", [1, 2, 3, 5])
def test_multiplication_matrix_matches_dict_loop(modulus, nvars):
    field = PrimeField(modulus)
    rng = FieldRng("mulmat", modulus, nvars)
    for g_degree in range(4):
        for from_degree in range(5):
            dense = HomogeneousForm.random(field, nvars, g_degree, rng.fork(g_degree, from_degree))
            # every other term dropped, so g has gaps and is not symmetric in the variables
            sparse = HomogeneousForm(
                field, nvars, g_degree, dict(list(dense.coeffs.items())[::2])
            )
            one_term = HomogeneousForm(field, nvars, g_degree, dict(dense.terms()[-1:]))
            zero = HomogeneousForm.zero(field, nvars, g_degree)
            for g in (dense, sparse, one_term, zero):
                src = monomial_basis(nvars, from_degree)
                dst = monomial_basis(nvars, from_degree + g_degree)
                got = multiplication_matrix(g, src, dst)
                want = multiplication_matrix_by_dict(g, src, dst)
                assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
    with pytest.raises(BasisMismatch):
        multiplication_matrix(dense, monomial_basis(nvars, 1), monomial_basis(nvars, 1))


def _dict_sum(a, b, p):
    out = dict(a)
    for e, c in b.items():
        v = (out.get(e, 0) + c) % p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _dict_scale(a, s, p):
    return {e: c * s % p for e, c in a.items() if c * s % p}


def _dict_product(a, b, p):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = _dict_sum(out, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2 % p}, p)
    return out


def _dict_derivative(a, index, p):
    out = {}
    for e, c in a.items():
        if e[index]:
            lowered = tuple(k - (j == index) for j, k in enumerate(e))
            out = _dict_sum(out, {lowered: c * e[index] % p}, p)
    return out


def _dict_substitute(a, images, p):
    """Each term c X^e expanded as c times the product of image powers."""
    out = {}
    for e, c in a.items():
        term = {(0,) * images[0].nvars: c}
        for j, k in enumerate(e):
            for _ in range(k):
                term = _dict_product(term, images[j].coeffs, p)
        out = _dict_sum(out, term, p)
    return out


def _operands(field, nvars, degree, rng):
    """A dense random form, the same form with every other term dropped, and zero."""
    dense = HomogeneousForm.random(field, nvars, degree, rng)
    sparse = HomogeneousForm(field, nvars, degree, dict(list(dense.coeffs.items())[::2]))
    return dense, sparse, HomogeneousForm.zero(field, nvars, degree)


@pytest.mark.parametrize("modulus", [7, 31991, 2**31 - 1])
@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_arithmetic_matches_dict_loops(modulus, nvars):
    # at 2^31 - 1 a product of two residues is near 2^62, so a sum of two
    # unreduced products would overflow int64
    field = PrimeField(modulus)
    p = modulus
    rng = FieldRng("arith", modulus, nvars)
    for degree in range(5):
        fs = _operands(field, nvars, degree, rng.fork("f", degree))
        for f in fs:
            s = rng.fork("s", degree).below(p)
            assert f.scale(s).coeffs == _dict_scale(f.coeffs, s, p)
            assert (-f).coeffs == _dict_scale(f.coeffs, p - 1, p)
            for g in _operands(field, nvars, degree, rng.fork("g", degree)):
                assert (f + g).coeffs == _dict_sum(f.coeffs, g.coeffs, p)
                assert (f - g).coeffs == _dict_sum(f.coeffs, _dict_scale(g.coeffs, p - 1, p), p)
            for g_degree in range(5):
                for g in _operands(field, nvars, g_degree, rng.fork("h", degree, g_degree)):
                    got = f * g
                    assert got.degree == degree + g_degree
                    assert got.coeffs == _dict_product(f.coeffs, g.coeffs, p)
            for index in range(nvars) if degree else ():
                got = f.partial_derivative(index)
                assert got.degree == degree - 1
                assert got.coeffs == _dict_derivative(f.coeffs, index, p)
            for m in range(3) if degree <= 3 else ():
                images = [
                    _operands(field, 2, m, rng.fork("i", degree, m, j))[j % 2]
                    for j in range(nvars)
                ]
                got = f.substitute(images)
                assert got.degree == m * degree
                assert got.coeffs == _dict_substitute(f.coeffs, images, p)


def test_form_vector_is_private_and_hash_follows_equality():
    basis = monomial_basis(3, 2)
    given = np.arange(len(basis), dtype=np.int64)
    f = HomogeneousForm.from_coefficient_vector(F, basis, given)
    given[:] = 7
    assert f.coefficient_vector(basis).tolist() == list(range(len(basis)))
    with pytest.raises(ValueError):
        f.vector[0] = 1
    copy = f.coefficient_vector(basis)
    copy[:] = 0
    terms = f.coeffs
    terms.clear()
    assert f.coefficient_vector(basis).tolist() == list(range(len(basis)))
    same = HomogeneousForm(F, 3, 2, dict(zip(basis.exponents, range(len(basis)))))
    also = (f + f).scale((P + 1) // 2)
    assert f == same == also
    assert hash(f) == hash(same) == hash(also)
    assert len({f, same, also, f + f}) == 2


def test_substitute():
    x0x1 = HomogeneousForm.monomial(F, (1, 1, 0))
    squares = [HomogeneousForm.variable(F, 3, j, 2) for j in range(3)]
    assert x0x1.substitute(squares) == HomogeneousForm.monomial(F, (2, 2, 0))
    identity = [HomogeneousForm.variable(F, 3, j) for j in range(3)]
    rng = FieldRng(6)
    for _ in range(30):
        f = HomogeneousForm.random(F, 3, 3, rng.fork("f", _))
        g = HomogeneousForm.random(F, 3, 2, rng.fork("g", _))
        assert f.substitute(identity) == f
        assert (f * g).substitute(squares) == f.substitute(squares) * g.substitute(squares)
        assert f.substitute(squares).degree == 2 * f.degree
    with pytest.raises(NonUniformImageDegrees):
        x0x1.substitute([squares[0], identity[1], squares[2]])


def test_coefficient_vector_roundtrip():
    basis = monomial_basis(3, 4)
    zero = HomogeneousForm.zero(F, 3, 4)
    assert not zero.coefficient_vector(basis).any()
    mono = HomogeneousForm.monomial(F, (2, 1, 1), 9)
    vec = mono.coefficient_vector(basis)
    assert vec[basis.index((2, 1, 1))] == 9 and np.count_nonzero(vec) == 1
    rng = FieldRng(7)
    for _ in range(100):
        f = HomogeneousForm.random(F, 3, 4, rng.fork(_))
        back = HomogeneousForm.from_coefficient_vector(F, basis, f.coefficient_vector(basis))
        assert back == f
    with pytest.raises(BasisMismatch):
        mono.coefficient_vector(monomial_basis(3, 5))


def test_interpolation_trivial_cases():
    zero = interpolate_homogeneous(lambda pt: 0, 3, 4, F, seed=1)
    assert zero.is_zero()
    # p - 1 = -1 is a legal value, not a marker for an unusable point
    for field in (F, PrimeField(7)):
        minus_one = interpolate_homogeneous(lambda pt: -1, 3, 0, field, seed=1)
        assert minus_one == HomogeneousForm.constant(field, 3, field.p - 1)
    x0d = HomogeneousForm.monomial(F, (6, 0, 0))
    got = interpolate_homogeneous(lambda pt: x0d.evaluate(pt), 3, 6, F, seed=2)
    assert got == x0d


def test_interpolation_dense_roundtrip():
    # degree 14 in 4 variables: 680 monomials, the working scale
    f = HomogeneousForm.random(F, 4, 14, FieldRng(8))
    got = interpolate_homogeneous(lambda pt: f.evaluate(pt), 4, 14, F, seed=3)
    assert got == f


@pytest.mark.parametrize("modulus", [3, 7])
def test_interpolation_drops_unusable_points(modulus):
    # the black box refuses every point with X0 = 0 mod `modulus` and returns
    # junk there.  On the lattice X0 is 1 in block 0 and 0 in the blocks
    # k >= 1, whose points, one per monomial free of X0, become the holes;
    # ceil(0.1 * 21) + 6 usable stream points then fix them.  The first call
    # takes the lattice and the first 3 stream points together
    f = HomogeneousForm.random(F, 3, 5, FieldRng(12))
    seen = []

    def values_fn(points):
        seen.append(points)
        usable = points[:, 0] % modulus != 0
        values = np.where(usable, evaluate_many(f, points), P - 1)
        return values[:, None], usable

    stats = {}
    assert interpolate_many(values_fn, 3, 5, F, 13, 1, stats) == [f]
    lattice, _ = principal_lattice(F, 3, 5, 13)
    assert np.array_equal(seen[0][:21], lattice)
    holes = lattice[:, 0] == 0
    assert np.array_equal(lattice[~holes, 0], np.ones(monomial_count(3, 4), dtype=np.int64))
    assert np.count_nonzero(holes) == monomial_count(2, 5) == 6
    stream = np.vstack([seen[0][21:]] + seen[1:])
    assert np.array_equal(stream, sample_points(F, 3, 13, 0, len(stream)))
    dropped = int(np.count_nonzero(stream[:, 0] % modulus == 0))
    assert stream[-1, 0] % modulus != 0
    assert len(stream) - dropped == 3 + 6
    assert stats == {"points_used": 21 + len(stream), "points_degenerate": 6 + dropped}


@pytest.mark.parametrize("modulus", [3, 7])
def test_interpolation_draws_no_stream_point_twice(monkeypatch, modulus):
    # the hole case above: the first batch and its top-ups read the stream
    # from where the last draw stopped, and never from its start again
    f = HomogeneousForm.random(F, 3, 5, FieldRng(12))
    calls, streams = [], []
    draw, stream_class = mpoly.sample_points, mpoly.SampleStream

    def spy(field, nvars, seed, start, count):
        calls.append((start, count))
        return draw(field, nvars, seed, start, count)

    def recorded(*args, **kwargs):
        streams.append(stream_class(*args, **kwargs))
        return streams[-1]

    def values_fn(points):
        usable = points[:, 0] % modulus != 0
        return np.where(usable, evaluate_many(f, points), P - 1)[:, None], usable

    monkeypatch.setattr(mpoly, "sample_points", spy)
    monkeypatch.setattr(mpoly, "SampleStream", recorded)
    assert interpolate_many(values_fn, 3, 5, F, 13, 1) == [f]
    starts, counts = zip(*calls)
    assert len(calls) > 2  # a top-up ran
    assert list(starts) == list(itertools.accumulate(counts, initial=0))[:-1]
    assert sum(counts) == streams[0].drawn


def test_interpolation_stops_when_most_points_are_unusable():
    def values_fn(points):
        nothing = np.zeros(len(points), dtype=bool)
        return np.zeros((len(points), 1), dtype=np.int64), nothing

    stats = {}
    with pytest.raises(DegeneratePencil):
        interpolate_many(values_fn, 3, 2, F, 0, 1, stats)
    # 6 lattice holes, then stream batches of ceil(0.1 * 6) + 6 = 7 points;
    # the rule applies from 16 points counted, lattice and stream together
    assert stats == {"points_used": 20, "points_degenerate": 20}


@pytest.mark.parametrize(
    "drawn, dropped, raises",
    [(16, 8, False), (16, 9, True), (15, 15, False), (0, 0, False), (100, 51, True)],
)
def test_check_degenerate_boundary(drawn, dropped, raises):
    if raises:
        match = rf"{dropped} of {drawn} sample points over GF\(7\); try a larger prime"
        with pytest.raises(DegeneratePencil, match=match):
            check_degenerate(drawn, dropped, 7)
    else:
        check_degenerate(drawn, dropped, 7)


def test_interpolation_rank_not_reached_on_tiny_field():
    # over GF(3), x^4 y and x^2 y^3 agree as functions (x^3 = x pointwise),
    # so the degree-5 evaluation matrix in 2 variables can never reach rank 6
    F3 = PrimeField(3)
    with pytest.raises(InterpolationFailure):
        interpolate_homogeneous(lambda pt: 0, 2, 5, F3, seed=4)


@pytest.mark.parametrize("nvars, degree, p", [(2, 4, 3), (3, 6, 5), (4, 14, 13)])
def test_a_degree_above_p_is_refused_before_sampling(nvars, degree, p):
    def values_fn(points):
        raise AssertionError("the black box was called")

    message = (
        rf"over GF\({p}\); interpolating a degree-{degree} form "
        rf"needs p >= {degree}, try a larger prime"
    )
    with pytest.raises(InterpolationFailure, match=message):
        interpolate_many(values_fn, nvars, degree, PrimeField(p), 0, 1)


def test_one_variable_interpolates_any_degree():
    # N = 1 and X0^D is nonzero at X0 = 1, so D > p is no obstacle
    F3 = PrimeField(3)
    got = interpolate_homogeneous(lambda pt: 2 * pt[0] ** 7, 1, 7, F3, seed=0)
    assert got == HomogeneousForm.monomial(F3, (7,), 2)


def test_the_capped_rank_failure_claims_no_degree_rule():
    # degree 3 = p is within the rule and the lattice (1, a_i), (0, 1)
    # determines every cubic; but a black box that refuses X0 = 0 leaves
    # (0, 1) a hole, and its Lagrange form X1 (X1 - X0) (X1 + X0) vanishes
    # at every point with X0 != 0, so no stream point can fix it; the stream
    # stops once it has tried all 9 points of GF(3)^2
    F3 = PrimeField(3)

    def values_fn(points):
        return np.zeros((len(points), 1), dtype=np.int64), points[:, 0] % 3 != 0

    with pytest.raises(InterpolationFailure) as info:
        interpolate_many(values_fn, 2, 3, F3, 52, 1)
    assert str(info.value) == (
        "evaluation matrix stuck at rank 0 < 1 after all 9 points over GF(3); "
        "try a larger prime"
    )


def test_stream_points_are_distinct_over_a_tiny_field():
    # a black box that refuses the points whose coordinates sum to 1 leaves
    # the lattice holes (1, 0) and (0, 1) over GF(3); drawn with repeats, 16
    # stream points left the holes' rank at 1 < 2, while the 6 usable points
    # of GF(3)^2 fix them
    F3 = PrimeField(3)
    f = HomogeneousForm(F3, 2, 3, {(3, 0): 1, (2, 1): 2, (1, 2): 1, (0, 3): 2})
    seen = []

    def values_fn(points):
        seen.append(points)
        usable = points.sum(axis=1) % 3 != 1
        return np.where(usable, evaluate_many(f, points), 0)[:, None], usable

    assert interpolate_many(values_fn, 2, 3, F3, 10, 1) == [f]
    stream = [tuple(x) for x in np.vstack(seen[1:]).tolist()]
    assert len(set(stream)) == len(stream)


def test_sample_stream_stops_after_every_point_is_tried():
    # asked for 20 points of GF(3)^2, the stream skips its repeats and stops
    # at the 9 points there are, in the order it first drew them
    F3 = PrimeField(3)
    stream = mpoly.SampleStream(F3, 2, 5)
    points = []
    for batch in stream.batches(20):
        points += [tuple(x) for x in batch.tolist()]
        stream.keep(len(batch))
    drawn = [tuple(x) for x in sample_points(F3, 2, 5, 0, stream.drawn).tolist()]
    assert stream.drawn > 9
    assert points == list(dict.fromkeys(drawn))
    assert len(points) == stream.kept == 9


def _dense_interpolation(values_fn, nvars, degree, field, n_outputs):
    """The forms by one dense Vandermonde solve, independent of the lattice:
    every point of GF(p)^n when there are at most 1000, else 3 N stream
    points, with plain-int powers and `exactlin.solve_many`."""
    p = field.p
    basis = monomial_basis(nvars, degree)
    if p**nvars <= 1000:
        points = np.array(list(itertools.product(range(p), repeat=nvars)), dtype=np.int64)
    else:
        rng = FieldRng("dense", nvars, degree)
        points = np.array(
            [[rng.below(p) for _ in range(nvars)] for _ in range(3 * len(basis))],
            dtype=np.int64,
        )
    values, usable = values_fn(points)
    points, values = points[usable], values[usable]
    exps = basis.exponent_array()
    V = np.ones((len(points), len(basis)), dtype=np.int64)
    for j in range(nvars):
        powers = np.array(
            [[pow(int(x), e, p) for e in range(degree + 1)] for x in points[:, j]],
            dtype=np.int64,
        )
        V = V * powers[:, exps[:, j]] % p
    X = solve_many(ScalarMatrix(field, V), ScalarMatrix(field, values))
    return [HomogeneousForm.from_coefficient_vector(field, basis, col) for col in X.a.T]


@pytest.mark.parametrize("holes", [False, True], ids=["no-holes", "holes"])
@pytest.mark.parametrize("p", [3, 7, 31991, 2**31 - 1])
def test_lattice_interpolation_matches_a_dense_solve(p, holes):
    # D = 0, D = 2 and D = p (D = 3 for the large primes) in 1..6 variables;
    # with holes the black box refuses the points whose coordinates sum to
    # 1 mod p, among them the lattice point (0, ..., 0, 1) every time
    field = PrimeField(p)
    for nvars in range(1, 7):
        for degree in sorted({0, 2, p if p < 10 else 3}):
            forms = [
                HomogeneousForm.random(field, nvars, degree, FieldRng("dense", p, nvars, degree, t))
                for t in range(2)
            ]

            def values_fn(points):
                values = np.stack([evaluate_many(f, points) for f in forms], axis=1)
                usable = points.sum(axis=1) % p != 1 if holes else np.ones(len(points), bool)
                return np.where(usable[:, None], values, p - 1), usable

            got = interpolate_many(values_fn, nvars, degree, field, 5, 2)
            assert got == _dense_interpolation(values_fn, nvars, degree, field, 2) == forms


def test_lattice_chunks_of_output_columns_agree(monkeypatch):
    # a cube bound below one column's cube still takes one column at a time
    forms = [HomogeneousForm.random(F, 4, 6, FieldRng("chunks", t)) for t in range(5)]

    def values_fn(points):
        values = np.stack([evaluate_many(f, points) for f in forms], axis=1)
        return values, points[:, 0] != 0

    whole = interpolate_many(values_fn, 4, 6, F, 3, 5)
    for bound in (100, 6**3, 2 * 6**3):
        monkeypatch.setattr(mpoly, "_CUBE_ENTRIES", bound)
        assert interpolate_many(values_fn, 4, 6, F, 3, 5) == whole == forms


@pytest.mark.parametrize("nvars, degree", [(4, 14), (4, 6), (2, 1), (3, 0)])
def test_the_black_box_sees_the_lattice_then_the_check_points(nvars, degree):
    # N lattice points with the first ceil(0.1 N) stream points, then the
    # next k stream points for k holes: here the points with X0 = 0, which
    # no stream point of this seed has
    f = HomogeneousForm.random(F, nvars, degree, FieldRng("calls", degree))
    sizes = []

    def values_fn(points):
        sizes.append(len(points))
        return evaluate_many(f, points)[:, None], points[:, 0] != 0

    assert interpolate_many(values_fn, nvars, degree, F, 9, 1) == [f]
    N = monomial_count(nvars, degree)
    k = monomial_count(nvars - 1, degree)
    assert sizes == [N + -(-N // 10), k]


def test_values_of_a_higher_degree_are_inconsistent():
    cubic = HomogeneousForm.random(F, 3, 3, FieldRng(53))

    def values_fn(points):
        return evaluate_many(cubic, points)[:, None], np.ones(len(points), dtype=bool)

    with pytest.raises(Inconsistent, match="degree-2 form"):
        interpolate_many(values_fn, 3, 2, F, 0, 1)


FORM_HEAD = "form nvars=3 degree=1 p=31991\n"
MATRIX_HEAD = "gradedmatrix p=31991 nvars=3 symmetry=general\nrows 1\ncols 0\n"


@pytest.mark.parametrize(
    "parse, text, line",
    [
        # bad header, bad term, bad body line for each reader
        (parse_form, "form nvars=3 degree=x p=31991\n", 1),
        (parse_form, FORM_HEAD + "1  1 1 0\n", 2),
        (parse_form, FORM_HEAD + "1  1 0 0\nbogus\n", 3),
        (parse_forms, "form nvars=3 degree=1\n", 1),
        (parse_forms, FORM_HEAD + "1  1 0 x\n", 2),
        (parse_forms, "1  1 0 0\n", 1),
        (parse_graded_matrix, "gradedmatrix p=4 nvars=3 symmetry=general\n", 1),
        (parse_graded_matrix, MATRIX_HEAD + "entry 0 0 nterms=1\n1  1 0\n", 5),
        (parse_graded_matrix, MATRIX_HEAD + "columns 0\n", 4),
        (parse_point_set, "points p=31991 nvars=three\n", 1),
        (parse_point_set, "points p=31991 nvars=3\n1 0\n", 2),
        (parse_point_set, "points p=31991 nvars=3\n1 0 x\n", 2),
    ],
)
def test_every_reader_raises_one_parse_error(parse, text, line):
    with pytest.raises(ParseError, match=f"^line {line}: ") as info:
        parse(text)
    assert isinstance(info.value, ValueError)
    assert info.value.line_no == line


def test_text_roundtrip_bit_exact():
    rng = FieldRng(9)
    for _ in range(20):
        f = HomogeneousForm.random(F, 4, 3, rng.fork(_))
        g = parse_form(f.to_text())
        assert g == f
        basis = monomial_basis(4, 3)
        assert np.array_equal(g.coefficient_vector(basis), f.coefficient_vector(basis))


def test_parse_multiple_forms_and_errors():
    f1 = HomogeneousForm.random(F, 3, 2, FieldRng(10))
    f2 = HomogeneousForm.random(F, 3, 1, FieldRng(11))
    both = parse_forms(f1.to_text() + f2.to_text())
    assert both == [f1, f2]
    with pytest.raises(ValueError, match="line 1"):
        parse_form("1 2 3\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_form("form nvars=3 degree=2 p=31991\n1 1 1\n")
