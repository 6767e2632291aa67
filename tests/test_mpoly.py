import numpy as np
import pytest

from detpf.exactlin import DEFAULT_PRIME, PrimeField
from detpf.mpoly import (
    BasisMismatch,
    DegeneratePencil,
    DegreeMismatch,
    HomogeneousForm,
    NonUniformImageDegrees,
    RankNotReached,
    check_degenerate,
    interpolate_homogeneous,
    interpolate_many,
    monomial_basis,
    monomial_count,
    parse_form,
    parse_forms,
    sample_points,
)
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
    vals = f.evaluate_many(pts)
    for i in range(25):
        assert vals[i] == f.evaluate(pts[i])


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
    # junk there; those points are replaced by the next ones of the stream
    f = HomogeneousForm.random(F, 3, 5, FieldRng(12))
    seen = []

    def values_fn(points):
        seen.append(points)
        usable = points[:, 0] % modulus != 0
        values = np.where(usable, f.evaluate_many(points), P - 1)
        return values[:, None], usable

    stats = {}
    coeffs = interpolate_many(values_fn, 3, 5, F, 13, 1, stats)
    basis = monomial_basis(3, 5)
    assert HomogeneousForm.from_coefficient_vector(F, basis, coeffs[:, 0]) == f
    drawn = np.vstack(seen)
    assert np.array_equal(drawn, sample_points(F, 3, 13, 0, len(drawn)))
    dropped = int(np.count_nonzero(drawn[:, 0] % modulus == 0))
    assert stats == {"points_used": len(drawn), "points_degenerate": dropped}
    assert dropped > 0 and len(drawn) - dropped == 24  # ceil(1.1 * 21) kept


def test_interpolation_stops_when_most_points_are_unusable():
    def values_fn(points):
        nothing = np.zeros(len(points), dtype=bool)
        return np.zeros((len(points), 1), dtype=np.int64), nothing

    stats = {}
    with pytest.raises(DegeneratePencil):
        interpolate_many(values_fn, 3, 2, F, 0, 1, stats)
    # batches of ceil(1.1 * 6) = 7 points; the rule applies from 16 drawn
    assert stats == {"points_used": 21, "points_degenerate": 21}


@pytest.mark.parametrize(
    "drawn, dropped, raises",
    [(16, 8, False), (16, 9, True), (15, 15, False), (0, 0, False), (100, 51, True)],
)
def test_check_degenerate_boundary(drawn, dropped, raises):
    if raises:
        with pytest.raises(DegeneratePencil, match=f"{dropped} of {drawn}"):
            check_degenerate(drawn, dropped)
    else:
        check_degenerate(drawn, dropped)


def test_interpolation_rank_not_reached_on_tiny_field():
    # over GF(3), x^4 y and x^2 y^3 agree as functions (x^3 = x pointwise),
    # so the degree-5 evaluation matrix in 2 variables can never reach rank 6
    F3 = PrimeField(3)
    with pytest.raises(RankNotReached):
        interpolate_homogeneous(lambda pt: 0, 2, 5, F3, seed=4)


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
