"""Graded-piece linear algebra over GF(p).

Ideal degree pieces, the smoothness certificate, the infinitesimal
stabilizer dimension, arithmetically-Gorenstein point-set checks and
minors-ideal membership are rank computations on coefficient matrices of
graded pieces; no Groebner machinery anywhere.

The pieces are built by scatter: multiplying the degree-j monomials by the
monomials of degree e sends them to a table of rows, cached per
(nvars, j, e), and a form's nonzero coefficients are written through it in
one assignment (`mpoly.multiplication_matrix`).

Hilbert functions of cokernels take a rank only when they must.  Let
M: +S(e_c) -> +S(d_r) have no more columns than rows.  A point x with
rank M(x) = ncols is a witness: some maximal minor of M is nonzero at x,
so it is a nonzero polynomial, and over the domain S that makes M
injective (McCoy, Rings and Ideals, 1948).  Then every graded piece of M
has full column rank, and the resolution 0 -> +S(e_c) -> +S(d_r) ->
coker M -> 0 gives h(j) = sum_r dim S_{j+d_r} - sum_c dim S_{j+e_c}
(Eisenbud, The Geometry of Syzygies, ch. 1).  `coker_hilbert` looks for a
witness among a few points of a fixed stream; with more columns than rows,
or when no drawn point is a witness (det M = 0, or a small prime where a
nonzero minor vanishes on all of GF(p)^n), it takes the rank of the
degree-j piece.  Both routes give the exact value.  The search depends on
M alone, so each matrix makes it once, however many degrees are asked.

`det_in_minor_ideal` gets all d maximal minors of the rows below the first
from one interpolation (`polymat.maximal_minors`): the black box takes the
determinants of the d column-deleted (d-1) x (d-1) stacks of M(x) at the
points of a principal lattice in one batched `exactlin._det_array` call,
and `mpoly.interpolate_many` turns the values into the minors by
triangular Newton solves, with no elimination of a Vandermonde matrix.
`mpoly.determines` says which primes are too small for the minors and
for the determinant, which `polymat.determinant` then expands if M is small.
`form_in_ideal_piece` then answers with one elimination: the determinant
is the last column of the piece, and it is a member iff that column is no
pivot (`exactlin.pivot_columns`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exactlin
from .exactlin import InputError, PrimeField, ScalarMatrix
from .mpoly import (
    HomogeneousForm,
    ParseError,
    monomial_basis,
    monomial_count,
    multiplication_matrix,
    read_header,
    vandermonde,
)
from .polymat import GradedMatrix, LinearSkewMatrix, determinant, maximal_minors
from .rng import FieldRng


class WorkLimitExceeded(RuntimeError, InputError):
    pass


class CharDividesDegree(InputError):
    """Euler's relation fails: the characteristic divides the degree."""


class TooManyVariables(InputError):
    """The smoothness certificate supports at most 4 variables."""


class DuplicatePoint(InputError):
    pass


# ---- point sets ---------------------------------------------------------------


def _normalized(field: PrimeField, vec: Sequence[int]) -> tuple[int, ...] | None:
    """`vec` mod p scaled so its first nonzero entry is 1; None for the zero vector."""
    vec = tuple(int(x) % field.p for x in vec)
    lead = next((x for x in vec if x), None)
    if lead is None:
        return None
    inv = field.inv(lead)
    return tuple(x * inv % field.p for x in vec)


class PointSet:
    """Distinct projective points, normalized so the first nonzero entry is 1."""

    __slots__ = ("field", "nvars", "points")

    def __init__(self, field: PrimeField, nvars: int, points: Sequence[Sequence[int]]):
        norm = []
        seen = set()
        for idx, pt in enumerate(points):
            if len(pt) != nvars:
                raise InputError(f"point {idx} has {len(pt)} coordinates, expected {nvars}")
            vec = _normalized(field, pt)
            if vec is None:
                raise InputError(f"point {idx} is the zero vector")
            if vec in seen:
                raise DuplicatePoint(f"point {idx} repeats {vec}; the scheme must be reduced")
            seen.add(vec)
            norm.append(vec)
        self.field = field
        self.nvars = nvars
        self.points = tuple(norm)

    def __len__(self) -> int:
        return len(self.points)

    def coordinate_array(self) -> np.ndarray:
        return np.array(self.points, dtype=np.int64).reshape(len(self.points), self.nvars)

    def to_text(self) -> str:
        lines = [f"points p={self.field.p} nvars={self.nvars}"]
        for pt in self.points:
            lines.append(" ".join(str(x) for x in pt))
        return "\n".join(lines) + "\n"


def parse_point_set(text: str, field: PrimeField | None = None) -> PointSet:
    header = None  # (line_no, field, nvars)
    pts = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("points "):
            f, values = read_header(line_no, line, field, nvars=int)
            header = (line_no, f, values["nvars"])
            continue
        if header is None:
            raise ParseError(line_no, "point before header")
        try:
            pt = tuple(int(v) for v in line.split())
        except ValueError as exc:
            raise ParseError(line_no, f"non-integer coordinate: {exc}") from exc
        if len(pt) != header[2]:
            raise ParseError(line_no, f"expected {header[2]} coordinates, got {len(pt)}")
        pts.append(pt)
    if header is None:
        raise ParseError(0, "missing points header")
    try:
        return PointSet(header[1], header[2], pts)
    except ValueError as exc:
        raise ParseError(header[0], str(exc)) from exc


def random_point_set(
    field: PrimeField, nvars: int, count: int, rng: FieldRng
) -> PointSet:
    pts: dict[tuple[int, ...], None] = {}  # distinct points in draw order
    while len(pts) < count:
        vec = _normalized(field, [rng.below(field.p) for _ in range(nvars)])
        if vec is not None:
            pts[vec] = None
    return PointSet(field, nvars, list(pts))


# ---- ideal and cokernel dimensions ----------------------------------------------


def graded_piece_matrix(M: GradedMatrix, j: int) -> ScalarMatrix:
    """Coefficient matrix of the degree-j piece of the map +S(e) -> +S(d),
    as float64 residues (`exactlin`'s float64 contract): `exactlin.rank`
    factors it in place, so ranking the piece overwrites it."""
    field, nvars = M.field, M.nvars
    row_bases = [monomial_basis(nvars, j + d) for d in M.row_twists]
    col_bases = [monomial_basis(nvars, j + e) for e in M.col_twists]
    row_dims = [len(b) for b in row_bases]
    col_dims = [len(b) for b in col_bases]
    out = np.zeros((sum(row_dims), sum(col_dims)), dtype=np.float64)
    r0 = 0
    for i, rb in enumerate(row_bases):
        c0 = 0
        for jj, cb in enumerate(col_bases):
            entry = M.entries[i][jj]
            if len(rb) and len(cb) and not entry.is_zero():
                out[r0 : r0 + len(rb), c0 : c0 + len(cb)] = multiplication_matrix(
                    entry, cb, rb
                )
            c0 += len(cb)
        r0 += len(rb)
    return ScalarMatrix(field, out)


def ideal_piece_dim(gens: Sequence[HomogeneousForm], j: int) -> int:
    """Dimension of the degree-j piece of the ideal generated by `gens`: the
    rank of the degree-j piece of the one-row matrix [g_1 ... g_k], with row
    twist 0 and column twists -deg g_i.  Zero generators are dropped."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return 0
    row = GradedMatrix(gens[0].field, gens[0].nvars, (0,), [-g.degree for g in gens], [gens])
    return exactlin.rank(graded_piece_matrix(row, j))


WITNESS_POINTS = 4


def _has_injectivity_witness(M: GradedMatrix) -> bool:
    """Is M(x) of full column rank at one of the first WITNESS_POINTS points
    of a fixed stream?  True proves M injective over S; False proves nothing.
    With more columns than rows no point qualifies, since rank M(x) <= nrows,
    and none is evaluated.  Otherwise M is evaluated at all the points in
    one batch and the members are ranked in stream order, up to the first
    of full column rank.  The answer depends on M alone, so it is found once
    per matrix and kept in M's `_witness` slot for every later degree."""
    if M._witness is None:
        M._witness = M.ncols == 0 or (M.ncols <= M.nrows and _find_witness(M))
    return M._witness


def _find_witness(M: GradedMatrix) -> bool:
    rng = FieldRng(0, "graded.coker_hilbert witness")
    points = [[rng.below(M.field.p) for _ in range(M.nvars)] for _ in range(WITNESS_POINTS)]
    values = M.evaluate_batch(np.array(points, dtype=np.int64))
    return any(exactlin.rank(ScalarMatrix(M.field, v)) == M.ncols for v in values)


def coker_hilbert(M: GradedMatrix, j: int) -> int:
    """Hilbert function of coker(M) at degree j: target dim minus the rank
    of the degree-j piece of M.

    A point x with rank M(x) = ncols makes some maximal minor of M a nonzero
    polynomial, so M is injective over the domain S, every graded piece has
    full column rank, and that rank is the source dim sum_c dim S_{j+e_c}:
    no piece is built.  Without such a witness the piece's rank is taken.
    The witness is searched for once per matrix, however many degrees are
    asked (`_has_injectivity_witness`)."""
    target = sum(monomial_count(M.nvars, j + d) for d in M.row_twists)
    if _has_injectivity_witness(M):
        return target - sum(monomial_count(M.nvars, j + e) for e in M.col_twists)
    return target - exactlin.rank(graded_piece_matrix(M, j))


# ---- smoothness certificate --------------------------------------------------------


@dataclass(frozen=True)
class SmoothnessCertificate:
    verdict: str  # "smooth" | "singular" | "unknown"
    certificate_degree: int
    achieved_dim: int | None
    full_dim: int | None
    witness: tuple[int, ...] | None = None


WITNESS_SPAN = 2

# The most entries, rows x columns, of a Jacobian piece the certificate
# ranks: 256 MiB as float64.  In four variables it admits the degree-8
# piece (3276 x 5320) and refuses the degree-9 one (4960 x 8096).
MAX_JACOBIAN_ENTRIES = 1 << 25


def _witness_candidates(field: PrimeField, nvars: int):
    """Small deterministic candidate set for the optional singular-point search:
    every point when p <= 31, else coordinates in {0, +-1, ..., +-WITNESS_SPAN}."""
    if field.p <= 31:
        coords = range(field.p)
    else:
        vals = [0]
        for v in range(1, WITNESS_SPAN + 1):
            vals.extend([v, field.p - v])
        coords = vals
    for pt in itertools.product(coords, repeat=nvars):
        if any(pt):
            yield pt


def smoothness_certificate(
    F: HomogeneousForm,
    max_certificate_degree: int = 40,
) -> SmoothnessCertificate:
    """One-sided smoothness proof via the partials ideal.

    Full rank of the degree-J piece of the Jacobian ideal, at the degree just
    above the Koszul socle bound J = nvars (d - 2) + 1, proves the partials
    have no common projective zero; with p not dividing d, Euler's relation
    then makes the hypersurface smooth.  Failure is never reported as
    singular without an explicit witness point.  The verdict is unknown,
    and no partial derivative is taken, when J exceeds the configured work
    limit or when the piece of all nvars partials, dim S_J rows by
    nvars * dim S_{J-d+1} columns, has more than MAX_JACOBIAN_ENTRIES
    entries.
    """
    d = F.degree
    field = F.field
    if d < 2:
        return SmoothnessCertificate("smooth", 0, None, None)
    if d % field.p == 0:
        raise CharDividesDegree(
            f"char {field.p} divides deg {d}; choose a different prime"
        )
    if F.nvars > 4:
        raise TooManyVariables(
            f"smoothness certificate supports at most 4 variables, got {F.nvars}"
        )
    J = F.nvars * (d - 2) + 1
    full = monomial_count(F.nvars, J)
    columns = F.nvars * monomial_count(F.nvars, J - d + 1)
    if J > max_certificate_degree or full * columns > MAX_JACOBIAN_ENTRIES:
        return SmoothnessCertificate("unknown", J, None, full)
    partials = [F.partial_derivative(j) for j in range(F.nvars)]
    achieved = ideal_piece_dim(partials, J)
    if achieved == full:
        return SmoothnessCertificate("smooth", J, achieved, full)
    for pt in _witness_candidates(field, F.nvars):
        if all(g.evaluate(pt) == 0 for g in partials):
            return SmoothnessCertificate("singular", J, achieved, full, tuple(pt))
    return SmoothnessCertificate("unknown", J, achieved, full)


# ---- infinitesimal stabilizer --------------------------------------------------------


def stabilizer_lie_dim(L: LinearSkewMatrix) -> int:
    """Dimension of {A : A M_k + M_k tA = 0 for every coefficient matrix M_k}."""
    n = L.size
    i, j = np.triu_indices(n, 1)
    if not len(i):
        return n * n
    # row (k, i, j) holds the coefficients of (A Mk + Mk tA)_{ij} in the
    # unknowns A[r, c] at r*n + c: Mk[:, j] in A's row i, Mk[i, :] in row j;
    # float64 residues, which `rank` factors without a copy
    pairs = np.arange(len(i))
    rows = np.zeros((L.nvars, len(i), n, n))
    rows[:, pairs, i, :] = L.coeff[:, :, j].transpose(0, 2, 1)
    rows[:, pairs, j, :] = L.coeff[:, i, :]
    system = ScalarMatrix(L.field, rows.reshape(-1, n * n))
    return n * n - exactlin.rank(system)


# ---- arithmetically Gorenstein point sets ----------------------------------------------


@dataclass(frozen=True)
class GorensteinReport:
    degree: int
    hilbert: tuple[int, ...]
    index: int
    symmetry_ok: bool
    cayley_bacharach_ok: bool

    @property
    def passed(self) -> bool:
        return self.symmetry_ok and self.cayley_bacharach_ok


def gorenstein_check(Z: PointSet, work_limit: int = 40) -> GorensteinReport:
    """Hilbert-function symmetry plus the Cayley-Bacharach property for Z: the
    forms of degree `index` vanishing on Z minus a point vanish at it too, so
    deleting its Vandermonde row leaves the rank at hilbert[index]."""
    c = len(Z)
    if c < 2:
        raise InputError("need at least 2 points")
    p = Z.field.p
    coords = Z.coordinate_array()
    hilbert: list[int] = []
    deg = 0
    while True:
        if deg > work_limit:
            raise WorkLimitExceeded(
                f"Hilbert function not stationary by degree {work_limit}"
            )
        V = vandermonde(coords, monomial_basis(Z.nvars, deg), p)
        r = exactlin.rank(ScalarMatrix(Z.field, V))
        hilbert.append(r)
        if r == c:
            break
        deg += 1
    index = deg - 1
    symmetry_ok = all(
        hilbert[q] + hilbert[index - q] == c for q in range(0, index + 1)
    )
    V = vandermonde(coords, monomial_basis(Z.nvars, index), p)
    cb_ok = all(
        exactlin.rank(ScalarMatrix(Z.field, np.delete(V, omit, axis=0))) == hilbert[index]
        for omit in range(c)
    )
    return GorensteinReport(c, tuple(hilbert), index, symmetry_ok, cb_ok)


# ---- maximal minors membership -----------------------------------------------------------


def det_in_minor_ideal(M: GradedMatrix, seed: int = 0) -> bool:
    """Is det M in the degree-d piece of the ideal of maximal minors of M
    with its first row deleted?"""
    if not M.is_square():
        raise ValueError("expected a square matrix")
    for row in M.entries:
        for f in row:
            if not f.is_zero() and f.degree != 1:
                raise ValueError("expected a linear matrix")
    below = GradedMatrix(M.field, M.nvars, M.row_twists[1:], M.col_twists, M.entries[1:])
    return form_in_ideal_piece(maximal_minors(below, seed=seed), determinant(M, seed=seed))


def form_in_ideal_piece(gens: Sequence[HomogeneousForm], F: HomogeneousForm) -> bool:
    """Membership of F in the degree-(deg F) piece of the ideal (gens), by one
    elimination of the degree-(deg F) piece of the one-row matrix
    [g_1 ... g_k F]: F adds exactly its last column, and F is a member iff
    that column is no pivot, that is, depends on the generators' columns.
    Zero generators are dropped, and F = 0 is a member."""
    if F.is_zero():
        return True
    row = [g for g in gens if not g.is_zero()] + [F]
    M = GradedMatrix(F.field, F.nvars, (0,), [-g.degree for g in row], [row])
    piece = graded_piece_matrix(M, F.degree)
    return piece.cols - 1 not in exactlin.pivot_columns(piece)
