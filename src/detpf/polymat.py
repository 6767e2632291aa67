"""Graded polynomial matrices with exact determinants and pfaffians.

A GradedMatrix carries row twists d_i and column twists e_j; entry (i, j) is
homogeneous of degree d_i - e_j and forced to zero when that is negative.
Determinants and pfaffians have two routes: a cofactor/expansion oracle at
small size, and evaluation-interpolation at scale.  The oracle is kept
independent so the fast route can be calibrated against it.

Sign conventions, fixed once and frozen by the test suite:

* pf([[0, a], [-a, 0]]) = a, extended by expansion along the first row,
  pf(A) = sum_{j>1} (-1)^j a_{1j} pf(A_{1,j deleted})   (1-based j).
* For invertible skew A of even size and 1-based i < j,
  pf(A with rows/cols i,j deleted) = (-1)^{i+j} pf(A) (A^{-1})_{ij}.
  This is the inverse identity used to get all submaximal pfaffians from
  one batched inverse per round of sample points; the (-1)^{i+j}/transpose
  choice was derived against the deletion oracle, not copied from a
  reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import hashlib

import numpy as np

from . import exactlin, mpoly
from .exactlin import PrimeField, ScalarMatrix, Singular
from .mpoly import HomogeneousForm, RankNotReached, interpolate_many, monomial_basis
# not called here; kept because perfbench/spans.py patches this binding
from .mpoly import sample_points  # noqa: F401
from .rng import FieldRng, derive_seed

GENERAL = "general"
SYMMETRIC = "symmetric"
SKEW = "skew"
_SYMMETRIES = (GENERAL, SYMMETRIC, SKEW)

EXPANSION_CUTOFF_DET = 6
EXPANSION_CUTOFF_PF = 8


OddSize = exactlin.OddSize
DegeneratePencil = mpoly.DegeneratePencil


class SizeMismatch(ValueError):
    pass


class InterpolationFailure(RuntimeError):
    pass


class MatrixParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class GradedMatrix:
    """Matrix of homogeneous forms with row/column twists and a symmetry tag."""

    __slots__ = ("field", "nvars", "row_twists", "col_twists", "entries", "symmetry")

    def __init__(
        self,
        field: PrimeField,
        nvars: int,
        row_twists: Sequence[int],
        col_twists: Sequence[int],
        entries: Sequence[Sequence[HomogeneousForm | None]],
        symmetry: str = GENERAL,
    ):
        if symmetry not in _SYMMETRIES:
            raise ValueError(f"unknown symmetry tag {symmetry!r}")
        rows = tuple(int(t) for t in row_twists)
        cols = tuple(int(t) for t in col_twists)
        if len(entries) != len(rows):
            raise SizeMismatch(f"{len(entries)} entry rows for {len(rows)} twists")
        grid: list[tuple[HomogeneousForm, ...]] = []
        for i, row in enumerate(entries):
            if len(row) != len(cols):
                raise SizeMismatch(f"row {i} has {len(row)} entries for {len(cols)} twists")
            out_row = []
            for j, entry in enumerate(row):
                deg = rows[i] - cols[j]
                if entry is None or (
                    isinstance(entry, HomogeneousForm) and entry.is_zero()
                ):
                    entry = HomogeneousForm.zero(field, nvars, max(deg, 0))
                if entry.field != field or entry.nvars != nvars:
                    raise ValueError(f"entry ({i},{j}) lives in the wrong ring")
                if not entry.is_zero():
                    if deg < 0:
                        raise ValueError(
                            f"entry ({i},{j}) must vanish: twist gap {deg} < 0"
                        )
                    if entry.degree != deg:
                        raise ValueError(
                            f"entry ({i},{j}) has degree {entry.degree}, twists give {deg}"
                        )
                out_row.append(entry)
            grid.append(tuple(out_row))
        self.field = field
        self.nvars = nvars
        self.row_twists = rows
        self.col_twists = cols
        self.entries = tuple(grid)
        self.symmetry = symmetry
        if symmetry in (SYMMETRIC, SKEW):
            self._check_pairing(skew=(symmetry == SKEW))

    def _check_pairing(self, skew: bool) -> None:
        if len(self.row_twists) != len(self.col_twists):
            raise SizeMismatch(f"{self.symmetry} matrix must be square")
        sums = {d + e for d, e in zip(self.row_twists, self.col_twists)}
        if len(sums) > 1:
            raise ValueError(
                f"{self.symmetry} tag needs col twists of the form t - row twists"
            )
        n = len(self.row_twists)
        for i in range(n):
            if skew and not self.entries[i][i].is_zero():
                raise ValueError(f"skew matrix has nonzero diagonal at {i}")
            for j in range(i + 1, n):
                mirror = -self.entries[j][i] if skew else self.entries[j][i]
                if self.entries[i][j].coeffs != mirror.coeffs:
                    raise ValueError(f"{self.symmetry} mirror fails at ({i},{j})")

    # ---- basic views ----------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.row_twists)

    @property
    def ncols(self) -> int:
        return len(self.col_twists)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def determinant_degree(self) -> int:
        return sum(self.row_twists) - sum(self.col_twists)

    def __getitem__(self, key) -> HomogeneousForm:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedMatrix)
            and other.field == self.field
            and other.nvars == self.nvars
            and other.row_twists == self.row_twists
            and other.col_twists == self.col_twists
            and other.symmetry == self.symmetry
            and other.entries == self.entries
        )

    def __repr__(self) -> str:
        return (
            f"GradedMatrix({self.nrows}x{self.ncols}, p={self.field.p}, "
            f"nvars={self.nvars}, symmetry={self.symmetry})"
        )

    def transpose(self) -> "GradedMatrix":
        return GradedMatrix(
            self.field,
            self.nvars,
            tuple(-t for t in self.col_twists),
            tuple(-t for t in self.row_twists),
            tuple(
                tuple(self.entries[i][j] for i in range(self.nrows))
                for j in range(self.ncols)
            ),
            self.symmetry,
        )

    def evaluate(self, point: Sequence[int]) -> ScalarMatrix:
        vals = [[f.evaluate(point) for f in row] for row in self.entries]
        return ScalarMatrix(self.field, vals)

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """(npoints, nrows, ncols) array of entry values."""
        npts = points.shape[0]
        out = np.zeros((npts, self.nrows, self.ncols), dtype=np.int64)
        for i in range(self.nrows):
            for j in range(self.ncols):
                f = self.entries[i][j]
                if not f.is_zero():
                    out[:, i, j] = f.evaluate_many(points)
        return out

    # ---- text format ------------------------------------------------------

    def to_text(self) -> str:
        lines = [
            f"gradedmatrix p={self.field.p} nvars={self.nvars} symmetry={self.symmetry}",
            "rows " + " ".join(str(t) for t in self.row_twists),
            "cols " + " ".join(str(t) for t in self.col_twists),
        ]
        for i in range(self.nrows):
            for j in range(self.ncols):
                f = self.entries[i][j]
                terms = [
                    (e, f.coeffs[e])
                    for e in monomial_basis(self.nvars, f.degree).exponents
                    if e in f.coeffs
                ]
                lines.append(f"entry {i} {j} nterms={len(terms)}")
                for e, c in terms:
                    lines.append(f"{c}  " + " ".join(str(k) for k in e))
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


def parse_graded_matrix(text: str, field: PrimeField | None = None) -> GradedMatrix:
    lines = text.splitlines()
    header = None
    rows = cols = None
    entries: dict[tuple[int, int], HomogeneousForm] = {}
    i = 0
    n = len(lines)

    def err(line_no: int, msg: str):
        raise MatrixParseError(line_no, msg)

    while i < n:
        line = lines[i].strip()
        line_no = i + 1
        i += 1
        if not line or line.startswith("#"):
            continue
        if line.startswith("gradedmatrix "):
            fields = dict(part.split("=", 1) for part in line.split()[1:])
            try:
                p = int(fields["p"])
                nvars = int(fields["nvars"])
                symmetry = fields["symmetry"]
            except (KeyError, ValueError) as exc:
                err(line_no, f"bad matrix header: {exc}")
            f = field if field is not None else PrimeField(p)
            if f.p != p:
                err(line_no, f"matrix modulus {p} != context {f.p}")
            header = {"field": f, "nvars": nvars, "symmetry": symmetry}
        elif line.startswith("rows "):
            rows = tuple(int(v) for v in line.split()[1:])
        elif line.startswith("cols "):
            cols = tuple(int(v) for v in line.split()[1:])
        elif line.startswith("entry "):
            if header is None or rows is None or cols is None:
                err(line_no, "entry before header/twists")
            parts = line.split()
            try:
                r, c = int(parts[1]), int(parts[2])
                nterms = int(parts[3].split("=", 1)[1])
            except (IndexError, ValueError) as exc:
                err(line_no, f"bad entry header: {exc}")
            coeffs = {}
            for _ in range(nterms):
                if i >= n:
                    err(n, "unexpected end of file inside entry")
                term = lines[i].strip().split()
                term_no = i + 1
                i += 1
                if len(term) != header["nvars"] + 1:
                    err(term_no, f"expected coeff + {header['nvars']} exponents")
                try:
                    coeffs[tuple(int(v) for v in term[1:])] = int(term[0])
                except ValueError as exc:
                    err(term_no, f"non-integer field: {exc}")
            deg = rows[r] - cols[c]
            entries[(r, c)] = HomogeneousForm(
                header["field"], header["nvars"], max(deg, 0), coeffs
            )
        else:
            err(line_no, f"unrecognized line {line!r}")
    if header is None or rows is None or cols is None:
        raise MatrixParseError(0, "missing matrix header or twist lines")
    grid = [
        [entries.get((i_, j_)) for j_ in range(len(cols))] for i_ in range(len(rows))
    ]
    return GradedMatrix(
        header["field"], header["nvars"], rows, cols, grid, header["symmetry"]
    )


class LinearSkewMatrix:
    """Skew matrix of linear forms, stored as coefficient matrices M_k.

    M(x) = sum_k x_k M_k with each M_k skew-symmetric over GF(p).  Lossless
    to and from the GradedMatrix view (twists 0 / -1).
    """

    __slots__ = ("field", "nvars", "size", "coeff")

    def __init__(self, field: PrimeField, nvars: int, coeff: np.ndarray):
        coeff = np.mod(np.asarray(coeff, dtype=np.int64), field.p)
        if coeff.ndim != 3 or coeff.shape[0] != nvars or coeff.shape[1] != coeff.shape[2]:
            raise SizeMismatch(f"coefficient array has shape {coeff.shape}")
        p = field.p
        for k in range(nvars):
            mk = coeff[k]
            if mk.diagonal().any() or not np.array_equal(mk, (-mk.T) % p):
                raise ValueError(f"coefficient matrix {k} is not skew-symmetric")
        self.field = field
        self.nvars = nvars
        self.size = coeff.shape[1]
        self.coeff = coeff

    @classmethod
    def random(
        cls, field: PrimeField, nvars: int, size: int, rng: FieldRng
    ) -> "LinearSkewMatrix":
        coeff = np.zeros((nvars, size, size), dtype=np.int64)
        for k in range(nvars):
            for i in range(size):
                for j in range(i + 1, size):
                    v = rng.below(field.p)
                    coeff[k, i, j] = v
                    coeff[k, j, i] = (-v) % field.p
        return cls(field, nvars, coeff)

    def evaluate(self, point: Sequence[int]) -> ScalarMatrix:
        x = np.mod(np.asarray(point, dtype=np.int64), self.field.p)
        acc = np.zeros((self.size, self.size), dtype=np.int64)
        for k in range(self.nvars):
            acc = (acc + int(x[k]) * self.coeff[k]) % self.field.p
        return ScalarMatrix(self.field, acc)

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        pts = np.mod(np.asarray(points, dtype=np.int64), self.field.p)
        out = np.zeros((pts.shape[0], self.size, self.size), dtype=np.int64)
        for k in range(self.nvars):
            out = (out + pts[:, k, None, None] * self.coeff[k][None, :, :]) % self.field.p
        return out

    def to_graded(self) -> GradedMatrix:
        entries = []
        for i in range(self.size):
            row = []
            for j in range(self.size):
                coeffs = {}
                for k in range(self.nvars):
                    c = int(self.coeff[k, i, j])
                    if c:
                        exp = tuple(1 if t == k else 0 for t in range(self.nvars))
                        coeffs[exp] = c
                row.append(HomogeneousForm(self.field, self.nvars, 1, coeffs))
            entries.append(row)
        return GradedMatrix(
            self.field,
            self.nvars,
            (0,) * self.size,
            (-1,) * self.size,
            entries,
            SKEW,
        )

    @classmethod
    def from_graded(cls, M: GradedMatrix) -> "LinearSkewMatrix":
        if M.symmetry != SKEW:
            raise ValueError("expected a skew matrix")
        n = M.nrows
        coeff = np.zeros((M.nvars, n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                f = M.entries[i][j]
                if f.is_zero():
                    continue
                if f.degree != 1:
                    raise ValueError(f"entry ({i},{j}) is not linear")
                for e, c in f.coeffs.items():
                    k = e.index(1)
                    coeff[k, i, j] = c
        return cls(M.field, M.nvars, coeff)


# ---- symbolic expansion oracles ----------------------------------------------


def determinant_expansion(M: GradedMatrix) -> HomogeneousForm:
    """Cofactor expansion along rows, memoized on column subsets.

    Exponential in the size; this is the independent oracle the interpolation
    route is calibrated against.
    """
    if not M.is_square():
        raise SizeMismatch("determinant of a non-square matrix")
    n = M.nrows
    field, nvars = M.field, M.nvars

    @lru_cache(maxsize=None)
    def minor(row: int, cols: tuple[int, ...]) -> HomogeneousForm:
        degree = sum(M.row_twists[row:]) - sum(M.col_twists[c] for c in cols)
        if not cols:
            return HomogeneousForm.constant(field, nvars, 1)
        acc = HomogeneousForm.zero(field, nvars, max(degree, 0))
        for t, c in enumerate(cols):
            entry = M.entries[row][c]
            if entry.is_zero():
                continue
            sub = minor(row + 1, cols[:t] + cols[t + 1 :])
            if sub.is_zero():
                continue
            term = entry * sub
            if t % 2:
                term = -term
            acc = acc + term if not acc.is_zero() else term
        if acc.is_zero() and degree >= 0:
            acc = HomogeneousForm.zero(field, nvars, degree)
        return acc

    result = minor(0, tuple(range(n))) if n else HomogeneousForm.constant(field, nvars, 1)
    minor.cache_clear()
    return result


def pfaffian_expansion(M: GradedMatrix) -> HomogeneousForm:
    """First-row pfaffian expansion, memoized on index subsets."""
    _require_skew(M)
    n = M.nrows
    field, nvars = M.field, M.nvars
    half = M.determinant_degree // 2

    @lru_cache(maxsize=None)
    def pf(indices: tuple[int, ...]) -> HomogeneousForm:
        degree = (
            sum(M.row_twists[i] for i in indices)
            - sum(M.col_twists[i] for i in indices)
        ) // 2
        if not indices:
            return HomogeneousForm.constant(field, nvars, 1)
        i0 = indices[0]
        rest = indices[1:]
        acc = HomogeneousForm.zero(field, nvars, max(degree, 0))
        for t, j in enumerate(rest):
            entry = M.entries[i0][j]
            if entry.is_zero():
                continue
            sub = pf(rest[:t] + rest[t + 1 :])
            if sub.is_zero():
                continue
            term = entry * sub
            if t % 2:
                term = -term
            acc = acc + term if not acc.is_zero() else term
        if acc.is_zero() and degree >= 0:
            acc = HomogeneousForm.zero(field, nvars, degree)
        return acc

    result = pf(tuple(range(n))) if n else HomogeneousForm.constant(field, nvars, 1)
    pf.cache_clear()
    if result.is_zero():
        result = HomogeneousForm.zero(field, nvars, max(half, 0))
    return result


def _require_skew(M: GradedMatrix) -> None:
    if M.symmetry != SKEW:
        raise ValueError("pfaffian needs the skew symmetry tag")
    if M.nrows % 2 != 0:
        raise OddSize(f"pfaffian needs even size, got {M.nrows}")


# ---- numeric kernels -----------------------------------------------------------


def pfaffian_numeric(A: ScalarMatrix) -> int:
    """pf(A) for a numeric skew matrix; see module docstring for the convention."""
    return exactlin.pfaffian_skew(A)


# ---- interpolated determinant / pfaffian ----------------------------------------


def determinant(
    M: GradedMatrix,
    seed: int = 0,
    cutoff: int = EXPANSION_CUTOFF_DET,
) -> HomogeneousForm:
    """Exact determinant form; expansion below `cutoff`, interpolation above."""
    if not M.is_square():
        raise SizeMismatch("determinant of a non-square matrix")
    if M.nrows <= cutoff:
        return determinant_expansion(M)
    degree = M.determinant_degree
    if degree < 0:
        return HomogeneousForm.zero(M.field, M.nvars, 0)
    seed = derive_seed(seed, "det")
    return _interpolate_scalar(M, degree, exactlin._det_array, seed)


def pfaffian(
    M: GradedMatrix,
    seed: int = 0,
    cutoff: int = EXPANSION_CUTOFF_PF,
) -> HomogeneousForm:
    """Exact pfaffian form of a skew GradedMatrix of even size."""
    _require_skew(M)
    if M.nrows <= cutoff:
        return pfaffian_expansion(M)
    degree = M.determinant_degree // 2
    seed = derive_seed(seed, "pf")
    return _interpolate_scalar(M, degree, exactlin._pfaffian_array, seed)


def _interpolate_scalar(
    M: GradedMatrix, degree: int, kernel: Callable[[np.ndarray, int], int], seed: int
) -> HomogeneousForm:
    """The degree-`degree` form x -> kernel(M(x), p), by interpolation."""
    p = M.field.p

    def values_fn(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = [[kernel(a, p)] for a in M.evaluate_batch(points)]
        return np.array(values, dtype=np.int64), np.ones(len(points), dtype=bool)

    try:
        coeffs = interpolate_many(values_fn, M.nvars, degree, M.field, seed, 1)
    except RankNotReached as exc:
        raise InterpolationFailure(str(exc)) from exc
    return HomogeneousForm.from_coefficient_vector(
        M.field, monomial_basis(M.nvars, degree), coeffs[:, 0]
    )


# ---- submaximal pfaffians ---------------------------------------------------------


def submaximal_pfaffians_by_deletion(M: GradedMatrix) -> dict[tuple[int, int], HomogeneousForm]:
    """Oracle route: delete rows/columns i, j and expand.  Small sizes only."""
    _require_skew(M)
    n = M.nrows
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            keep = [k for k in range(n) if k not in (i, j)]
            sub = GradedMatrix(
                M.field,
                M.nvars,
                tuple(M.row_twists[k] for k in keep),
                tuple(M.col_twists[k] for k in keep),
                tuple(tuple(M.entries[a][b] for b in keep) for a in keep),
                SKEW,
            )
            out[(i, j)] = pfaffian_expansion(sub)
    return out


def submaximal_pfaffians(
    L: LinearSkewMatrix,
    seed: int = 0,
    stats: dict | None = None,
) -> dict[tuple[int, int], HomogeneousForm]:
    """All C(2d, 2) pfaffians of M with row/column pairs deleted, degree d-1.

    One batched inverse per round of sample points (`exactlin.invert_many`)
    yields every value at once through the inverse identity
    P_ij(x) = (-1)^(i+j) pf(M(x)) (M(x)^{-1})_{ij}; the shared evaluation
    matrix is then solved against all C(2d, 2) right-hand sides.  Points
    where M(x) is singular (for skew M, where pf(M(x)) = 0) are dropped and
    replaced; `stats` gets the counts of `interpolate_many`.
    """
    n = L.size
    if n % 2 != 0:
        raise OddSize(f"submaximal pfaffians need even size, got {n}")
    if n < 4:
        raise SizeMismatch("size must be at least 4")
    d = n // 2
    field = L.field
    p = field.p
    upper = np.triu_indices(n, 1)
    pair_sign = np.where((upper[0] + upper[1]) % 2 == 0, 1, p - 1)

    def values_fn(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mats = L.evaluate_batch(points)
        inverses, usable = exactlin.invert_many(mats, p)
        pf = [exactlin._pfaffian_array(a, p) if ok else 0 for a, ok in zip(mats, usable)]
        pf = np.array(pf, dtype=np.int64)[:, None]
        return inverses[:, upper[0], upper[1]] * pair_sign % p * pf % p, usable

    seed = derive_seed(seed, "subpf")
    coeffs = interpolate_many(values_fn, L.nvars, d - 1, field, seed, len(pair_sign), stats)
    basis = monomial_basis(L.nvars, d - 1)
    return {
        (int(i), int(j)): HomogeneousForm.from_coefficient_vector(field, basis, column)
        for i, j, column in zip(*upper, coeffs.T)
    }


# ---- structural operations -----------------------------------------------------


def congruence_transform(M: GradedMatrix, A: ScalarMatrix) -> GradedMatrix:
    """A M tA for a scalar matrix A; preserves the symmetry tag.

    Requires uniform twists (a scalar congruence mixes rows, so entries stay
    homogeneous only when all row twists agree).
    """
    if M.symmetry not in (SYMMETRIC, SKEW):
        raise ValueError("congruence is defined for symmetric or skew matrices")
    n = M.nrows
    if A.rows != n or A.cols != n:
        raise SizeMismatch(f"transform is {A.rows}x{A.cols}, matrix is {n}x{n}")
    if A.field != M.field:
        raise TypeError("field mismatch")
    if len(set(M.row_twists)) > 1 or len(set(M.col_twists)) > 1:
        raise ValueError("congruence by a scalar matrix needs uniform twists")
    if exactlin.determinant(A) == 0:
        raise Singular("congruence transform must be invertible")
    deg = M.row_twists[0] - M.col_twists[0]
    zero = HomogeneousForm.zero(M.field, M.nvars, max(deg, 0))
    a = A.a
    new_entries = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for s in range(n):
                if a[i, s] == 0:
                    continue
                for t in range(n):
                    c = int(a[i, s]) * int(a[j, t]) % M.field.p
                    if c == 0:
                        continue
                    entry = M.entries[s][t]
                    if entry.is_zero():
                        continue
                    acc = acc + entry.scale(c)
            row.append(acc)
        new_entries.append(row)
    return GradedMatrix(
        M.field, M.nvars, M.row_twists, M.col_twists, new_entries, M.symmetry
    )


def is_minimal(M: GradedMatrix) -> bool:
    """Minimality test: entries at positions with d_i = e_j must vanish."""
    for i, d in enumerate(M.row_twists):
        for j, e in enumerate(M.col_twists):
            if d == e and not M.entries[i][j].is_zero():
                return False
    return True


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    scalar: int | None

    def __bool__(self) -> bool:
        return self.ok


def verify_representation(
    M: GradedMatrix, F: HomogeneousForm, kind: str, seed: int = 0
) -> VerificationResult:
    """Check det M (or pf M) = lambda F for a nonzero scalar lambda."""
    if F.is_zero():
        raise ValueError("target form must be nonzero")
    if kind == "det":
        G = determinant(M, seed=seed)
    elif kind == "pf":
        G = pfaffian(M, seed=seed)
    else:
        raise ValueError(f"kind must be 'det' or 'pf', got {kind!r}")
    if G.is_zero() or G.nvars != F.nvars or G.degree != F.degree:
        return VerificationResult(False, None)
    p = F.field.p
    exp0, c0 = next(iter(G.coeffs.items()))
    f0 = F.coeffs.get(exp0)
    if not f0:
        return VerificationResult(False, None)
    lam = c0 * F.field.inv(f0) % p
    if F.scale(lam) == G:
        return VerificationResult(True, lam)
    return VerificationResult(False, None)
