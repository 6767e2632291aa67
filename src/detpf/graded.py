"""Graded-piece linear algebra over GF(p).

Hilbert functions, ideal degree pieces, the smoothness certificate, the
infinitesimal stabilizer dimension, arithmetically-Gorenstein point-set
checks and minors-ideal membership are all raw rank computations on
coefficient matrices of graded pieces; no Groebner machinery anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exactlin
from .exactlin import PrimeField, ScalarMatrix
from .mpoly import (
    HomogeneousForm,
    monomial_basis,
    monomial_count,
    multiplication_matrix,
    vandermonde,
)
from .polymat import GradedMatrix, LinearSkewMatrix, determinant
from .rng import FieldRng


class WorkLimitExceeded(RuntimeError):
    pass


class CharDividesDegree(ValueError):
    """Euler's relation fails: the characteristic divides the degree."""


class DuplicatePoint(ValueError):
    pass


# ---- point sets ---------------------------------------------------------------


class PointSet:
    """Distinct projective points, normalized so the first nonzero entry is 1."""

    __slots__ = ("field", "nvars", "points")

    def __init__(self, field: PrimeField, nvars: int, points: Sequence[Sequence[int]]):
        norm = []
        seen = set()
        for idx, pt in enumerate(points):
            if len(pt) != nvars:
                raise ValueError(f"point {idx} has {len(pt)} coordinates, expected {nvars}")
            vec = tuple(int(x) % field.p for x in pt)
            lead = next((x for x in vec if x), None)
            if lead is None:
                raise ValueError(f"point {idx} is the zero vector")
            inv = field.inv(lead)
            vec = tuple(x * inv % field.p for x in vec)
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


class PointSetParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_point_set(text: str, field: PrimeField | None = None) -> PointSet:
    header = None
    pts = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("points "):
            fields = dict(part.split("=", 1) for part in line.split()[1:])
            try:
                p = int(fields["p"])
                nvars = int(fields["nvars"])
            except (KeyError, ValueError) as exc:
                raise PointSetParseError(line_no, f"bad header: {exc}") from exc
            f = field if field is not None else PrimeField(p)
            if f.p != p:
                raise PointSetParseError(line_no, f"modulus {p} != context {f.p}")
            header = (f, nvars)
            continue
        if header is None:
            raise PointSetParseError(line_no, "point before header")
        try:
            pt = tuple(int(v) for v in line.split())
        except ValueError as exc:
            raise PointSetParseError(line_no, f"non-integer coordinate: {exc}") from exc
        if len(pt) != header[1]:
            raise PointSetParseError(
                line_no, f"expected {header[1]} coordinates, got {len(pt)}"
            )
        pts.append(pt)
    if header is None:
        raise PointSetParseError(0, "missing points header")
    return PointSet(header[0], header[1], pts)


def random_point_set(
    field: PrimeField, nvars: int, count: int, rng: FieldRng
) -> PointSet:
    pts: list[tuple[int, ...]] = []
    seen = set()
    while len(pts) < count:
        vec = tuple(rng.below(field.p) for _ in range(nvars))
        lead = next((x for x in vec if x), None)
        if lead is None:
            continue
        inv = field.inv(lead)
        norm = tuple(x * inv % field.p for x in vec)
        if norm in seen:
            continue
        seen.add(norm)
        pts.append(norm)
    return PointSet(field, nvars, pts)


# ---- ideal and cokernel dimensions ----------------------------------------------


def ideal_piece_dim(gens: Sequence[HomogeneousForm], j: int) -> int:
    """Dimension of the degree-j piece of the ideal generated by `gens`."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return 0
    field = gens[0].field
    nvars = gens[0].nvars
    for g in gens:
        if g.field != field or g.nvars != nvars:
            raise ValueError("generators disagree on ring")
    to_basis = monomial_basis(nvars, j)
    blocks = []
    for g in gens:
        if g.degree > j:
            continue
        from_basis = monomial_basis(nvars, j - g.degree)
        blocks.append(multiplication_matrix(g, from_basis, to_basis))
    if not blocks:
        return 0
    stacked = np.hstack(blocks)
    return exactlin.rank(ScalarMatrix(field, stacked))


def graded_piece_matrix(M: GradedMatrix, j: int) -> ScalarMatrix:
    """Coefficient matrix of the degree-j piece of the map +S(e) -> +S(d)."""
    field, nvars = M.field, M.nvars
    row_bases = [monomial_basis(nvars, j + d) for d in M.row_twists]
    col_bases = [monomial_basis(nvars, j + e) for e in M.col_twists]
    row_dims = [len(b) for b in row_bases]
    col_dims = [len(b) for b in col_bases]
    out = np.zeros((sum(row_dims), sum(col_dims)), dtype=np.int64)
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


def coker_hilbert(M: GradedMatrix, j: int) -> int:
    """Hilbert function of coker(M) at degree j: target dim minus rank."""
    target = sum(monomial_count(M.nvars, j + d) for d in M.row_twists)
    piece = graded_piece_matrix(M, j)
    if piece.cols == 0:
        return target
    return target - exactlin.rank(piece)


# ---- smoothness certificate --------------------------------------------------------


@dataclass(frozen=True)
class SmoothnessCertificate:
    verdict: str  # "smooth" | "singular" | "unknown"
    certificate_degree: int
    achieved_dim: int | None
    full_dim: int | None
    witness: tuple[int, ...] | None = None


def _witness_candidates(field: PrimeField, nvars: int, span: int = 2):
    """Small deterministic candidate set for the optional singular-point search."""
    if field.p <= 31:
        coords = range(field.p)
    else:
        vals = [0]
        for v in range(1, span + 1):
            vals.extend([v, field.p - v])
        coords = vals
    for pt in itertools.product(coords, repeat=nvars):
        if any(pt):
            yield pt


def smoothness_certificate(
    F: HomogeneousForm,
    max_certificate_degree: int = 40,
    witness_span: int = 2,
) -> SmoothnessCertificate:
    """One-sided smoothness proof via the partials ideal.

    Full rank of the degree-J piece of the Jacobian ideal, at the degree just
    above the Koszul socle bound J = nvars (d - 2) + 1, proves the partials
    have no common projective zero; with p not dividing d, Euler's relation
    then makes the hypersurface smooth.  Failure is never reported as
    singular without an explicit witness point; above the configured work
    limit the verdict is unknown.
    """
    d = F.degree
    field = F.field
    if d % field.p == 0:
        raise CharDividesDegree(
            f"char {field.p} divides deg {d}; choose a different prime"
        )
    if F.nvars > 4:
        raise ValueError("smoothness certificate supports at most 4 variables")
    if d < 2:
        return SmoothnessCertificate("smooth", 0, None, None)
    J = F.nvars * (d - 2) + 1
    full = monomial_count(F.nvars, J)
    partials = [F.partial_derivative(j) for j in range(F.nvars)]
    if J > max_certificate_degree:
        return SmoothnessCertificate("unknown", J, None, full)
    achieved = ideal_piece_dim(partials, J)
    if achieved == full:
        return SmoothnessCertificate("smooth", J, achieved, full)
    for pt in _witness_candidates(field, F.nvars, witness_span):
        if all(g.evaluate(pt) == 0 for g in partials):
            return SmoothnessCertificate("singular", J, achieved, full, tuple(pt))
    return SmoothnessCertificate("unknown", J, achieved, full)


# ---- infinitesimal stabilizer --------------------------------------------------------


def stabilizer_lie_dim(L: LinearSkewMatrix) -> int:
    """Dimension of {A : A M_k + M_k tA = 0 for every coefficient matrix M_k}."""
    n = L.size
    p = L.field.p
    unknowns = n * n
    rows = []
    for k in range(L.nvars):
        Mk = L.coeff[k]
        for i in range(n):
            for j in range(i + 1, n):
                row = np.zeros(unknowns, dtype=np.int64)
                # (A Mk + Mk tA)_{ij} = sum_a A[i,a] Mk[a,j] + sum_b Mk[i,b] A[j,b]
                row[i * n : (i + 1) * n] = (row[i * n : (i + 1) * n] + Mk[:, j]) % p
                row[j * n : (j + 1) * n] = (row[j * n : (j + 1) * n] + Mk[i, :]) % p
                rows.append(row)
    if not rows:
        return unknowns
    system = ScalarMatrix(L.field, np.array(rows, dtype=np.int64))
    return unknowns - exactlin.rank(system)


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


def _evaluation_matrix(field: PrimeField, coords: np.ndarray, degree: int) -> ScalarMatrix:
    basis = monomial_basis(coords.shape[1], degree)
    return ScalarMatrix(field, vandermonde(coords, basis, field.p))


def gorenstein_check(Z: PointSet, work_limit: int = 40) -> GorensteinReport:
    """Hilbert-function symmetry plus the Cayley-Bacharach property for Z."""
    c = len(Z)
    if c < 2:
        raise ValueError("need at least 2 points")
    field = Z.field
    coords = Z.coordinate_array()
    hilbert: list[int] = []
    deg = 0
    while True:
        if deg > work_limit:
            raise WorkLimitExceeded(
                f"Hilbert function not stationary by degree {work_limit}"
            )
        r = exactlin.rank(_evaluation_matrix(field, coords, deg))
        hilbert.append(r)
        if r == c:
            break
        deg += 1
    index = deg - 1
    symmetry_ok = all(
        hilbert[q] + hilbert[index - q] == c for q in range(0, index + 1)
    )
    cb_ok = True
    basis_n = monomial_basis(Z.nvars, index)
    for omit in range(c):
        rest = np.delete(coords, omit, axis=0)
        E = _evaluation_matrix(field, rest, index)
        kernel = exactlin.kernel_basis(E)
        if not kernel:
            continue
        at_z = vandermonde(coords[omit : omit + 1], basis_n, field.p)[0]
        for vec in kernel:
            if int(at_z @ vec % field.p):
                cb_ok = False
                break
        if not cb_ok:
            break
    return GorensteinReport(c, tuple(hilbert), index, symmetry_ok, cb_ok)


# ---- maximal minors membership -----------------------------------------------------------


def det_in_minor_ideal(M: GradedMatrix, seed: int = 0) -> bool:
    """Is det M in the degree-d piece of the ideal of maximal minors of M
    with its first row deleted?"""
    if not M.is_square():
        raise ValueError("expected a square matrix")
    d = M.nrows
    for row in M.entries:
        for f in row:
            if not f.is_zero() and f.degree != 1:
                raise ValueError("expected a linear matrix")
    keep_rows = list(range(1, d))
    minors = []
    for skip_col in range(d):
        cols = [c for c in range(d) if c != skip_col]
        sub = GradedMatrix(
            M.field,
            M.nvars,
            tuple(M.row_twists[r] for r in keep_rows),
            tuple(M.col_twists[c] for c in cols),
            tuple(tuple(M.entries[r][c] for c in cols) for r in keep_rows),
        )
        minors.append(determinant(sub, seed=seed))
    return form_in_ideal_piece(minors, determinant(M, seed=seed))


def form_in_ideal_piece(gens: Sequence[HomogeneousForm], F: HomogeneousForm) -> bool:
    """Membership of F in the degree-(deg F) piece of the ideal (gens)."""
    gens = [g for g in gens if not g.is_zero()]
    field, nvars, j = F.field, F.nvars, F.degree
    to_basis = monomial_basis(nvars, j)
    blocks = []
    for g in gens:
        if g.degree > j:
            continue
        blocks.append(multiplication_matrix(g, monomial_basis(nvars, j - g.degree), to_basis))
    if not blocks:
        return F.is_zero()
    span = np.hstack(blocks)
    base_rank = exactlin.rank(ScalarMatrix(field, span))
    vec = F.coefficient_vector(to_basis).reshape(-1, 1)
    aug_rank = exactlin.rank(ScalarMatrix(field, np.hstack([span, vec])))
    return aug_rank == base_rank
