"""Graded polynomial matrices with exact determinants and pfaffians.

A GradedMatrix carries row twists d_i and column twists e_j; entry (i, j) is
homogeneous of degree d_i - e_j and forced to zero when that is negative;
`parse_graded_matrix` reads it through the grammar in `mpoly` and refuses a
term in such an entry at the term's line.
Determinants and pfaffians interpolate wherever `mpoly.determines` allows
the degree over GF(p); a small matrix it refuses falls back to the
cofactor/expansion oracle, which is kept independent so that interpolation
can be calibrated against it.

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
from typing import Callable, Sequence

import hashlib

import numpy as np

from . import exactlin, mpoly
from .exactlin import InputError, PrimeField, ScalarMatrix, Singular
from .mpoly import (
    HomogeneousForm,
    ParseError,
    VariableCountMismatch,
    interpolate_many,
    monomial_basis,
    read_header,
    read_term,
    term_lines,
)
# not called here; kept because perfbench/spans.py patches this binding
from .mpoly import sample_points  # noqa: F401
# raised by interpolate_many; kept so callers can catch it from this module
from .mpoly import InterpolationFailure  # noqa: F401
from .rng import FieldRng, derive_seed

GENERAL = "general"
SYMMETRIC = "symmetric"
SKEW = "skew"
_SYMMETRIES = (GENERAL, SYMMETRIC, SKEW)

EXPANSION_CUTOFF_DET = 6
EXPANSION_CUTOFF_PF = 8


class SizeMismatch(InputError):
    pass


class GradedMatrix:
    """Matrix of homogeneous forms with row/column twists and a symmetry tag."""

    __slots__ = (
        "field", "nvars", "row_twists", "col_twists", "entries", "symmetry", "_stacks", "_witness"
    )

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
            raise InputError(f"unknown symmetry tag {symmetry!r}")
        rows = tuple(int(t) for t in row_twists)
        cols = tuple(int(t) for t in col_twists)
        if len(entries) != len(rows):
            raise SizeMismatch(f"{len(entries)} entry rows for {len(rows)} twists")
        grid: list[tuple[HomogeneousForm, ...]] = []
        by_degree: dict[int, list[tuple[int, HomogeneousForm]]] = {}
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
                    raise InputError(f"entry ({i},{j}) lives in the wrong ring")
                if not entry.is_zero():
                    if deg < 0:
                        raise InputError(
                            f"entry ({i},{j}) must vanish: twist gap {deg} < 0"
                        )
                    if entry.degree != deg:
                        raise InputError(
                            f"entry ({i},{j}) has degree {entry.degree}, twists give {deg}"
                        )
                    by_degree.setdefault(deg, []).append((i * len(cols) + j, entry))
                out_row.append(entry)
            grid.append(tuple(out_row))
        self.field = field
        self.nvars = nvars
        self.row_twists = rows
        self.col_twists = cols
        self.entries = tuple(grid)
        self.symmetry = symmetry
        # per degree: (basis, flat slots, basis x slots float64 coefficients)
        # of the nonzero entries, for `evaluate_batch`
        self._stacks = tuple(
            (
                monomial_basis(nvars, deg),
                [slot for slot, _ in group],
                np.stack([f.vector for _, f in group], axis=1, dtype=np.float64),
            )
            for deg, group in by_degree.items()
        )
        # whether a point shows M injective, filled by the first
        # `graded.coker_hilbert` that asks; `__eq__` ignores it, as `_stacks`
        self._witness = None
        if symmetry in (SYMMETRIC, SKEW):
            self._check_pairing(skew=(symmetry == SKEW))

    def _check_pairing(self, skew: bool) -> None:
        if len(self.row_twists) != len(self.col_twists):
            raise SizeMismatch(f"{self.symmetry} matrix must be square")
        sums = {d + e for d, e in zip(self.row_twists, self.col_twists)}
        if len(sums) > 1:
            raise InputError(
                f"{self.symmetry} tag needs col twists of the form t - row twists"
            )
        n = len(self.row_twists)
        p = self.field.p
        for i in range(n):
            if skew and not self.entries[i][i].is_zero():
                raise InputError(f"skew matrix has nonzero diagonal at {i}")
            for j in range(i + 1, n):
                mirror = self.entries[j][i].vector
                if not np.array_equal(self.entries[i][j].vector, -mirror % p if skew else mirror):
                    raise InputError(f"{self.symmetry} mirror fails at ({i},{j})")

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

    def evaluate(self, point: Sequence[int]) -> ScalarMatrix:
        """M at one point: for each entry degree, one product of the basis
        monomials there, from the point's own power rows, with the entries'
        coefficient vectors.  It shares nothing with `evaluate_batch`, which
        the tests check against it."""
        if len(point) != self.nvars:
            raise VariableCountMismatch(f"point has {len(point)} coordinates")
        p = self.field.p
        flat = [f for row in self.entries for f in row]
        by_degree: dict[int, list[int]] = {}
        for slot, f in enumerate(flat):
            by_degree.setdefault(f.degree, []).append(slot)
        out = np.zeros(len(flat), dtype=np.int64)
        for degree, slots in by_degree.items():
            values = mpoly._monomial_values(point, monomial_basis(self.nvars, degree), p)
            vectors = np.stack([flat[slot].vector for slot in slots], axis=1)
            out[slots] = exactlin._matmul(values[None], vectors, p)[0]
        return ScalarMatrix(self.field, out.reshape(self.nrows, self.ncols))

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """(npoints, nrows, ncols) stack of M(x) as float64 residues
        (`exactlin`'s float64 contract), as `LinearSkewMatrix.evaluate_batch`
        gives.

        The nonzero entries of each degree share one Vandermonde matrix of
        the points, multiplied by their coefficient vectors, which the
        constructor stacks once.  When one degree fills every slot, that
        product's own output is the stack, with no copy.
        """
        p = self.field.p
        shape = (points.shape[0], self.nrows, self.ncols)
        if len(self._stacks) == 1 and len(self._stacks[0][1]) == self.nrows * self.ncols:
            basis, _, coeffs = self._stacks[0]
            return exactlin._matmul(mpoly.vandermonde(points, basis, p), coeffs, p).reshape(shape)
        out = np.zeros((points.shape[0], self.nrows * self.ncols))
        for basis, slots, coeffs in self._stacks:
            out[:, slots] = exactlin._matmul(mpoly.vandermonde(points, basis, p), coeffs, p)
        return out.reshape(shape)

    # ---- text format ------------------------------------------------------

    def to_text(self) -> str:
        lines = [
            f"gradedmatrix p={self.field.p} nvars={self.nvars} symmetry={self.symmetry}",
            "rows " + " ".join(str(t) for t in self.row_twists),
            "cols " + " ".join(str(t) for t in self.col_twists),
        ]
        for i in range(self.nrows):
            for j in range(self.ncols):
                terms = term_lines(self.entries[i][j])
                lines.append(f"entry {i} {j} nterms={len(terms)}")
                lines += terms
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


def parse_graded_matrix(text: str, field: PrimeField | None = None) -> GradedMatrix:
    lines = text.splitlines()
    header = rows = cols = None
    terms: dict[tuple[int, int], dict] = {}
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1  # now the 1-based number of `line`
        if not line or line.startswith("#"):
            continue
        if line.startswith("gradedmatrix "):
            f, header = read_header(i, line, field, nvars=int, symmetry=str)
            header_no = i
            if header["symmetry"] not in _SYMMETRIES:
                raise ParseError(i, f"unknown symmetry tag {header['symmetry']!r}")
        elif line.startswith(("rows ", "cols ")):
            try:
                twists = tuple(int(v) for v in line.split()[1:])
            except ValueError as exc:
                raise ParseError(i, f"non-integer twist: {exc}") from exc
            rows, cols = (twists, cols) if line.startswith("rows ") else (rows, twists)
        elif line.startswith("entry "):
            if header is None or rows is None or cols is None:
                raise ParseError(i, "entry before header/twists")
            parts = line.split()
            try:
                r, c = int(parts[1]), int(parts[2])
                key, count = parts[3].split("=", 1)
                nterms = int(count)
            except (IndexError, ValueError) as exc:
                raise ParseError(i, f"bad entry header: {exc}") from exc
            if key != "nterms" or len(parts) != 4:
                raise ParseError(i, f"bad entry header {line!r}: expected 'entry ROW COL nterms=K'")
            if not (0 <= r < len(rows) and 0 <= c < len(cols)):
                raise ParseError(
                    i, f"entry ({r}, {c}) outside the {len(rows)}x{len(cols)} matrix"
                )
            if (r, c) in terms:
                raise ParseError(i, f"duplicate entry ({r}, {c})")
            coeffs = terms[(r, c)] = {}
            for _ in range(nterms):
                if i >= len(lines):
                    raise ParseError(i, "unexpected end of file inside entry")
                i += 1
                # a negative twist gap admits no term: the entry must vanish
                exp, coeff = read_term(i, lines[i - 1], header["nvars"], rows[r] - cols[c])
                if exp in coeffs:
                    raise ParseError(i, f"duplicate exponent {exp}")
                coeffs[exp] = coeff
        else:
            raise ParseError(i, f"unrecognized line {line!r}")
    if header is None or rows is None or cols is None:
        raise ParseError(0, "missing matrix header or twist lines")
    nvars = header["nvars"]
    try:
        grid = [
            [
                HomogeneousForm(f, nvars, max(d - e, 0), terms[(r, c)])
                if (r, c) in terms
                else None
                for c, e in enumerate(cols)
            ]
            for r, d in enumerate(rows)
        ]
        return GradedMatrix(f, nvars, rows, cols, grid, header["symmetry"])
    except ValueError as exc:
        raise ParseError(header_no, str(exc)) from exc


class LinearSkewMatrix:
    """Skew matrix of linear forms, stored as coefficient matrices M_k.

    M(x) = sum_k x_k M_k with each M_k skew-symmetric over GF(p); `to_graded`
    is its GradedMatrix view (twists 0 / -1).
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
        # draws fill each M_k's upper triangle in row-major order
        i, j = np.triu_indices(size, 1)
        v = rng.below_many(field.p, nvars * len(i)).reshape(nvars, -1)
        coeff = np.zeros((nvars, size, size), dtype=np.int64)
        coeff[:, i, j] = v
        coeff[:, j, i] = (-v) % field.p
        return cls(field, nvars, coeff)

    def evaluate(self, point: Sequence[int]) -> ScalarMatrix:
        x = np.mod(np.asarray(point, dtype=np.int64), self.field.p)
        acc = np.zeros((self.size, self.size), dtype=np.int64)
        for k in range(self.nvars):
            acc = (acc + int(x[k]) * self.coeff[k]) % self.field.p
        return ScalarMatrix(self.field, acc)

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """(npoints, size, size) stack of M(x) as float64 residues
        (`exactlin`'s float64 contract): one `exactlin._matmul` of the points
        with the flattened M_k.  Each entry sums nvars products of two
        residues, so while nvars*(p-1)**2 + p < 2**53 that is one float64
        product, reduced in place; above that `_matmul` splits it."""
        p = self.field.p
        pts = np.mod(np.asarray(points, dtype=np.int64), p)
        flat = self.coeff.reshape(self.nvars, -1)
        return exactlin._matmul(pts, flat, p).reshape(-1, self.size, self.size)

    def to_graded(self) -> GradedMatrix:
        # the linear monomials run X_0, ..., X_{nvars-1}, so entry (i, j)
        # has the coefficient vector M[:, i, j]
        basis = monomial_basis(self.nvars, 1)
        entries = [
            [HomogeneousForm.from_coefficient_vector(self.field, basis, v) for v in row]
            for row in self.coeff.transpose(1, 2, 0)
        ]
        return GradedMatrix(
            self.field,
            self.nvars,
            (0,) * self.size,
            (-1,) * self.size,
            entries,
            SKEW,
        )

    def content_hash(self) -> str:
        """`to_graded().content_hash()`, with the text written straight from
        the coefficients: the term of X_k in entry (i, j) is M_k[i, j], and
        terms follow the canonical order of the linear monomials."""
        n = self.size
        basis = monomial_basis(self.nvars, 1)
        linear = [(e.index(1), " ".join(map(str, e))) for e in basis.exponents]
        lines = [
            f"gradedmatrix p={self.field.p} nvars={self.nvars} symmetry={SKEW}",
            "rows " + " ".join(["0"] * n),
            "cols " + " ".join(["-1"] * n),
        ]
        for i, row in enumerate(self.coeff.transpose(1, 2, 0).tolist()):
            for j, cs in enumerate(row):
                terms = [f"{cs[k]}  {exponent}" for k, exponent in linear if cs[k]]
                lines.append(f"entry {i} {j} nterms={len(terms)}")
                lines += terms
        return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


# ---- symbolic expansion oracles ----------------------------------------------


def _expand(
    M: GradedMatrix, state: tuple[int, ...], pairing: bool, memo: dict
) -> HomogeneousForm:
    """The expansion of M over the indices `state` still to expand, memoized
    in `memo` on the state.

    Determinant (`pairing` False): the state holds the columns left, and row
    n - len(state) is expanded along them.  Pfaffian: the state holds the
    rows and columns left, and its first index pairs with each of the
    others.  The term that deletes the t-th index of what is left has sign
    (-1)^t, and a state's degree comes from the twists; a state of negative
    degree is the zero form of degree 0.
    """
    if not state:
        return HomogeneousForm.constant(M.field, M.nvars, 1)
    if state in memo:
        return memo[state]
    if pairing:
        i, rest = state[0], state[1:]
        degree = sum(M.row_twists[k] - M.col_twists[k] for k in state) // 2
    else:
        i, rest = M.nrows - len(state), state
        degree = sum(M.row_twists[i:]) - sum(M.col_twists[k] for k in state)
    acc = HomogeneousForm.zero(M.field, M.nvars, max(degree, 0))
    for t, j in enumerate(rest):
        entry = M.entries[i][j]
        if entry.is_zero():
            continue
        sub = _expand(M, rest[:t] + rest[t + 1 :], pairing, memo)
        if not sub.is_zero():
            acc = acc - entry * sub if t % 2 else acc + entry * sub
    memo[state] = acc
    return acc


def determinant_expansion(M: GradedMatrix) -> HomogeneousForm:
    """Cofactor expansion along rows, memoized on column subsets.

    Exponential in the size; this is the independent oracle the interpolation
    route is calibrated against.
    """
    if not M.is_square():
        raise SizeMismatch("determinant of a non-square matrix")
    return _expand(M, tuple(range(M.nrows)), False, {})


def pfaffian_expansion(M: GradedMatrix) -> HomogeneousForm:
    """First-row pfaffian expansion, memoized on index subsets."""
    _require_skew(M)
    return _expand(M, tuple(range(M.nrows)), True, {})


def _require_skew(M: GradedMatrix) -> None:
    if M.symmetry != SKEW:
        raise InputError("pfaffian needs the skew symmetry tag")
    if M.nrows % 2 != 0:
        raise exactlin.OddSize(f"pfaffian needs even size, got {M.nrows}")


# ---- interpolated determinant / pfaffian ----------------------------------------


def determinant(M: GradedMatrix, seed: int = 0) -> HomogeneousForm:
    """Exact determinant form: interpolated where `mpoly.determines` allows
    the degree, else expanded up to size EXPANSION_CUTOFF_DET."""
    if not M.is_square():
        raise SizeMismatch("determinant of a non-square matrix")
    p = M.field.p
    if M.nrows <= EXPANSION_CUTOFF_DET and not mpoly.determines(M.nvars, M.determinant_degree, p):
        return determinant_expansion(M)
    seed = derive_seed(seed, "det")
    (det,) = _interpolate_forms(
        M, M.determinant_degree, lambda a: exactlin._det_array(a, p)[:, None], 1, seed
    )
    return det


def pfaffian(M: GradedMatrix, seed: int = 0) -> HomogeneousForm:
    """Exact pfaffian form of a skew GradedMatrix of even size, routed as
    `determinant` is, with EXPANSION_CUTOFF_PF."""
    _require_skew(M)
    degree = M.determinant_degree // 2
    p = M.field.p
    if M.nrows <= EXPANSION_CUTOFF_PF and not mpoly.determines(M.nvars, degree, p):
        return pfaffian_expansion(M)
    seed = derive_seed(seed, "pf")
    (pf,) = _interpolate_forms(M, degree, lambda a: exactlin._pfaffian_array(a, p)[:, None], 1, seed)
    return pf


def maximal_minors(M: GradedMatrix, seed: int = 0) -> list[HomogeneousForm]:
    """The minors of a k x (k+1) matrix, the one deleting column j at index j.

    Minors of one degree come from one interpolation, whose black box takes
    the determinants of all k x k column-deleted stacks in one batched
    elimination, under the degree rule of `mpoly.interpolate_many`.  A
    minor of negative degree is zero.
    """
    k = M.nrows
    if M.ncols != k + 1:
        raise SizeMismatch(f"expected a k x (k+1) matrix, got {k}x{M.ncols}")
    p = M.field.p
    base = sum(M.row_twists) - sum(M.col_twists)
    by_degree: dict[int, list[int]] = {}
    for j, e in enumerate(M.col_twists):
        by_degree.setdefault(base + e, []).append(j)
    minors: dict[int, HomogeneousForm] = {}
    for degree, skipped in by_degree.items():

        def values(stack: np.ndarray, skipped=skipped) -> np.ndarray:
            subs = np.stack([np.delete(stack, j, axis=2) for j in skipped], axis=1)
            dets = exactlin._det_array(subs.reshape(len(stack) * len(skipped), k, k), p)
            return dets.reshape(len(stack), len(skipped))

        forms = _interpolate_forms(
            M, degree, values, len(skipped), derive_seed(seed, "minors", degree)
        )
        minors.update(zip(skipped, forms))
    return [minors[j] for j in range(k + 1)]


def _interpolate_forms(
    M: GradedMatrix,
    degree: int,
    values: Callable[[np.ndarray], np.ndarray],
    n_outputs: int,
    seed: int,
) -> list[HomogeneousForm]:
    """The degree-`degree` forms x -> values(M(x))[t], by one interpolation.

    `values` maps a (count, nrows, ncols) stack of M(x) to a (count,
    n_outputs) array.  A negative degree gives zero forms of degree 0: a
    form of negative degree is zero.
    """
    if degree < 0:
        return [HomogeneousForm.zero(M.field, M.nvars, 0)] * n_outputs

    def values_fn(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return values(M.evaluate_batch(points)), np.ones(len(points), dtype=bool)

    return interpolate_many(values_fn, M.nvars, degree, M.field, seed, n_outputs)


# ---- submaximal pfaffians ---------------------------------------------------------


def submaximal_pfaffians_by_deletion(M: GradedMatrix) -> dict[tuple[int, int], HomogeneousForm]:
    """Oracle route: delete rows/columns i, j and expand; the C(n, 2)
    expansions share one memo.  Small sizes only."""
    _require_skew(M)
    n, memo = M.nrows, {}
    return {
        (i, j): _expand(M, tuple(k for k in range(n) if k not in (i, j)), True, memo)
        for i in range(n)
        for j in range(i + 1, n)
    }


def submaximal_pfaffians(
    L: LinearSkewMatrix,
    seed: int = 0,
    stats: dict | None = None,
) -> dict[tuple[int, int], HomogeneousForm]:
    """All C(2d, 2) pfaffians of M with row/column pairs deleted, degree d-1.

    One batched inverse per round of sample points
    (`exactlin.invert_skew_many`, as M(x) is skew) yields every value at
    once through the inverse identity
    P_ij(x) = (-1)^(i+j) pf(M(x)) (M(x)^{-1})_{ij}; one lattice solve of
    `interpolate_many` then serves all C(2d, 2) outputs.  Where M(x) is
    singular (for skew M, where pf(M(x)) = 0), a lattice point becomes a
    hole and a stream point is dropped and replaced; `stats` gets the
    counts of `interpolate_many`.
    """
    n = L.size
    if n % 2 != 0:
        raise exactlin.OddSize(f"submaximal pfaffians need even size, got {n}")
    if n < 4:
        raise SizeMismatch("size must be at least 4")
    d = n // 2
    field = L.field
    p = field.p
    upper = np.triu_indices(n, 1)
    pair_sign = np.where((upper[0] + upper[1]) % 2 == 0, 1, p - 1)

    def values_fn(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mats = L.evaluate_batch(points)
        inverses, usable = exactlin.invert_skew_many(mats, p)
        pf = exactlin._pfaffian_array(mats, p)[:, None]
        # int64, so that the products by pair_sign and pf stay exact for p < 2**31
        entries = inverses[:, upper[0], upper[1]].astype(np.int64, copy=False)
        return entries * pair_sign % p * pf % p, usable

    seed = derive_seed(seed, "subpf")
    forms = interpolate_many(values_fn, L.nvars, d - 1, field, seed, len(pair_sign), stats)
    return {(int(i), int(j)): form for i, j, form in zip(*upper, forms)}


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
    p = M.field.p
    basis = monomial_basis(M.nvars, max(M.row_twists[0] - M.col_twists[0], 0))
    b = len(basis)
    # stack[s, t] is the coefficient vector of M[s, t]; A M contracts the
    # first axis, and A (A M)[i] = (A M tA)[i] the second
    stack = np.array(
        [[f.coefficient_vector(basis) for f in row] for row in M.entries], dtype=np.int64
    )
    left = exactlin._matmul(A.a, stack.reshape(n, n * b), p).reshape(n, n, b)
    both = exactlin._matmul(A.a, left, p)
    new_entries = [
        [HomogeneousForm.from_coefficient_vector(M.field, basis, v) for v in row] for row in both
    ]
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
        raise InputError("target form must be nonzero")
    if kind == "det":
        G = determinant(M, seed=seed)
    elif kind == "pf":
        G = pfaffian(M, seed=seed)
    else:
        raise InputError(f"kind must be 'det' or 'pf', got {kind!r}")
    if G.is_zero() or G.nvars != F.nvars or G.degree != F.degree:
        return VerificationResult(False, None)
    p = F.field.p
    first = np.flatnonzero(G.vector)[0]
    c0, f0 = int(G.vector[first]), int(F.vector[first])
    if not f0:
        return VerificationResult(False, None)
    lam = c0 * F.field.inv(f0) % p
    if F.scale(lam) == G:
        return VerificationResult(True, lam)
    return VerificationResult(False, None)
