"""Homogeneous multivariate polynomials over GF(p).

Forms are sparse exponent maps with a canonical graded-lex monomial order:
constructions produce very sparse forms, interpolation produces dense ones,
and both fit the same representation.  Coefficients are plain int residues;
the ambient field travels with the form.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .exactlin import Inconsistent, PrimeField
from .rng import FieldRng


class DegreeMismatch(ValueError):
    pass


class VariableCountMismatch(ValueError):
    pass


class NonUniformImageDegrees(ValueError):
    pass


class BasisMismatch(ValueError):
    pass


class RankNotReached(RuntimeError):
    """Random sampling never spanned the monomial space."""


class DegeneratePencil(RuntimeError):
    """The black box could not be evaluated at too many sample points."""


def monomial_count(nvars: int, degree: int) -> int:
    """Dimension of the space of degree-d forms in `nvars` variables."""
    if nvars < 1:
        raise ValueError("nvars must be at least 1")
    if degree < 0:
        return 0
    return math.comb(degree + nvars - 1, nvars - 1)


def _exponent_tuples(nvars: int, degree: int):
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _exponent_tuples(nvars - 1, degree - first):
            yield (first,) + rest


class MonomialBasis:
    """Canonical ordered basis of the degree-d monomials (graded-lex, X0 first)."""

    __slots__ = ("nvars", "degree", "exponents", "_index")

    def __init__(self, nvars: int, degree: int):
        self.nvars = nvars
        self.degree = degree
        self.exponents: tuple[tuple[int, ...], ...] = (
            tuple(_exponent_tuples(nvars, degree)) if degree >= 0 else ()
        )
        self._index = {e: i for i, e in enumerate(self.exponents)}

    def __len__(self) -> int:
        return len(self.exponents)

    def index(self, exponent: tuple[int, ...]) -> int:
        return self._index[exponent]

    def exponent_array(self) -> np.ndarray:
        return np.array(self.exponents, dtype=np.int64).reshape(len(self), self.nvars)


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, degree: int) -> MonomialBasis:
    return MonomialBasis(nvars, degree)


class HomogeneousForm:
    """Immutable homogeneous form; zero coefficients are never stored."""

    __slots__ = ("field", "nvars", "degree", "coeffs")

    def __init__(self, field: PrimeField, nvars: int, degree: int, coeffs: dict):
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        clean: dict[tuple[int, ...], int] = {}
        for exp, c in coeffs.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise VariableCountMismatch(
                    f"exponent {exp} has {len(exp)} entries, expected {nvars}"
                )
            if any(e < 0 for e in exp) or sum(exp) != degree:
                raise DegreeMismatch(f"exponent {exp} does not have degree {degree}")
            c = int(c) % field.p
            if c:
                clean[exp] = c
        self.field = field
        self.nvars = nvars
        self.degree = degree
        self.coeffs = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField, nvars: int, degree: int) -> "HomogeneousForm":
        return cls(field, nvars, degree, {})

    @classmethod
    def monomial(
        cls, field: PrimeField, exponent: Sequence[int], coeff: int = 1
    ) -> "HomogeneousForm":
        exp = tuple(int(e) for e in exponent)
        return cls(field, len(exp), sum(exp), {exp: coeff})

    @classmethod
    def variable(
        cls, field: PrimeField, nvars: int, index: int, power: int = 1
    ) -> "HomogeneousForm":
        exp = tuple(power if j == index else 0 for j in range(nvars))
        return cls(field, nvars, power, {exp: 1})

    @classmethod
    def constant(cls, field: PrimeField, nvars: int, value: int) -> "HomogeneousForm":
        return cls(field, nvars, 0, {(0,) * nvars: value})

    @classmethod
    def random(
        cls, field: PrimeField, nvars: int, degree: int, rng: FieldRng
    ) -> "HomogeneousForm":
        basis = monomial_basis(nvars, degree)
        coeffs = {e: rng.below(field.p) for e in basis.exponents}
        return cls(field, nvars, degree, coeffs)

    @classmethod
    def from_coefficient_vector(
        cls, field: PrimeField, basis: MonomialBasis, vector
    ) -> "HomogeneousForm":
        vec = np.asarray(vector, dtype=np.int64)
        if vec.shape != (len(basis),):
            raise BasisMismatch(f"vector length {vec.shape} != basis size {len(basis)}")
        coeffs = {e: int(v) for e, v in zip(basis.exponents, vec) if v % field.p}
        return cls(field, basis.nvars, basis.degree, coeffs)

    # ---- ring structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compatible(self, other: "HomogeneousForm", same_degree: bool) -> None:
        if not isinstance(other, HomogeneousForm):
            raise TypeError("expected a HomogeneousForm")
        if other.field != self.field:
            raise TypeError("forms live over different fields")
        if other.nvars != self.nvars:
            raise VariableCountMismatch(f"{self.nvars} vs {other.nvars} variables")
        if same_degree and other.degree != self.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        self._check_compatible(other, same_degree=True)
        coeffs = dict(self.coeffs)
        p = self.field.p
        for e, c in other.coeffs.items():
            v = (coeffs.get(e, 0) + c) % p
            if v:
                coeffs[e] = v
            else:
                coeffs.pop(e, None)
        return HomogeneousForm(self.field, self.nvars, self.degree, coeffs)

    def __neg__(self) -> "HomogeneousForm":
        p = self.field.p
        return HomogeneousForm(
            self.field, self.nvars, self.degree, {e: p - c for e, c in self.coeffs.items()}
        )

    def __sub__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return self + (-other)

    def scale(self, scalar: int) -> "HomogeneousForm":
        s = scalar % self.field.p
        return HomogeneousForm(
            self.field, self.nvars, self.degree, {e: c * s for e, c in self.coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other, same_degree=False)
        p = self.field.p
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = (out.get(e, 0) + c1 * c2) % p
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return HomogeneousForm(self.field, self.nvars, self.degree + other.degree, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogeneousForm)
            and other.field == self.field
            and other.nvars == self.nvars
            and other.degree == self.degree
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.nvars, self.degree, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        basis = monomial_basis(self.nvars, self.degree)
        for e in basis.exponents:
            if e not in self.coeffs:
                continue
            mono = "*".join(
                f"X{j}" if k == 1 else f"X{j}^{k}" for j, k in enumerate(e) if k
            )
            c = self.coeffs[e]
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)

    # ---- evaluation and substitution ------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.nvars:
            raise VariableCountMismatch(f"point has {len(point)} coordinates")
        p = self.field.p
        pt = [int(x) % p for x in point]
        powers = [_power_row(x, self.degree, p) for x in pt]
        total = 0
        for e, c in self.coeffs.items():
            v = c
            for j, k in enumerate(e):
                if k:
                    v = v * powers[j][k] % p
            total = (total + v) % p
        return total

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an (n, nvars) array of points."""
        basis = monomial_basis(self.nvars, self.degree)
        vec = self.coefficient_vector(basis)
        V = vandermonde(points, basis, self.field.p)
        p = self.field.p
        out = np.zeros(points.shape[0], dtype=np.int64)
        nz = np.nonzero(vec)[0]
        for idx in nz:
            out = (out + V[:, idx] * int(vec[idx])) % p
        return out

    def substitute(self, images: Sequence["HomogeneousForm"]) -> "HomogeneousForm":
        if len(images) != self.nvars:
            raise VariableCountMismatch(
                f"{len(images)} images for {self.nvars} variables"
            )
        degrees = {g.degree for g in images}
        if len(degrees) != 1:
            raise NonUniformImageDegrees(f"image degrees {sorted(degrees)}")
        m = degrees.pop()
        out_nvars = images[0].nvars
        for g in images:
            if g.nvars != out_nvars or g.field != self.field:
                raise VariableCountMismatch("images disagree on ring")
        out_degree = m * self.degree
        result = HomogeneousForm.zero(self.field, out_nvars, out_degree)
        power_cache: dict[tuple[int, int], HomogeneousForm] = {}

        def img_power(j: int, k: int) -> HomogeneousForm:
            if (j, k) not in power_cache:
                if k == 0:
                    power_cache[(j, k)] = HomogeneousForm.constant(self.field, out_nvars, 1)
                else:
                    power_cache[(j, k)] = img_power(j, k - 1) * images[j]
            return power_cache[(j, k)]

        for e, c in self.coeffs.items():
            term = HomogeneousForm.constant(self.field, out_nvars, c)
            for j, k in enumerate(e):
                if k:
                    term = term * img_power(j, k)
            result = result + term
        return result

    def partial_derivative(self, index: int) -> "HomogeneousForm":
        if self.degree == 0:
            raise DegreeMismatch("derivative of a constant form has negative degree")
        p = self.field.p
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.coeffs.items():
            k = e[index]
            if k == 0:
                continue
            e2 = tuple(v - 1 if j == index else v for j, v in enumerate(e))
            v = (out.get(e2, 0) + c * k) % p
            if v:
                out[e2] = v
            else:
                out.pop(e2, None)
        return HomogeneousForm(self.field, self.nvars, self.degree - 1, out)

    # ---- coordinates -----------------------------------------------------

    def coefficient_vector(self, basis: MonomialBasis) -> np.ndarray:
        if basis.nvars != self.nvars or basis.degree != self.degree:
            raise BasisMismatch(
                f"basis ({basis.nvars}, {basis.degree}) vs form "
                f"({self.nvars}, {self.degree})"
            )
        vec = np.zeros(len(basis), dtype=np.int64)
        for e, c in self.coeffs.items():
            vec[basis.index(e)] = c
        return vec

    # ---- text format ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"form nvars={self.nvars} degree={self.degree} p={self.field.p}"]
        basis = monomial_basis(self.nvars, self.degree)
        for e in basis.exponents:
            if e in self.coeffs:
                lines.append(f"{self.coeffs[e]}  " + " ".join(str(k) for k in e))
        return "\n".join(lines) + "\n"


def _power_row(x: int, degree: int, p: int) -> list[int]:
    row = [1] * (degree + 1)
    for k in range(1, degree + 1):
        row[k] = row[k - 1] * x % p
    return row


class FormParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_form(text: str, field: PrimeField | None = None) -> HomogeneousForm:
    forms = parse_forms(text, field)
    if len(forms) != 1:
        raise ValueError(f"expected exactly one form, found {len(forms)}")
    return forms[0]


def parse_forms(text: str, field: PrimeField | None = None) -> list[HomogeneousForm]:
    """Parse one or more concatenated form blocks."""
    forms: list[HomogeneousForm] = []
    header: dict | None = None
    coeffs: dict = {}

    def flush(line_no: int):
        nonlocal header, coeffs
        if header is not None:
            forms.append(
                HomogeneousForm(header["field"], header["nvars"], header["degree"], coeffs)
            )
        header = None
        coeffs = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("form "):
            flush(line_no)
            fields = dict(part.split("=", 1) for part in line.split()[1:])
            try:
                nvars = int(fields["nvars"])
                degree = int(fields["degree"])
                p = int(fields["p"])
            except (KeyError, ValueError) as exc:
                raise FormParseError(line_no, f"bad form header: {exc}") from exc
            f = field if field is not None else PrimeField(p)
            if f.p != p:
                raise FormParseError(line_no, f"form modulus {p} != context {f.p}")
            header = {"field": f, "nvars": nvars, "degree": degree}
            continue
        if header is None:
            raise FormParseError(line_no, "term before any form header")
        parts = line.split()
        if len(parts) != header["nvars"] + 1:
            raise FormParseError(
                line_no, f"expected coeff + {header['nvars']} exponents, got {len(parts)} fields"
            )
        try:
            coeff = int(parts[0])
            exp = tuple(int(v) for v in parts[1:])
        except ValueError as exc:
            raise FormParseError(line_no, f"non-integer field: {exc}") from exc
        if exp in coeffs:
            raise FormParseError(line_no, f"duplicate exponent {exp}")
        coeffs[exp] = coeff
    flush(-1)
    return forms


# ---- graded-piece helpers ---------------------------------------------------


def multiplication_matrix(
    g: HomogeneousForm, from_basis: MonomialBasis, to_basis: MonomialBasis
) -> np.ndarray:
    """Coefficient matrix of multiplication by g : S_j -> S_{j + deg g}."""
    if from_basis.nvars != g.nvars or to_basis.nvars != g.nvars:
        raise BasisMismatch("variable count mismatch")
    if to_basis.degree != from_basis.degree + g.degree:
        raise BasisMismatch(
            f"target degree {to_basis.degree} != {from_basis.degree} + {g.degree}"
        )
    p = g.field.p
    out = np.zeros((len(to_basis), len(from_basis)), dtype=np.int64)
    for col, m in enumerate(from_basis.exponents):
        for e, c in g.coeffs.items():
            target = tuple(a + b for a, b in zip(m, e))
            row = to_basis.index(target)
            out[row, col] = (out[row, col] + c) % p
    return out


# ---- black-box interpolation -------------------------------------------------


def sample_points(
    field: PrimeField, nvars: int, seed: int, start: int, count: int
) -> np.ndarray:
    """Points start..start+count-1 of the deterministic per-index stream."""
    pts = np.empty((count, nvars), dtype=np.int64)
    for i in range(count):
        rng = FieldRng(seed, "point", start + i)
        for j in range(nvars):
            pts[i, j] = rng.below(field.p)
    return pts


def vandermonde(points: np.ndarray, basis: MonomialBasis, p: int) -> np.ndarray:
    """Monomial evaluation matrix: rows are points, columns follow the basis."""
    points = np.asarray(points, dtype=np.int64) % p
    npts = points.shape[0]
    E = basis.exponent_array()
    V = np.ones((npts, len(basis)), dtype=np.int64)
    maxdeg = basis.degree
    for j in range(basis.nvars):
        pw = np.ones((npts, maxdeg + 1), dtype=np.int64)
        for k in range(1, maxdeg + 1):
            pw[:, k] = pw[:, k - 1] * points[:, j] % p
        V = V * pw[:, E[:, j]] % p
    return V


def check_degenerate(drawn: int, dropped: int) -> None:
    """Raise DegeneratePencil if over half of 16 or more drawn points were dropped."""
    if drawn >= 16 and 2 * dropped > drawn:
        raise DegeneratePencil(f"unusable at {dropped} of {drawn} sample points")


def interpolate_many(
    values_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    nvars: int,
    degree: int,
    field: PrimeField,
    seed: int,
    n_outputs: int,
    stats: dict | None = None,
) -> np.ndarray:
    """Recover coefficient vectors of homogeneous forms from a batched black box.

    `values_fn(points)` returns `(values, usable)`: an (npoints, n_outputs)
    array of exact values and a bool mask of the points it could evaluate.
    Points outside the mask are dropped and replaced by the next points of
    the same stream, which is indexed by the number of points drawn so far;
    `check_degenerate` stops a black box that drops too many.  The loop
    keeps ceil(1.1 N) usable points for the N monomials, doubling up to 4 N
    while the evaluation matrix is rank deficient.  One elimination of that
    matrix serves every output column.  Returns an (n_monomials, n_outputs)
    coefficient array; `stats`, when given, gets `points_used` (points
    drawn) and `points_degenerate` (points dropped).
    """
    from .exactlin import _back_substitute, _forward_eliminate

    basis = monomial_basis(nvars, degree)
    ncols = len(basis)
    p = field.p
    points = np.empty((0, nvars), dtype=np.int64)
    values = np.empty((0, n_outputs), dtype=np.int64)
    drawn = 0
    target = max(ncols, math.ceil(ncols * 1.1))
    cap = max(target, 4 * ncols)
    while True:
        while len(points) < target:
            fresh = sample_points(field, nvars, seed, drawn, target - len(points))
            drawn += len(fresh)
            vals, usable = values_fn(fresh)
            vals = np.asarray(vals, dtype=np.int64) % p
            usable = np.asarray(usable, dtype=bool)
            if vals.shape != (len(fresh), n_outputs) or usable.shape != (len(fresh),):
                raise ValueError(
                    f"black box returned shapes {vals.shape} and {usable.shape}"
                )
            points = np.vstack([points, fresh[usable]])
            values = np.vstack([values, vals[usable]])
            dropped = drawn - len(points)
            if stats is not None:
                stats.update(points_used=drawn, points_degenerate=dropped)
            check_degenerate(drawn, dropped)
        V = vandermonde(points, basis, p)
        m = np.hstack([V, values])
        pivots, _ = _forward_eliminate(m, p, ncols)
        if len(pivots) == ncols:
            if m[ncols:, ncols:].any():
                raise Inconsistent(
                    "sampled values are not the evaluations of a single "
                    f"degree-{degree} form"
                )
            _back_substitute(m, p, pivots)
            return m[:ncols, ncols:].copy()
        if target >= cap:
            raise RankNotReached(
                f"evaluation matrix stuck at rank {len(pivots)} < {ncols} "
                f"after {target} points"
            )
        target = min(cap, target * 2)


def interpolate_homogeneous(
    black_box: Callable[[Sequence[int]], int],
    nvars: int,
    degree: int,
    field: PrimeField,
    seed: int,
) -> HomogeneousForm:
    """Recover the unique degree-d form whose evaluations the black box returns."""

    def values_fn(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = [[int(black_box(tuple(int(x) for x in pt)))] for pt in points]
        return np.array(values, dtype=np.int64), np.ones(len(points), dtype=bool)

    coeffs = interpolate_many(values_fn, nvars, degree, field, seed, 1)
    basis = monomial_basis(nvars, degree)
    return HomogeneousForm.from_coefficient_vector(field, basis, coeffs[:, 0])
