"""Homogeneous multivariate polynomials over GF(p).

A form of degree d in n variables is one int64 vector of residues over the
C(d+n-1, n-1) monomials of degree d, in a canonical graded-lex order, so
the arrays of interpolation and evaluation are its own storage and ring
arithmetic is vector arithmetic.  A sparse form pays for its whole basis:
the Fermat form of degree 100 in 4 variables holds 176,851 entries for 4
terms.  The ambient field travels with the form.

This module owns the grammar of the three text formats: forms here, graded
matrices in `polymat` and point sets in `graded`.  Each file opens with a
`tag p=... key=value ...` header (`read_header`); form and matrix terms are
lines `coeff e_0 ... e_{n-1}` (`read_term`).  A malformed line, or a file
the object's constructor rejects, raises `ParseError` naming a line.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .exactlin import (
    TABLE_PRIME_LIMIT,
    Inconsistent,
    InputError,
    PrimeField,
    _inverse_residues,
    _log_tables,
    _matmul,
    _reduce_float,
)
from .rng import FieldRng, below_table


class DegreeMismatch(ValueError):
    pass


class VariableCountMismatch(ValueError):
    pass


class NonUniformImageDegrees(ValueError):
    pass


class BasisMismatch(ValueError):
    pass


class InterpolationFailure(RuntimeError, InputError):
    """GF(p) is too small to recover the asked-for forms by sampling."""


class DegeneratePencil(RuntimeError, InputError):
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

    __slots__ = ("nvars", "degree", "exponents", "_index", "_array")

    def __init__(self, nvars: int, degree: int):
        self.nvars = nvars
        self.degree = degree
        self.exponents: tuple[tuple[int, ...], ...] = (
            tuple(_exponent_tuples(nvars, degree)) if degree >= 0 else ()
        )
        self._index = {e: i for i, e in enumerate(self.exponents)}
        self._array = None

    def __len__(self) -> int:
        return len(self.exponents)

    def index(self, exponent: tuple[int, ...]) -> int:
        return self._index[exponent]

    def exponent_array(self) -> np.ndarray:
        """The exponents as one read-only (len, nvars) int64 array, built on
        first use and shared by every caller."""
        if self._array is None:
            array = np.array(self.exponents, dtype=np.int64).reshape(len(self), self.nvars)
            array.flags.writeable = False
            self._array = array
        return self._array


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, degree: int) -> MonomialBasis:
    return MonomialBasis(nvars, degree)


class HomogeneousForm:
    """Immutable homogeneous form: one read-only int64 vector of residues over
    `monomial_basis(nvars, degree)`.  A sparse form of high degree costs its
    whole basis; `coeffs` is the dict of its nonzero terms, built on demand."""

    __slots__ = ("field", "nvars", "degree", "vector")

    def __init__(self, field: PrimeField, nvars: int, degree: int, coeffs: dict):
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        basis = monomial_basis(nvars, degree)
        vec = np.zeros(len(basis), dtype=np.int64)
        for exp, c in coeffs.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise VariableCountMismatch(
                    f"exponent {exp} has {len(exp)} entries, expected {nvars}"
                )
            if any(e < 0 for e in exp) or sum(exp) != degree:
                raise DegreeMismatch(f"exponent {exp} does not have degree {degree}")
            vec[basis.index(exp)] = int(c) % field.p
        self._hold(field, nvars, degree, vec)

    def _hold(self, field: PrimeField, nvars: int, degree: int, vector: np.ndarray) -> None:
        vector.flags.writeable = False
        self.field = field
        self.nvars = nvars
        self.degree = degree
        self.vector = vector

    @classmethod
    def _of(cls, field: PrimeField, nvars: int, degree: int, vector: np.ndarray):
        """The form of a fresh int64 vector of residues over its basis, held
        without a copy or a check."""
        form = cls.__new__(cls)
        form._hold(field, nvars, degree, vector)
        return form

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
        return cls.from_coefficient_vector(
            field, basis, [rng.below(field.p) for _ in basis.exponents]
        )

    @classmethod
    def from_coefficient_vector(
        cls, field: PrimeField, basis: MonomialBasis, vector
    ) -> "HomogeneousForm":
        vec = np.asarray(vector, dtype=np.int64)
        if vec.shape != (len(basis),):
            raise BasisMismatch(f"vector length {vec.shape} != basis size {len(basis)}")
        return cls._of(field, basis.nvars, basis.degree, vec % field.p)

    # ---- ring structure ------------------------------------------------

    @property
    def coeffs(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms())

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """The nonzero (exponent, coefficient) pairs, in basis order."""
        exponents = monomial_basis(self.nvars, self.degree).exponents
        return [(e, c) for e, c in zip(exponents, self.vector.tolist()) if c]

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.vector)

    def _check_compatible(self, other: "HomogeneousForm", same_degree: bool) -> None:
        if not isinstance(other, HomogeneousForm):
            raise TypeError("expected a HomogeneousForm")
        if other.field != self.field:
            raise TypeError("forms live over different fields")
        if other.nvars != self.nvars:
            raise VariableCountMismatch(f"{self.nvars} vs {other.nvars} variables")
        if same_degree and other.degree != self.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")

    def _like(self, vector: np.ndarray) -> "HomogeneousForm":
        return HomogeneousForm._of(self.field, self.nvars, self.degree, vector)

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        self._check_compatible(other, same_degree=True)
        return self._like((self.vector + other.vector) % self.field.p)

    def __neg__(self) -> "HomogeneousForm":
        return self._like(-self.vector % self.field.p)

    def __sub__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        self._check_compatible(other, same_degree=True)
        return self._like((self.vector - other.vector) % self.field.p)

    def scale(self, scalar: int) -> "HomogeneousForm":
        p = self.field.p
        return self._like(self.vector * (scalar % p) % p)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other, same_degree=False)
        p = self.field.p
        degree = self.degree + other.degree
        out = np.zeros(monomial_count(self.nvars, degree), dtype=np.int64)
        # each term of self shifts other's basis to distinct rows; every
        # product of two residues is reduced before it is added
        for e, c in self.terms():
            rows = _shifted_rows(self.nvars, other.degree, e)
            out[rows] = (out[rows] + c * other.vector % p) % p
        return HomogeneousForm._of(self.field, self.nvars, degree, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogeneousForm)
            and other.field == self.field
            and other.nvars == self.nvars
            and other.degree == self.degree
            and np.array_equal(other.vector, self.vector)
        )

    def __hash__(self):
        return hash((self.field.p, self.nvars, self.degree, frozenset(self.terms())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.terms():
            mono = "*".join(
                f"X{j}" if k == 1 else f"X{j}^{k}" for j, k in enumerate(e) if k
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)

    # ---- evaluation and substitution ------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        """The form at one point: its coefficient vector against the basis
        monomials there, which come from the point's own power rows."""
        if len(point) != self.nvars:
            raise VariableCountMismatch(f"point has {len(point)} coordinates")
        p = self.field.p
        values = _monomial_values(point, monomial_basis(self.nvars, self.degree), p)
        return int(_matmul(values[None], self.vector[:, None], p)[0, 0])

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

        for e, c in self.terms():
            term = HomogeneousForm.constant(self.field, out_nvars, c)
            for j, k in enumerate(e):
                if k:
                    term = term * img_power(j, k)
            result = result + term
        return result

    def partial_derivative(self, index: int) -> "HomogeneousForm":
        if self.degree == 0:
            raise DegreeMismatch("derivative of a constant form has negative degree")
        unit = [0] * self.nvars
        unit[index] = 1
        # the degree-(d-1) monomial m is the derivative of m * X_index, with
        # the factor m[index] + 1
        rows = _shifted_rows(self.nvars, self.degree - 1, tuple(unit))
        factor = monomial_basis(self.nvars, self.degree - 1).exponent_array()[:, index] + 1
        vec = self.vector[rows] * factor % self.field.p
        return HomogeneousForm._of(self.field, self.nvars, self.degree - 1, vec)

    # ---- coordinates -----------------------------------------------------

    def coefficient_vector(self, basis: MonomialBasis) -> np.ndarray:
        if basis.nvars != self.nvars or basis.degree != self.degree:
            raise BasisMismatch(
                f"basis ({basis.nvars}, {basis.degree}) vs form "
                f"({self.nvars}, {self.degree})"
            )
        return self.vector.copy()

    # ---- text format ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"form nvars={self.nvars} degree={self.degree} p={self.field.p}"]
        lines += term_lines(self)
        return "\n".join(lines) + "\n"


def _power_row(x: int, degree: int, p: int) -> list[int]:
    row = [1] * (degree + 1)
    for k in range(1, degree + 1):
        row[k] = row[k - 1] * x % p
    return row


def _monomial_values(point: Sequence[int], basis: MonomialBasis, p: int) -> np.ndarray:
    """The basis monomials at one point, as int64 residues: each coordinate's
    `_power_row` gathered along its exponents, multiplied together."""
    values = np.ones(len(basis), dtype=np.int64)
    exponents = basis.exponent_array()
    for j, x in enumerate(point):
        row = np.array(_power_row(int(x) % p, basis.degree, p), dtype=np.int64)
        values = values * row[exponents[:, j]] % p
    return values


# ---- text formats -------------------------------------------------------------


class ParseError(InputError):
    """A malformed line of a form, graded-matrix or point-set file."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def read_header(line_no: int, line: str, field: PrimeField | None, **kinds) -> tuple:
    """(field, values) of a `tag p=... key=value ...` line; each keyword names a
    required key and its converter.  A given `field` must match p."""
    tag = line.split()[0]
    try:
        pairs = dict(part.split("=", 1) for part in line.split()[1:])
        p = int(pairs["p"])
        values = {key: kind(pairs[key]) for key, kind in kinds.items()}
        f = field if field is not None else PrimeField(p)
    except (KeyError, ValueError) as exc:
        raise ParseError(line_no, f"bad {tag} header: {exc}") from exc
    if f.p != p:
        raise ParseError(line_no, f"{tag} modulus {p} != context {f.p}")
    return f, values


def read_term(line_no: int, line: str, nvars: int, degree: int) -> tuple[tuple, int]:
    """(exponent, coeff) of a term line `coeff e_0 ... e_{n-1}` of degree `degree`."""
    parts = line.split()
    if len(parts) != nvars + 1:
        raise ParseError(line_no, f"expected coeff + {nvars} exponents, got {len(parts)} fields")
    try:
        coeff, *exponent = (int(v) for v in parts)
    except ValueError as exc:
        raise ParseError(line_no, f"non-integer field: {exc}") from exc
    exponent = tuple(exponent)
    if any(e < 0 for e in exponent) or sum(exponent) != degree:
        raise ParseError(line_no, f"exponent {exponent} does not have degree {degree}")
    return exponent, coeff


def term_lines(f: HomogeneousForm) -> list[str]:
    """The term lines `coeff e_0 ... e_{n-1}` of a form, in basis order."""
    return [f"{c}  " + " ".join(str(k) for k in e) for e, c in f.terms()]


def parse_form(text: str, field: PrimeField | None = None) -> HomogeneousForm:
    forms = parse_forms(text, field)
    if len(forms) != 1:
        raise ParseError(len(text.splitlines()), f"expected exactly one form, found {len(forms)}")
    return forms[0]


def parse_forms(text: str, field: PrimeField | None = None) -> list[HomogeneousForm]:
    """Parse one or more concatenated form blocks."""
    forms: list[HomogeneousForm] = []
    header: tuple | None = None  # (line_no, field, nvars, degree)
    coeffs: dict = {}

    def flush() -> None:
        if header is not None:
            try:
                forms.append(HomogeneousForm(*header[1:], coeffs))
            except ValueError as exc:
                raise ParseError(header[0], str(exc)) from exc

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("form "):
            flush()
            f, values = read_header(line_no, line, field, nvars=int, degree=int)
            header = (line_no, f, values["nvars"], values["degree"])
            coeffs = {}
            continue
        if header is None:
            raise ParseError(line_no, "term before any form header")
        exp, coeff = read_term(line_no, line, header[2], header[3])
        if exp in coeffs:
            raise ParseError(line_no, f"duplicate exponent {exp}")
        coeffs[exp] = coeff
    flush()
    return forms


# ---- graded-piece helpers ---------------------------------------------------


def multiplication_matrix(
    g: HomogeneousForm, from_basis: MonomialBasis, to_basis: MonomialBasis
) -> np.ndarray:
    """Coefficient matrix of multiplication by g : S_j -> S_{j + deg g}, as
    int64 residues: g's nonzero coefficients scattered in one assignment
    through the row table of `_product_rows`."""
    if from_basis.nvars != g.nvars or to_basis.nvars != g.nvars:
        raise BasisMismatch("variable count mismatch")
    if to_basis.degree != from_basis.degree + g.degree:
        raise BasisMismatch(
            f"target degree {to_basis.degree} != {from_basis.degree} + {g.degree}"
        )
    out = np.zeros((len(to_basis), len(from_basis)), dtype=np.int64)
    terms = np.flatnonzero(g.vector)
    rows = _product_rows(g.nvars, from_basis.degree, g.degree)[terms]
    # distinct exponents of g send each column to distinct rows: no sums
    out[rows, np.arange(len(from_basis))] = g.vector[terms, None]
    return out


@lru_cache(maxsize=128)
def _product_rows(nvars: int, degree: int, factor_degree: int) -> np.ndarray:
    """Index of X^e * m in its basis, at row e of the degree-`factor_degree`
    monomials and column m of the degree-`degree` ones: the `_shifted_rows`
    of each e, stacked.  It depends on the degrees alone."""
    exponents = monomial_basis(nvars, factor_degree).exponents
    table = np.stack([_shifted_rows(nvars, degree, e) for e in exponents])
    table.flags.writeable = False  # shared through the cache
    return table


@lru_cache(maxsize=4096)
def _shifted_rows(nvars: int, degree: int, exponent: tuple[int, ...]) -> np.ndarray:
    """Index of m * X^exponent in its basis, for each degree-`degree` monomial m."""
    target = monomial_basis(nvars, degree + sum(exponent))
    rows = np.array(
        [
            target.index(tuple(a + b for a, b in zip(m, exponent)))
            for m in monomial_basis(nvars, degree).exponents
        ],
        dtype=np.intp,
    )
    rows.flags.writeable = False  # shared through the cache
    return rows


# ---- black-box interpolation -------------------------------------------------


def sample_points(
    field: PrimeField, nvars: int, seed: int, start: int, count: int
) -> np.ndarray:
    """Points start..start+count-1 of the deterministic per-index stream:
    point i is nvars draws of FieldRng(seed, "point", i).below(p)."""
    return below_table(seed, "point", start, count, nvars, field.p)


def vandermonde(points: np.ndarray, basis: MonomialBasis, p: int) -> np.ndarray:
    """Monomial evaluation matrix as int64 residues: rows are points,
    columns follow the basis.

    For p < TABLE_PRIME_LIMIT, x**e = g**(e log x) for the primitive root g
    of `exactlin._log_tables`: one float64 product of the coordinates' logs
    with the exponents, reduced mod p - 1, and one gather from the antilog
    table.  An exponent enters the product mod p - 1 once the degree reaches
    p - 1 (Fermat), so every sum is below nvars*(p-1)**2 and exact.  A
    monomial with a positive exponent on a zero coordinate is then set to
    0.  Above the limit it is the power loop `_power_vandermonde`.
    """
    points = np.asarray(points, dtype=np.int64) % p
    exponents = basis.exponent_array()
    if p >= TABLE_PRIME_LIMIT:
        return _power_vandermonde(points, exponents, basis.degree, p)
    log, antilog = _log_tables(p)
    reduced = exponents % (p - 1) if basis.degree >= p - 1 else exponents
    sums = log[points].astype(np.float64) @ reduced.T.astype(np.float64)
    values = antilog[_reduce_float(sums, p - 1, out=sums).astype(np.intp)].astype(np.int64)
    zero = points == 0
    if zero.any():
        values[zero @ (exponents > 0).T] = 0
    return values


def _power_vandermonde(points: np.ndarray, exponents: np.ndarray, degree: int, p: int) -> np.ndarray:
    """`vandermonde` of the residues `points` by repeated multiplication: the
    powers 0..degree of each coordinate, gathered along its exponents."""
    V = np.ones((points.shape[0], len(exponents)), dtype=np.int64)
    for j in range(points.shape[1]):
        pw = np.ones((points.shape[0], degree + 1), dtype=np.int64)
        for k in range(1, degree + 1):
            pw[:, k] = pw[:, k - 1] * points[:, j] % p
        V = V * pw[:, exponents[:, j]] % p
    return V


def check_degenerate(drawn: int, dropped: int, p: int, kind: str = "points") -> None:
    """Raise DegeneratePencil if over half of 16 or more drawn points (or
    the `kind` of sample named) were dropped."""
    if drawn >= 16 and 2 * dropped > drawn:
        raise DegeneratePencil(
            f"unusable at {dropped} of {drawn} sample {kind} over GF({p}); "
            "try a larger prime"
        )


def _evaluate(
    values_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    points: np.ndarray,
    n_outputs: int,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """`values_fn(points)` as (values mod p, usable mask), shapes checked.
    float64 values are residues already (`exactlin`) and are kept as they
    are; any other values are reduced into int64."""
    vals, usable = values_fn(points)
    vals = np.asarray(vals)
    if vals.dtype != np.float64:
        vals = np.asarray(vals, dtype=np.int64) % p
    usable = np.asarray(usable, dtype=bool)
    if vals.shape != (len(points), n_outputs) or usable.shape != (len(points),):
        raise ValueError(f"black box returned shapes {vals.shape} and {usable.shape}")
    return vals, usable


class SampleStream:
    """Distinct draws from the per-index stream of `sample_points`, under
    one rule: a draw tried before is skipped, a draw the black box cannot
    use is replaced, the stream stops once all p^nvars points have been
    tried, and `check_degenerate` refuses a black box that drops too many.

    The caller evaluates each batch inline and reports its usable count:
    `for batch in stream.batches(target): ...; stream.keep(usable)`.
    `drawn` is the stream's cursor, repeats included, and `kept` the usable
    draws.  `keep` counts `seen`, the (evaluated, unusable) points the
    caller tried before the stream, with the draws, names the samples
    `kind` in its error, and writes the totals into `stats`, when given,
    as `points_used` and `points_degenerate`.
    """

    def __init__(
        self,
        field: PrimeField,
        nvars: int,
        seed: int,
        kind: str = "points",
        stats: dict | None = None,
    ):
        self.field, self.nvars, self.seed, self.kind, self.stats = field, nvars, seed, kind, stats
        self.seen = (0, 0)
        self.tried: set = set()
        self.drawn = self.kept = 0

    def draw(self, count: int) -> np.ndarray:
        """The stream's next `count` draws that were not tried before, in
        order; they are tried now."""
        batch = sample_points(self.field, self.nvars, self.seed, self.drawn, count)
        self.drawn += count
        new = []
        for i, x in enumerate(map(tuple, batch.tolist())):
            if x not in self.tried:
                self.tried.add(x)
                new.append(i)
        return batch[new]

    def batches(self, target: int):
        """Fresh batches, each as many draws as are still missing, until
        `target` are kept or every point has been tried."""
        while self.kept < target and len(self.tried) < self.field.p**self.nvars:
            batch = self.draw(target - self.kept)
            if len(batch):
                yield batch

    def keep(self, usable: int) -> None:
        """Count `usable` more draws as kept, then apply `check_degenerate`."""
        self.kept += usable
        used = self.seen[0] + len(self.tried)
        dropped = self.seen[1] + len(self.tried) - self.kept
        if self.stats is not None:
            self.stats.update(points_used=used, points_degenerate=dropped)
        check_degenerate(used, dropped, self.field.p, self.kind)


def _lattice_nodes(field: PrimeField, count: int, seed: int) -> np.ndarray:
    """`count` distinct residues: a partial Fisher-Yates shuffle of 0..p-1,
    held sparsely, driven by the seed's "lattice" stream."""
    rng = FieldRng(seed, "lattice")
    moved: dict[int, int] = {}
    nodes = []
    for i in range(count):
        j = i + rng.below(field.p - i)
        nodes.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(nodes, dtype=np.int64)


def _first_positive(exponents: np.ndarray) -> np.ndarray:
    """Per monomial, the first variable with a positive exponent; the last
    variable for the constant monomial.  This is the monomial's block."""
    nvars = exponents.shape[1]
    return np.where(exponents.any(axis=1), (exponents > 0).argmax(axis=1), nvars - 1)


def principal_lattice(
    field: PrimeField, nvars: int, degree: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(points, nodes): the interpolation points of `interpolate_many`, one
    per monomial of the basis and in its order, and the nodes they use.

    The nodes a are `degree` distinct residues drawn from the seed (none for
    one variable).  The monomial X_k^e X_{k+1}^b_{k+1} ... X_{n-1}^b_{n-1},
    with e > 0 or k = n - 1, owns the point
    (0, ..., 0, 1, a[b_{k+1}], ..., a[b_{n-1}]) with its 1 at index k.
    """
    exps = monomial_basis(nvars, degree).exponent_array()
    nodes = _lattice_nodes(field, degree if nvars > 1 else 0, seed)
    first = _first_positive(exps)[:, None]
    cols = np.arange(nvars)
    # the entries at or before the block index are replaced below, so their
    # exponents, which may exceed degree - 1, are clipped into range
    padded = np.append(nodes, 0)[np.minimum(exps, len(nodes))]
    points = np.where(cols > first, padded, (cols == first).astype(np.int64))
    return points, nodes


def _newton_tables(nodes: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(values -> Newton coefficients, Newton -> monomial coefficients) in
    one variable on the nodes a_0..a_{D-1}.

    Row i of the first is the divided difference f[a_0, ..., a_i] as
    weights of the values f(a_j): lower triangular.  Column k of the
    second holds the coefficients of prod_{i<k} (t - a_i): upper triangular.
    """
    D = len(nodes)
    divided = np.eye(D, dtype=np.int64)
    for j in range(1, D):
        inv = _inverse_residues((nodes[j:] - nodes[:-j]) % p, p)
        divided[j:] = (divided[j:] - divided[j - 1 : -1]) % p * inv[:, None] % p
    newton = np.zeros((D, D), dtype=np.int64)
    newton[:1, :1] = 1
    for k in range(1, D):
        newton[1:, k] = newton[:-1, k - 1]
        newton[:, k] = (newton[:, k] - nodes[k - 1] * newton[:, k - 1]) % p
    return divided, newton


_CUBE_ENTRIES = 1 << 20  # bound on a zero-padded cube of `_solve_block`


def _along_axes(cube: np.ndarray, table: np.ndarray, m: int, p: int) -> np.ndarray:
    """Apply the D x D `table` along each of the first m axes of a flattened
    (D^m, width) cube: m times, a product along the leading axis, which
    then moves behind the other m - 1 in one reshape and transpose."""
    D, width = len(table), cube.shape[1]
    x = cube
    for _ in range(m):
        x = _matmul(table, x.reshape(D, -1), p).reshape(D, -1, width).transpose(1, 0, 2)
    return x.reshape(D**m, width)


def _solve_lattice(
    values: np.ndarray, basis: MonomialBasis, nodes: np.ndarray, p: int
) -> np.ndarray:
    """Coefficients, in basis order, of the forms taking `values` (one
    column per form) at the `principal_lattice` on `nodes`: block Newton
    solves, from the last block to the first."""
    D, nvars = basis.degree, basis.nvars
    exps = basis.exponent_array()
    bounds = np.searchsorted(_first_positive(exps), np.arange(nvars + 1))
    divided, newton = _newton_tables(nodes, p)
    coeffs = np.zeros_like(values)
    for k in range(nvars - 1, -1, -1):
        rows = slice(bounds[k], bounds[k + 1])
        m = nvars - 1 - k
        rest = values[rows]
        if m == 0 or not len(rest):
            coeffs[rows] = rest
            continue
        # the later blocks are the degree-D monomials of X_{k+1}..X_{n-1}
        b = exps[rows, k + 1 :]
        V = vandermonde(nodes[b], monomial_basis(m, D), p)
        rest = (rest - _matmul(V, coeffs[bounds[k + 1] :], p)) % p
        coeffs[rows] = _solve_block(rest, b, divided, newton, p)
    return coeffs


def _solve_block(
    values: np.ndarray, b: np.ndarray, divided: np.ndarray, newton: np.ndarray, p: int
) -> np.ndarray:
    """Monomial coefficients of the polynomials of degree <= D - 1 taking
    `values` on the affine principal lattice.

    Row i is both the point a[b_i] and the monomial y^b_i, for the
    multi-indices b of {b : |b| <= D - 1}.  Both triangular steps run on a
    zero-padded D^m cube; the lattice is closed under lowering an index, so
    the padding leaves the Newton coefficients on it exact, and the mask
    between the steps drops the ones off it.  Output columns go through in
    chunks that keep the cube below `_CUBE_ENTRIES`.
    """
    D, m = len(divided), b.shape[1]
    flat = b @ (D ** np.arange(m - 1, -1, -1))
    out = np.empty_like(values)
    step = max(1, _CUBE_ENTRIES // D**m)
    for c in range(0, values.shape[1], step):
        part = values[:, c : c + step]
        cube = np.zeros((D**m, part.shape[1]), dtype=np.int64)
        cube[flat] = part
        cube = _along_axes(cube, divided, m, p)
        simplex = np.zeros_like(cube)
        simplex[flat] = cube[flat]
        out[:, c : c + step] = _along_axes(simplex, newton, m, p)[flat]
    return out


def determines(nvars: int, degree: int, p: int) -> bool:
    """Whether values on GF(p)^n determine a degree-D form.  With two or
    more variables that is exactly D <= p: no nonzero form of degree at
    most p vanishes at every point, while X0^(D-p-1) (X0^p X1 - X0 X1^p)
    does, and D <= p is when `principal_lattice` has D distinct nodes.  One
    variable is exempt: its one point is X0 = 1, where X0^D is nonzero."""
    return nvars == 1 or degree <= p


def interpolate_many(
    values_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    nvars: int,
    degree: int,
    field: PrimeField,
    seed: int,
    n_outputs: int,
    stats: dict | None = None,
) -> list[HomogeneousForm]:
    """Recover homogeneous forms from a batched black box, one per output.

    `values_fn(points)` returns `(values, usable)`: an (npoints, n_outputs)
    array of exact values and a bool mask of the points it could evaluate.
    Its first call takes the N = C(D+n-1, n-1) points of `principal_lattice`
    together with the first ceil(0.1 N) draws of a `SampleStream`, so that
    an interpolation whose lattice points are all usable calls it once.
    With k holes (below) a second call takes the stream's next k draws, and
    later calls take the stream's top-up batches.

    The lattice (Chung & Yao, SIAM J. Numer. Anal. 14(4), 1977; Sauer & Xu,
    Math. Comp. 64, 1995).  Split the degree-D monomials by their first
    variable with a positive exponent: block k holds the X_k^e X_{k+1}^b...
    with e > 0, and X_{n-1}^D (or 1, when D = 0) ends the last block.  Block
    k's points are (0, ..., 0, 1, y), the 1 at index k and y on the affine
    principal lattice {(a_i1, ..., a_im) : i1 + ... + im <= D - 1} of
    m = n - 1 - k variables.  Every monomial of an earlier block vanishes
    there, and a monomial of block k is y^b there, with |b| <= D - 1.  So
    the evaluation matrix is block triangular, and each diagonal block is
    the Vandermonde matrix of the polynomials of degree <= D - 1 on the
    principal lattice, which is unisolvent once the D nodes a_i are
    distinct.  Blocks are solved last to first: the later blocks' values
    are subtracted, then per-axis divided differences (lower triangular)
    give Newton coefficients, and the Newton basis prod (y_j - a_i) is
    expanded into monomials (upper triangular).

    Holes.  A lattice point the black box cannot use is an unknown value:
    each of the k holes adds its Lagrange form, which is 1 there and 0 at
    the other lattice points.  ceil(0.1 N) + k usable stream points give
    one elimination of [Lagrange forms at the points | residual values],
    which must have k pivots and leave zero rows; otherwise the values are
    `Inconsistent`.  With no holes this is the consistency check alone.
    While the rank is short the stream points double, up to 4 N; the
    stream's points are distinct, so over a tiny field it may run out first.
    `check_degenerate` counts holes and dropped stream points together,
    after the first batch and after each top-up batch, and `stats` gets
    both in `points_used` and `points_degenerate`.

    A degree `determines` refuses raises `InterpolationFailure` before the
    black box is called, and so does a hole rank still short after 4 N
    stream points or after every point of GF(p)^nvars.
    """
    from .exactlin import _back_substitute, _forward_eliminate

    p = field.p
    if not determines(nvars, degree, p):
        raise InterpolationFailure(
            f"a nonzero degree-{degree} form vanishes at every point over GF({p}); "
            f"interpolating a degree-{degree} form needs p >= {degree}, try a larger prime"
        )
    basis = monomial_basis(nvars, degree)
    ncols = len(basis)
    lattice, nodes = principal_lattice(field, nvars, degree, seed)
    head = -(-ncols // 10)
    stream = SampleStream(field, nvars, seed, stats=stats)
    points = stream.draw(head)
    values, usable = _evaluate(values_fn, np.vstack([lattice, points]), n_outputs, p)
    holes = np.flatnonzero(~usable[:ncols])
    k = len(holes)
    stream.seen = (ncols, k)
    target = head + k
    point_values, point_usable = values[ncols:], usable[ncols:]
    # the next k draws complete the first batch
    rest = stream.draw(k) if k else points[:0]
    if len(rest):
        more, more_usable = _evaluate(values_fn, rest, n_outputs, p)
        points = np.vstack([points, rest])
        point_values = np.vstack([point_values, more])
        point_usable = np.concatenate([point_usable, more_usable])
    if not point_usable.all():
        points, point_values = points[point_usable], point_values[point_usable]
    stream.keep(len(points))
    values = values[:ncols]
    values[holes] = 0
    unit = np.zeros((ncols, k), dtype=np.int64)
    unit[holes, np.arange(k)] = 1
    # the known values' forms, then the holes' Lagrange forms
    solved = _solve_lattice(np.hstack([values, unit]), basis, nodes, p)
    cap = max(target, 4 * ncols)
    while True:
        for batch in stream.batches(target):
            more, more_usable = _evaluate(values_fn, batch, n_outputs, p)
            fresh = batch[more_usable]
            points = np.vstack([points, fresh])
            point_values = np.vstack([point_values, more[more_usable]])
            stream.keep(len(fresh))
        at = _matmul(vandermonde(points, basis, p), solved, p)
        m = np.hstack([at[:, n_outputs:], (point_values - at[:, :n_outputs]) % p])
        pivots, _ = _forward_eliminate(m, p, k)
        if len(pivots) == k:
            if m[k:, k:].any():
                raise Inconsistent(
                    "sampled values are not the evaluations of a single "
                    f"degree-{degree} form"
                )
            _back_substitute(m, p, pivots)
            coeffs = (solved[:, :n_outputs] + _matmul(solved[:, n_outputs:], m[:k, k:], p)) % p
            return [
                HomogeneousForm.from_coefficient_vector(field, basis, column)
                for column in coeffs.T
            ]
        exhausted = stream.kept < target
        if exhausted or target >= cap:
            drawn = f"all {p**nvars}" if exhausted else target
            raise InterpolationFailure(
                f"evaluation matrix stuck at rank {len(pivots)} < {k} "
                f"after {drawn} points over GF({p}); try a larger prime"
            )
        target = min(cap, target * 2)
