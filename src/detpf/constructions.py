"""Explicit matrix constructions.

The bidiagonal-plus-corner ("cyclic") matrix is the workhorse: its
determinant is the product of the diagonal entries plus a sign times the
product of the superdiagonal/corner entries, because the only permutations
supported on that pattern are the identity and the full cycle.  The cycle
sign sigma(l) = (-1)^(l-1) is fixed here and pinned against the expansion
oracle at sizes 2 and 3 by the test suite.

Fermat hypersurfaces are assembled from that identity over the actual
coefficient field: the binary forms X_a^d + X_b^d are factored into
irreducibles over GF(p) and distributed over the cyclic slots, so the number
of slots depends on how t^d + 1 splits at the chosen prime.  Degree 2 is the
norm form of the quaternions, split over GF(p) by a, b with a^2 + b^2 = -1,
found by direct search.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .exactlin import InputError, PrimeField
from .mpoly import HomogeneousForm, monomial_basis
from .polymat import GENERAL, SKEW, SYMMETRIC, GradedMatrix, LinearSkewMatrix, SizeMismatch
from .rng import FieldRng, derive_seed


class DegreeInconsistency(InputError):
    pass


class UnsupportedAmbient(InputError):
    pass


def cyclic_sign(size: int) -> int:
    """Sign of the cycle product in the cyclic determinant identity."""
    return -1 if size % 2 == 0 else 1


def block_skew_sign(size: int) -> int:
    """Sign in pf([[0, N], [-tN, 0]]) = sign * det N for N of the given size."""
    return -1 if (size * (size - 1) // 2) % 2 else 1


# ---- cyclic matrices -------------------------------------------------------


def cyclic_matrix(
    F_list: list[HomogeneousForm], G_list: list[HomogeneousForm]
) -> GradedMatrix:
    """Bidiagonal-plus-corner matrix with F_i on the diagonal and G_i above.

    det = prod(F_i) + cyclic_sign(l) * prod(G_i).  Entries may be any forms
    of consistent degree; twists are solved from the entry degrees and the
    interlacing must close up (sum deg F = sum deg G), else
    DegreeInconsistency.
    """
    l = len(F_list)
    if l < 2 or len(G_list) != l:
        raise DegreeInconsistency(f"need l >= 2 diagonal and l corner forms, got {l}/{len(G_list)}")
    field = F_list[0].field
    nvars = F_list[0].nvars
    for g in list(F_list) + list(G_list):
        if g.field != field or g.nvars != nvars:
            raise DegreeInconsistency("forms disagree on ring")
    f_deg = [f.degree for f in F_list]
    g_deg = [g.degree for g in G_list]
    if sum(f_deg) != sum(g_deg):
        raise DegreeInconsistency(
            f"diagonal degrees sum to {sum(f_deg)}, cycle degrees to {sum(g_deg)}"
        )
    col_twists = [0]
    row_twists = []
    for i in range(l):
        row_twists.append(col_twists[i] + f_deg[i])
        if i + 1 < l:
            col_twists.append(row_twists[i] - g_deg[i])
    if row_twists[l - 1] - col_twists[0] != g_deg[l - 1]:
        raise DegreeInconsistency("twist interlacing does not close up")
    entries: list[list[HomogeneousForm | None]] = [
        [None] * l for _ in range(l)
    ]
    for i in range(l):
        entries[i][i] = F_list[i]
        if i + 1 < l:
            entries[i][i + 1] = G_list[i]
    entries[l - 1][0] = G_list[l - 1]
    return GradedMatrix(field, nvars, row_twists, col_twists, entries, GENERAL)


# ---- univariate factorization over GF(p) (private helper) -------------------
# Polynomials are tuples of coefficients, low degree first, always monic here.


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p: int):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a, m, p: int):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for j, y in enumerate(m):
            a[shift + j] = (a[shift + j] - f * y) % p
        a.pop()
    return _poly_trim(a)


def _poly_divexact(a, b, p: int):
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    for shift in range(len(a) - len(b), -1, -1):
        f = a[shift + len(b) - 1] * inv_lead % p
        q[shift] = f
        if f:
            for j, y in enumerate(b):
                a[shift + j] = (a[shift + j] - f * y) % p
    if any(a[: len(b) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return _poly_trim(q)


def _poly_gcd(a, b, p: int):
    while b:
        a, b = b, _poly_mod(a, b, p)
    if not a:
        return ()
    inv = pow(a[-1], p - 2, p)
    return tuple(x * inv % p for x in a)


def _poly_powmod(base, e: int, m, p: int):
    result = (1,)
    base = _poly_mod(base, m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def _poly_sub(a, b, p: int):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    return _poly_trim(out)


def _equal_degree_split(f, k: int, p: int, rng: FieldRng):
    """Cantor-Zassenhaus: factor a squarefree product of degree-k irreducibles."""
    if len(f) - 1 == k:
        return [f]
    exponent = (p**k - 1) // 2
    while True:
        u = [rng.below(p) for _ in range(len(f) - 1)]
        u[-1] = 1
        h = _poly_powmod(_poly_trim(u), exponent, f, p)
        g = _poly_gcd(_poly_sub(h, (1,), p), f, p)
        if 0 < len(g) - 1 < len(f) - 1:
            return _equal_degree_split(g, k, p, rng) + _equal_degree_split(
                _poly_divexact(f, g, p), k, p, rng
            )


def _factor_squarefree(f, p: int, rng: FieldRng) -> list[tuple[int, ...]]:
    """Irreducible factors of a monic squarefree polynomial over GF(p)."""
    factors: list[tuple[int, ...]] = []
    w = (0, 1)  # t
    k = 0
    rest = f
    while len(rest) - 1 > 0:
        k += 1
        if 2 * k > len(rest) - 1:
            factors.append(rest)
            break
        w = _poly_powmod(w, p, rest, p)
        g = _poly_gcd(_poly_sub(w, (0, 1), p), rest, p)
        if len(g) - 1 > 0:
            factors.extend(_equal_degree_split(g, k, p, rng))
            rest = _poly_divexact(rest, g, p)
            w = _poly_mod(w, rest, p) if len(rest) > 1 else w
    factors.sort(key=lambda q: (len(q), q))
    return factors


def _binary_power_sum_factors(
    field: PrimeField, d: int, var_a: int, var_b: int, nvars: int
) -> list[HomogeneousForm]:
    """Irreducible homogeneous factors of X_a^d + X_b^d over GF(p)."""
    p = field.p
    if d % p == 0:
        raise DegreeInconsistency(f"char {p} divides {d}; X^d + Y^d is not squarefree")
    poly = tuple([1] + [0] * (d - 1) + [1])  # t^d + 1
    rng = FieldRng(derive_seed(p, "factor-binary", d))
    factors = _factor_squarefree(poly, p, rng)
    forms = []
    for f in factors:
        deg = len(f) - 1
        coeffs = {}
        for j, c in enumerate(f):
            if c:
                exp = [0] * nvars
                exp[var_a] = j
                exp[var_b] = deg - j
                coeffs[tuple(exp)] = c
        forms.append(HomogeneousForm(field, nvars, deg, coeffs))
    return forms


# ---- quaternion splitting for the degree-2 Fermat ----------------------------


def _isotropic_ab(field: PrimeField):
    """(a, b) with a^2 + b^2 + 1 = 0 in GF(p); exists for every odd prime."""
    p = field.p
    for a in range(p):
        b = field.sqrt((-1 - a * a) % p)
        if b is not None:
            return a, b
    raise ArithmeticError("no isotropic vector found; p is not an odd prime?")


def _linear_form(field: PrimeField, nvars: int, coeffs) -> HomogeneousForm:
    return HomogeneousForm.from_coefficient_vector(field, monomial_basis(nvars, 1), coeffs)


def _quaternion_norm_matrix(field: PrimeField, nvars: int) -> GradedMatrix:
    """2x2 linear matrix with determinant X_0^2 + ... + X_{nvars-1}^2, nvars in {3, 4}.

    With a^2 + b^2 = -1, i -> [[0, -1], [1, 0]], j -> [[a, b], [b, -a]] and
    k = ij -> [[-b, a], [a, b]] split the quaternions over GF(p), and the
    determinant of the image of X0 + X1 i + X2 j + X3 k is its norm, the sum
    of the four squares.  For nvars = 3, X3 is dropped.
    """
    a, b = _isotropic_ab(field)
    f0, f1, g0, g1 = (
        _linear_form(field, nvars, coeffs[:nvars])
        for coeffs in ((1, 0, a, -b), (1, 0, -a, b), (0, -1, b, a), (0, 1, b, a))
    )
    # det = f0 f1 + cyclic_sign(2) g0 g1 = f0 f1 - g0 g1
    return cyclic_matrix([f0, f1], [g0, g1])


# ---- Fermat hypersurfaces ----------------------------------------------------


@dataclass(frozen=True)
class FermatConstruction:
    matrix: GradedMatrix
    target: HomogeneousForm
    footnote_variant: bool


def fermat_target(field: PrimeField, n: int, d: int) -> HomogeneousForm:
    nvars = n + 1
    coeffs = {
        tuple(d if j == i else 0 for j in range(nvars)): 1 for i in range(nvars)
    }
    return HomogeneousForm(field, nvars, d, coeffs)


def _merge_to_slots(factors: list[HomogeneousForm], slots: int) -> list[HomogeneousForm]:
    out = list(factors[: slots - 1])
    tail = factors[slots - 1]
    for f in factors[slots:]:
        tail = tail * f
    out.append(tail)
    return out


def fermat_matrix(
    field: PrimeField, n: int, d: int
) -> FermatConstruction:
    """Determinantal representation of sum(X_i^d) in P^n, n in {2, 3}.

    For n = 3 the two variable pairs (X0, X1 | X2, X3) contribute one cyclic
    product each; for n = 2 the products are X0^d and X1^d + X2^d.  When the
    characteristic divides d (n = 3 only) the substitute surface
    X0(X0^{d-1} + X1^{d-1}) + (X1 + X2)(X2^{d-1} + X3^{d-1}) is built and
    flagged.
    """
    if n not in (2, 3):
        raise UnsupportedAmbient(f"ambient dimension must be 2 or 3, got {n}")
    if d < 1:
        raise DegreeInconsistency(f"degree must be positive, got {d}")
    nvars = n + 1
    p = field.p
    if d % p == 0:
        if n != 3:
            raise DegreeInconsistency(
                f"char {p} divides {d}; only the n=3 substitute surface is available"
            )
        x0 = HomogeneousForm.variable(field, 4, 0)
        x1 = HomogeneousForm.variable(field, 4, 1)
        x2 = HomogeneousForm.variable(field, 4, 2)
        f2 = HomogeneousForm.monomial(field, (d - 1, 0, 0, 0)) + HomogeneousForm.monomial(
            field, (0, d - 1, 0, 0)
        )
        g2 = HomogeneousForm.monomial(field, (0, 0, d - 1, 0)) + HomogeneousForm.monomial(
            field, (0, 0, 0, d - 1)
        )
        target = x0 * f2 + (x1 + x2) * g2
        # det = F1 F2 - G1 G2, so fold the minus into G1
        M = cyclic_matrix([x0, f2], [-(x1 + x2), g2])
        return FermatConstruction(M, target, True)
    target = fermat_target(field, n, d)
    if d == 1:
        M = GradedMatrix(field, nvars, (1,), (0,), [[target]], GENERAL)
        return FermatConstruction(M, target, False)
    if d == 2:
        return FermatConstruction(_quaternion_norm_matrix(field, nvars), target, False)
    if n == 2:
        b_factors = _binary_power_sum_factors(field, d, 1, 2, 3)
        slots = len(b_factors)
        if slots == 1:
            raise DegreeInconsistency(
                f"X1^{d} + X2^{d} is irreducible over GF({p}); no nontrivial "
                "cyclic representation at this prime"
            )
        a_factors = [
            HomogeneousForm.monomial(field, (g.degree, 0, 0)) for g in b_factors
        ]
        b_factors[0] = b_factors[0].scale(cyclic_sign(slots))
        M = cyclic_matrix(a_factors, b_factors)
        return FermatConstruction(M, target, False)
    a_factors = _binary_power_sum_factors(field, d, 0, 1, 4)
    b_factors = _binary_power_sum_factors(field, d, 2, 3, 4)
    slots = min(len(a_factors), len(b_factors))
    if slots == 1:
        raise DegreeInconsistency(
            f"both X0^{d} + X1^{d} and X2^{d} + X3^{d} are irreducible over "
            f"GF({p}); no nontrivial cyclic representation at this prime"
        )
    a_factors = _merge_to_slots(a_factors, slots)
    b_factors = _merge_to_slots(b_factors, slots)
    b_factors[0] = b_factors[0].scale(cyclic_sign(slots))
    M = cyclic_matrix(a_factors, b_factors)
    return FermatConstruction(M, target, False)


# ---- block pfaffians -----------------------------------------------------------


def block_skew_from(N: GradedMatrix) -> GradedMatrix:
    """Skew matrix [[0, N], [-tN, 0]]; pf = block_skew_sign(d) * det N."""
    if not N.is_square():
        raise InputError("block pfaffian construction needs a square matrix")
    d = N.nrows
    field, nvars = N.field, N.nvars
    row_twists = tuple(N.row_twists) + tuple(-e for e in N.col_twists)
    col_twists = tuple(-t for t in N.row_twists) + tuple(N.col_twists)
    size = 2 * d
    entries: list[list[HomogeneousForm | None]] = [[None] * size for _ in range(size)]
    for i in range(d):
        for j in range(d):
            entries[i][d + j] = N.entries[i][j]
            entries[d + j][i] = -N.entries[i][j]
    return GradedMatrix(field, nvars, row_twists, col_twists, entries, SKEW)


# ---- squares pullback -----------------------------------------------------------


def pullback_squares(M: GradedMatrix) -> GradedMatrix:
    """Entrywise substitution (X0^2, X1^2, X2^2) into a symmetric linear matrix."""
    if M.symmetry != SYMMETRIC:
        raise InputError("pullback is defined for symmetric matrices")
    if M.nvars != 3:
        raise InputError(f"pullback needs 3 variables, got {M.nvars}")
    for row in M.entries:
        for f in row:
            if not f.is_zero() and f.degree != 1:
                raise InputError("pullback needs linear entries")
    squares = [HomogeneousForm.variable(M.field, 3, j, 2) for j in range(3)]
    entries = [[f.substitute(squares) for f in row] for row in M.entries]
    return GradedMatrix(
        M.field,
        M.nvars,
        M.row_twists,
        tuple(e - 1 for e in M.col_twists),
        entries,
        SYMMETRIC,
    )


# ---- theta-characteristic shape --------------------------------------------------


def theta_shape_random(field: PrimeField, d: int, rng: FieldRng) -> GradedMatrix:
    """Random symmetric (d-2)x(d-2) matrix with the bordered theta shape.

    Linear symmetric (d-3)-block, quadratic border column/row, cubic corner;
    the determinant is homogeneous of degree d.
    """
    if d < 4:
        raise DegreeInconsistency(f"theta shape needs degree >= 4, got {d}")
    m = d - 2
    shape = ResolutionShape((-1,) * (m - 1) + (0,), (-2,) * (m - 1) + (-3,), SYMMETRIC)
    return random_graded_matrix(field, 3, shape, rng)


# ---- random matrices with prescribed shapes ----------------------------------------


@dataclass(frozen=True)
class ResolutionShape:
    """Twist data for a random graded matrix; optional forced-zero positions."""

    row_twists: tuple[int, ...]
    col_twists: tuple[int, ...]
    symmetry: str = GENERAL
    zero_positions: frozenset = dc_field(default_factory=frozenset)


def linear_square_shape(d: int) -> ResolutionShape:
    return ResolutionShape((0,) * d, (-1,) * d)


def linear_skew_shape(size: int) -> ResolutionShape:
    return ResolutionShape((0,) * size, (-1,) * size, SKEW)


def linear_symmetric_shape(d: int) -> ResolutionShape:
    return ResolutionShape((0,) * d, (-1,) * d, SYMMETRIC)


def quadratic_shape(e: int) -> ResolutionShape:
    return ResolutionShape((0,) * e, (-2,) * e)


def prop_35_shape(d: int, sections: int) -> ResolutionShape:
    """Shape with column twists (-2)^(d-p) and row twists (-1)^(d-2p), 0^p."""
    if not 0 <= 2 * sections <= d:
        raise DegreeInconsistency(f"need 0 <= 2p <= d, got p={sections}, d={d}")
    rows = tuple([-1] * (d - 2 * sections) + [0] * sections)
    cols = (-2,) * (d - sections)
    return ResolutionShape(rows, cols)


def random_graded_matrix(
    field: PrimeField, nvars: int, shape: ResolutionShape, rng: FieldRng
) -> GradedMatrix:
    """Uniform random coefficients at every allowed position of the shape."""
    rows, cols = shape.row_twists, shape.col_twists
    nr, nc = len(rows), len(cols)
    if shape.symmetry != GENERAL and nr != nc:
        raise SizeMismatch(f"{shape.symmetry} shape must be square, got {nr} x {nc}")
    entries: list[list[HomogeneousForm | None]] = [[None] * nc for _ in range(nr)]

    def sample(i: int, j: int) -> HomogeneousForm | None:
        deg = rows[i] - cols[j]
        if deg < 0 or (i, j) in shape.zero_positions:
            return None
        return HomogeneousForm.random(field, nvars, deg, rng.fork("entry", i, j))

    if shape.symmetry == GENERAL:
        for i in range(nr):
            for j in range(nc):
                entries[i][j] = sample(i, j)
    elif shape.symmetry == SYMMETRIC:
        for i in range(nr):
            for j in range(i, nc):
                f = sample(i, j)
                entries[i][j] = f
                entries[j][i] = f
    elif shape.symmetry == SKEW:
        for i in range(nr):
            for j in range(i + 1, nc):
                f = sample(i, j)
                entries[i][j] = f
                entries[j][i] = None if f is None else -f
    return GradedMatrix(field, nvars, rows, cols, entries, shape.symmetry)


def random_linear_skew(
    field: PrimeField, nvars: int, size: int, rng: FieldRng
) -> LinearSkewMatrix:
    return LinearSkewMatrix.random(field, nvars, size, rng)
