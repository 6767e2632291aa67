"""Exact dense linear algebra over GF(p).

Matrices hold residues in [0, p) for an odd prime p < 2**31, as int64 or
as float64.  An int64 product of two residues stays below 2**62, so a
single row operation never overflows int64.  A float64 array is taken to
hold residues already, each an integer in [0, p), and is never reduced or
cast on the way in: `ScalarMatrix` keeps it without a copy, `rank` factors
it in place, and `invert_skew_many` returns float64 inverses for it.
`_matmul` returns float64 residues, so a certificate's stacks and its
matrix G are never cast between the product that evaluates M(x)
(`polymat.LinearSkewMatrix.evaluate_batch`) and the factorization of G.
Any other input is read as integers and reduced mod p.

Every product is `_matmul`, exact for every p < 2**31.  With inner
dimension k, while k*(p-1)**2 + p < 2**53 it is one float64 BLAS product,
reduced in place by `_reduce_float`.  Above that bound it writes
b = b_hi*2**16 + b_lo, the error-free splitting of Ozaki, Ogita, Oishi &
Rump (Numer. Algorithms 59, 2012), and sums a b_hi and a b_lo over chunks
of the inner dimension, each of at most

    c = floor((2**53 - 1 - 2p) / ((p-1)*(2**16 - 1)))

terms: 64 at p = 2**31 - 1.  Proof: for |a|, |b| <= p - 1 < 2**31 the
split has 0 <= b_lo <= 2**16 - 1 and |b_hi| <= 2**15, so one chunk's
product is at most c*(p-1)*(2**16 - 1) in magnitude; adding the residue
below p carried from the chunks before it and the p of room
`_reduce_float` needs stays below 2**53 exactly when
c*(p-1)*(2**16 - 1) + 2p < 2**53.  The two reduced sums r_hi, r_lo < p
then give a b mod p from r_hi*2**16 + r_lo < 2**48.

Elimination (`rank`, `_forward_eliminate`, `_back_substitute`) keeps the
matrix in float64 with delayed reduction, in the manner of FFLAS-FFPACK
(Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008), and factors it by
recursive LU (Toledo, SIAM J. Matrix Anal. Appl. 18(4), 1997).  `_factor`
splits the columns in halves down to leaves of at most LEAF columns, which
`_leaf` factors by rank-1 steps on a contiguous int64 transposed copy.
After the left half of a span, the right half's part of its pivot rows
becomes U12 = L11^-1 A12, and L21 U12 is subtracted from the rows below in
one float64 product, left unreduced (`_update_right`).  An entry is reduced
mod p only when it enters a leaf or a product.  A span hands its parent a
solve for L of its pivot rows, which the parent needs for U12: a span of
at most BLOCK columns hands L^-1 itself, and a wider one the solves of its
halves, with L21 left where the factorization stored it (`_Split`).
`_solve` forms U12 by the recursive triangular solve of Toledo and of
FFLAS-FFPACK: the top rows by the left half's solve, then L21 times them
subtracted from the rows below in one product, those rows reduced, and
the right half's solve on them.  So no L^-1 is wider than BLOCK, and
beside the matrix it factors in place the elimination holds little more
than its products' outputs; a solve that recursed down to the leaves
would make more, smaller products, which is slower.  `pivot_columns` asks
its root for no solve, so a matrix of one leaf is one rank-1 pass.  A
span that starts below the last row has no pivot and returns at once.
With n = min(rows, cols), no elimination has more than n pivots, so

* every product sums at most n terms, each a product of two residues;
* an entry takes at most one such term per pivot before it is reduced,
  so it stays below n*(p-1)**2 + p in magnitude;
* in `_solve`, a row below the top rows takes one such term per pivot of
  the top rows onto a residue, so it stays below n*(p-1)**2 + p before it
  is reduced too;

and all are exact in float64, with the room `_reduce_float` needs, while
n*(p-1)**2 + 2p < 2**53: up to 8.8 million pivots at p = 31991, 32 at
p = 16777213.  Above that delayed bound the same recursion and solve
subtract `_matmul`'s reduced products, so an entry takes less than p per
level, and `_leaf` reduces its int64 copy after every step, since a few
products of two residues overflow int64 near p = 2**31.  `pivot_columns`
reads the pivots off the factorization and writes no echelon form, and
`rank` counts them; `_forward_eliminate` writes it from the same
factorization, with zeros where L was stored, and brings its right-hand
sides up to date by the root's solve; `determinant` of one matrix reads
the pivots' inverses off the diagonals of the L^-1 blocks of the root's
solve.  `_back_substitute` clears above the pivots by halves of rows, its
products delayed or reduced under the same bound.

Stacks of small matrices go through one batched loop, `_eliminate_stack`,
on a float64 copy with the member axis last: a (count, n, n) stack is held
as an (n, width, count) array, so each step is a few ufuncs over contiguous
runs of members rather than a loop over them.  An entry is reduced only
when it is read, the pivot column when its step comes and the pivot row
when it is chosen; every other row takes one rank-1 update per step,
which is left unreduced while n*(p-1)**2 + 2p < 2**53, the delayed bound
`_float_is_delayed` of the recursive elimination.  Above that bound the
update's products go through `_mul_mod`, the elementwise form of
`_matmul`'s 16-bit split, so one route serves every p < 2**31.
`_gauss_jordan_many` runs it as Gauss-Jordan on the stack [M | I];
`_det_array`, for stacks only, runs it clearing below the pivots, and
multiplies each member's pivots and swap sign by halving (`_product_mod`).
A member without a pivot in some column is singular, has determinant 0
and leaves the others untouched.  A float64 stack, such as the M(x) that
`polymat`'s `evaluate_batch` methods return, enters in one transposed
copy (`_member_last`), with no cast and no scan.

`_pfaffian_array`, a congruence elimination with two pivots per step, takes
the pfaffians of a stack of skew matrices in the same layout, under the
same bound and split.  Callers that need det or pf of M(x) at many points
(interpolation, maximal minors) make one call per batch of points.

The batched kernels -- `_eliminate_stack`, `_pfaffian_array`, the 2 x 2
bases of `_schur_inverse` and `mpoly`'s Newton tables -- take the inverses
of many residues at once through `_inverse_residues`.  For p < 2**16 that
is a gather from a uint16 table of every inverse mod p, at most 128 KB,
built on first use by the Fermat ladder x**(p-2) and cached per prime; no
table is built at import.  For 2**16 <= p < 2**31 it is the ladder itself.
Beside it, `_log_tables` caches the discrete-log and antilog tables of the
same primes, two more uint16 arrays, on which `mpoly.vandermonde` takes
powers; they too are built on first use.

`invert_skew_many` inverts a stack of skew matrices, each given by its
strict upper triangle, by block recursion through the Schur complement
(`_schur_inverse`, after Strassen, Numer. Math. 13, 1969; Bunch, Math.
Comp. 38, 1982, for the skew case): four stacked float64 products per
level down to closed-form 2 x 2 blocks.  The members it fails are rerun
through Gauss-Jordan; the inverse is unique, so both routes give the same
residues.

Pivoting always selects the first nonzero entry in row order -- GF(p) has no
magnitude -- and swaps whole rows.  The rule depends only on residues, and
every residue is computed exactly, delayed or reduced, so the elimination
makes the same row swaps and writes the same echelon form, pivots and sign,
byte for byte, at every prime; every certificate is therefore reproducible
from (prime, seed).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

DEFAULT_PRIME = 31991

MAX_MODULUS = 1 << 31

LEAF = 8  # widest column span the recursive elimination factors by rank-1 steps
BLOCK = 64  # widest column span that hands its parent an assembled L^-1

FLOAT_EXACT = 1 << 53  # float64 holds every integer below this exactly
SPLIT = 1 << 16  # `_matmul` writes b = b_hi*SPLIT + b_lo above its one-product bound
TABLE_PRIME_LIMIT = 1 << 16  # below it `_inverse_residues` reads a uint16 table
TABLE_CHUNK = 1 << 12  # residues per Fermat ladder while a table is built


class InputError(ValueError):
    """Input the toolkit refuses by design; the CLI reports it and exits 2."""


class LinAlgError(ArithmeticError):
    """Base class for exact linear algebra failures."""


class Singular(LinAlgError):
    """Square matrix is not invertible."""


class RankDeficient(LinAlgError):
    """Coefficient matrix does not have full column rank."""


class Inconsistent(LinAlgError):
    """Right-hand side is outside the column span."""


class OddSize(LinAlgError, InputError):
    """Pfaffian of an odd-sized matrix requested."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic Miller-Rabin bases for n < 3.3e24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic context for GF(p).  Rejects even or composite moduli."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p < 3 or p % 2 == 0 or p >= MAX_MODULUS or not _is_prime(p):
            raise InputError(f"modulus must be an odd prime below 2**31, got {p}")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(p)")
        return pow(a, self.p - 2, self.p)

    def sqrt(self, a: int):
        """Square root in GF(p) via Tonelli-Shanks, or None if a is not a square."""
        p = self.p
        a %= p
        if a == 0:
            return 0
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        # Tonelli-Shanks
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c = s, pow(z, q, p)
        t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r


class ScalarMatrix:
    """Dense matrix of GF(p) residues.  A float64 array of residues is held
    as it is, without a copy; any other data is reduced into int64."""

    __slots__ = ("field", "a")

    def __init__(self, field: PrimeField, data):
        if isinstance(data, np.ndarray) and data.dtype == np.float64:
            a = data
        else:
            a = np.mod(np.asarray(data, dtype=np.int64), field.p)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        self.field = field
        self.a = a

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "ScalarMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "ScalarMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix(self.field, self.a.T)

    @property
    def T(self) -> "ScalarMatrix":
        return self.transpose()

    def __getitem__(self, key):
        return self.a[key]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScalarMatrix)
            and other.field == self.field
            and other.a.shape == self.a.shape
            and bool(np.array_equal(other.a, self.a))
        )

    def __matmul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if not isinstance(other, ScalarMatrix) or other.field != self.field:
            raise TypeError("can only multiply ScalarMatrix over the same field")
        return ScalarMatrix(self.field, _matmul(self.a, other.a, self.field.p))

    def __repr__(self) -> str:
        return f"ScalarMatrix(p={self.field.p}, shape={self.a.shape})"

    def is_skew(self) -> bool:
        return bool(
            np.array_equal(self.a, (-self.a.T) % self.field.p)
            and not self.a.diagonal().any()
        )


def _max_terms(p: int, limit: int, start: int = 0) -> int:
    """Largest k with start + k*(p-1)**2 < limit: how many products of two
    residues can be summed onto a value below `start` and stay below `limit`."""
    return (limit - 1 - start) // ((p - 1) * (p - 1))


def _float_is_delayed(p: int, npivots: int) -> bool:
    """The recursive elimination may leave its products unreduced in float64
    when it finds at most `npivots` pivots: npivots*(p-1)**2 + 2p < 2**53
    (module docstring)."""
    return npivots <= _max_terms(p, FLOAT_EXACT, 2 * p)


def _matmul(a: np.ndarray, b: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b mod p as float64 residues, written to `out` when it is given;
    exact for any p < 2**31 (module docstring).

    a and b hold integers of magnitude below p, as 2-d arrays or as stacks
    of them.  One float64 product while k*(p-1)**2 + p < 2**53 for the
    inner dimension k, taken as a broadcast multiply when k = 1; else the
    split b = b_hi*SPLIT + b_lo over chunks of k.
    """
    a = a.astype(np.float64, copy=False)
    b = b.astype(np.float64, copy=False)
    k = a.shape[-1]
    if k <= _max_terms(p, FLOAT_EXACT, p):
        c = a * b if k == 1 else a @ b
        return _reduce_float(c, p, out=c if out is None else out)
    step = (FLOAT_EXACT - 1 - 2 * p) // ((p - 1) * (SPLIT - 1))
    hi = np.floor(b / SPLIT)
    sums = []
    for part in (hi, b - hi * SPLIT):
        total = 0.0
        for s in range(0, k, step):
            total = _reduce_float(total + a[..., s : s + step] @ part[..., s : s + step, :], p)
        sums.append(total)
    return _reduce_float(sums[0] * SPLIT + sums[1], p, out=out)


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """a * b mod p, broadcast, for float64 arrays of integers of magnitude
    below p; written to `out` when it is given.

    One float64 product, reduced in place, while (p-1)**2 + p < 2**53;
    above that the split b = b_hi*SPLIT + b_lo of `_matmul`: a b_hi stays
    below 2**46 and is reduced, and (a b_hi mod p)*SPLIT + a b_lo, both
    terms below 2**47, is reduced once more.
    """
    if _max_terms(p, FLOAT_EXACT, p):
        c = a * b
        return _reduce_float(c, p, out=c if out is None else out)
    hi = np.floor(b / SPLIT)
    c = _reduce_float(a * hi, p)
    c *= SPLIT
    c += a * (b - hi * SPLIT)
    return _reduce_float(c, p, out=c if out is None else out)


def _reduce_float(c: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """c mod p for a float64 array of integers with |c| + p < 2**53, written
    to `out` when it is given; an `out` apart from c holds the quotient
    too, so nothing is allocated.

    fl(c/p) lies within |c|*2**-53/p < 1/p of c/p, and c/p is an integer or
    at least 1/p away from one, so floor(fl(c/p)) is the true quotient q;
    q*p and c - q*p are then exact.
    """
    apart = out is not None and out is not c and not np.may_share_memory(c, out)
    q = np.divide(c, p, out=out) if apart else c / p
    np.floor(q, out=q)
    q *= p
    return np.subtract(c, q, out=q if out is None else out)


def _product(a: np.ndarray, b: np.ndarray, p: int, delayed: bool) -> np.ndarray:
    """a @ b of residues: unreduced when `delayed`, where the caller's bound
    keeps the sum it enters exact, else reduced by `_matmul`."""
    return a @ b if delayed else _matmul(a, b, p)


def _lower_inverse(lower: np.ndarray, inverses: list[int], p: int, delayed: bool) -> np.ndarray:
    """L^-1 for the k x k lower triangle L whose diagonal entries have the
    given inverses and whose strictly lower part N is that of `lower`.

    With D the diagonal of the inverses, L = D^-1 (I - A) for A = -D N,
    which is nilpotent, so L^-1 = (I + A)(I + A^2)(I + A^4)... D up to the
    factor that reaches A^(k-1): log2(k) squarings.  Their products of k
    terms are taken in int64 when `delayed`, since k*(p-1)**2 < 2**53 then,
    and from `_matmul` otherwise; D scales in int64.
    """
    k = len(inverses)
    inv = np.array(inverses, dtype=np.int64)
    index = np.arange(k)
    a = np.where(index[:, None] > index, lower * (p - inv[:, None]) % p, 0)
    x = a + np.eye(k, dtype=np.int64)
    reach = 2
    while reach < k:
        a = _product(a, a, p, delayed) % p
        x = (_product(x, a, p, delayed) + x) % p
        reach *= 2
    x = x.astype(np.int64, copy=False) * inv
    x %= p
    return x.astype(np.float64)


def _leaf(f, p, row, c0, c1, inverse, delayed):
    """Rank-1 elimination of the columns [c0, c1) of f, from `row` down.

    The columns are copied out transposed, as int64, so that each step
    reads a contiguous column and reduces it with one `%`; whole rows of f
    follow the swaps.  Each pivot row is scaled to 1, and the entries below
    a pivot keep the multiplier of their row update, as LAPACK stores L.  A
    column is reduced when its step comes and a pivot row when it is
    chosen; every other update is left unreduced when `delayed`, and
    reduced after its step otherwise.  Returns (pivot_columns, sign, L^-1
    of the pivot rows when `inverse`, else None).
    """
    t = f[row:, c0:c1].T.astype(np.int64, order="C")
    nrows = t.shape[1]
    pivots: list[int] = []
    inverses: list[int] = []
    sign = 1
    k = 0
    for j in range(c1 - c0):
        if k == nrows:
            break
        col = t[j, k:]
        np.remainder(col, p, out=col)
        if col[0]:
            r = k
        else:
            nz = np.flatnonzero(col)
            if not nz.size:
                continue
            r = k + int(nz[0])
            t[:, [k, r]] = t[:, [r, k]]
            f[[row + k, row + r]] = f[[row + r, row + k]]
            sign = -sign
        inv = pow(int(t[j, k]), -1, p)
        t[j, k] = 1
        if j + 1 < c1 - c0:
            u = t[j + 1 :, k]
            np.remainder(u, p, out=u)
            u *= inv
            np.remainder(u, p, out=u)
            rest = t[j + 1 :, k + 1 :]
            rest -= u[:, None] * t[j, k + 1 :]
            if not delayed:
                np.remainder(rest, p, out=rest)
        pivots.append(c0 + j)
        inverses.append(inv)
        k += 1
    f[row:, c0:c1] = t.T
    if not inverse:
        return pivots, sign, None
    lower = t[[c - c0 for c in pivots], :k].T
    return pivots, sign, _lower_inverse(lower, inverses, p, delayed)


def _columns(pivots: list[int]) -> slice | list[int]:
    """Index of the increasing columns `pivots`: a slice when they are
    contiguous, so that numpy takes a view of them rather than a copy."""
    if pivots[-1] - pivots[0] == len(pivots) - 1:
        return slice(pivots[0], pivots[-1] + 1)
    return pivots


class _Split(NamedTuple):
    """The solve a span wider than BLOCK hands its parent: those of its two
    halves, the number k1 of pivots the left half found, and the index in f
    of L21, the left half's multipliers in the right half's pivot rows."""

    left: "np.ndarray | _Split"
    right: "np.ndarray | _Split"
    k1: int
    lower: tuple


def _solve(f, p, solve, u, delayed) -> None:
    """Overwrite u, the pivot rows' part of some columns of f as residues,
    with L^-1 u, for the lower triangle L of those rows that `solve` stands
    for.  An array is L^-1 itself, one product.  A `_Split` [[L11, 0],
    [L21, L22]] solves the top rows by its left half, subtracts L21 times
    them from the rows below, left unreduced when `delayed`, reduces those
    rows and solves them by its right half."""
    if isinstance(solve, np.ndarray):
        _matmul(solve, u, p, out=u)
        return
    top, rest = u[: solve.k1], u[solve.k1 :]
    _solve(f, p, solve.left, top, delayed)
    rest -= _product(f[solve.lower], top, p, delayed)
    _reduce_float(rest, p, out=rest)
    _solve(f, p, solve.right, rest, delayed)


def _update_right(f, p, row, pivots, solve, c0, c1, delayed) -> None:
    """Turn the pivot rows' part of the columns [c0, c1) into U = L^-1 A by
    `_solve` and subtract L U from the rows below them, in one float64
    product, left unreduced when `delayed`.  `pivots` are the pivot columns
    found from `row` down and `solve` stands for L of their rows."""
    top = row + len(pivots)
    u = f[row:top, c0:c1]
    _reduce_float(u, p, out=u)
    _solve(f, p, solve, u, delayed)
    f[top:, c0:c1] -= _product(f[top:, _columns(pivots)], u, p, delayed)


def _factor(f, p, row, c0, c1, inverse, delayed):
    """Recursive LU of the columns [c0, c1) of the float64 array f, from
    `row` down (Toledo, SIAM J. Matrix Anal. Appl. 18(4), 1997).

    Spans of at most LEAF columns go to `_leaf`.  A wider span is split in
    halves: the left half is factored, `_update_right` brings the right
    half up to date, and the right half is factored.  Storage is `_leaf`'s;
    returns (pivot_columns, sign, solve), where `solve`, when asked for,
    stands for L of the pivot rows (`_solve`): for a span of at most BLOCK
    columns L^-1, [[L11^-1, 0], [-L22^-1 L21 L11^-1, L22^-1]], and for a
    wider one a `_Split` of its halves' solves.  `delayed` says whether the
    delayed bound holds for the whole factorization (module docstring).
    """
    if row == f.shape[0]:
        return [], 1, np.zeros((0, 0)) if inverse else None
    if c1 - c0 <= LEAF:
        return _leaf(f, p, row, c0, c1, inverse, delayed)
    cm = (c0 + c1) // 2
    left, sign, x11 = _factor(f, p, row, c0, cm, True, delayed)
    if left:
        _update_right(f, p, row, left, x11, cm, c1, delayed)
    top = row + len(left)
    right, s, x22 = _factor(f, p, top, cm, c1, inverse, delayed)
    pivots, sign = left + right, sign * s
    if not inverse:
        return pivots, sign, None
    if not (left and right):
        return pivots, sign, x22 if right else x11
    k1, k2 = len(left), len(right)
    lower = (slice(top, top + k2), _columns(left))
    if c1 - c0 > BLOCK:
        return pivots, sign, _Split(x11, x22, k1, lower)
    x = np.zeros((k1 + k2, k1 + k2))
    x[:k1, :k1] = x11
    x[k1:, k1:] = x22
    y = _matmul(f[lower], x11, p)
    _matmul(-x22, y, p, out=x[k1:, :k1])
    return pivots, sign, x


def _forward_eliminate(m: np.ndarray, p: int, ncols: int):
    """In-place forward elimination on the first `ncols` columns of the
    residue array m, int64 or float64.

    Pivot rows are normalized to 1 and entries below pivots are 0; columns
    past `ncols` (right-hand sides) follow the row operations.  Returns
    (pivot_columns, sign) where sign tracks row swaps.
    """
    nrows, width = m.shape
    delayed = _float_is_delayed(p, min(nrows, ncols))
    f = m.astype(np.float64)
    rhs = width > ncols
    pivots, sign, solve = _factor(f, p, 0, 0, ncols, rhs, delayed)
    r = len(pivots)
    if rhs and r:
        _update_right(f, p, 0, pivots, solve, ncols, width, delayed)
    rest = f[r:, ncols:]
    _reduce_float(rest, p, out=rest)
    f[:, pivots] = np.triu(f[:, pivots])  # L was stored below the pivots
    m[...] = f
    return pivots, sign


def _clear_halves(
    u: np.ndarray, p: int, pivots: list[int], b0: int, b1: int, delayed: bool
) -> None:
    """Clear the entries above the pivots among the float64 rows [b0, b1)
    of an echelon form: the lower half first, then its pivot columns from
    the upper half in one product, then the upper half."""
    if b1 - b0 < 2:
        return
    h = (b0 + b1) // 2
    _clear_halves(u, p, pivots, h, b1, delayed)
    top = u[b0:h, pivots[h] :]
    top -= _product(u[b0:h, pivots[h:b1]], u[h:b1, pivots[h] :], p, delayed)
    _reduce_float(top, p, out=top)
    _clear_halves(u, p, pivots, b0, h, delayed)


def _back_substitute(m: np.ndarray, p: int, pivots: list[int]) -> None:
    """Clear entries above the pivots (m already forward-eliminated)."""
    r = len(pivots)
    u = m[:r].astype(np.float64)
    _clear_halves(u, p, pivots, 0, r, _float_is_delayed(p, r))
    m[:r] = u


def pivot_columns(A: ScalarMatrix) -> list[int]:
    """Pivot columns of the recursive elimination, which writes no echelon
    form: the first columns of A, in order, that are independent of the
    columns before them.

    The elimination runs on a copy of an int64 matrix, but on a float64
    matrix itself: its entries are overwritten by the factorization.
    """
    p = A.field.p
    f = A.a.astype(np.float64, copy=False)
    return _factor(f, p, 0, 0, A.cols, False, _float_is_delayed(p, min(A.shape)))[0]


def rank(A: ScalarMatrix) -> int:
    """Rank over GF(p): the number of `pivot_columns`, which factor a
    float64 matrix in place."""
    return len(pivot_columns(A))


def invert(A: ScalarMatrix) -> ScalarMatrix:
    """Inverse of a square matrix; raises Singular on rank deficiency."""
    if A.rows != A.cols:
        raise Singular(f"cannot invert a {A.rows}x{A.cols} matrix")
    try:
        return solve_many(A, ScalarMatrix.identity(A.field, A.rows))
    except RankDeficient as exc:
        raise Singular(str(exc)) from exc


def _swap_rows(m: np.ndarray, members: np.ndarray, i: int, rows: np.ndarray, start: int) -> None:
    """In each listed member of the member-last stack m, exchange row i with
    the row of `rows` at the member's position, from column `start` on."""
    top = m[i, start:, members]
    m[i, start:, members] = m[rows, start:, members]
    m[rows, start:, members] = top


def _pivot_rows(m: np.ndarray, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(members, rows) of the member-last stack m whose entry (i, j) is 0
    but not every entry below it: the first row below i with a nonzero
    entry in column j, where column j holds residues from row i down."""
    zero = np.flatnonzero(m[i, j] == 0)
    if not zero.size:
        return zero, zero
    rows = i + (m[i:, j, zero] != 0).argmax(axis=0)
    found = rows != i
    return zero[found], rows[found]


def _fermat_inverses(x: np.ndarray, p: int) -> np.ndarray:
    """x**(p-2) mod p elementwise, by a square-and-multiply ladder: the
    inverse of each nonzero residue, 0 for 0."""
    out = np.ones_like(x)
    base = x.copy()
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


_INVERSE_TABLES: dict[int, np.ndarray] = {}


def _inverse_table(p: int) -> np.ndarray:
    """The uint16 inverses of 0..p-1 mod p for p < TABLE_PRIME_LIMIT, entry 0
    holding 0: built by the Fermat ladder in chunks on first use and cached
    per prime.  A table enters the cache only once complete, so two threads
    can at worst both build it."""
    table = _INVERSE_TABLES.get(p)
    if table is None:
        table = np.empty(p, dtype=np.uint16)
        for start in range(0, p, TABLE_CHUNK):
            residues = np.arange(start, min(start + TABLE_CHUNK, p), dtype=np.int64)
            table[start : start + len(residues)] = _fermat_inverses(residues, p)
        _INVERSE_TABLES[p] = table
    return table


_LOG_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod the prime p."""
    factors, rest, q = [], p - 1, 2
    while q * q <= rest:
        if rest % q == 0:
            factors.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        factors.append(rest)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return g


def _log_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(log, antilog), two uint16 tables for p < TABLE_PRIME_LIMIT: with g
    the least primitive root, antilog[k] = g**k mod p for k < p - 1 and
    antilog[p - 1] = 0, and log[x] = k where g**k = x, for x != 0; log[0]
    is 0 and never meaningful.  Built on first use by doubling runs of
    powers and cached per prime, like `_inverse_table`."""
    tables = _LOG_TABLES.get(p)
    if tables is None:
        g = _primitive_root(p)
        antilog = np.zeros(p, dtype=np.int64)
        antilog[0] = 1
        filled = 1
        while filled < p - 1:
            run = min(filled, p - 1 - filled)
            antilog[filled : filled + run] = antilog[:run] * pow(g, filled, p) % p
            filled += run
        log = np.zeros(p, dtype=np.uint16)
        log[antilog[: p - 1]] = np.arange(p - 1)
        tables = log, antilog.astype(np.uint16)
        _LOG_TABLES[p] = tables
    return tables


def _inverse_residues(x: np.ndarray, p: int) -> np.ndarray:
    """The inverse of each residue of the int64 or float64 array x, 0 for 0,
    with x's dtype.  Every entry of x must be an integer in [0, p).  For
    p < TABLE_PRIME_LIMIT it is a gather from the per-prime table
    (`_inverse_table`), else the int64 Fermat ladder x**(p-2) mod p
    (`_fermat_inverses`)."""
    if p < TABLE_PRIME_LIMIT:
        return _inverse_table(p)[x.astype(np.intp, copy=False)].astype(x.dtype)
    return _fermat_inverses(x.astype(np.int64, copy=False), p).astype(x.dtype, copy=False)


def _eliminate_stack(m: np.ndarray, p: int, n: int, jordan: bool) -> np.ndarray:
    """Eliminate the first n columns of every member of an (n, width, count)
    float64 stack of residues in place, the member axis last; return the
    determinant of each member's leading n x n block, as float64 residues.

    Each member pivots on the first nonzero entry of the column in row
    order, a swap negating its determinant, and the pivot row is scaled to
    1.  Rows below the pivot are cleared, and with `jordan` the rows above
    it too.  A member with no pivot in some column is singular: its
    determinant is 0 and its rows are left meaningless.  Every step is a
    few ufuncs over the whole stack.  An entry is reduced only when it is
    read: the pivot column when its step comes and the pivot row when it is
    chosen.  Every other row takes the rank-1 update -= c * pivot row, c its
    reduced entry in the pivot column.  An entry takes at most n of them,
    so they are left unreduced while n*(p-1)**2 + 2p < 2**53
    (`_float_is_delayed`); above that bound each product is reduced by
    `_mul_mod`, so an entry moves by less than p per step.  The pivots and
    the sign of each member's swaps are multiplied at the end
    (`_product_mod`).
    """
    # the pivots, then +-1 for the parity of each member's swaps
    factors = np.ones((n + 1, m.shape[2]))
    delayed = _float_is_delayed(p, n)
    for col in range(n):
        column = m[0 if jordan else col :, col]
        _reduce_float(column, p, out=column)
        # a member without a pivot keeps row `col`; its zero pivot zeroes det
        swap, rows = _pivot_rows(m, col, col)
        if swap.size:
            _swap_rows(m, swap, col, rows, col)
            factors[n, swap] = p - factors[n, swap]
        pivot = factors[col]
        pivot[:] = m[col, col]
        row = m[col, col + 1 :]
        _reduce_float(row, p, out=row)
        _mul_mod(row, _inverse_residues(pivot, p), p, out=row)
        if jordan:
            m[col, col] = 0  # so the pivot row takes no update
        first = 0 if jordan else col + 1
        c = m[first:, col, None]
        rest = m[first:, col + 1 :]
        rest -= c * row if delayed else _mul_mod(c, row, p)
    return _product_mod(factors, p)


def _product_mod(factors: np.ndarray, p: int) -> np.ndarray:
    """The product mod p of the float64 residues `factors` along their first
    axis, by halving: log2(len) `_mul_mod` calls rather than one per row."""
    while len(factors) > 1:
        half = len(factors) // 2
        head = _mul_mod(factors[:half], factors[half : 2 * half], p)
        factors = np.concatenate([head, factors[2 * half :]])
    return factors[0]


def _gauss_jordan_many(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(inverses, invertible) of a (count, n, n) stack of residues by one
    batched Gauss-Jordan on [M | I]; singular members come back as zeros."""
    count, n, _ = a.shape
    m = np.zeros((n, 2 * n, count))
    m[:, :n] = a.transpose(1, 2, 0)
    m[:, n:] = np.eye(n)[:, :, None]
    invertible = _eliminate_stack(m, p, n, jordan=True) != 0
    inverses = _reduce_float(m[:, n:], p).transpose(2, 0, 1).astype(np.int64)
    inverses[~invertible] = 0
    return inverses, invertible


def _schur_split(n: int) -> int:
    """Size h of the leading block: the even number nearest n/2.

    A skew matrix of odd size is singular, so an odd leading block would
    send every member back to Gauss-Jordan.
    """
    return 2 * ((n + 2) // 4)


def _skew_from_upper(a: np.ndarray, p: int) -> np.ndarray:
    """triu - triu^T mod p of each member of a stack: the skew matrix that
    its strict upper triangle defines."""
    upper = np.triu(a, 1)
    return (upper - upper.transpose(0, 2, 1)) % p


def _schur_inverse(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(inverses, ok) of the skew matrices that the strict upper triangles
    of a (count, n, n) float64 stack of residues define, n even and
    positive, by block recursion through the Schur complement (Strassen,
    Numer. Math. 13, 1969).

    With M = [[A, B], [-B^T, D]] and X = A^-1 B, the skew A^-1 gives
    -B^T A^-1 = X^T; S = D + B^T X is skew; and with Z = X S^-1,
    -S^-1 X^T = Z^T.  So M^-1 = [[A^-1 + Z X^T, -Z], [Z^T, S^-1]], from the
    four stacked float64 products A^-1 B, B^T X, X S^-1 and Z X^T, each
    reduced mod p.  A and S are inverted by the same recursion, which reads
    only their strict upper triangles, down to 2 x 2 blocks [[0, b], [-b, 0]]
    with inverse [[0, -1/b], [1/b, 0]].  Every product has inner dimension
    at most k = max(h, n - h).  B^T X and Z X^T are added unreduced to a
    residue while k*(p-1)**2 + 2p < 2**53, which keeps the sum exact with
    the room `_reduce_float` needs, and come reduced from `_matmul` above
    that.  ok[t] is False when b or a Schur complement of member t vanishes
    at some level; its inverse is then meaningless, though still made of
    residues.
    """
    n = a.shape[1]
    if n == 2:
        b = a[:, 0, 1].astype(np.int64)
        inv = _inverse_residues(b, p)
        out = np.zeros_like(a)
        out[:, 0, 1] = (p - inv) % p
        out[:, 1, 0] = inv
        return out, b != 0
    h = _schur_split(n)
    delayed = _float_is_delayed(p, max(h, n - h))
    A, B, D = a[:, :h, :h], a[:, :h, h:], a[:, h:, h:]
    a_inv, ok = _schur_inverse(A, p)
    x = _matmul(a_inv, B, p)
    s_inv, ok_s = _schur_inverse(
        _reduce_float(D + _product(B.transpose(0, 2, 1), x, p, delayed), p), p
    )
    z = _matmul(x, s_inv, p)
    out = np.empty_like(a)
    _reduce_float(a_inv + _product(z, x.transpose(0, 2, 1), p, delayed), p, out=out[:, :h, :h])
    _reduce_float(p - z, p, out=out[:, :h, h:])
    out[:, h:, :h] = z.transpose(0, 2, 1)
    out[:, h:, h:] = s_inv
    return out, ok & ok_s


def invert_skew_many(stack, p: int, stats: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack of n x n skew matrices, each given by its strict
    upper triangle.

    Returns (inverses, invertible) for a (count, n, n) stack: inverses[t]
    is the inverse of the skew matrix triu(M) - triu(M)^T for M = stack[t],
    byte-equal to `invert` of it where invertible[t]; the diagonal and lower
    triangle of M are never read.  Singular members come back as zero
    matrices and leave the others untouched.  At odd n every member is
    singular and at n = 0 every member is invertible, and neither runs an
    elimination.  Otherwise the stack is inverted by the skew Schur
    recursion (`_schur_inverse`) at every p, and the members it fails -- a
    vanishing b or Schur complement, or M itself singular -- are rerun
    through one batched Gauss-Jordan (`_gauss_jordan_many`) and written
    back.  The inverse is unique, so the rerun never shows in the result.
    A float64 stack holds residues and gets float64 inverses, which the
    recursion computes without a cast; any other stack is reduced mod p and
    gets int64 inverses.  `stats`, when given, gets `fallbacks` increased
    by the number of members rerun, 0 when none is; an odd or empty stack
    runs no recursion and leaves it alone.
    """
    a = np.asarray(stack)
    if a.dtype != np.float64:
        a = np.mod(np.asarray(a, dtype=np.int64), p)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    count, n, _ = a.shape
    if n % 2 or not n:
        return np.zeros_like(a), np.full(count, not n)
    inverses, invertible = _schur_inverse(a.astype(np.float64, copy=False), p)
    rerun = np.nonzero(~invertible)[0]
    if rerun.size:
        inverses[rerun], invertible[rerun] = _gauss_jordan_many(
            _skew_from_upper(a[rerun], p), p
        )
    if stats is not None:
        stats["fallbacks"] = stats.get("fallbacks", 0) + rerun.size
    return inverses.astype(a.dtype, copy=False), invertible


def solve_many(A: ScalarMatrix, B: ScalarMatrix) -> ScalarMatrix:
    """Solve A X = B for all columns of B in one elimination.

    Requires full column rank and a consistent system; the factorization is
    shared across every right-hand side.
    """
    if A.rows != B.rows:
        raise ValueError(f"row mismatch: A has {A.rows}, B has {B.rows}")
    if A.field != B.field:
        raise TypeError("A and B must live over the same field")
    p = A.field.p
    n = A.cols
    m = np.hstack([A.a, B.a]).astype(np.int64, copy=False)
    pivots, _ = _forward_eliminate(m, p, n)
    if len(pivots) < n:
        raise RankDeficient(f"column rank {len(pivots)} < {n}")
    if m[n:, n:].any():
        raise Inconsistent("right-hand side not in the column span")
    _back_substitute(m, p, pivots)
    return ScalarMatrix(A.field, m[:n, n:])


def determinant(A: ScalarMatrix) -> int:
    """Determinant of one square matrix from one recursive LU (`_factor`)
    of a float64 copy: 0 when some column has no pivot, else the swap sign
    times the product of the pivots.  The factorization scales each pivot
    row to 1 and keeps no pivot, but the solve of the pivot rows, which
    `_factor` returns when asked, is made of L^-1 blocks of at most BLOCK
    pivots whose diagonals hold the pivots' inverses (`_pivot_inverses`).
    Stacks of matrices go through `_det_array` instead."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    p, n = A.field.p, A.rows
    f = A.a.astype(np.float64)  # a copy, which the factorization overwrites
    pivots, sign, solve = _factor(f, p, 0, 0, n, True, _float_is_delayed(p, n))
    if len(pivots) < n:
        return 0
    inverse = 1
    for v in _pivot_inverses(solve):
        inverse = inverse * int(v) % p
    det = pow(inverse, -1, p)
    return det if sign == 1 else p - det


def _pivot_inverses(solve) -> list[float]:
    """The inverses of the pivots, in order: the diagonals of the L^-1
    blocks that a solve of `_factor` is made of."""
    if isinstance(solve, np.ndarray):
        return np.diagonal(solve).tolist()
    return _pivot_inverses(solve.left) + _pivot_inverses(solve.right)


def _member_last(a, p: int) -> np.ndarray:
    """The (count, n, n) stack a as a float64 (n, n, count) stack with the
    member axis last, in one transposed copy.  A float64 stack holds
    residues already (module docstring) and is copied as it is; any other
    stack is read as integers and reduced mod p first."""
    a = np.asarray(a)
    if a.dtype != np.float64:
        a = np.mod(a.astype(np.int64, copy=False), p)
    return np.ascontiguousarray(a.transpose(1, 2, 0), dtype=np.float64)


def _det_array(a, p: int) -> np.ndarray:
    """Determinants of every member of a (count, n, n) stack as a (count,)
    int64 array, by one batched elimination that clears below the pivots
    (`_eliminate_stack`)."""
    m = _member_last(a, p)
    return _eliminate_stack(m, p, m.shape[0], jordan=False).astype(np.int64)


def pfaffian_skew(A: ScalarMatrix) -> int:
    """Pfaffian of a skew-symmetric matrix of even size.

    Convention: pf([[0, a], [-a, 0]]) = a, extended by the expansion along
    the first row.  Computed in O(n^3) by congruence elimination; each
    row+column operation has determinant 1 and each swap flips the sign.
    """
    if A.rows != A.cols:
        raise ValueError("pfaffian of a non-square matrix")
    if A.rows % 2 != 0:
        raise OddSize(f"pfaffian needs even size, got {A.rows}")
    if not A.is_skew():
        raise ValueError("pfaffian of a non-skew matrix")
    return _pfaffian_array(A.a, A.field.p)


def _pfaffian_array(a, p: int):
    """Pfaffian of an (n, n) skew array as an int, or of every member of a
    (count, n, n) stack as a (count,) int64 array, by one batched elimination
    on a float64 stack with the member axis last.

    Step k swaps into row and column k+1 the first row below k with a
    nonzero entry in column k (a swap negates pf), multiplies pf by
    a[k, k+1], and clears columns k, k+1 of the lower rows by a congruence
    E A tE, which changes only the trailing block.  A member without such a
    row has pfaffian 0.  An entry is reduced only when it is read: column k
    before the search, and rows k, k+1 and column k+1 after the swap.  The
    trailing block takes two rank-1 updates per step, at most n - 2 in all,
    left unreduced while n*(p-1)**2 + 2p < 2**53 and reduced by `_mul_mod`
    above that, as in `_eliminate_stack`.
    """
    a = np.asarray(a)
    single = a.ndim == 2
    m = _member_last(a[None] if single else a, p)
    n, count = m.shape[0], m.shape[2]
    # a[k, k+1] of each step, then +-1 for the parity of each member's swaps
    factors = np.ones((n // 2 + 1, count))
    delayed = _float_is_delayed(p, n)
    for k in range(0, n - 1, 2):
        column = m[k + 1 :, k]
        _reduce_float(column, p, out=column)
        # a member without a pivot keeps row k+1, so a[k, k+1] = -a[k+1, k] = 0 zeroes pf
        swap, rows = _pivot_rows(m, k + 1, k)
        if swap.size:
            _swap_rows(m, swap, k + 1, rows, k)
            _swap_rows(m.transpose(1, 0, 2), swap, k + 1, rows, k)  # and the columns
            factors[-1, swap] = p - factors[-1, swap]
        for read in (m[k, k + 1 :], m[k + 1, k + 2 :], m[k + 2 :, k + 1]):
            _reduce_float(read, p, out=read)
        factors[k // 2] = m[k, k + 1]
        if k + 2 < n:
            f = _mul_mod(m[k + 2 :, k], _inverse_residues(m[k + 1, k], p), p)[:, None]
            g = _mul_mod(m[k + 2 :, k + 1], _inverse_residues(m[k, k + 1], p), p)[:, None]
            trailing = m[k + 2 :, k + 2 :]
            for factor, row in ((f, m[k + 1, k + 2 :]), (g, m[k, k + 2 :])):
                trailing -= factor * row if delayed else _mul_mod(factor, row, p)
    pf = _product_mod(factors, p)
    return int(pf[0]) if single else pf.astype(np.int64)
