"""Dominance certificates for the pfaffian map, plus the closed-form counts.

One certificate run: sample a random skew 2d x 2d matrix M of linear forms
in r+1 variables and measure the codimension cd = C(d+r, r) - rank of the
span of the forms X_k P_ij in the degree-d forms S_d, where P_ij is the
pfaffian of M with rows and columns i, j deleted.  That span is the image of
the tangent map of the pfaffian map at M (Beauville, "Determinantal
hypersurfaces", Michigan Math. J. 48, 2000, section 7).

The rank is read off along lines, without computing any P_ij.  A line
x(t) = a + t b has a = (a', 0, 1), b = (b', 1, 0); put A = M(a), B = M(b),
K = A^-1 B and nu_j = (-1)^j m_(d-j) for the monic Krylov relation
sum_(i<=d) m_i K^i w = 0 of column 0 of A^-1 (and of column 1 where column
0 falls short).  Q_0 = A^-1, Q_j = nu_j A^-1 - K Q_(j-1) give
Y(t) = sum_(j<d) t^j Q_j with (A + tB) Y(t) = nu(t) I exactly when
K Q_(d-1) = nu_d A^-1; a line is kept only when A is invertible and that
closure holds.  Then Y(t) = c(t) P(t), with c = nu / pf(A + tB) and P(t)
the matrix of the (-1)^(i+j) P_ij(x(t)), as (M^-1)_ij = (-1)^(i+j) P_ij /
pf(M) for i < j, so every linear relation among the X_k P_ij holds among
the line's d + 1 rows of G: the coefficients of t^j in x(t) (x) triu(Y(t)),
whose x_(r-1) = t and x_r = 1 blocks are triu(Q_(j-1)) and triu(Q_j).
When K = J (+) J with J cyclic (Thompson, below), c = 1/pf(A) and

    G = D' R C S,

with D' the invertible diagonal of the 1/pf(A), R the restriction of S_d
to the lines (the coefficients in t of f(a + t b)), C the transposed span
matrix (column (k, i, j) holds the coefficients of X_k P_ij) and S the
diagonal of the signs (-1)^(i+j).  So rank G <= rank C for any lines, with
equality once they impose independent conditions on S_d, as general lines
in P^r, r >= 3, do (Hartshorne & Hirschowitz, LNM 961, 1982).  There
ceil(N / (d+1)) + 1 lines are taken, N = C(d+r, r): one fewer lost a rank
for 4 of the first 200 seeds at (3, 10), which a count-obstructed
certificate, with its one attempt, would report.  Plane curves take d + 1,
as a degree-d form vanishing on d + 1 lines is 0.
`span_rank_by_interpolation` computes rank C by interpolating every P_ij;
tests hold the two routes against each other.

cd = 0 at a single sample is rigorous: rank is lower-semicontinuous in the
matrix coefficients, so the generic rank is at least the sampled rank, and
full rank of the differential makes the pfaffian map dominant.  cd > 0 from
a sample proves nothing by itself; non-dominance is only ever concluded
from the unconditional dimension count moduli < linear system.

From characteristic p to characteristic 0: lift the sampled matrix to
integer entries in [0, p).  The coefficient matrix C of the forms X_k P_ij
then has integer entries, and its reduction mod p is the span matrix over
GF(p), whose rank bounds rank G from above.  A minor that is nonzero mod p
is a nonzero integer, so the rank over Q is at least the rank over GF(p):
full rank of G mod p gives full rank of the differential at an integer
point in characteristic 0, and cd = 0 holds over C.  The converse fails,
since a rank can drop mod p.

Invariant for shortcuts: any change to the route from sample to rank (a
faster kernel, a different way to build the span, a random compression)
may only lower a rank, never raise it.  A lowered rank can only turn cd = 0
into cd > 0, which proves nothing; a raised rank could certify a map that is
not dominant.  The lines are such a shortcut: lines on which R drops
rank can only lower rank G.

The x_0 cut is another.  Of the C(2d, 2) columns of G that carry x_0 it
keeps only the one at the first pair a < b in triu order with
(M_0^-1)_ab != 0.  Deleting columns can only lower a rank, so the invariant
holds whatever is kept; when M_0 is invertible the rank is unchanged for
any sample and any odd p.  Write dpf(N) for the pfaffian's derivative at
M(x) in the direction N, so that dpf(E_ij - E_ji) = +-P_ij:

* pf(g M g^t) = det(g) pf(M) for g in GL(2d), applied to every M_k and
  differentiated at g = 1 in a direction X with tr X = 0, gives
  sum_k x_k dpf(X M_k + M_k X^t) = 0;
* X = N M_0^-1 / 2 sends X M_0 + M_0 X^t to any skew N and has
  tr X = tr(N M_0^-1) / 2, so x_0 dpf(N) lies in span{x_k P_ij : k >= 1}
  for every skew N in the hyperplane H = {N : tr(N M_0^-1) = 0};
* N_0 = E_ab - E_ba has tr(N_0 M_0^-1) = -2 (M_0^-1)_ab != 0, so N_0 is
  off H, and x_0 dpf(N_0) = +-x_0 P_ab is the kept column.

So span{x_k P_ij} = span{x_k P_ij : k >= 1} + <x_0 P_ab>, and the cut G has
the rank of G.

The x_1 cut takes the same identity one block further.  Let
K = M_0^-1 M_1 and A_j = K^j M_0^-1 for j < d; each A_j is skew.  When the
d x C(2d, 2) matrix with rows triu(A_j) has rank d, of the C(2d, 2) columns
that carry x_1 only its d pivot columns Q are kept:

* X = Y M_0^-1 with Y symmetric has X M_0 + M_0 X^t = 0 and tr X = 0, so
  x_1 dpf(N) lies in span{x_k P_ij : k >= 2} for every N in
  W_1 = {X M_1 + M_1 X^t : X = Y M_0^-1, Y symmetric};
* pair skew matrices by <A, N> = sum_{i<j} A_ij N_ij; then
  <A, X M_1 + M_1 X^t> = -tr(Y K A), so W_1^perp = {A skew : K A skew},
  which holds every A_j;
* A = Z M_0^-1 identifies W_1^perp with {Z : Z K = K Z, Z^t = M_0 Z M_0^-1}.
  Over the algebraic closure K is similar to J (+) J (R. C. Thompson,
  "Pencils of complex and real symmetric and skew matrices", Linear
  Algebra Appl. 147, 1991), and when I, K, ..., K^(d-1) are independent J
  is cyclic and that space is span{K^j : j < d}: W_1^perp has dimension d;
* the A_j restricted to Q form an invertible d x d matrix, so no nonzero
  combination of the e_Q lies in W_1, and the skew matrices are
  W_1 (+) span{e_Q}.

So each x_1 column off Q is a combination of the x_1 columns at Q and of
the blocks k >= 2, which stay whole, and the cut G still has the rank of
G.  When the rank of the A_j is below d -- the minimal polynomial of K has
degree below d, as for M_1 = c M_0 -- the x_1 block is kept whole; when
M_0 is singular every block is.  `_kept_columns` finds both cuts once per
certificate, with one inverse of M_0 and one d-row elimination, and a
certificate's `columns` field, the width of G, says which ran: 1 + d +
(r-1) C(2d, 2) when both did.  At d = 15 on P^3 G goes from 1740 columns
to 1306 with the x_0 cut and to 886 with both.  This is the GL(2d)
quotient behind the moduli count (n+1) d (2d-1) - 4 d^2 of section 7,
applied to the columns of G rather than to the dimension.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, exactlin, graded
from .constructions import random_linear_skew
from .exactlin import PrimeField, ScalarMatrix, _matmul, _max_terms, _mul_mod, _reduce_float
from .mpoly import SampleStream, monomial_count
from .polymat import LinearSkewMatrix, submaximal_pfaffians
from .rng import FieldRng, derive_seed

DOMINANT = "Dominant"
NOT_DOMINANT_EVIDENCE = "NotDominantEvidence"
NOT_DOMINANT_BY_COUNT = "NotDominantByCount"


# ---- closed-form counts ------------------------------------------------------


def moduli_dimension(n: int, d: int) -> int:
    """dim {skew linear 2d x 2d in n+1 vars} / GL(2d) = (n+1) d (2d-1) - 4 d^2."""
    if n < 2 or d < 1:
        raise ValueError(f"need n >= 2 and d >= 1, got ({n}, {d})")
    return (n + 1) * d * (2 * d - 1) - 4 * d * d


def linear_system_dimension(n: int, d: int) -> int:
    """Projective dimension of the degree-d hypersurfaces in P^n."""
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got ({n}, {d})")
    return monomial_count(n + 1, d) - 1


def _count_obstructed(n: int, d: int) -> bool:
    """moduli < linear system: the pfaffian map cannot be dominant at (n, d)."""
    return moduli_dimension(n, d) < linear_system_dimension(n, d)


def curve_invariants(d: int) -> tuple[int, int]:
    """(degree, genus) of the curve attached to a linear d x d determinant in P^3."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    # (d-2)(d-3) is even, and 3 divides d-3, 2d+1 or d-2 as d = 0, 1, 2 mod 3
    return d * (d - 1) // 2, (d - 2) * (d - 3) * (2 * d + 1) // 6


def gorenstein_degree(d: int) -> int:
    """Number of points (resp. degree of the codim-2 subvariety) for 2d-pfaffians."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return d * (d - 1) * (2 * d - 1) // 6  # the sum of k^2 over k < d


def plane_genus(d: int) -> int:
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return (d - 1) * (d - 2) // 2


@dataclass(frozen=True)
class FormulaTable:
    ambient: int
    degree: int
    moduli_dim: int
    linsys_dim: int
    curve_degree: int
    curve_genus: int
    gorenstein_degree: int

    def to_dict(self) -> dict:
        return asdict(self)


def formula_table(n: int, d: int) -> FormulaTable:
    cd, cg = curve_invariants(d)
    return FormulaTable(
        ambient=n,
        degree=d,
        moduli_dim=moduli_dimension(n, d),
        linsys_dim=linear_system_dimension(n, d),
        curve_degree=cd,
        curve_genus=cg,
        gorenstein_degree=gorenstein_degree(d),
    )


# ---- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class DominanceCertificate:
    ambient: int
    degree: int
    prime: int
    seed: int
    attempts: int
    codim: int
    rank_achieved: int
    target_dim: int
    sample_points_used: int
    elapsed_seconds: float
    verdict: str
    matrix_hash: str
    inverse_fallbacks: int
    columns: int
    version: str = __version__

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_row(self) -> str:
        return (
            f"{self.ambient},{self.degree},{self.prime},{self.seed},{self.codim},"
            f"{self.rank_achieved},{self.target_dim},{self.verdict},"
            f"{self.elapsed_seconds * 1000:.1f}"
        )

    @staticmethod
    def csv_header() -> str:
        return "r,d,prime,seed,cd,rank,target,verdict,elapsed_ms"


def _span_rank(
    L: LinearSkewMatrix, d: int, seed: int, stats: dict | None = None
) -> tuple[int, int, int]:
    """(rank of G, target dim, lines drawn), with G's stacks freed before
    its rank.  `stats` gets `columns`, G's width, and `inverse_fallbacks`,
    the base points a rerun through Gauss-Jordan."""
    route: dict = {}
    G = _line_matrix(L, d, seed, route)
    if stats is not None:
        stats.update(columns=G.shape[1], inverse_fallbacks=route["fallbacks"])
    return exactlin.rank(ScalarMatrix(L.field, G)), monomial_count(L.nvars, d), route["drawn"]


def _line_matrix(L: LinearSkewMatrix, d: int, seed: int, route: dict) -> np.ndarray:
    """G from the first usable lines of a `mpoly.SampleStream`, a line
    being the a', b' of one draw.  G is allocated once, for every line the
    certificate needs, when the first batch has done its pencil work; each
    batch writes its rows after the lines kept so far, and its usable lines
    are moved down over its unusable ones in place.  `route` gets `drawn`
    and `fallbacks`."""
    r = L.nvars - 1
    target = monomial_count(L.nvars, d)
    needed = d + 1 if r == 2 else -(-target // (d + 1)) + 1
    blocks = _kept_columns(L)
    stream = SampleStream(L.field, 2 * r - 2, seed, "lines")
    G = None
    route["fallbacks"] = 0

    def free_lines(count: int, width: int) -> np.ndarray:
        nonlocal G
        if G is None:
            G = np.empty((d + 1, needed, width))
        return G[:, stream.kept : stream.kept + count]

    for batch in stream.batches(needed):
        rows, usable = _line_rows(L, d, batch, blocks, route, free_lines)
        kept = np.flatnonzero(usable)
        for i, line in enumerate(kept.tolist()):
            if i != line:
                rows[:, i] = rows[:, line]
        stream.keep(len(kept))
    route["drawn"] = stream.drawn
    G = G[:, : stream.kept]  # copied below only when the stream ran out of lines
    return G.reshape(-1, G.shape[2])


def _line_rows(
    L: LinearSkewMatrix, d: int, lines: np.ndarray, blocks: list, route: dict, out=None
):
    """(rows, usable): the d + 1 rows of each line at the kept columns, and
    whether A is invertible and the recurrence closes (module docstring).
    Rows j = 0 and j = d, each with a zero block, come last, which spares
    G's elimination row swaps.  `rows` is a (d + 1, len(lines), width)
    array, `out(len(lines), width)` when `out` is given, else a new one.

    It is taken last.  M(a) is freed once inverted, K = A^-1 B is written
    over M(b), and the recurrence runs on one part of the lines at a time,
    in two buffers taken before `rows` in the room the pencil work left:
    the fewest equal parts whose buffers hold at most `exactlin.SLAB`
    entries (`exactlin._slabs`), two halves at (3, 15) and (3, 16).  So
    beside `rows` sit only A^-1, K and those buffers, and they are freed
    before the x_0..x_(r-2) blocks are written."""
    p, r, n = L.field.p, L.nvars - 1, L.size
    count = len(lines)
    ends = np.zeros((2, count, L.nvars), dtype=np.int64)
    ends[0, :, : r - 1], ends[0, :, r] = lines[:, : r - 1], 1
    ends[1, :, : r - 1], ends[1, :, r - 1] = lines[:, r - 1 :], 1
    inverse, invertible = exactlin.invert_skew_many(L.evaluate_batch(ends[0]), p, route)
    K = L.evaluate_batch(ends[1])  # M(b), which K = A^-1 M(b) overwrites
    _matmul(inverse, K, p, out=K)
    x, solved = _krylov_relation(K, inverse[:, :, :1], d, p)
    if not solved.all():  # column 0 alone is not cyclic: add column 1
        x[:, ~solved] = _krylov_relation(K[~solved], inverse[~solved, :, :2], d, p)[0]
    # K^d w = sum_i x_i K^i w, so nu_j = (-1)^(j+1) x_(d-j), held at nu[j - 1]
    nu = np.where(np.arange(1, d + 1)[:, None] % 2, x[::-1], (p - x[::-1]) % p)
    upper = np.triu_indices(n, 1)
    flat = upper[0] * n + upper[1]
    index = [np.arange(len(flat))[cols] for cols in blocks]
    lead = np.concatenate(index[: r - 1])  # the columns of x_0..x_(r-2)
    edge = [len(lead), len(lead) + len(index[r - 1])]
    at = [d - 1, *range(d - 1), d]  # the row of each j
    parts = exactlin._slabs((count, 2 * n * n))  # two buffers of a part hold at most SLAB
    longest = len(inverse[parts[0]])
    work = np.empty((2, longest, n, n))
    tri = np.empty((longest, len(flat)))
    S = np.zeros((d + 2, count, len(lead)))  # S[j + 1] = triu(Q_j) at `lead`
    closes = np.empty(count, dtype=bool)
    width = edge[1] + len(index[r])
    rows = np.empty((d + 1, count, width)) if out is None else out(count, width)
    delayed = _max_terms(p, exactlin.FLOAT_EXACT, p) > n
    for part in parts:
        Q = inverse[part]
        m = len(Q)
        t = tri[:m]
        for j in range(d):
            np.take(Q.reshape(m, -1), flat, axis=1, out=t, mode="clip")
            rows[at[j], part, edge[1] :] = t[:, blocks[r]]
            rows[at[j + 1], part, edge[0] : edge[1]] = t[:, blocks[r - 1]]
            np.take(t, lead, axis=1, out=S[j + 1, part], mode="clip")
            c = nu[j, part, None, None]
            if delayed:  # K Q_j into one buffer, then nu_(j+1) A^-1 - K Q_j in the other
                np.matmul(K[part], Q, out=work[j % 2, :m])
                np.multiply(c, inverse[part], out=work[1 - j % 2, :m])
                work[1 - j % 2, :m] -= work[j % 2, :m]
                Q = _reduce_float(work[1 - j % 2, :m], p, out=work[j % 2, :m])
            else:
                Q = _reduce_float(_mul_mod(c, inverse[part], p) - _matmul(K[part], Q, p), p)
        closes[part] = ~Q.any(axis=(1, 2))
    del inverse, K, work, tri, t, Q
    rows[at[0], :, edge[0] : edge[1]] = 0
    rows[at[d], :, edge[1] :] = 0
    # the x_0..x_(r-2) blocks: a_k triu(Q_j) + b_k triu(Q_(j-1))
    j = np.argsort(at)
    k = np.repeat(np.arange(r - 1), [len(i) for i in index[: r - 1]])
    a, b = lines[:, k].astype(np.float64), lines[:, k + r - 1].astype(np.float64)
    both = _mul_mod(a, S[j + 1], p) + _mul_mod(b, S[j], p)
    _reduce_float(both, p, out=rows[:, :, : edge[0]])
    return rows, invertible & closes


def _krylov_relation(K: np.ndarray, w: np.ndarray, d: int, p: int):
    """(x, solved): K^d w = sum_(i<d) x_i K^i w, by one Gauss-Jordan of
    [w, ..., K^d w] pivoting per member, solved where that has rank d."""
    count, n, columns = w.shape
    krylov = np.empty((n * columns, d + 1, count))
    for i in range(d + 1):
        krylov[:, i] = w.transpose(1, 2, 0).reshape(-1, count)
        if i < d:
            w = _matmul(K, w, p)
    solved = exactlin._eliminate_stack(krylov, p, d, jordan=True) != 0
    return _reduce_float(krylov[:d, d], p), solved


def _kept_columns(L: LinearSkewMatrix) -> list[np.ndarray | slice]:
    """The columns G keeps of each x_k block, as triu indices (module
    docstring).  With M_0 invertible: in the x_0 block the first pair a < b
    with (M_0^-1)_ab != 0, and in the x_1 block the d pivot columns of the
    matrix whose rows are triu(K^j M_0^-1), j < d, K = M_0^-1 M_1, when it
    has rank d.  Every other block, and every block when M_0 is singular,
    is kept whole, as slice(None), which selects every triu index."""
    p = L.field.p
    upper = np.triu_indices(L.size, 1)
    kept: list[np.ndarray | slice] = [slice(None)] * L.nvars
    inverse, invertible = exactlin.invert_skew_many(L.coeff[:1], p)
    if not invertible[0]:
        return kept
    powers = [inverse[0]]
    K = exactlin._matmul(inverse[0], L.coeff[1], p)
    for _ in range(1, L.size // 2):
        powers.append(exactlin._matmul(K, powers[-1], p))
    krylov = np.stack([a[upper] for a in powers])
    kept[0] = np.flatnonzero(krylov[0])[:1]
    pivots = exactlin.pivot_columns(ScalarMatrix(L.field, krylov))
    if len(pivots) == len(krylov):
        kept[1] = np.array(pivots)
    return kept


def span_rank_by_interpolation(
    L: LinearSkewMatrix, d: int, seed: int
) -> tuple[int, int, int]:
    """(rank of span{X_k P_ij}, target dim, sample points used), the slow way.

    Interpolates every submaximal pfaffian P_ij; the forms X_k P_ij span the
    degree-d piece of the ideal (P_ij), whose dimension is the rank of the
    span matrix C of the module docstring.  Tests use it as the reference
    for the evaluation rank of `_span_rank`.
    """
    stats: dict = {}
    pfaffs = submaximal_pfaffians(L, seed=seed, stats=stats)
    rank = graded.ideal_piece_dim(list(pfaffs.values()), d)
    return rank, monomial_count(L.nvars, d), stats["points_used"]


def pfaffian_codim(
    r: int,
    d: int,
    prime: int = exactlin.DEFAULT_PRIME,
    seed: int = 0,
    attempt: int = 1,
) -> DominanceCertificate:
    """One sampled certificate for the (r, d) pfaffian dominance question."""
    if r not in (2, 3, 4, 5):
        raise ValueError(f"ambient r must be in 2..5, got {r}")
    if d < 2:
        raise ValueError(f"degree must be at least 2, got {d}")
    field = PrimeField(prime)
    t0 = time.perf_counter()
    rng = FieldRng(seed, "dominance", r, d, attempt)
    L = random_linear_skew(field, r + 1, 2 * d, rng)
    route: dict = {}
    rank, target, points = _span_rank(L, d, derive_seed(seed, "interp", r, d, attempt), route)
    codim = target - rank
    elapsed = time.perf_counter() - t0
    if codim == 0:
        verdict = DOMINANT
    elif _count_obstructed(r, d):
        verdict = NOT_DOMINANT_BY_COUNT
    else:
        verdict = NOT_DOMINANT_EVIDENCE
    return DominanceCertificate(
        ambient=r,
        degree=d,
        prime=prime,
        seed=seed,
        attempts=attempt,
        codim=codim,
        rank_achieved=rank,
        target_dim=target,
        sample_points_used=points,
        elapsed_seconds=elapsed,
        verdict=verdict,
        matrix_hash=L.content_hash(),
        inverse_fallbacks=route["inverse_fallbacks"],
        columns=route["columns"],
    )


def is_dominant(
    r: int,
    d: int,
    prime: int = exactlin.DEFAULT_PRIME,
    seed: int = 0,
    retries: int = 3,
) -> tuple[bool, DominanceCertificate]:
    """True on the first sample with cd = 0; counting obstruction short-circuits.

    When moduli < linsys no number of samples could make the map dominant, so
    a single sample is recorded for the certificate and no retries are spent.
    """
    by_count = _count_obstructed(r, d)
    budget = 1 if by_count else max(1, retries)
    best: DominanceCertificate | None = None
    for attempt in range(1, budget + 1):
        cert = pfaffian_codim(r, d, prime=prime, seed=seed, attempt=attempt)
        if cert.codim == 0 and not by_count:
            return True, cert
        if best is None or cert.codim < best.codim:
            best = cert
    assert best is not None
    return False, best


def lower_bound_for_dominant_degree(
    r: int,
    prime: int = exactlin.DEFAULT_PRIME,
    seed: int = 0,
    retries: int = 3,
) -> tuple[int, list[DominanceCertificate]]:
    """Largest d (scanning upward from 3) for which the map is dominant.  The
    scan ends by the first count-obstructed degree (16, 6, 3 for r = 3, 4, 5);
    plane curves (r = 2) are never obstructed and have no threshold."""
    if r not in (3, 4, 5):
        raise ValueError(f"ambient r must be in 3..5 for a threshold, got {r}")
    trail: list[DominanceCertificate] = []
    for d in itertools.count(3):
        ok, cert = is_dominant(r, d, prime=prime, seed=seed, retries=retries)
        trail.append(cert)
        if not ok:
            return d - 1, trail


def dominance_sweep(
    r: int,
    max_degree: int,
    prime: int = exactlin.DEFAULT_PRIME,
    seed: int = 0,
    retries: int = 3,
    min_degree: int = 3,
    workers: int = 1,
) -> list[DominanceCertificate]:
    """Certificates for d = min_degree..max_degree, ordered by degree."""
    degrees = list(range(min_degree, max_degree + 1))

    def run(d: int) -> DominanceCertificate:
        return is_dominant(r, d, prime=prime, seed=seed, retries=retries)[1]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, degrees))
    return [run(d) for d in degrees]
