"""Dominance certificates for the pfaffian map, plus the closed-form counts.

One certificate run: sample a random skew 2d x 2d matrix M of linear forms
in r+1 variables and measure the codimension cd = C(d+r, r) - rank of the
span of the forms X_k P_ij in the degree-d forms S_d, where P_ij is the
pfaffian of M with rows and columns i, j deleted.  That span is the image of
the tangent map of the pfaffian map at M (Beauville, "Determinantal
hypersurfaces", Michigan Math. J. 48, 2000, section 7).

The rank is read off by evaluation, without computing any P_ij.  Sample
N = C(d+r, r) points x at which M(x) is invertible, invert all N matrices in
one batch (`exactlin.invert_many`), and give each point the row
x (x) triu(M(x)^-1) of length (r+1) C(2d, 2).  The rank of this N-row matrix
E is the certificate's rank.  Since (M^-1)_ij = (-1)^(i+j) P_ij(x) / pf(M(x))
for i < j, the matrix factors as

    E = D V C S,

with D the invertible diagonal of the 1/pf(M(x)), V the N x C(d+r, r)
degree-d Vandermonde matrix of the points, C the transposed span matrix
(column (k, i, j) holds the coefficients of X_k P_ij) and S the diagonal of
the signs (-1)^(i+j).  Hence rank E <= rank C for any points, with equality
when V is invertible.  `span_rank_by_interpolation` computes rank C itself,
by interpolating every P_ij; tests hold the two routes against each other.

cd = 0 at a single sample is rigorous: rank is lower-semicontinuous in the
matrix coefficients, so the generic rank is at least the sampled rank, and
full rank of the differential makes the pfaffian map dominant.  cd > 0 from
a sample proves nothing by itself; non-dominance is only ever concluded
from the unconditional dimension count moduli < linear system.

From characteristic p to characteristic 0: lift the sampled matrix to
integer entries in [0, p).  The coefficient matrix C of the forms X_k P_ij
then has integer entries, and its reduction mod p is the span matrix over
GF(p), whose rank bounds rank E from above.  A minor that is nonzero mod p
is a nonzero integer, so the rank over Q is at least the rank over GF(p):
full rank of E mod p gives full rank of the differential at an integer
point in characteristic 0, and cd = 0 holds over C.  The converse fails,
since a rank can drop mod p.

Invariant for shortcuts: any change to the route from sample to rank (a
faster kernel, a different way to build the span, a random compression)
may only lower a rank, never raise it.  A lowered rank can only turn cd = 0
into cd > 0, which proves nothing; a raised rank could certify a map that is
not dominant.  Evaluation is such a shortcut: fewer rows (a capped point
budget) or points on which V drops rank can only lower rank E.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import __version__, exactlin
from .exactlin import PrimeField, ScalarMatrix
from .constructions import random_linear_skew
from .mpoly import check_degenerate, monomial_basis, monomial_count, sample_points
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


class NonIntegral(ArithmeticError):
    pass


def curve_invariants(d: int) -> tuple[int, int]:
    """(degree, genus) of the curve attached to a linear d x d determinant in P^3."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    deg_num = d * (d - 1)
    gen_num = (d - 2) * (d - 3) * (2 * d + 1)
    if deg_num % 2 or gen_num % 6:
        raise NonIntegral(f"formulas not integral at d={d}")
    return deg_num // 2, gen_num // 6


def gorenstein_degree(d: int) -> int:
    """Number of points (resp. degree of the codim-2 subvariety) for 2d-pfaffians."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    num = d * (d - 1) * (2 * d - 1)
    if num % 6:
        raise NonIntegral(f"formula not integral at d={d}")
    return num // 6


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
        return {
            "ambient": self.ambient,
            "degree": self.degree,
            "moduli_dim": self.moduli_dim,
            "linsys_dim": self.linsys_dim,
            "curve_degree": self.curve_degree,
            "curve_genus": self.curve_genus,
            "gorenstein_degree": self.gorenstein_degree,
        }


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
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "ambient": self.ambient,
            "degree": self.degree,
            "prime": self.prime,
            "seed": self.seed,
            "attempts": self.attempts,
            "codim": self.codim,
            "rank_achieved": self.rank_achieved,
            "target_dim": self.target_dim,
            "sample_points_used": self.sample_points_used,
            "elapsed_seconds": self.elapsed_seconds,
            "verdict": self.verdict,
            "matrix_hash": self.matrix_hash,
            "version": self.version,
        }

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
    L: LinearSkewMatrix, d: int, seed: int, max_points: int | None = None
) -> tuple[int, int, int]:
    """(rank of the evaluation matrix, target dim, sample points drawn).

    Rows are x (x) triu(M(x)^-1) at N = C(d+r, r) points where M(x) is
    invertible; singular points are dropped and replaced.  `max_points`
    caps the points drawn, singular ones included, and is never below N;
    when the cap leaves fewer than N rows the rank can only be lower.
    """
    field = L.field
    nvars = L.nvars
    target = monomial_count(nvars, d)
    cap = None if max_points is None else max(target, max_points)
    upper = np.triu_indices(L.size, 1)
    points = np.empty((0, nvars), dtype=np.int64)
    entries = np.empty((0, len(upper[0])), dtype=np.int64)
    drawn = singular = 0
    # the point stream submaximal_pfaffians draws from for the same seed
    stream = derive_seed(seed, "subpf")
    while len(points) < target and (cap is None or drawn < cap):
        count = target - len(points)
        if cap is not None:
            count = min(count, cap - drawn)
        fresh = sample_points(field, nvars, stream, drawn, count)
        drawn += count
        inverses, ok = exactlin.invert_many(L.evaluate_batch(fresh), field.p)
        singular += count - int(ok.sum())
        check_degenerate(drawn, singular)
        points = np.vstack([points, fresh[ok]])
        entries = np.vstack([entries, inverses[ok][:, upper[0], upper[1]]])
    rows = (points[:, :, None] * entries[:, None, :]).reshape(len(points), -1)
    return exactlin.rank(ScalarMatrix(field, rows)), target, drawn


def span_rank_by_interpolation(
    L: LinearSkewMatrix, d: int, seed: int
) -> tuple[int, int, int]:
    """(rank of span{X_k P_ij}, target dim, sample points used), the slow way.

    Interpolates every submaximal pfaffian P_ij, then takes the rank of the
    coefficient vectors of the forms X_k P_ij in the degree-d monomial basis.
    This is the span matrix C of the module docstring itself; tests use it
    as the reference for the evaluation rank of `_span_rank`.
    """
    field = L.field
    r_plus_1 = L.nvars
    stats: dict = {}
    pfaffs = submaximal_pfaffians(L, seed=seed, stats=stats)
    basis_lo = monomial_basis(r_plus_1, d - 1)
    basis_hi = monomial_basis(r_plus_1, d)
    target = len(basis_hi)
    # index maps: multiplication by X_k shifts exponents
    shift_maps = []
    for k in range(r_plus_1):
        idx = np.empty(len(basis_lo), dtype=np.int64)
        for t, e in enumerate(basis_lo.exponents):
            e2 = tuple(v + 1 if j == k else v for j, v in enumerate(e))
            idx[t] = basis_hi.index(e2)
        shift_maps.append(idx)
    rows = np.zeros((r_plus_1 * len(pfaffs), target), dtype=np.int64)
    for t, (pair, form) in enumerate(sorted(pfaffs.items())):
        vec = form.coefficient_vector(basis_lo)
        for k in range(r_plus_1):
            rows[t * r_plus_1 + k, shift_maps[k]] = vec
    rank = exactlin.rank(ScalarMatrix(field, rows))
    return rank, target, stats["points_used"]


def pfaffian_codim(
    r: int,
    d: int,
    prime: int = exactlin.DEFAULT_PRIME,
    seed: int = 0,
    attempt: int = 1,
    max_points: int | None = None,
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
    rank, target, points = _span_rank(
        L, d, derive_seed(seed, "interp", r, d, attempt), max_points=max_points
    )
    codim = target - rank
    elapsed = time.perf_counter() - t0
    if codim == 0:
        verdict = DOMINANT
    elif moduli_dimension(r, d) < linear_system_dimension(r, d):
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
        matrix_hash=L.to_graded().content_hash(),
    )


def is_dominant(
    r: int,
    d: int,
    prime: int = exactlin.DEFAULT_PRIME,
    seed: int = 0,
    retries: int = 3,
    max_points: int | None = None,
) -> tuple[bool, DominanceCertificate]:
    """True on the first sample with cd = 0; counting obstruction short-circuits.

    When moduli < linsys no number of samples could make the map dominant, so
    a single sample is recorded for the certificate and no retries are spent.
    """
    by_count = moduli_dimension(r, d) < linear_system_dimension(r, d)
    budget = 1 if by_count else max(1, retries)
    best: DominanceCertificate | None = None
    for attempt in range(1, budget + 1):
        cert = pfaffian_codim(
            r, d, prime=prime, seed=seed, attempt=attempt, max_points=max_points
        )
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
    start: int = 3,
    max_degree: int = 64,
    max_points: int | None = None,
) -> tuple[int, list[DominanceCertificate]]:
    """Largest d (scanning upward from `start`) for which the map is dominant."""
    trail: list[DominanceCertificate] = []
    d = start
    while d <= max_degree:
        ok, cert = is_dominant(
            r, d, prime=prime, seed=seed, retries=retries, max_points=max_points
        )
        trail.append(cert)
        if not ok:
            return d - 1, trail
        d += 1
    raise RuntimeError(f"still dominant at degree {max_degree}; no upper threshold found")


def dominance_sweep(
    r: int,
    max_degree: int,
    prime: int = exactlin.DEFAULT_PRIME,
    seed: int = 0,
    retries: int = 3,
    min_degree: int = 3,
    workers: int = 1,
    max_points: int | None = None,
) -> list[DominanceCertificate]:
    """Certificates for d = min_degree..max_degree, ordered by degree."""
    degrees = list(range(min_degree, max_degree + 1))

    def run(d: int) -> DominanceCertificate:
        return is_dominant(
            r, d, prime=prime, seed=seed, retries=retries, max_points=max_points
        )[1]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, degrees))
    return [run(d) for d in degrees]
