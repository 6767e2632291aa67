"""The three benchmark workloads: seeded inputs, the operations, answer checks.

Every workload is a fixed list of operations built from the run seed alone.
One operation is one call of `dominance.is_dominant`, `graded.coker_hilbert`,
`polymat.determinant` or `graded.det_in_minor_ideal`.  Expected answers come
from closed forms computed here, never from `detpf.dominance`:

* cd = max(0, C(d+r, r) - ((r+1) d (2d-1) - 4 d^2) - 1), and the verdict
  follows the count (cd > 0 happens exactly when moduli < linear system);
* the cokernel of a generic linear d x d matrix in 4 variables has Hilbert
  function d * C(j+2, 2);
* an interpolated determinant has degree d and agrees with the numeric
  determinant of M(x) at fresh points (an independent slow path);
* det M lies in the ideal of the maximal minors of M minus its first row.

This module imports neither numpy nor detpf at import time, so that the
set-up probe can time those imports.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

PRIME = 31991
NVARS_GRADED = 4

# Why each workload exists, and which layer it is meant to stress.
# small-certs is not listed in BENCHMARK.json: on a shared 2-vCPU host its
# wall_s spread over ten seeds (IQR/median 0.15-0.24) and the drift of its
# median between two sets of runs (+22 %) sit at the largest allowed bound.
# It still runs by name, for A/B comparisons with many paired runs.
WHY = {
    "surface-high": "paper threshold d=15 and count-obstructed d=16 in P3; large dense eliminations dominate",
    "small-certs": "200 small certificates (at most 210 columns); Python per-call overhead dominates",
    "graded-toolkit": "Hilbert functions, determinants and minors membership; no dominance code runs",
}

# (r, d) grids and sizes.  TINY has the same shape at sizes that run in
# about a second, for the benchmark's own tests.
FULL = {
    "surface-high": {"grid": [(3, 15), (3, 16)]},
    "small-certs": {
        "grid": [(2, d) for d in range(3, 11)]
        + [(3, d) for d in range(3, 9)]
        + [(4, d) for d in range(3, 7)]
        + [(5, d) for d in range(3, 5)],
        "seeds": 10,
    },
    "graded-toolkit": {
        "hilbert": [4, 6, 8],
        "hilbert_degrees": range(0, 9),
        "det": [10, 12, 14],
        "minors": [6, 7],
    },
}
TINY = {
    "surface-high": {"grid": [(3, 5), (5, 3)]},
    "small-certs": {"grid": [(2, 3), (3, 4), (4, 3)], "seeds": 2},
    "graded-toolkit": {
        "hilbert": [3],
        "hilbert_degrees": range(0, 4),
        "det": [7],
        "minors": [4],
    },
}
CHECK_POINTS = 2


class WrongAnswer(AssertionError):
    """An operation returned something other than the expected answer."""


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    args: tuple
    expect: object


def expected_codim(r: int, d: int) -> int:
    moduli = (r + 1) * d * (2 * d - 1) - 4 * d * d
    return max(0, math.comb(d + r, r) - moduli - 1)


def expected_dominance(r: int, d: int) -> dict:
    cd = expected_codim(r, d)
    return {
        "cd": cd,
        "target": math.comb(d + r, r),
        "dominant": cd == 0,
        "verdict": "Dominant" if cd == 0 else "NotDominantByCount",
    }


def _linear_matrix(rng: random.Random, d: int):
    """Random linear d x d GradedMatrix in NVARS_GRADED variables."""
    from detpf.exactlin import PrimeField
    from detpf.mpoly import HomogeneousForm
    from detpf.polymat import GradedMatrix

    field = PrimeField(PRIME)
    units = [tuple(int(k == v) for k in range(NVARS_GRADED)) for v in range(NVARS_GRADED)]
    entries = [
        [
            HomogeneousForm(field, NVARS_GRADED, 1, {e: rng.randrange(PRIME) for e in units})
            for _ in range(d)
        ]
        for _ in range(d)
    ]
    return GradedMatrix(field, NVARS_GRADED, (0,) * d, (-1,) * d, entries)


def build_ops(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's operations for this seed; also imports detpf."""
    import detpf.dominance  # noqa: F401  (set-up includes the import)
    import detpf.graded  # noqa: F401

    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    spec = (TINY if tiny else FULL)[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    ops: list[Op] = []
    if workload in ("surface-high", "small-certs"):
        for _ in range(spec.get("seeds", 1)):
            s = rng.randrange(1 << 32)
            for r, d in spec["grid"]:
                ops.append(
                    Op("is_dominant", f"r={r} d={d} seed={s}", (r, d, s), expected_dominance(r, d))
                )
        return ops
    for d in spec["hilbert"]:
        M = _linear_matrix(rng, d)
        for j in spec["hilbert_degrees"]:
            ops.append(
                Op("coker_hilbert", f"d={d} j={j}", (M, j), d * math.comb(j + 2, 2))
            )
    for d in spec["det"]:
        M = _linear_matrix(rng, d)
        pts = [
            tuple(rng.randrange(PRIME) for _ in range(NVARS_GRADED))
            for _ in range(CHECK_POINTS)
        ]
        ops.append(
            Op("determinant", f"d={d}", (M, rng.randrange(1 << 32)), {"degree": d, "points": pts})
        )
    for d in spec["minors"]:
        M = _linear_matrix(rng, d)
        ops.append(Op("det_in_minor_ideal", f"d={d}", (M, rng.randrange(1 << 32)), True))
    return ops


def execute(op: Op):
    """Run one operation through detpf's public entry points."""
    from detpf import dominance, graded, polymat

    if op.kind == "is_dominant":
        r, d, s = op.args
        return dominance.is_dominant(r, d, prime=PRIME, seed=s)
    if op.kind == "coker_hilbert":
        return graded.coker_hilbert(*op.args)
    if op.kind == "determinant":
        M, s = op.args
        return polymat.determinant(M, seed=s)
    if op.kind == "det_in_minor_ideal":
        M, s = op.args
        return graded.det_in_minor_ideal(M, seed=s)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _require(cond: bool, op: Op, what: str) -> None:
    if not cond:
        raise WrongAnswer(f"{op.kind} {op.label}: {what}")


def check(op: Op, result) -> dict:
    """Compare a result with the expectation; return its mathematical outputs.

    The returned record holds no wall-clock data, so it can be hashed into
    the reproducibility digest.
    """
    if op.kind == "is_dominant":
        ok, cert = result
        exp = op.expect
        got = {
            "cd": cert.codim,
            "rank": cert.rank_achieved,
            "target": cert.target_dim,
            "verdict": cert.verdict,
            "matrix_hash": cert.matrix_hash,
        }
        _require(cert.codim == exp["cd"], op, f"cd {cert.codim} != {exp['cd']}")
        _require(cert.target_dim == exp["target"], op, f"target {cert.target_dim} != {exp['target']}")
        _require(cert.rank_achieved == exp["target"] - exp["cd"], op, f"rank {cert.rank_achieved}")
        _require(bool(ok) == exp["dominant"], op, f"dominant {ok} != {exp['dominant']}")
        _require(cert.verdict == exp["verdict"], op, f"verdict {cert.verdict} != {exp['verdict']}")
        return got
    if op.kind == "coker_hilbert":
        _require(result == op.expect, op, f"Hilbert value {result} != {op.expect}")
        return {"hilbert": result}
    if op.kind == "determinant":
        from detpf import exactlin

        M = op.args[0]
        exp = op.expect
        _require(result.degree == exp["degree"], op, f"degree {result.degree} != {exp['degree']}")
        _require(not result.is_zero(), op, "determinant is the zero form")
        for x in exp["points"]:
            want = exactlin.determinant(M.evaluate(x))
            _require(result.evaluate(x) == want, op, f"det(M({x})) != {want}")
        return {"det": sorted([list(e), c] for e, c in result.coeffs.items())}
    if op.kind == "det_in_minor_ideal":
        _require(result is op.expect, op, f"membership {result} != {op.expect}")
        return {"in_minor_ideal": result}
    raise ValueError(f"unknown operation kind {op.kind!r}")


def digest(records: list[dict]) -> str:
    """SHA-256 over the mathematical outputs of one pass, in operation order."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
