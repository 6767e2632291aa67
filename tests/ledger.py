"""Reproducibility ledger: SHA-256 digests of certificates and toolkit outputs.

Each entry names one output and the digest of its text: a dominance
certificate as sorted JSON without its wall-clock key, a form or a matrix in
its file format, a Hilbert function as `j h(j)` lines.  `test_ledger.py`
recomputes every entry and compares it with `ledger.json`.  A change that
moves bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/ledger.py

and lists the entries that moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Callable, Iterator

from detpf import cli, constructions, dominance, graded, polymat
from detpf.constructions import ResolutionShape, random_graded_matrix
from detpf.exactlin import PrimeField, ScalarMatrix, determinant
from detpf.polymat import GENERAL, SKEW, SYMMETRIC, LinearSkewMatrix
from detpf.rng import FieldRng

LEDGER = Path(__file__).with_name("ledger.json")

CERTIFICATE_SHAPES = ((3, 5), (3, 6), (4, 5), (5, 3))
CERTIFICATE_PRIMES = (5, 7, 11, 31991, 16777213, 2**31 - 1)
INTERPOLATION_PRIMES = (7, 31991, 2**31 - 1)
EXPANSION_PRIMES = (3, 7, 31991)


def _certificate(r: int, d: int, p: int, seed: int) -> str:
    _, cert = dominance.is_dominant(r, d, prime=p, seed=seed)
    doc = cert.to_dict()
    del doc["elapsed_seconds"]
    return json.dumps(doc, sort_keys=True)


def _forms(forms) -> str:
    return "".join(f.to_text() for f in forms)


def _pairs(pfaffians: dict) -> str:
    return "".join(f"pair {i} {j}\n{f.to_text()}" for (i, j), f in sorted(pfaffians.items()))


def _hilbert(M, degrees: range) -> str:
    return "".join(f"{j} {graded.coker_hilbert(M, j)}\n" for j in degrees)


def _theta_text(d: int, seed: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["construct", "theta-shape", "--degree", str(d), "--seed", str(seed)])
    return out.getvalue()


def _random(p: int, rows, cols, symmetry: str, *label, nvars: int = 3):
    shape = ResolutionShape(tuple(rows), tuple(cols), symmetry)
    return random_graded_matrix(PrimeField(p), nvars, shape, FieldRng("ledger", p, *label))


def _square_cases(p: int) -> Iterator[tuple[str, polymat.GradedMatrix]]:
    """Square matrices of at most six rows: linear, mixed twists with
    forced zeros, and twists of negative degree (the zero form)."""
    for n in (1, 4, 6):
        yield f"linear{n}", _random(p, (0,) * n, (-1,) * n, GENERAL, "linear", n)
    yield "mixed5", _random(p, (2, 1, 1, 0, 0), (0, 0, -1, -1, 1), GENERAL, "mixed")
    yield "negative3", _random(p, (0,) * 3, (1,) * 3, GENERAL, "negative")


def _skew_cases(p: int, sizes=(2, 4, 6, 8)) -> Iterator[tuple[str, polymat.GradedMatrix]]:
    """Skew matrices of at most eight rows: linear, mixed twists whose
    pairs of degree below zero are zero, and twists of negative degree."""
    for n in sizes:
        L = LinearSkewMatrix.random(PrimeField(p), 3, n, FieldRng("ledger", p, n))
        yield f"linear{n}", L.to_graded()
    yield "mixed6", _random(p, (1, 1, 0, 0, -1, -1), (-1, -1, 0, 0, 1, 1), SKEW, "mixed")
    yield "quadratic4", _random(p, (0,) * 4, (-2,) * 4, SKEW, "quadratic")
    yield "negative4", _random(p, (0,) * 4, (1,) * 4, SKEW, "negative")


def _congruence(p: int, symmetry: str, n: int) -> str:
    """A M tA for M linear of size n and a random invertible A."""
    field = PrimeField(p)
    rng = FieldRng("ledger", p, "congruence", symmetry, n)
    M = random_graded_matrix(field, 3, ResolutionShape((0,) * n, (-1,) * n, symmetry), rng)
    while True:
        A = ScalarMatrix(field, [[rng.below(p) for _ in range(n)] for _ in range(n)])
        if determinant(A):
            return polymat.congruence_transform(M, A).to_text()


def cases() -> Iterator[tuple[str, Callable[[], str]]]:
    """(name, text) pairs of every ledger entry, the text computed lazily."""
    for r, d in CERTIFICATE_SHAPES:
        for p in CERTIFICATE_PRIMES:
            for seed in (0, 1):
                yield f"certificate r={r} d={d} p={p} seed={seed}", (
                    lambda r=r, d=d, p=p, seed=seed: _certificate(r, d, p, seed)
                )
    yield "certificate r=3 d=10 p=11 seed=1", lambda: _certificate(3, 10, 11, 1)

    for p in INTERPOLATION_PRIMES:
        for name, M in _square_cases(p):
            yield f"determinant {name} p={p}", lambda M=M: _forms([polymat.determinant(M)])
        for name, M in _skew_cases(p, sizes=(4, 6)):
            yield f"pfaffian {name} p={p}", lambda M=M: _forms([polymat.pfaffian(M)])
        for k in (2, 3):
            M = _random(p, (0,) * k, (-1,) * k + (-2,), GENERAL, "minors", k)
            yield f"maximal_minors k={k} p={p}", lambda M=M: _forms(polymat.maximal_minors(M))
        for n, nvars in ((4, 3), (8, 4)):
            L = LinearSkewMatrix.random(PrimeField(p), nvars, n, FieldRng("ledger", p, "L", n))
            yield f"to_graded n={n} p={p}", lambda L=L: L.to_graded().to_text()
            yield f"stabilizer_lie_dim n={n} p={p}", lambda L=L: str(graded.stabilizer_lie_dim(L))
        for symmetry in (SKEW, SYMMETRIC):
            yield f"congruence_transform {symmetry} p={p}", (
                lambda p=p, symmetry=symmetry: _congruence(p, symmetry, 4)
            )

    for p in EXPANSION_PRIMES:
        for name, M in _square_cases(p):
            yield f"determinant_expansion {name} p={p}", (
                lambda M=M: _forms([polymat.determinant_expansion(M)])
            )
        for name, M in _skew_cases(p):
            yield f"pfaffian_expansion {name} p={p}", (
                lambda M=M: _forms([polymat.pfaffian_expansion(M)])
            )
            if M.nrows >= 4:
                yield f"submaximal_pfaffians_by_deletion {name} p={p}", (
                    lambda M=M: _pairs(polymat.submaximal_pfaffians_by_deletion(M))
                )

    field = PrimeField(31991)
    for n, d in ((2, 3), (2, 5), (3, 4)):
        M = constructions.fermat_matrix(field, n, d).matrix
        yield f"coker_hilbert fermat n={n} d={d}", lambda M=M: _hilbert(M, range(0, 6))
    tall = _random(31991, (0, 0, 0), (-1, -1), GENERAL, "tall")
    yield "coker_hilbert tall", lambda: _hilbert(tall, range(-1, 5))
    linear = _random(31991, (0,) * 4, (-1,) * 4, GENERAL, "hilbert", nvars=4)
    yield "coker_hilbert linear4", lambda: _hilbert(linear, range(0, 6))

    for d in (4, 5, 6, 9):
        for seed in (0, 3):
            yield f"theta-shape d={d} seed={seed}", lambda d=d, seed=seed: _theta_text(d, seed)


def digests() -> dict[str, str]:
    return {
        name: hashlib.sha256(text().encode("utf-8")).hexdigest() for name, text in cases()
    }


def recorded() -> dict[str, str]:
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def main() -> int:
    LEDGER.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
