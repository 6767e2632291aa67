"""Slow references that only the tests call, kept out of the library: a
kernel basis from one full elimination, a form's values at many points
from one Vandermonde product, interpolation from a pointwise black box,
and the linear skew matrix of a skew graded one.  The tests hold the
library's routes against them."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from detpf.exactlin import PrimeField, ScalarMatrix, _back_substitute, _forward_eliminate, _matmul
from detpf.mpoly import HomogeneousForm, interpolate_many, monomial_basis, vandermonde
from detpf.polymat import SKEW, GradedMatrix, LinearSkewMatrix


def kernel_basis(A: ScalarMatrix) -> list[np.ndarray]:
    """Basis of the right null space {v : A v = 0}, ordered by free column."""
    p = A.field.p
    m = A.a.astype(np.int64)
    pivots, _ = _forward_eliminate(m, p, A.cols)
    _back_substitute(m, p, pivots)
    pivot_set = set(pivots)
    basis = []
    for free in range(A.cols):
        if free in pivot_set:
            continue
        v = np.zeros(A.cols, dtype=np.int64)
        v[free] = 1
        for row, col in enumerate(pivots):
            v[col] = (-int(m[row, free])) % p
        basis.append(v)
    return basis


def evaluate_many(f: HomogeneousForm, points: np.ndarray) -> np.ndarray:
    """f at an (n, nvars) array of points, by one Vandermonde product."""
    p = f.field.p
    basis = monomial_basis(f.nvars, f.degree)
    vec = f.vector[:, None]
    return _matmul(vandermonde(points, basis, p), vec, p)[:, 0].astype(np.int64)


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

    (form,) = interpolate_many(values_fn, nvars, degree, field, seed, 1)
    return form


def skew_from_graded(M: GradedMatrix) -> LinearSkewMatrix:
    """The LinearSkewMatrix of a skew matrix of linear forms."""
    if M.symmetry != SKEW:
        raise ValueError("expected a skew matrix")
    n = M.nrows
    coeff = np.zeros((M.nvars, n, n), dtype=np.int64)
    for i, row in enumerate(M.entries):
        for j, f in enumerate(row):
            if f.is_zero():
                continue
            if f.degree != 1:
                raise ValueError(f"entry ({i},{j}) is not linear")
            coeff[:, i, j] = f.vector
    return LinearSkewMatrix(M.field, M.nvars, coeff)
