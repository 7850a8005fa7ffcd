"""Synthetic sparse-matrix generators.

The paper evaluates on 968 square UF/SuiteSparse matrices with
nnz > 200 000 (Section 3.3). That collection is not redistributable here,
so we generate a deterministic synthetic stand-in spanning the same axes
the paper's figures bin over: memory footprint (∝ nnz), row count, and
sparsity *structure* — from perfectly banded (excellent x-vector locality
in SpMV) to scale-free/random (poor locality), plus the grid Laplacians
and block matrices typical of the real collection.

Every generator takes an explicit ``seed`` and is reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sparse.csr import CSRMatrix

#: Families available to the collection builder.
FAMILIES = (
    "banded",
    "random",
    "powerlaw",
    "block",
    "grid2d",
    "grid3d",
    "tridiag",
    "rmat",
)


def _finalize(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int, *, ensure_diagonal: bool
) -> CSRMatrix:
    csr = CSRMatrix.from_coo(rows, cols, vals, (n, n))
    return csr.fill_zero_diagonal(float(n)) if ensure_diagonal else csr


def banded(n: int, nnz_target: int, *, seed: int = 0, ensure_diagonal: bool = True) -> CSRMatrix:
    """Matrix with nonzeros confined to a diagonal band.

    Bandwidth is derived from the nnz target; entries inside the band are
    dropped randomly to hit it. These have near-perfect x locality.
    """
    rng = np.random.default_rng(seed)
    per_row = max(1, nnz_target // n)
    half_band = max(1, (per_row + 1) // 2)
    rows = np.repeat(np.arange(n), per_row)
    offsets = rng.integers(-half_band, half_band + 1, size=len(rows))
    cols = np.clip(rows + offsets, 0, n - 1)
    vals = rng.standard_normal(len(rows)) + 2.0
    return _finalize(rows, cols, vals, n, ensure_diagonal=ensure_diagonal)


def random_uniform(n: int, nnz_target: int, *, seed: int = 0, ensure_diagonal: bool = True) -> CSRMatrix:
    """Uniformly random pattern — the worst case for x-vector locality."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=nnz_target)
    cols = rng.integers(0, n, size=nnz_target)
    vals = rng.standard_normal(nnz_target) + 2.0
    return _finalize(rows, cols, vals, n, ensure_diagonal=ensure_diagonal)


def powerlaw(n: int, nnz_target: int, *, seed: int = 0, alpha: float = 2.1, ensure_diagonal: bool = True) -> CSRMatrix:
    """Scale-free row degrees (Zipf) with uniformly random columns.

    Mimics web/social matrices in the UF collection: a few very heavy rows
    and a long tail — the load-imbalance case CSR5 targets.
    """
    rng = np.random.default_rng(seed)
    degrees = rng.zipf(alpha, size=n).astype(np.int64)
    scale = nnz_target / max(1, degrees.sum())
    degrees = np.maximum(1, (degrees * scale).astype(np.int64))
    rows = np.repeat(np.arange(n), degrees)
    cols = rng.integers(0, n, size=len(rows))
    vals = rng.standard_normal(len(rows)) + 2.0
    return _finalize(rows, cols, vals, n, ensure_diagonal=ensure_diagonal)


def block_diagonal(n: int, nnz_target: int, *, seed: int = 0, ensure_diagonal: bool = True) -> CSRMatrix:
    """Dense-ish blocks along the diagonal (FEM-style coupling)."""
    rng = np.random.default_rng(seed)
    per_row = max(1, nnz_target // n)
    block = max(2, per_row)
    n_blocks = -(-n // block)
    rows_l, cols_l = [], []
    for b in range(n_blocks):
        lo = b * block
        hi = min(lo + block, n)
        size = hi - lo
        density = min(1.0, per_row / size)
        mask = rng.random((size, size)) < density
        r, c = np.nonzero(mask)
        rows_l.append(r + lo)
        cols_l.append(c + lo)
    rows = np.concatenate(rows_l)
    cols = np.concatenate(cols_l)
    vals = rng.standard_normal(len(rows)) + 2.0
    return _finalize(rows, cols, vals, n, ensure_diagonal=ensure_diagonal)


def _laplacian(dims: tuple[int, ...]) -> CSRMatrix:
    """Grid Laplacian shifted by 0.01: ``2 * len(dims) + 0.01`` on the
    diagonal and -1 at each neighbour; the first axis varies fastest."""
    n = math.prod(dims)
    ids = np.arange(n)
    rows, cols, vals = [ids], [ids], [np.full(n, 2.0 * len(dims) + 0.01)]
    stride = 1
    for size in dims:
        coord = ids // stride % size
        for step in (-1, 1):
            src = ids[(coord + step >= 0) & (coord + step < size)]
            rows.append(src)
            cols.append(src + step * stride)
            vals.append(np.full(len(src), -1.0))
        stride *= size
    return CSRMatrix.from_coo(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (n, n)
    )


def grid2d(nx: int, ny: int | None = None, *, seed: int = 0) -> CSRMatrix:
    """5-point Laplacian on an nx-by-ny grid (SPD, diagonally dominant)."""
    return _laplacian((nx, ny or nx))


def grid3d(nx: int, ny: int | None = None, nz: int | None = None, *, seed: int = 0) -> CSRMatrix:
    """7-point Laplacian on a 3-D grid."""
    return _laplacian((nx, ny or nx, nz or nx))


def tridiagonal(n: int, *, seed: int = 0) -> CSRMatrix:
    """Classic tridiagonal system (the extreme banded case)."""
    rng = np.random.default_rng(seed)
    main = rng.random(n) + 3.0
    off = rng.random(n - 1) - 0.5
    below = np.arange(n - 1)
    rows = np.concatenate([below + 1, np.arange(n), below])
    cols = np.concatenate([below, np.arange(n), below + 1])
    vals = np.concatenate([off, main, off])
    keep = vals != 0.0  # a band entry that draws exactly 0.0 is not stored
    return CSRMatrix.from_coo(rows[keep], cols[keep], vals[keep], (n, n))


def rmat(n: int, nnz_target: int, *, seed: int = 0, a: float = 0.57, b: float = 0.19, c: float = 0.19, ensure_diagonal: bool = True) -> CSRMatrix:
    """Recursive-matrix (R-MAT/Kronecker) pattern — clustered scale-free.

    ``n`` is rounded up to the next power of two internally and trimmed,
    matching the usual graph500-style generator.
    """
    rng = np.random.default_rng(seed)
    scale = max(1, int(np.ceil(np.log2(max(2, n)))))
    rows = np.zeros(nnz_target, dtype=np.int64)
    cols = np.zeros(nnz_target, dtype=np.int64)
    probs = np.array([a, b, c, max(0.0, 1.0 - a - b - c)])
    for bit in range(scale):
        quad = rng.choice(4, size=nnz_target, p=probs)
        rows |= ((quad >> 1) & 1) << bit
        cols |= (quad & 1) << bit
    rows %= n
    cols %= n
    vals = rng.standard_normal(nnz_target) + 2.0
    return _finalize(rows, cols, vals, n, ensure_diagonal=ensure_diagonal)


def generate(family: str, n: int, nnz_target: int, *, seed: int = 0) -> CSRMatrix:
    """Dispatch by family name (see :data:`FAMILIES`)."""
    if family == "banded":
        return banded(n, nnz_target, seed=seed)
    if family == "random":
        return random_uniform(n, nnz_target, seed=seed)
    if family == "powerlaw":
        return powerlaw(n, nnz_target, seed=seed)
    if family == "block":
        return block_diagonal(n, nnz_target, seed=seed)
    if family == "grid2d":
        side = max(2, int(np.sqrt(n)))
        return grid2d(side, side, seed=seed)
    if family == "grid3d":
        side = max(2, int(round(n ** (1.0 / 3.0))))
        return grid3d(side, side, side, seed=seed)
    if family == "tridiag":
        return tridiagonal(n, seed=seed)
    if family == "rmat":
        return rmat(n, nnz_target, seed=seed)
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
