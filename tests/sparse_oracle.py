"""SciPy-assembled sparse matrices: the oracle (imported by tests only).

:mod:`repro.sparse` builds every matrix in NumPy through
:meth:`CSRMatrix.from_coo`. This module keeps the SciPy construction it
replaced: ``coo_matrix.sum_duplicates`` then ``tocsr`` for coordinate
sets, ``csr + diags(...)`` for the diagonal fill, ``kronsum`` for the grid
Laplacians, DIA-to-CSR for the tridiagonal family, and SciPy's CSC-to-CSR
conversion, row indexing and COO expansion. ``tests/test_sparse_oracle.py``
requires the library's ``indptr``, ``indices`` and ``data`` to equal these
byte for byte.
"""

from __future__ import annotations

import io
from unittest import mock

import numpy as np
import scipy.sparse as sp

from repro.sparse import generators
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix


def from_coo(rows, cols, vals, shape) -> CSRMatrix:
    coo = sp.coo_matrix((vals, (rows, cols)), shape=shape)
    coo.sum_duplicates()
    return CSRMatrix.from_scipy(coo.tocsr())


def fill_zero_diagonal(matrix: CSRMatrix, value: float) -> CSRMatrix:
    csr = matrix.to_scipy()
    zero = csr.diagonal() == 0.0
    if zero.any():
        csr = csr + sp.diags(np.where(zero, value, 0.0))
    return CSRMatrix.from_scipy(sp.csr_matrix(csr))


def finalize(rows, cols, vals, n: int, *, ensure_diagonal: bool) -> CSRMatrix:
    csr = from_coo(rows, cols, vals, (n, n))
    return fill_zero_diagonal(csr, float(n)) if ensure_diagonal else csr


def grid2d(nx: int, ny: int | None = None, *, seed: int = 0) -> CSRMatrix:
    ny = ny or nx
    ex = np.ones(nx)
    ey = np.ones(ny)
    tx = sp.diags([-ex[:-1], 2 * ex, -ex[:-1]], [-1, 0, 1])
    ty = sp.diags([-ey[:-1], 2 * ey, -ey[:-1]], [-1, 0, 1])
    lap = sp.kronsum(tx, ty).tocsr() + sp.identity(nx * ny) * 0.01
    return CSRMatrix.from_scipy(sp.csr_matrix(lap))


def grid3d(nx: int, ny: int | None = None, nz: int | None = None, *, seed: int = 0) -> CSRMatrix:
    ny = ny or nx
    nz = nz or nx

    def lap1d(m: int) -> sp.spmatrix:
        e = np.ones(m)
        return sp.diags([-e[:-1], 2 * e, -e[:-1]], [-1, 0, 1])

    lap = sp.kronsum(sp.kronsum(lap1d(nx), lap1d(ny)), lap1d(nz)).tocsr()
    lap = lap + sp.identity(nx * ny * nz) * 0.01
    return CSRMatrix.from_scipy(sp.csr_matrix(lap))


def tridiagonal(n: int, *, seed: int = 0) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    main = rng.random(n) + 3.0
    off = rng.random(n - 1) - 0.5
    return CSRMatrix.from_scipy(sp.csr_matrix(sp.diags([off, main, off], [-1, 0, 1])))


def generate(family: str, n: int, nnz_target: int, *, seed: int = 0) -> CSRMatrix:
    """``generators.generate`` with its random draws unchanged and every
    matrix assembled by the SciPy functions above."""
    with mock.patch.multiple(
        generators,
        _finalize=finalize,
        grid2d=grid2d,
        grid3d=grid3d,
        tridiagonal=tridiagonal,
    ):
        return generators.generate(family, n, nnz_target, seed=seed)


def lower_triangle(matrix: CSRMatrix, *, unit_diagonal_fill: float = 1.0) -> CSRMatrix:
    coo = matrix.to_scipy().tocoo()
    keep = coo.row >= coo.col
    rows = coo.row[keep]
    cols = coo.col[keep]
    vals = coo.data[keep]
    present = np.zeros(matrix.n_rows, dtype=bool)
    present[rows[rows == cols]] = True
    missing = np.flatnonzero(~present)
    rows = np.concatenate([rows, missing])
    cols = np.concatenate([cols, missing])
    vals = np.concatenate([vals, np.full(len(missing), unit_diagonal_fill)])
    lower = sp.coo_matrix((vals, (rows, cols)), shape=matrix.shape).tocsr()
    dg = lower.diagonal()
    zero = dg == 0.0
    if zero.any():
        lower = lower + sp.diags(np.where(zero, unit_diagonal_fill, 0.0))
    return CSRMatrix.from_scipy(lower.tocsr())


def from_dense(dense: np.ndarray) -> CSRMatrix:
    return CSRMatrix.from_scipy(sp.csr_matrix(np.asarray(dense, dtype=np.float64)))


def to_dense(matrix: CSRMatrix) -> np.ndarray:
    return matrix.to_scipy().toarray()


def to_csr(matrix: CSCMatrix) -> CSRMatrix:
    return CSRMatrix.from_scipy(matrix.to_scipy().tocsr())


def order_rows_by_length(matrix: CSRMatrix, *, descending: bool = True):
    lengths = matrix.row_nnz()
    order = np.argsort(-lengths if descending else lengths, kind="stable")
    permuted = matrix.to_scipy()[order]
    return CSRMatrix.from_scipy(sp.csr_matrix(permuted)), order


def write_mm_text(matrix: CSRMatrix) -> str:
    """The coordinate/real/general text ``write_mm`` wrote from SciPy's COO."""
    coo = matrix.to_scipy().tocoo()
    fh = io.StringIO()
    fh.write("%%MatrixMarket matrix coordinate real general\n")
    fh.write(f"{matrix.n_rows} {matrix.n_cols} {coo.nnz}\n")
    for r, c, v in zip(coo.row, coo.col, coo.data):
        fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")
    return fh.getvalue()
