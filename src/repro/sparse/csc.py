"""Compressed Sparse Column container — the target format of SpTRANS."""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclasses.dataclass
class CSCMatrix:
    """CSC sparse matrix (double values, int32 indices)."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray  # int64[n_cols + 1]
    indices: np.ndarray  # int32[nnz], row ids, sorted within each column
    data: np.ndarray  # float64[nnz]

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int32)
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if len(self.indptr) != self.n_cols + 1:
            raise ValueError("indptr length must be n_cols + 1")
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must start at 0 and be non-decreasing")
        if self.indptr[-1] != len(self.indices) or len(self.indices) != len(self.data):
            raise ValueError("indices/data length must equal indptr[-1]")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.n_rows
        ):
            raise ValueError("row index out of range")

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(row ids, values) of column ``j`` as views."""
        lo, hi = int(self.indptr[j]), int(self.indptr[j + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    @classmethod
    def from_scipy(cls, m: sp.spmatrix) -> "CSCMatrix":
        csc = m.tocsc()
        csc.sort_indices()
        return cls(
            n_rows=csc.shape[0],
            n_cols=csc.shape[1],
            indptr=csc.indptr,
            indices=csc.indices,
            data=csc.data,
        )

    def to_scipy(self) -> sp.csc_matrix:
        import scipy.sparse

        return scipy.sparse.csc_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )

    def to_csr(self) -> CSRMatrix:
        cols = np.repeat(np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr))
        return CSRMatrix.from_coo(self.indices, cols, self.data, self.shape)

    def as_transposed_csr(self) -> CSRMatrix:
        """Reinterpret the CSC arrays as the CSR form of the transpose.

        CSC(A) and CSR(A^T) share identical arrays — this is the zero-copy
        sense in which SpTRANS "transposes" (paper Section 3.1.2: "the CSR
        format is converted to the CSC format, or vice versa").
        """
        return CSRMatrix(
            n_rows=self.n_cols,
            n_cols=self.n_rows,
            indptr=self.indptr,
            indices=self.indices,
            data=self.data,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSCMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"
