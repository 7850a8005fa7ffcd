"""Compressed Sparse Row container.

A minimal, validated CSR matrix built on NumPy arrays. The kernels in
:mod:`repro.kernels` operate on this container directly, and every matrix
the program builds is assembled by :meth:`CSRMatrix.from_coo` in NumPy.
Conversions to SciPy (:meth:`CSRMatrix.to_scipy`, :meth:`CSRMatrix.from_scipy`)
exist only for test oracles and the kernels' ``validate()`` checks; SciPy
is imported when one of them runs, so no process pays for it at start-up.

Duplicate coordinates are summed by SciPy's rule
(``coo_matrix.sum_duplicates``): entries are sorted stably by (row,
column), so the copies of one coordinate stay in input order, and
``np.add.reduceat`` adds each run of copies. A sum that cancels stays
stored as 0.0.

The memory footprint follows the paper's Table 2 accounting for SpMV:
``12*nnz + 20*M`` bytes — 8-byte values + 4-byte column indices per
nonzero, 4-byte row pointers plus the 8-byte x and y vectors per row.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclasses.dataclass
class CSRMatrix:
    """CSR sparse matrix (double values, int32 indices).

    Rows are canonical: construction raises :class:`ValueError`, naming
    the first bad row, unless each row's column ids strictly increase.
    """

    n_rows: int
    n_cols: int
    indptr: np.ndarray  # int64[n_rows + 1]
    indices: np.ndarray  # int32[nnz], column ids, sorted within each row
    data: np.ndarray  # float64[nnz]

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int32)
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.indptr) != self.n_rows + 1:
            raise ValueError("indptr length must be n_rows + 1")
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must start at 0 and be non-decreasing")
        if self.indptr[-1] != len(self.indices) or len(self.indices) != len(self.data):
            raise ValueError("indices/data length must equal indptr[-1]")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.n_cols
        ):
            raise ValueError("column index out of range")
        # One pass: each step within a row must raise the column id; the
        # steps across a row boundary are exempt.
        rising = np.diff(self.indices) > 0
        starts = self.indptr[1:-1]
        rising[starts[(starts > 0) & (starts < len(self.indices))] - 1] = True
        if not rising.all():
            k = int(np.argmin(rising)) + 1
            row = int(np.searchsorted(self.indptr, k, side="right")) - 1
            raise ValueError(
                f"row {row}: column ids must increase within a row "
                "(one repeats or decreases)"
            )

    # -- properties ----------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def row_nnz(self) -> np.ndarray:
        """Number of nonzeros per row."""
        return np.diff(self.indptr)

    def footprint_bytes(self) -> int:
        """SpMV working footprint per paper Table 2: 12*nnz + 20*M."""
        return 12 * self.nnz + 20 * self.n_rows

    def column_span(self) -> float:
        """Mean per-row span of touched columns (x-vector locality proxy)."""
        if self.nnz == 0:
            return 0.0
        starts = self.indptr[:-1]
        ends = self.indptr[1:]
        mask = ends > starts
        if not mask.any():
            return 0.0
        first = self.indices[starts[mask]]
        last = self.indices[ends[mask] - 1]
        return float(np.mean(last - first + 1))

    # -- operations ------------------------------------------------------------

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column ids, values) of row ``i`` as views."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row ids, column ids, values) of every stored entry, in storage order."""
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), self.row_nnz())
        return rows, self.indices, self.data

    def diagonal(self) -> np.ndarray:
        """Main-diagonal values (zeros where absent)."""
        rows, cols, vals = self.to_coo()
        on = rows == cols
        diag = np.zeros(min(self.n_rows, self.n_cols))
        diag[rows[on]] = vals[on]
        return diag

    def fill_zero_diagonal(self, value: float) -> "CSRMatrix":
        """Put ``value`` on every row whose diagonal entry is zero or absent.

        This is SciPy's ``csr + diags(where(diagonal == 0, value, 0))``: a
        matrix without a zero on its diagonal comes back unchanged, and
        otherwise the sum keeps only its nonzero entries, so every stored
        zero is dropped too.
        """
        zero = np.flatnonzero(self.diagonal() == 0.0)
        if not len(zero):
            return self
        rows, cols, vals = self.to_coo()
        rows = np.concatenate([rows, zero])
        cols = np.concatenate([cols, zero])
        vals = np.concatenate([vals, np.full(len(zero), value)])
        keep = vals != 0.0
        return CSRMatrix.from_coo(rows[keep], cols[keep], vals[keep], self.shape)

    def lower_triangle(self, *, unit_diagonal_fill: float = 1.0) -> "CSRMatrix":
        """Strictly-lower + diagonal part, inserting missing diagonal entries.

        Mirrors the paper's SpTRSV preparation (appendix A.2.5): "a
        diagonal is added to any singular matrices to make them
        nonsingular, and the lower triangular part is tested".
        """
        if not self.is_square:
            raise ValueError("lower_triangle requires a square matrix")
        rows, cols, vals = self.to_coo()
        keep = rows >= cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        present = np.zeros(self.n_rows, dtype=bool)
        present[rows[rows == cols]] = True
        missing = np.flatnonzero(~present)
        lower = CSRMatrix.from_coo(
            np.concatenate([rows, missing]),
            np.concatenate([cols, missing]),
            np.concatenate([vals, np.full(len(missing), unit_diagonal_fill)]),
            self.shape,
        )
        # Guard against zero diagonals that survived (explicit zeros).
        return lower.fill_zero_diagonal(unit_diagonal_fill)

    # -- conversions -----------------------------------------------------------

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSRMatrix":
        """Assemble coordinate triples, summing duplicates by the rule in
        the module docstring.

        The arrays equal those of SciPy's ``coo_matrix((vals, (rows, cols)),
        shape)`` after ``sum_duplicates()`` and ``tocsr()``. A stable sort
        on ``row * n_cols + col`` gives the permutation SciPy's
        ``np.lexsort`` gives, in about half the time, so the shape must have
        at most 2**63 - 1 positions.
        """
        n_rows, n_cols = (int(d) for d in shape)
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"matrix dimensions must be non-negative, got {shape}")
        if n_rows * n_cols > np.iinfo(np.int64).max:
            raise ValueError(
                f"shape {shape} has more positions than an int64 sort key can number"
            )
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if len(rows) and (
            rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols
        ):
            raise ValueError(f"coordinate out of range for shape {shape}")
        order = np.argsort(rows * n_cols + cols, kind="stable")
        rows, cols = rows[order], cols[order]
        head = np.ones(len(order), dtype=bool)
        head[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        first = np.flatnonzero(head)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[first], minlength=n_rows), out=indptr[1:])
        return cls(
            n_rows=n_rows,
            n_cols=n_cols,
            indptr=indptr,
            indices=cols[first],
            data=np.add.reduceat(vals[order], first),
        )

    @classmethod
    def from_scipy(cls, m: sp.spmatrix) -> "CSRMatrix":
        csr = m.tocsr()
        csr.sort_indices()
        return cls(
            n_rows=csr.shape[0],
            n_cols=csr.shape[1],
            indptr=csr.indptr,
            indices=csr.indices,
            data=csr.data,
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """The nonzero entries of a 2-D array (NaN counts as nonzero)."""
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    def to_scipy(self) -> sp.csr_matrix:
        import scipy.sparse

        return scipy.sparse.csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )

    def to_dense(self) -> np.ndarray:
        # Accumulated in storage order onto zeros, as SciPy's ``toarray``
        # does, so a stored -0.0 reads back as 0.0.
        dense = np.zeros(self.shape)
        rows, cols, vals = self.to_coo()
        np.add.at(dense, (rows, cols), vals)
        return dense

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"
