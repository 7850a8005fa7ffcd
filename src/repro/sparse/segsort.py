"""Segmented sort (Hou et al., ICS '17) and row ordering.

The paper preprocesses every sparse input by ordering matrix rows with a
segmented sort "for best performance" (Section 3.3). A segmented sort
sorts keys independently within each segment of a partitioned array; we
implement it vectorized via a composite lexicographic argsort, then build
the row-by-length ordering on top.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix


def segmented_argsort(keys: np.ndarray, seg_offsets: np.ndarray) -> np.ndarray:
    """Indices that sort ``keys`` ascending within each segment.

    ``seg_offsets`` are CSR-style boundaries: segment ``s`` spans
    ``keys[seg_offsets[s]:seg_offsets[s+1]]``.
    """
    keys = np.asarray(keys)
    seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
    if len(seg_offsets) < 1 or seg_offsets[0] != 0 or seg_offsets[-1] != len(keys):
        raise ValueError("seg_offsets must start at 0 and end at len(keys)")
    if np.any(np.diff(seg_offsets) < 0):
        raise ValueError("seg_offsets must be non-decreasing")
    seg_of = np.repeat(
        np.arange(len(seg_offsets) - 1), np.diff(seg_offsets)
    )
    # Stable sort on key with segment as the major radix keeps segments
    # contiguous and sorts inside each one.
    return np.lexsort((keys, seg_of))


def segmented_sort(keys: np.ndarray, seg_offsets: np.ndarray) -> np.ndarray:
    """Sorted copy of ``keys`` (ascending within each segment)."""
    return np.asarray(keys)[segmented_argsort(keys, seg_offsets)]


def order_rows_by_length(matrix: CSRMatrix, *, descending: bool = True) -> tuple[CSRMatrix, np.ndarray]:
    """Permute rows so same-length rows are adjacent (longest first).

    Returns the permuted matrix and the permutation ``perm`` such that
    ``out.row(i) == matrix.row(perm[i])``. This is the preprocessing the
    benchmarked SpMV/SpTRANS codes apply for load balance.
    """
    lengths = matrix.row_nnz()
    order = np.argsort(-lengths if descending else lengths, kind="stable")
    new_row = np.empty_like(order)
    new_row[order] = np.arange(len(order))
    rows, cols, vals = matrix.to_coo()
    return CSRMatrix.from_coo(new_row[rows], cols, vals, matrix.shape), order
