"""Dependency level sets for sparse triangular solves.

SpTRSV on ``L x = b`` is inherently sequential (paper Section 3.1.2):
``x[i]`` depends on every ``x[j]`` with ``L[i, j] != 0, j < i``. Level
scheduling groups rows into *wavefronts* — all rows in a level depend only
on earlier levels and can be solved in parallel. The number of levels and
the level-size distribution determine the exploitable parallelism, which
the performance model uses to derive memory-level parallelism (the paper's
explanation for why MCDRAM can *lose* to DDR on SpTRSV).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.sparse.csr import CSRMatrix


@dataclasses.dataclass(frozen=True)
class LevelSchedule:
    """Wavefront decomposition of a lower-triangular matrix."""

    level_of: np.ndarray  # int32[n] — level index of each row
    level_offsets: np.ndarray  # int64[n_levels + 1] into `order`
    order: np.ndarray  # int32[n] — rows sorted by level

    @property
    def n_levels(self) -> int:
        return len(self.level_offsets) - 1

    @property
    def n_rows(self) -> int:
        return len(self.level_of)

    def level_sizes(self) -> np.ndarray:
        return np.diff(self.level_offsets)

    @property
    def avg_parallelism(self) -> float:
        """Mean rows solvable concurrently = n / n_levels."""
        return self.n_rows / self.n_levels if self.n_levels else 0.0

    def rows_in_level(self, lvl: int) -> np.ndarray:
        lo, hi = int(self.level_offsets[lvl]), int(self.level_offsets[lvl + 1])
        return self.order[lo:hi]


def row_dependencies(lower: CSRMatrix) -> list[list[int]]:
    """Each row's strictly-lower column indices: the rows it waits for.

    One walk over ``indptr``/``indices`` as Python lists; slicing the
    NumPy arrays once per row costs more than the whole walk.
    """
    if not lower.is_square:
        raise ValueError("level scheduling requires a square matrix")
    indptr = lower.indptr.tolist()
    indices = lower.indices.tolist()
    return [
        [j for j in indices[lo:hi] if j < i]
        for i, (lo, hi) in enumerate(zip(indptr, indptr[1:]))
    ]


def build_levels(lower: CSRMatrix) -> LevelSchedule:
    """Compute the level schedule of a lower-triangular CSR matrix.

    ``level[i] = 1 + max(level[j])`` over the strictly-lower dependencies
    of row ``i`` (0 when there are none). Rows are processed in index
    order, which is a valid topological order for a lower-triangular
    system.
    """
    levels: list[int] = []
    level_at = levels.__getitem__
    for deps in row_dependencies(lower):
        levels.append(max(map(level_at, deps)) + 1 if deps else 0)
    level = np.array(levels, dtype=np.int32)
    order = np.argsort(level, kind="stable").astype(np.int32)
    n_levels = int(level.max()) + 1 if levels else 0
    counts = np.bincount(level, minlength=n_levels)
    offsets = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return LevelSchedule(level_of=level, level_offsets=offsets, order=order)
