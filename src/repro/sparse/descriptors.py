"""Analytic matrix descriptors.

A :class:`MatrixDescriptor` captures the features of a sparse matrix that
the performance model actually consumes — size, nonzero count, and two
structure scores — without materializing the nonzeros. This is what lets
the reproduction sweep 968 matrices up to multi-GB footprints (the paper's
Figures 9–11 and 17–22) in seconds.

Structure scores:

* ``locality`` in [0, 1] — how well column accesses of SpMV reuse the x
  vector through a cache: 1 for perfectly banded patterns, ~0 for uniform
  random ones.
* ``parallelism`` >= 1 — average SpTRSV wavefront width (rows per level),
  controlling the memory-level parallelism available to hide latency.

Both can be *measured* from a materialized matrix
(:func:`measure_structure`), which is how the analytic values are
validated in the tests.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.sparse import generators
from repro.sparse.csr import CSRMatrix
from repro.sparse.levels import build_levels

#: Materialization guard: descriptors above this nnz stay analytic.
MATERIALIZE_NNZ_LIMIT = 4_000_000

#: Family -> locality base. The jitter applied by the collection builder
#: stays within +-30% of these.
_FAMILY_LOCALITY: dict[str, float] = {
    "banded": 0.92,
    "tridiag": 0.98,
    "grid2d": 0.85,
    "grid3d": 0.75,
    "block": 0.80,
    "rmat": 0.40,
    "powerlaw": 0.25,
    "random": 0.05,
}


def default_parallelism(family: str, n_rows: int, avg_row_nnz: float) -> float:
    """Mean SpTRSV wavefront width implied by a family's dependency shape.

    Banded/tridiagonal lower triangles are near-pure chains (O(1) rows per
    level); grid Laplacians expose diagonal wavefronts (~n^(1/2) in 2-D,
    ~n^(2/3) in 3-D); block matrices parallelize across blocks; random
    patterns level out in O(log n) levels.
    """
    n = float(max(2, n_rows))
    deg = max(1.0, avg_row_nnz)
    if family == "tridiag":
        return 1.0
    if family == "banded":
        return 1.5
    if family == "grid2d":
        return max(1.0, n**0.5)
    if family == "grid3d":
        return max(1.0, n ** (2.0 / 3.0))
    if family == "block":
        return max(1.0, n / (2.0 * deg))
    # rmat / powerlaw / random: levels ~ log-depth of the dependency DAG.
    return max(1.0, n / (4.0 * np.log2(n)))


@dataclasses.dataclass(frozen=True)
class MatrixDescriptor:
    """Analytic description of one (possibly huge) square sparse matrix."""

    name: str
    family: str
    n_rows: int
    nnz: int
    seed: int
    locality: float
    parallelism: float

    def __post_init__(self) -> None:
        if self.family not in generators.FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n_rows <= 0 or self.nnz <= 0:
            raise ValueError("n_rows and nnz must be positive")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError("locality must be in [0, 1]")
        if self.parallelism < 1.0:
            raise ValueError("parallelism must be >= 1")

    @property
    def footprint_bytes(self) -> int:
        """SpMV footprint per paper Table 2: 12*nnz + 20*M."""
        return 12 * self.nnz + 20 * self.n_rows

    @property
    def avg_row_nnz(self) -> float:
        return self.nnz / self.n_rows

    @property
    def can_materialize(self) -> bool:
        return self.nnz <= MATERIALIZE_NNZ_LIMIT

    def materialize(self) -> CSRMatrix:
        """Generate the actual matrix (small descriptors only)."""
        if not self.can_materialize:
            raise ValueError(
                f"{self.name}: nnz={self.nnz} exceeds the materialization "
                f"limit ({MATERIALIZE_NNZ_LIMIT}); use the analytic path"
            )
        return generators.generate(self.family, self.n_rows, self.nnz, seed=self.seed)


def default_locality(family: str) -> float:
    """Locality prior for a family."""
    return _FAMILY_LOCALITY[family]


def from_params(
    name: str,
    family: str,
    n_rows: int,
    nnz: int,
    *,
    seed: int = 0,
    jitter: float = 0.0,
) -> MatrixDescriptor:
    """Build a descriptor with family-derived structure scores.

    ``jitter`` in [0, 1) perturbs the priors deterministically from the
    seed, so a collection of same-family matrices is not artificially
    uniform. At ``jitter=0`` the wiggle is exactly 1.0, so no random
    numbers are drawn (nor ``numpy.random`` imported).
    """
    loc_base = _FAMILY_LOCALITY[family]
    par_base = default_parallelism(family, n_rows, nnz / max(1, n_rows))
    if jitter:
        rng = np.random.default_rng(seed)
        wiggle = 1.0 + jitter * (rng.random(2) * 2.0 - 1.0)
    else:
        wiggle = np.ones(2)
    locality = float(np.clip(loc_base * wiggle[0], 0.0, 1.0))
    parallelism = max(1.0, par_base * wiggle[1])
    return MatrixDescriptor(
        name=name,
        family=family,
        n_rows=n_rows,
        nnz=nnz,
        seed=seed,
        locality=locality,
        parallelism=min(parallelism, float(n_rows)),
    )


def measure_structure(matrix: CSRMatrix) -> tuple[float, float]:
    """Measure (locality, parallelism) from a materialized matrix.

    Locality maps the mean per-row column span to [0, 1]: a span equal to
    the mean row degree (perfectly packed band) scores ~1, a span of the
    whole matrix scores ~0. Parallelism is the measured mean SpTRSV
    wavefront width of the lower triangle.
    """
    n = matrix.n_rows
    span = matrix.column_span()
    if n <= 1 or span <= 0:
        locality = 1.0
    else:
        packed = max(1.0, matrix.nnz / max(1, n))
        # Log-scale interpolation between "packed band" and "full span".
        locality = 1.0 - np.log(span / packed) / np.log(max(2.0, n / packed))
        locality = float(np.clip(locality, 0.0, 1.0))
    schedule = build_levels(matrix.lower_triangle())
    return locality, float(schedule.avg_parallelism)


def from_matrix(name: str, matrix: CSRMatrix, *, family: str = "random", seed: int = 0) -> MatrixDescriptor:
    """Descriptor with *measured* structure scores."""
    locality, parallelism = measure_structure(matrix)
    return MatrixDescriptor(
        name=name,
        family=family,
        n_rows=matrix.n_rows,
        nnz=matrix.nnz,
        seed=seed,
        locality=locality,
        parallelism=max(1.0, parallelism),
    )
