"""Cholesky decomposition (PLASMA-style tiled right-looking DPOTRF).

Functional face: the classic tiled right-looking factorization — POTRF on
the diagonal tile, TRSM down the panel, SYRK/GEMM on the trailing
submatrix — validated against ``numpy.linalg.cholesky``. Analytic face:
the trailing-matrix update dominates both flops (n^3/3) and traffic; each
panel step re-reads the trailing submatrix, giving ``~ 8 n^3 / (3 b)``
bytes of beyond-tile traffic, the Cholesky analogue of the GEMM model.

The paper observes (Section 4.2.1-I) that its Cholesky tiling is
*suboptimal for KNL's L2*, which is why MCDRAM lifts Cholesky's peak where
it cannot lift GEMM's; the same mechanics emerge here whenever ``24 b^2``
exceeds the L2 slice.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.kernels.base import Kernel
from repro.kernels.characteristics import cholesky_characteristics
from repro.kernels.gemm import MICRO_REUSE
from repro.kernels.profile import Phase, ReuseCurve, WorkloadProfile


@dataclasses.dataclass
class CholeskyKernel(Kernel):
    """Factor a random SPD ``order x order`` matrix with ``tile`` blocking."""

    order: int
    tile: int
    seed: int = 0

    name = "cholesky"

    def __post_init__(self) -> None:
        if self.order <= 0 or self.tile <= 0:
            raise ValueError("order and tile must be positive")

    def _spd_matrix(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        m = rng.standard_normal((self.order, self.order))
        return m @ m.T + self.order * np.eye(self.order)

    # -- functional ---------------------------------------------------------

    def run(self) -> np.ndarray:
        return tiled_cholesky(self._spd_matrix(), tile=self.tile)

    def validate(self) -> bool:
        a = self._spd_matrix()
        l = tiled_cholesky(a, tile=self.tile)
        return bool(np.allclose(l @ l.T, a, atol=1e-8 * self.order))

    # -- analytic -----------------------------------------------------------

    def flops(self) -> float:
        return cholesky_characteristics(self.order).operations

    def profile(self) -> WorkloadProfile:
        n = float(self.order)
        b = float(min(self.tile, self.order))
        word = 8.0
        fp = word * n * n
        demand = word * n**3 / (3.0 * MICRO_REUSE) + 2.0 * fp
        # Right-looking update re-touches the (shrinking) trailing matrix
        # every panel: sum over k of (n - k b)^2 ~= n^3 / (3 b) words read
        # + written.
        tile_traffic = 2.0 * word * n**3 / (3.0 * b) + 2.0 * fp
        three_tiles = 3.0 * word * b * b
        micro_ws = 4.0 * word * MICRO_REUSE * b
        micro_frac = 1.0 - 1.0 / (2.0 * MICRO_REUSE)
        tile_frac = max(micro_frac, 1.0 - tile_traffic / demand)
        reuse = ReuseCurve.from_knots(
            [
                (micro_ws, micro_frac),
                (three_tiles, tile_frac),
            ],
            footprint=fp,
        )
        phase = Phase(
            name="tiled-potrf",
            flops=self.flops(),
            demand_bytes=demand,
            reuse=reuse,
            write_fraction=min(1.0, fp / demand),
            mlp=10.0,
        )
        return WorkloadProfile(
            kernel=self.name,
            params={"order": self.order, "tile": self.tile},
            phases=(phase,),
            arrays={"A": int(fp)},
            compute_efficiency=self.compute_efficiency(),
        )

    def compute_efficiency(self) -> float:
        """Like GEMM's, with a panel-serialization term: the factorization
        has a critical path of ``n/b`` dependent panel steps, so too-large
        tiles also hurt (the long-diagonal effect on Figure 8/16)."""
        n, b = self.order, min(self.tile, self.order)
        ramp = b / (b + 32.0)
        n_tiles = -(-n // b)
        padded = n_tiles * b
        edge = (n / padded) ** 2
        critical = min(1.0, (n_tiles - 1) / 3.0 + 0.4)
        return max(1e-3, ramp * edge * critical)


def tiled_cholesky(a: np.ndarray, *, tile: int) -> np.ndarray:
    """Right-looking tiled Cholesky; returns the lower factor L."""
    a = np.array(a, dtype=np.float64)  # copy: factorization is in-place
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    for k0 in range(0, n, tile):
        k1 = min(k0 + tile, n)
        # POTRF: factor the diagonal tile.
        a[k0:k1, k0:k1] = np.linalg.cholesky(a[k0:k1, k0:k1])
        lkk = a[k0:k1, k0:k1]
        # TRSM: panel below the diagonal tile.
        for i0 in range(k1, n, tile):
            i1 = min(i0 + tile, n)
            a[i0:i1, k0:k1] = _trsm_lower_t(lkk, a[i0:i1, k0:k1])
        # SYRK / GEMM: trailing submatrix update.
        for i0 in range(k1, n, tile):
            i1 = min(i0 + tile, n)
            for j0 in range(k1, i1, tile):
                j1 = min(j0 + tile, i1)
                a[i0:i1, j0:j1] -= a[i0:i1, k0:k1] @ a[j0:j1, k0:k1].T
    return np.tril(a)


def _trsm_lower_t(lkk: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Solve ``X @ lkk.T = block`` for X (the TRSM of the panel step)."""
    # Imported here, its one use: every process imports this module
    # (through repro.kernels), and scipy.linalg would add ~0.08 s to each
    # start-up (2-vCPU x86-64 VM).
    import scipy.linalg

    return scipy.linalg.solve_triangular(lkk, block.T, lower=True).T
