"""Sync-free SpTRSV scheduling (Liu, Li, Hogg, Duff, Vinter — Euro-Par '16).

The paper's SpTRSV implementation is SpMP's level-scheduled P2P solver;
its own reference [31] (by two of the paper's authors) removes the level
barriers entirely: each row carries an in-degree counter, a row executes
as soon as its last dependency resolves, and completion propagates
point-to-point. On massively threaded hardware this beats level
scheduling exactly when level widths are ragged.

We implement both faces:

* :func:`solve_syncfree` — a functional solve whose execution order is
  the dependency-resolution order (validated against the level solver).
* :func:`simulate_schedule` — an event-driven timing simulation on ``p``
  virtual cores with per-row costs, returning makespan and core
  utilization for *both* disciplines, so the scheduling benefit is a
  measured quantity rather than an assumption. This feeds the ext5
  experiment and refines the SpTRSV parallelism story: level scheduling
  pays ``n_levels`` barrier latencies; sync-free pays only the critical
  path.
"""

from __future__ import annotations

import dataclasses
import heapq
import operator

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.levels import row_dependencies


def solve_syncfree(lower: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` in dependency-resolution order.

    Rows are processed from a ready queue seeded with in-degree-zero rows;
    completing row j decrements the in-degree of every row that reads
    x[j]. The result is identical to forward substitution; the *order*
    is the sync-free execution order.
    """
    if not lower.is_square:
        raise ValueError("matrix must be square")
    b = np.asarray(b, dtype=np.float64)
    n = lower.n_rows
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},)")
    indptr, indices, data = lower.indptr, lower.indices, lower.data
    # In-degree = strictly-lower nonzeros per row; consumers via CSC-ish
    # adjacency built once.
    in_degree = np.zeros(n, dtype=np.int64)
    consumers: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for k in range(int(indptr[i]), int(indptr[i + 1])):
            j = int(indices[k])
            if j < i:
                in_degree[i] += 1
                consumers[j].append(i)
    ready = [i for i in range(n) if in_degree[i] == 0]
    x = np.zeros(n)
    done = 0
    while ready:
        next_ready: list[int] = []
        for i in ready:
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            cols = indices[lo:hi]
            vals = data[lo:hi]
            mask = cols < i
            acc = float(vals[mask] @ x[cols[mask]])
            diag_pos = np.searchsorted(cols, i)
            if diag_pos >= len(cols) or cols[diag_pos] != i:
                raise ValueError(f"missing diagonal in row {i}")
            x[i] = (b[i] - acc) / vals[diag_pos]
            done += 1
            for c in consumers[i]:
                in_degree[c] -= 1
                if in_degree[c] == 0:
                    next_ready.append(c)
        ready = next_ready
    if done != n:
        raise ValueError("dependency cycle: matrix is not lower-triangular")
    return x


@dataclasses.dataclass(frozen=True)
class ScheduleResult:
    """Timing outcome of one scheduling discipline."""

    discipline: str  # "level" or "sync-free"
    makespan: float  # abstract time units
    utilization: float  # busy core-time / (makespan * cores)
    critical_path: float  # lower bound on any schedule

    @property
    def efficiency(self) -> float:
        """makespan / critical_path: 1.0 = optimal."""
        return self.critical_path / self.makespan if self.makespan else 0.0


def _row_costs(lower: CSRMatrix, per_nnz_cost: float, base_cost: float) -> np.ndarray:
    return base_cost + per_nnz_cost * np.diff(lower.indptr)


def simulate_schedule(
    lower: CSRMatrix,
    *,
    cores: int,
    discipline: str = "sync-free",
    per_nnz_cost: float = 1.0,
    base_cost: float = 2.0,
    barrier_cost: float = 20.0,
) -> ScheduleResult:
    """Event-driven makespan simulation of one discipline.

    * ``level``: rows of one wavefront are list-scheduled on ``cores``
      workers; a barrier of ``barrier_cost`` separates consecutive levels.
    * ``sync-free``: rows become ready the moment their last dependency
      finishes; ready rows are greedily assigned to the earliest-free
      core (no barriers).
    """
    if cores < 1:
        raise ValueError("cores must be >= 1")
    if discipline not in ("level", "sync-free"):
        raise ValueError("discipline must be 'level' or 'sync-free'")
    n = lower.n_rows
    costs = _row_costs(lower, per_nnz_cost, base_cost)
    cost = costs.tolist()
    deps_of = row_dependencies(lower)
    # One pass in row order (a topological order): each row's wavefront
    # level and its cost-weighted depth, the longest dependency chain
    # ending in it.
    level: list[int] = []
    depth: list[float] = []
    level_at, depth_at = level.__getitem__, depth.__getitem__
    for deps, c in zip(deps_of, cost):
        level.append(max(map(level_at, deps)) + 1 if deps else 0)
        depth.append((max(map(depth_at, deps)) if deps else 0.0) + c)
    critical = max(depth) if n else 0.0
    busy = float(costs.sum())

    if discipline == "level":
        waves: list[list[float]] = [[] for _ in range(max(level) + 1 if n else 0)]
        for lvl, c in zip(level, cost):
            waves[lvl].append(c)
        makespan = 0.0
        for wave in waves:
            # LPT list scheduling: longest row first onto the least-loaded
            # core. Equal loads are interchangeable, so which one a heap
            # picks changes nothing.
            wave.sort(reverse=True)
            loads = [0.0] * cores
            for c in wave:
                heapq.heapreplace(loads, loads[0] + c)
            makespan += max(loads) + barrier_cost
        makespan -= barrier_cost if waves else 0.0
    else:
        # Sync-free: rows finish when (ready time + queueing) + cost,
        # processed in order of readiness (ties by row index).
        finish = [0.0] * n
        finish_at = finish.__getitem__
        core_free = [0.0] * cores
        ready_at = list(map(operator.sub, depth, cost))
        for i in sorted(range(n), key=ready_at.__getitem__):
            deps = deps_of[i]
            ready = max(map(finish_at, deps)) if deps else 0.0
            done = max(ready, core_free[0]) + cost[i]
            heapq.heapreplace(core_free, done)
            finish[i] = done
        makespan = max(finish) if n else 0.0

    utilization = busy / (makespan * cores) if makespan else 0.0
    return ScheduleResult(
        discipline=discipline,
        makespan=makespan,
        utilization=min(1.0, utilization),
        critical_path=critical,
    )


def scheduling_speedup(
    lower: CSRMatrix, *, cores: int, barrier_cost: float = 20.0
) -> float:
    """Makespan ratio level / sync-free (> 1 means sync-free wins)."""
    lvl = simulate_schedule(
        lower, cores=cores, discipline="level", barrier_cost=barrier_cost
    )
    sf = simulate_schedule(lower, cores=cores, discipline="sync-free")
    return lvl.makespan / sf.makespan if sf.makespan else float("inf")
