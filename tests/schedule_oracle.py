"""Per-row NumPy level scheduling and schedule simulation: the oracle.

These are the implementations :mod:`repro.sparse.levels` and
:mod:`repro.sparse.syncfree` used before their list-based rewrite: every
row slices its dependencies out of the CSR arrays, the level discipline
assigns each wavefront with ``np.argmin``, and ``simulate_schedule``
rebuilds the level schedule on every call. ``tests/test_schedule_oracle.py``
requires the library's results to equal these exactly.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.levels import LevelSchedule
from repro.sparse.syncfree import ScheduleResult


def build_levels(lower: CSRMatrix) -> LevelSchedule:
    """``level[i] = 1 + max(level[j])`` over row i's strictly-lower
    dependencies (0 without any), in row order."""
    n = lower.n_rows
    if not lower.is_square:
        raise ValueError("level scheduling requires a square matrix")
    level = np.zeros(n, dtype=np.int32)
    indptr = lower.indptr
    indices = lower.indices
    for i in range(n):
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        deps = indices[lo:hi]
        deps = deps[deps < i]  # strictly-lower dependencies
        if len(deps):
            level[i] = int(level[deps].max()) + 1
    order = np.argsort(level, kind="stable").astype(np.int32)
    n_levels = int(level.max()) + 1 if n else 0
    counts = np.bincount(level, minlength=n_levels)
    offsets = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return LevelSchedule(level_of=level, level_offsets=offsets, order=order)


def simulate_schedule(
    lower: CSRMatrix,
    *,
    cores: int,
    discipline: str = "sync-free",
    per_nnz_cost: float = 1.0,
    base_cost: float = 2.0,
    barrier_cost: float = 20.0,
) -> ScheduleResult:
    """Event-driven makespan simulation of one discipline."""
    if cores < 1:
        raise ValueError("cores must be >= 1")
    if discipline not in ("level", "sync-free"):
        raise ValueError("discipline must be 'level' or 'sync-free'")
    n = lower.n_rows
    costs = base_cost + per_nnz_cost * np.diff(lower.indptr)
    schedule = build_levels(lower)
    # Critical path: longest cost-weighted dependency chain.
    depth = np.zeros(n)
    indptr, indices = lower.indptr, lower.indices
    for i in range(n):
        deps = indices[int(indptr[i]) : int(indptr[i + 1])]
        deps = deps[deps < i]
        longest = float(depth[deps].max()) if len(deps) else 0.0
        depth[i] = longest + costs[i]
    critical = float(depth.max()) if n else 0.0
    busy = float(costs.sum())

    if discipline == "level":
        makespan = 0.0
        for lvl in range(schedule.n_levels):
            rows = schedule.rows_in_level(lvl)
            lvl_costs = np.sort(costs[rows])[::-1]
            workers = np.zeros(cores)
            for c in lvl_costs:  # LPT list scheduling
                idx = int(np.argmin(workers))
                workers[idx] += c
            makespan += float(workers.max()) + barrier_cost
        makespan -= barrier_cost if schedule.n_levels else 0.0
    else:
        # Sync-free: rows finish when (ready time + queueing) + cost.
        finish = np.zeros(n)
        core_free = [0.0] * cores
        heapq.heapify(core_free)
        # Process rows in a topological order by readiness time.
        order = sorted(range(n), key=lambda i: (depth[i] - costs[i], i))
        for i in order:
            deps = indices[int(indptr[i]) : int(indptr[i + 1])]
            deps = deps[deps < i]
            ready = float(finish[deps].max()) if len(deps) else 0.0
            start = max(ready, heapq.heappop(core_free))
            finish[i] = start + costs[i]
            heapq.heappush(core_free, float(finish[i]))
        makespan = float(finish.max()) if n else 0.0

    utilization = busy / (makespan * cores) if makespan else 0.0
    return ScheduleResult(
        discipline=discipline,
        makespan=makespan,
        utilization=min(1.0, utilization),
        critical_path=critical,
    )
