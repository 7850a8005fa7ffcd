"""Sharded worker-process pool for the advisor service.

Executions leave the event loop: advisor evaluations and experiment
runs happen in worker processes so a slow query can never stall request
handling. The pool reuses the batch scheduler's machinery wholesale —
worker bootstrap (:func:`~repro.runtime.scheduler._worker_init`),
experiment execution (:func:`~repro.runtime.scheduler._worker_run`),
hung-worker reaping (:func:`~repro.runtime.scheduler._reap_pool`) — so
timeouts, retries, and fault injection behave identically under serve
and under ``repro run``.

Sharding: the pool is N *single-worker* executors, and a query's shard
is chosen by its cache key. Identical queries therefore land on one
shard (the batcher already runs each in-flight key once), while
distinct keys spread uniformly. A shard whose worker hangs or dies is
recycled — terminated and replaced — without touching the other shards.

Telemetry: each execution gets a manual-lifecycle ``serve.execute``
span; a :class:`~repro.telemetry.collect.TraceContext` rides to the
worker, and the shipped spans/metrics are absorbed under the execute
span at resolution, so every served request yields one rooted span tree
exactly like a scheduled batch task.

``jobs=0`` runs executions inline (synchronously, on the caller's
thread) with the same collection scope — the test-and-debug mode.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any

from repro import telemetry
from repro.runtime import faults, scheduler
from repro.telemetry import collect, names as tm
from repro.telemetry.spans import Span

#: Extra attempts granted to an execution that crashed (not timed out:
#: a deterministic query that hung once will hang again).
DEFAULT_RETRIES = 1


class PoolError(RuntimeError):
    """An execution failed after exhausting its attempts (HTTP 500)."""


class PoolTimeout(PoolError):
    """An execution exceeded the per-query deadline (HTTP 503)."""


def _pool_worker(
    kind: str,
    payload: Any,
    quick: bool,
    ctx: collect.TraceContext | None = None,
) -> dict[str, Any]:
    """Executed in a worker process; returns a picklable envelope.

    ``kind="experiment"`` delegates to the scheduler's worker entry
    point verbatim (same envelope, same fault hooks, same collection).
    ``kind="advise"`` evaluates one canonical advisor query under the
    same collection scope; its fault hook is ``advise:<kernel>``.
    """
    if kind == "experiment":
        return scheduler._worker_run(payload, quick, ctx)
    if kind != "advise":
        raise ValueError(f"unknown execution kind {kind!r}")
    from repro.serve import advisor

    faults.apply(f"advise:{payload['kernel']}")
    with collect.worker_collection(ctx) as shipment:
        start = time.perf_counter()
        result = advisor.evaluate(payload)
        duration_s = time.perf_counter() - start
    return {
        "duration_s": duration_s,
        "result": result,
        "telemetry": shipment.export(),
    }


def _open_execute_span(
    kind: str, key: str, attempt: int, parent_span_id: int | None
) -> Span | None:
    """Manual-lifecycle span for one execution (interleaves on the loop).

    Parents under the requesting ``serve.request`` span when given (a
    coalesced execution roots under the request that triggered it).
    """
    if not telemetry.enabled():
        return None
    return telemetry.get_tracer().begin(
        tm.SPAN_SERVE_EXECUTE,
        parent_id=parent_span_id,
        kind=kind,
        key=key[:16],
        attempt=attempt,
    )


class ServePool:
    """N single-worker shards with timeout, recycle, and bounded retry."""

    def __init__(
        self,
        jobs: int,
        *,
        timeout_s: float | None = None,
        retries: int = DEFAULT_RETRIES,
    ) -> None:
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout_s is not None and not timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self._shards: list[ProcessPoolExecutor | None] = [None] * jobs
        self.recycles = 0

    # -- shard management -----------------------------------------------------

    def _shard_index(self, key: str) -> int:
        return int(key[:8], 16) % self.jobs

    def _shard(self, index: int) -> ProcessPoolExecutor:
        pool = self._shards[index]
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=1,
                initializer=scheduler._worker_init,
                initargs=(scheduler._package_parent(),),
            )
            self._shards[index] = pool
        return pool

    def _recycle(self, index: int, *, reason: str) -> None:
        pool = self._shards[index]
        self._shards[index] = None
        self.recycles += 1
        telemetry.counter(tm.METRIC_SERVE_RECYCLED).inc()
        if pool is not None:
            scheduler._reap_pool(pool, reason=reason, n_hung=1)

    def shutdown(self) -> None:
        """Terminate every shard (idempotent)."""
        for index, pool in enumerate(self._shards):
            self._shards[index] = None
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    # -- execution ------------------------------------------------------------

    async def run(
        self,
        kind: str,
        payload: Any,
        *,
        quick: bool,
        key: str,
        trace_id: str,
        parent_span_id: int | None = None,
    ) -> dict[str, Any]:
        """Execute one query, retrying crashes; returns the envelope.

        Raises :class:`PoolTimeout` when the deadline expires (the hung
        shard is recycled; deterministic work is not retried after a
        timeout) and :class:`PoolError` after the final crash.
        """
        attempts = self.retries + 1
        last_error: BaseException | None = None
        for attempt in range(1, attempts + 1):
            sp = _open_execute_span(kind, key, attempt, parent_span_id)
            ctx = collect.current_context(
                f"{kind}:{key[:16]}",
                trace_id=trace_id,
                parent_span_id=sp.span_id if sp is not None else None,
            )
            try:
                envelope = await self._run_once(kind, payload, quick, key, ctx)
            except asyncio.TimeoutError:
                collect.close_task_span(sp, status="timeout")
                raise PoolTimeout(
                    f"execution exceeded {self.timeout_s}s deadline"
                ) from None
            except BrokenExecutor as exc:
                collect.close_task_span(sp, status="crashed")
                if self.jobs:
                    self._recycle(self._shard_index(key), reason="broken-pool")
                last_error = exc
                continue
            except Exception as exc:
                collect.close_task_span(sp, status="failed")
                last_error = exc
                continue
            collect.absorb(envelope.get("telemetry"), task_span=sp)
            collect.close_task_span(sp, status="done")
            return envelope
        raise PoolError(
            f"execution failed after {attempts} attempts: {last_error}"
        ) from last_error

    async def _run_once(
        self,
        kind: str,
        payload: Any,
        quick: bool,
        key: str,
        ctx: collect.TraceContext | None,
    ) -> dict[str, Any]:
        if self.jobs == 0:
            # Inline mode (tests/debugging) deliberately blocks the loop:
            # running the worker synchronously is what makes the global
            # tracer swap race-free (nothing else runs while it holds
            # the loop), and jobs=0 is never a production configuration.
            return _pool_worker(kind, payload, quick, ctx)  # audit: ignore[ASYNC001]
        index = self._shard_index(key)
        pool = self._shard(index)
        future = asyncio.wrap_future(
            pool.submit(_pool_worker, kind, payload, quick, ctx)
        )
        if self.timeout_s is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout=self.timeout_s)
        except asyncio.TimeoutError:
            self._recycle(index, reason="serve-timeout")
            raise
