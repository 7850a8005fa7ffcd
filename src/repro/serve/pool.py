"""The advisor service's view of the worker pool.

Executions leave the event loop: advisor evaluations and experiment
runs happen on the shared worker pool (:mod:`repro.runtime.pool`), the
same shards that run ``repro run --jobs N``, so timeouts, fault
injection and worker recycling behave identically under serve and under
the batch scheduler. :class:`ServePool` adds what serving needs:

* **Routing.** A query's shard is chosen by its cache key. Identical
  queries therefore land on one shard (the batcher already runs each
  in-flight key once), while distinct keys spread uniformly. A job
  waits for its shard's lock, on the deadline of the query.
* **Retries.** A worker lost mid-job, or an exception raised in it, is
  retried; a query past its deadline answers HTTP 503 and is not
  retried (a deterministic query that hung once will hang again).
* **Stored answers.** Given a cache directory, the worker writes its
  result to the shared cache (under the cache lock) before it replies,
  so the server only keeps the answer in its hot tier and no helper
  thread runs on a miss.
* **Telemetry.** Each execution gets a manual-lifecycle
  ``serve.execute`` span; a :class:`~repro.telemetry.collect.TraceContext`
  rides to the worker, and the shipped spans/metrics are absorbed under
  the execute span at resolution, so every served request yields one
  rooted span tree exactly like a scheduled batch task.

``jobs=0`` runs executions inline (synchronously, on the caller's
thread) with the same collection scope and the same cache write — the
test-and-debug mode.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.runtime.pool import PoolError, ShardLost, WorkerPool, _pool_worker
from repro.telemetry import collect, names as tm
from repro.telemetry.spans import Span

#: Extra attempts granted to an execution that crashed (not timed out:
#: a deterministic query that hung once will hang again).
DEFAULT_RETRIES = 1


class PoolTimeout(PoolError):
    """An execution exceeded the per-query deadline (HTTP 503)."""


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


class ServePool(WorkerPool):
    """``jobs`` key-routed worker shards with a deadline and bounded retry.

    ``store`` is the cache directory each execution writes its result to
    before replying (``None``: results are not stored).
    """

    def __init__(
        self,
        jobs: int,
        *,
        timeout_s: float | None = None,
        retries: int = DEFAULT_RETRIES,
        store: Path | None = None,
    ) -> None:
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout_s is not None and not timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        super().__init__(jobs)
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.store = store

    def _shard_index(self, key: str) -> int:
        return int(key[:8], 16) % self.jobs

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
        store = None if self.store is None else (str(self.store), key)
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
                envelope = await self._run_once(
                    (kind, payload, quick, ctx, store), key
                )
            except asyncio.TimeoutError:
                collect.close_task_span(sp, status="timeout")
                raise PoolTimeout(
                    f"execution exceeded {self.timeout_s}s deadline"
                ) from None
            except ShardLost as exc:
                collect.close_task_span(sp, status="crashed")
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

    async def _run_once(self, job: tuple, key: str) -> dict[str, Any]:
        if self.jobs == 0:
            # Inline mode (tests/debugging) deliberately blocks the loop:
            # running the worker synchronously is what makes the global
            # tracer swap race-free (nothing else runs while it holds
            # the loop), and jobs=0 is never a production configuration.
            return _pool_worker(*job)  # audit: ignore[ASYNC001]
        call = self.call(self._shard_index(key), job)
        return await asyncio.wait_for(call, timeout=self.timeout_s)
