"""Coalescing of identical in-flight queries.

Traffic to an advisor is heavily repetitive: many clients ask about the
same (kernel, size, candidates) tuple at once. Queries with the same
canonical cache key share one in-flight execution: N identical
concurrent requests cost exactly one execution, and the other N-1 await
it and count into ``serve.requests.coalesced``. Distinct keys start
their executions at once, each on its own; the pool shards them by key.

Everything runs on the event-loop thread, so the invariants are enforced
by *not awaiting* between checking and updating the in-flight map: the
first submit of a key claims it (inserts its task) synchronously, and
the task pops the key in a ``finally`` with no ``await`` between the
pop and its completion. A later submit therefore either joins a running
execution or starts a fresh one, never one that has already finished.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro import telemetry
from repro.telemetry import names as tm


class Batcher:
    """Share one execution among the submitters of an in-flight key.

    ``execute(key, job)`` is awaited once per claimed key; its result,
    or the exception it raises, goes to every submitter of that key.
    The batcher never inspects jobs or results.
    """

    def __init__(self, execute: Callable[[str, Any], Awaitable[Any]]) -> None:
        self._execute = execute
        #: key -> the one task every submitter of that key awaits.
        self._inflight: dict[str, asyncio.Task] = {}
        self.coalesced = 0
        self.dispatched = 0

    @property
    def batches(self) -> int:
        """Executions started: one per claimed key, as ``dispatched``."""
        return self.dispatched

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    async def submit(self, key: str, job: Any) -> Any:
        """Resolve one query, sharing work with identical in-flight ones."""
        task = self._inflight.get(key)
        if task is None:
            self.dispatched += 1
            task = asyncio.get_running_loop().create_task(self._run(key, job))
            self._inflight[key] = task
        else:
            self.coalesced += 1
            telemetry.counter(tm.METRIC_SERVE_COALESCED).inc()
        # shield: one waiter being cancelled must not cancel the shared
        # execution other waiters depend on.
        return await asyncio.shield(task)

    async def _run(self, key: str, job: Any) -> Any:
        try:
            return await self._execute(key, job)
        finally:
            del self._inflight[key]
