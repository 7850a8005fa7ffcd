"""Sharded worker-process pool for the advisor service.

Executions leave the event loop: advisor evaluations and experiment
runs happen in worker processes so a slow query can never stall request
handling. Experiments run through the batch scheduler's worker entry
point (:func:`~repro.runtime.scheduler._worker_run`), and both kinds
pass the same fault hooks, so timeouts, retries, and fault injection
behave identically under serve and under ``repro run``.

Sharding: the pool is N shards, each one worker process connected to
the server by a ``socket.socketpair()``, and a query's shard is chosen
by its cache key. Identical queries therefore land on one shard (the
batcher already runs each in-flight key once), while distinct keys
spread uniformly. The server's end of a pair is an asyncio stream that
carries length-prefixed pickle frames: a job goes out, and its envelope
or the exception it raised comes back. An ``asyncio.Lock`` per shard
keeps one job in flight on it; a shard with no worker starts one under
that lock, on the deadline of the job that needs it.

A reply means a stored answer: given a cache directory, the worker
writes its result to the shared cache (under the cache lock) before it
replies, so the server only keeps the answer in its hot tier and no
helper thread runs on a miss.

Failures: a shard whose job passes its deadline is killed (HTTP 503) and
joined once it has exited, from the event loop without blocking it; the
next job on that index starts a fresh worker. An EOF or reset from a
worker recycles the shard and retries the job. An exception raised in
the worker comes back pickled and is retried; one that cannot be
pickled comes back as a :class:`PoolError` carrying its repr.

Telemetry: each execution gets a manual-lifecycle ``serve.execute``
span; a :class:`~repro.telemetry.collect.TraceContext` rides to the
worker, and the shipped spans/metrics are absorbed under the execute
span at resolution, so every served request yields one rooted span tree
exactly like a scheduled batch task.

``jobs=0`` runs executions inline (synchronously, on the caller's
thread) with the same collection scope and the same cache write — the
test-and-debug mode.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import pickle
import socket
import struct
import time
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Any, NamedTuple

from repro import telemetry
from repro.runtime import faults, scheduler
from repro.runtime.cache import SharedResultCache
from repro.telemetry import collect, names as tm
from repro.telemetry.spans import Span

#: Extra attempts granted to an execution that crashed (not timed out:
#: a deterministic query that hung once will hang again).
DEFAULT_RETRIES = 1

#: Frame header: the byte length of the pickle that follows it.
_HEADER = struct.Struct("!Q")


class PoolError(RuntimeError):
    """An execution failed after exhausting its attempts (HTTP 500)."""


class PoolTimeout(PoolError):
    """An execution exceeded the per-query deadline (HTTP 503)."""


class _ShardLost(Exception):
    """A worker closed or reset its end of the stream mid-job."""


def _pool_worker(
    kind: str,
    payload: Any,
    quick: bool,
    ctx: collect.TraceContext | None = None,
    store: tuple[str, str] | None = None,
) -> dict[str, Any]:
    """Executed in a worker process; returns a picklable envelope.

    ``kind="experiment"`` delegates to the scheduler's worker entry
    point verbatim (same envelope, same fault hooks, same collection).
    ``kind="advise"`` evaluates one canonical advisor query under the
    same collection scope; its fault hook is ``advise:<kernel>``.
    With ``store``, a ``(cache dir, key)`` pair, the result is written
    to the shared cache before the envelope is returned.
    """
    if kind == "experiment":
        envelope = scheduler._worker_run(payload, quick, ctx)
    elif kind == "advise":
        from repro.serve import advisor

        faults.apply(f"advise:{payload['kernel']}")
        with collect.worker_collection(ctx) as shipment:
            start = time.perf_counter()
            result = advisor.evaluate(payload)
            duration_s = time.perf_counter() - start
        envelope = {
            "duration_s": duration_s,
            "result": result,
            "telemetry": shipment.export(),
        }
    else:
        raise ValueError(f"unknown execution kind {kind!r}")
    if store is not None:
        root, key = store
        SharedResultCache(root, hot_capacity=0).put_payload(
            key, envelope["result"], kind=f"serve.{kind}"
        )
    return envelope


def _frame(obj: Any) -> bytes:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(data)) + data


def _reply(ok: bool, value: Any) -> bytes:
    """The reply frame; an exception that does not survive pickling is
    replaced by a :class:`PoolError` carrying its repr."""
    try:
        frame = _frame((ok, value))
        if not ok:
            pickle.loads(frame[_HEADER.size :])
        return frame
    except Exception:
        return _frame((False, PoolError(repr(value))))


def _shard_main(conn: socket.socket, server_end: socket.socket) -> None:
    """A shard's worker process: answer job frames until the server's end
    closes.

    Each job is ``_pool_worker``'s arguments; the function is looked up
    as a module global on every call, so a rebinding reaches the worker.
    """
    # A forked worker inherits the server's end too; holding it open
    # would hide the server's exit from the read below.
    server_end.close()
    inbox = conn.makefile("rb")
    while True:
        head = inbox.read(_HEADER.size)
        if len(head) < _HEADER.size:
            return
        job = pickle.loads(inbox.read(_HEADER.unpack(head)[0]))
        try:
            frame = _reply(True, _pool_worker(*job))
        except Exception as exc:
            frame = _reply(False, exc)
        try:
            conn.sendall(frame)
        except ConnectionError:
            return


class _Shard(NamedTuple):
    """One worker process and the server's stream to it."""

    proc: BaseProcess
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter

    async def exchange(self, job: tuple) -> tuple[bool, Any]:
        """Send one job; returns ``(ok, envelope or exception)``."""
        self.writer.write(_frame(job))
        await self.writer.drain()
        head = await self.reader.readexactly(_HEADER.size)
        body = await self.reader.readexactly(_HEADER.unpack(head)[0])
        return pickle.loads(body)


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
    """N socket-connected worker shards with timeout, recycle, and bounded
    retry.

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
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.store = store
        self._shards: list[_Shard | None] = [None] * jobs
        self._locks = [asyncio.Lock() for _ in range(jobs)]
        #: Killed workers not yet joined.
        self._dying: set[BaseProcess] = set()
        self.recycles = 0

    # -- shard management -----------------------------------------------------

    def _shard_index(self, key: str) -> int:
        return int(key[:8], 16) % self.jobs

    async def _spawn(self, index: int) -> _Shard:
        server_end, worker_end = socket.socketpair()
        with worker_end:
            proc = multiprocessing.Process(
                target=_shard_main, args=(worker_end, server_end), daemon=True
            )
            try:
                proc.start()
            except BaseException:
                server_end.close()
                raise
        try:
            reader, writer = await asyncio.open_connection(sock=server_end)
        except BaseException:
            server_end.close()
            self._reap(proc)
            raise
        shard = self._shards[index] = _Shard(proc, reader, writer)
        return shard

    def _recycle(self, index: int, *, reason: str) -> None:
        shard = self._shards[index]
        self._shards[index] = None
        self.recycles += 1
        telemetry.counter(tm.METRIC_SERVE_RECYCLED).inc()
        if shard is not None:
            with telemetry.span(tm.SPAN_POOL_REAP, reason=reason, n_hung=1):
                shard.writer.close()
                self._reap(shard.proc)

    def _reap(self, proc: BaseProcess) -> None:
        """Kill ``proc`` and join it once it has exited, from the loop."""
        proc.kill()
        self._dying.add(proc)
        loop = asyncio.get_running_loop()

        def joined() -> None:
            loop.remove_reader(proc.sentinel)
            if proc in self._dying:
                self._dying.discard(proc)
                proc.join()  # it has exited: returns at once

        loop.add_reader(proc.sentinel, joined)

    def shutdown(self) -> None:
        """Close every shard's stream and stop its worker (idempotent)."""
        for index, shard in enumerate(self._shards):
            self._shards[index] = None
            if shard is not None:
                shard.writer.close()
                self._dying.add(shard.proc)
        dying, self._dying = self._dying, set()
        for proc in dying:
            proc.kill()
        for proc in dying:
            proc.join()

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
            except _ShardLost as exc:
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
        call = self._call(self._shard_index(key), job)
        if self.timeout_s is None:
            return await call
        return await asyncio.wait_for(call, timeout=self.timeout_s)

    async def _call(self, index: int, job: tuple) -> dict[str, Any]:
        """Run ``job`` on shard ``index`` once the shard is free."""
        async with self._locks[index]:
            shard = self._shards[index]
            if shard is not None and shard.reader.at_eof():
                self._recycle(index, reason="worker-exited")
                shard = None
            if shard is None:
                shard = await self._spawn(index)
            try:
                ok, value = await shard.exchange(job)
            except asyncio.CancelledError:
                # Past the deadline: the worker is still busy with the job.
                self._recycle(index, reason="serve-timeout")
                raise
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                self._recycle(index, reason="broken-pool")
                raise _ShardLost(f"worker exited mid-job: {exc!r}") from exc
        if not ok:
            raise value
        return value
