"""The worker pool behind ``repro run --jobs N`` and ``repro serve``.

A pool is N shards. Each shard is one worker process connected to its
parent by a ``socket.socketpair()``, started with the platform's default
``multiprocessing`` start method when the first job lands on it. The
parent's end is an asyncio stream carrying length-prefixed pickle
frames: a job goes out as :func:`_pool_worker`'s arguments, and its
envelope, or the exception it raised, comes back. An ``asyncio.Lock``
per shard keeps one job in flight on it.

Failures stay on their own shard. A job cancelled mid-exchange (its
deadline passed under ``asyncio.wait_for``) or whose worker exits
mid-job recycles the shard: the worker is killed and joined from the
event loop once it has exited, without blocking it, and the next job on
that index starts a fresh worker. A worker lost mid-job raises
:class:`ShardLost`. An exception raised in the worker comes back pickled
and leaves the worker up; one that cannot be pickled comes back as a
:class:`PoolError` carrying its repr. Each recycle opens a ``pool.reap``
span and counts once in ``runtime.pool.recycled``.

The batch scheduler (:mod:`repro.runtime.scheduler`) runs one lane per
shard; the advisor service (:mod:`repro.serve.pool`) routes queries to
shards by key and retries crashes.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import pickle
import socket
import struct
import time
from multiprocessing.process import BaseProcess
from typing import Any, NamedTuple

from repro import telemetry
from repro.runtime import faults, scheduler
from repro.runtime.cache import SharedResultCache
from repro.telemetry import collect, names as tm

#: Frame header: the byte length of the pickle that follows it.
_HEADER = struct.Struct("!Q")


class PoolError(RuntimeError):
    """An execution failed: a worker exception that could not be pickled,
    or (under serve) a query whose attempts ran out."""


class ShardLost(Exception):
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

    With ``store``, a ``(cache dir, key)`` pair, the worker owns the
    disk store for that key (the server keeps the hot tier). It reads
    the stored object first; if there is one, the envelope carries it
    with ``disk_hit`` set, and nothing is evaluated, fault-hooked or
    written (``duration_s`` is the read). Otherwise it evaluates and
    writes the result before the envelope is returned, so a reply means
    a stored answer. The batch scheduler passes no ``store``.
    """
    cache = None
    if store is not None:
        root, key = store
        cache = SharedResultCache(root)
        start = time.perf_counter()
        stored = cache.get_payload(key)
        if stored is not None:
            return {
                "duration_s": time.perf_counter() - start,
                "result": stored,
                "disk_hit": True,
            }
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
    if cache is not None:
        cache.put_payload(key, envelope["result"], kind=f"serve.{kind}")
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
    """A shard's worker process: answer job frames until the parent's end
    closes.

    Each job is ``_pool_worker``'s arguments; the function is looked up
    as a module global on every call, so a rebinding reaches the worker.
    """
    # A forked worker inherits the parent's end too; holding it open
    # would hide the parent's exit from the read below.
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
    """One worker process and the parent's stream to it."""

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


class WorkerPool:
    """``size`` socket-connected worker shards, each started on first use."""

    def __init__(self, size: int) -> None:
        self._shards: list[_Shard | None] = [None] * size
        self._locks = [asyncio.Lock() for _ in range(size)]
        #: Killed workers not yet joined.
        self._dying: set[BaseProcess] = set()
        self.recycles = 0

    async def call(self, index: int, job: tuple) -> dict[str, Any]:
        """Run ``job`` on shard ``index`` once the shard is free.

        Returns the envelope, or raises what the job raised. Cancelling
        the call once the job has been sent kills the shard's worker.
        """
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
                self._recycle(index, reason="timeout")
                raise
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                self._recycle(index, reason="broken-pool")
                raise ShardLost(f"worker exited mid-job: {exc!r}") from exc
        if not ok:
            raise value
        return value

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
        telemetry.counter(tm.METRIC_POOL_RECYCLED).inc()
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
