"""The memory-advisor service: routes, caching, and the asyncio server.

Request path for ``POST /v1/advise``::

    parse HTTP → request memo: sha256(body) → (cache key, canonical query)
        [miss: decode JSON → normalize → cache key → remember]
        → LRU hot tier, on the loop [hit: splice meta → answer]
        → batcher (identical key in flight → share its execution)
        → claimed execution: worker shard (by key): disk tier [hit: reply]
              → engine evaluate → disk fill → reply
          → render once → hot-tier fill → splice meta → answer

The server runs no helper thread, and owns the hot tier: an LRU of
answers kept rendered (:class:`~repro.serve.http.Rendered`, the sorted
compact JSON split around the top-level ``meta`` key), read before the
batcher and filled by the claimed execution, both on the event loop. A
hot hit creates no task: it costs one dict lookup and one byte splice
of its own ``meta``. Everything else goes to the key's shard, which
owns the disk store: it answers a stored object without evaluating, and
otherwise evaluates and writes the disk fill before it replies, so a
miss's answer is stored before it is sent. The reply says which tier
answered.

A repeated advise body skips the JSON decode, ``normalize`` and
``query_key``: the request memo maps the body's SHA-256 to its cache
key and canonical query, least recently used first, bounded like the
hot tier. Only bodies that normalize are remembered, and the digest
keys keep large bodies out of memory. The memoized canonical dicts are
shared by every request that repeats the body and, under ``--jobs 0``,
handed to the evaluation unpickled: nothing may mutate them.

The hot-tier read and the claim on a key happen with no ``await``
between them, so the claim covers the shard's disk lookup, the
evaluation and the fill: a request that arrives while an identical one
is in the shard shares that work; a later request reads the fill.

The answer body is byte-identical to the offline
:func:`repro.serve.advisor.evaluate` output for the same normalized
query — serving-only information (which tier answered, wall time, trace
id) rides in a separate top-level ``meta`` field, so differential tests
can strip ``meta`` and compare the rest byte-for-byte.

``POST /v1/experiment`` serves registered experiments through the same
hot tier and batcher/cache/pool path, keyed by the offline ``repro run``
scheduler's task keys.

Spans here use manual lifecycles (``Tracer.begin``/``finish``): the
asyncio handlers interleave many requests on one thread, which a
``with``-scoped span cannot express.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import hashlib
import time
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.runtime.cache import default_cache_dir
from repro.serve import advisor
from repro.serve.batcher import Batcher
from repro.serve.http import (
    ProtocolError,
    Rendered,
    Request,
    error_payload,
    read_request,
    render_response,
)
from repro.serve.pool import PoolError, PoolTimeout, ServePool
from repro.telemetry import collect, names as tm

#: Answers the hot tier keeps, and bodies the request memo keeps; past
#: it the least recently used goes.
HOT_CAPACITY = 256


def _lru_get(lru: collections.OrderedDict, key: Any) -> Any:
    """``lru[key]`` made the most recently used, or None."""
    value = lru.get(key)
    if value is not None:
        lru.move_to_end(key)
    return value


def _lru_put(lru: collections.OrderedDict, key: Any, value: Any) -> None:
    """Add ``key``; past :data:`HOT_CAPACITY` the least recently used goes."""
    lru[key] = value
    if len(lru) > HOT_CAPACITY:
        lru.popitem(last=False)


@dataclasses.dataclass
class ServeConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8177
    #: Worker shards; 0 executes inline on the loop (tests, debugging).
    jobs: int = 2
    #: Shared cache directory (None = the default user cache dir).
    cache_dir: Path | None = None
    #: Disable result caching entirely (every query executes).
    no_cache: bool = False
    #: Per-execution deadline; a shard past it is recycled.
    timeout_s: float | None = 30.0
    #: Extra attempts after a crashed execution.
    retries: int = 1
    #: Experiments run in quick mode by default (full on request).
    quick: bool = True


class ServeApp:
    """Route handling plus the coalesce → cache → pool machinery."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        #: The shards' cache directory; None under ``--no-cache``.
        self.store: Path | None = (
            None
            if self.config.no_cache
            else Path(self.config.cache_dir or default_cache_dir())
        )
        self.pool = ServePool(
            self.config.jobs,
            timeout_s=self.config.timeout_s,
            retries=self.config.retries,
            store=self.store,
        )
        #: The hot tier: key -> rendered answer, least recently used first.
        self.hot: collections.OrderedDict[str, Rendered] = (
            collections.OrderedDict()
        )
        #: The request memo: sha256(advise body) -> (key, canonical
        #: query), least recently used first. Read-only values.
        self.queries: collections.OrderedDict[
            bytes, tuple[str, dict[str, Any]]
        ] = collections.OrderedDict()
        #: Answered executions by cache tier: hot, disk or miss.
        self.tiers: collections.Counter[str] = collections.Counter()
        self.batcher = Batcher(self._execute)
        self.trace_id = collect.new_trace_id()
        self.started_unix_s = time.time()
        self.requests = 0
        self.errors = 0

    # -- execution backend ----------------------------------------------------

    async def _execute(
        self, key: str, job: dict[str, Any]
    ) -> tuple[Rendered, str]:
        """The claimed execution of one hot miss; returns (answer, tier).

        Runs the pool, whose worker answers from disk or evaluates and
        stores the result before it replies, renders the result once and
        keeps the rendering in the hot tier. Every request that coalesces
        onto this key splices its own ``meta`` into the same rendering.
        """
        envelope = await self.pool.run(
            job["kind"],
            job["payload"],
            quick=job["quick"],
            key=key,
            trace_id=self.trace_id,
            parent_span_id=job.get("parent_span_id"),
        )
        tier = "disk" if envelope.get("disk_hit") else "miss"
        self.tiers[tier] += 1
        telemetry.counter(
            tm.METRIC_SERVE_CACHE_DISK
            if tier == "disk"
            else tm.METRIC_SERVE_CACHE_MISSES
        ).inc()
        answer = Rendered.of(envelope["result"])
        if self.store is not None:
            _lru_put(self.hot, key, answer)
        return answer, tier

    # -- routes ---------------------------------------------------------------

    async def handle(
        self, request: Request, span_id: int | None = None
    ) -> tuple[int, Any]:
        """Dispatch one parsed request to (status, JSON payload).

        ``span_id`` is the request's ``serve.request`` span: executions
        triggered by this request parent under it, so each request
        yields one rooted span tree (a coalesced execution roots under
        the request that started it).
        """
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return 200, self._healthz()
        if route == ("GET", "/metrics"):
            return 200, self._metrics()
        if route == ("POST", "/v1/advise"):
            return await self._advise(request, span_id)
        if route == ("POST", "/v1/experiment"):
            return await self._experiment(request, span_id)
        if request.path in ("/healthz", "/metrics", "/v1/advise", "/v1/experiment"):
            return 405, error_payload(405, f"{request.method} not allowed")
        return 404, error_payload(404, f"no route {request.path}")

    def _healthz(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime_s": time.time() - self.started_unix_s,
            "jobs": self.config.jobs,
            "cache": self.store is not None,
        }

    def _metrics(self) -> dict[str, Any]:
        snapshot = (
            telemetry.get_registry().snapshot()
            if telemetry.enabled()
            else {}
        )
        serve = {
            "requests": self.requests,
            "errors": self.errors,
            "coalesced": self.batcher.coalesced,
            "dispatched": self.batcher.dispatched,
            "pool_recycles": self.pool.recycles,
        }
        if self.store is not None:
            serve["cache"] = {
                "hot_hits": self.tiers["hot"],
                "disk_hits": self.tiers["disk"],
                "misses": self.tiers["miss"],
                "hot_entries": len(self.hot),
            }
        return {"serve": serve, "metrics": snapshot}

    async def _advise(
        self, request: Request, span_id: int | None = None
    ) -> tuple[int, Any]:
        digest = hashlib.sha256(request.body).digest()
        query = _lru_get(self.queries, digest)
        if query is None:
            try:
                canonical = advisor.normalize(request.json())
            except advisor.QueryError as exc:
                return 400, error_payload(400, str(exc))
            query = advisor.query_key(canonical), canonical
            _lru_put(self.queries, digest, query)
        key, canonical = query
        job = {
            "kind": "advise",
            "payload": canonical,
            "quick": True,
            "parent_span_id": span_id,
        }
        return await self._serve_job(key, job)

    async def _experiment(
        self, request: Request, span_id: int | None = None
    ) -> tuple[int, Any]:
        body = request.json()
        if not isinstance(body, dict):
            return 400, error_payload(400, "request body must be a JSON object")
        unknown = set(body) - {"experiment", "quick"}
        if unknown:
            return 400, error_payload(
                400, f"unknown fields: {', '.join(sorted(unknown))}"
            )
        exp_id = body.get("experiment")
        quick = body.get("quick", self.config.quick)
        if not isinstance(quick, bool):
            return 400, error_payload(400, "quick must be a boolean")
        from repro.experiments import registry

        try:
            spec = registry.get(str(exp_id))
        except KeyError:
            return 400, error_payload(400, f"unknown experiment {exp_id!r}")
        key = spec.task_key(quick=quick)
        job = {
            "kind": "experiment",
            "payload": spec.experiment_id,
            "quick": quick,
            "parent_span_id": span_id,
        }
        return await self._serve_job(key, job)

    async def _serve_job(
        self, key: str, job: dict[str, Any]
    ) -> tuple[int, Any]:
        """Answer one key: the hot tier, else the batcher's execution.

        The hot-tier read and the batcher's claim run with no ``await``
        between them, so a key is never both in flight and hot: a hit
        creates no task, and a miss joins or starts the one execution.
        """
        start = time.perf_counter()
        answer = _lru_get(self.hot, key)
        if answer is not None:
            tier = "hot"
            self.tiers[tier] += 1
            telemetry.counter(tm.METRIC_SERVE_CACHE_HOT).inc()
        else:
            try:
                answer, tier = await self.batcher.submit(key, job)
            except PoolTimeout as exc:
                return 503, error_payload(503, str(exc))
            except PoolError as exc:
                return 500, error_payload(500, str(exc))
            except advisor.QueryError as exc:
                return 400, error_payload(400, str(exc))
        return 200, answer.splice({
            "key": key,
            "cache": tier,
            "trace_id": self.trace_id,
            "wall_s": time.perf_counter() - start,
        })

    # -- connection handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(
                        render_response(
                            exc.status,
                            error_payload(exc.status, exc.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                status, payload = await self._dispatch(request)
                writer.write(
                    render_response(
                        status, payload, keep_alive=request.keep_alive
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        except asyncio.CancelledError:
            pass  # server shutting down with the connection open
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # torn down mid-close at loop shutdown

    async def _dispatch(self, request: Request) -> tuple[int, Any]:
        """One request with telemetry accounting around :meth:`handle`."""
        self.requests += 1
        telemetry.counter(tm.METRIC_SERVE_REQUESTS).inc()
        sp = None
        if telemetry.enabled():
            sp = telemetry.get_tracer().begin(
                tm.SPAN_SERVE_REQUEST,
                method=request.method,
                path=request.path,
            )
        start = time.perf_counter()
        status = 500
        try:
            status, payload = await request_safe(
                self.handle, request, sp.span_id if sp is not None else None
            )
        finally:
            wall_s = time.perf_counter() - start
            telemetry.histogram(tm.METRIC_SERVE_REQUEST_WALL_S).observe(
                wall_s
            )
            if sp is not None:
                sp.set_attr("status", status)
                telemetry.get_tracer().finish(sp)
        if status >= 400:
            self.errors += 1
            telemetry.counter(tm.METRIC_SERVE_ERRORS).inc()
        return status, payload

    def shutdown(self) -> None:
        self.pool.shutdown()

    async def serve(self) -> asyncio.AbstractServer:
        """Bind and return the listening server (caller owns lifetime)."""
        return await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )


async def request_safe(handler, *args) -> tuple[int, Any]:
    """Run one route handler; unexpected exceptions become a 500."""
    try:
        return await handler(*args)
    except ProtocolError as exc:
        return exc.status, error_payload(exc.status, exc.message)
    except asyncio.CancelledError:
        raise
    except Exception as exc:
        return 500, error_payload(500, f"internal error: {exc}")


async def run_server(config: ServeConfig | None = None) -> None:
    """``repro serve``: run until cancelled (Ctrl-C)."""
    app = ServeApp(config)
    server = await app.serve()
    addr = ", ".join(
        f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
        for sock in server.sockets
    )
    print(f"serving memory advisor on {addr} (jobs={app.config.jobs})")
    try:
        async with server:
            await server.serve_forever()
    finally:
        app.shutdown()
