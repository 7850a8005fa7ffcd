"""``repro serve-bench``: the serving load harness.

Starts a :class:`~repro.serve.app.ServeApp` in-process, drives it with
asyncio HTTP clients over real sockets, and writes ``BENCH_serve.json``
with the numbers CI gates on:

* **latency** — per-route p50/p99 wall time (client-observed);
* **throughput** — completed requests per second over the mixed phase;
* **coalescing proof** — N identical concurrent queries against a cold
  cache must produce *exactly one* engine execution, read from the
  ``serve.engine.executions`` counter via ``/metrics``;
* **hit ratios** — coalesced and cache-tier hit fractions of all
  requests. Every hot hit counts; a coalesced request shares its
  key's one disk lookup, so the disk and miss tiers count once per
  execution.

The workload mix is seeded and deterministic: a fixed population of
distinct advise queries, zipf-ish repetition so coalescing and the hot
tier both get exercised, all sizes small enough that a full bench run
stays in CI-friendly seconds.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import time
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.serve.app import ServeApp, ServeConfig
from repro.telemetry import names as tm

#: Default SLO the smoke job asserts: advise p99 under this many ms.
DEFAULT_SLO_P99_MS = 250.0


# -- minimal asyncio HTTP client ----------------------------------------------


class Client:
    """One keep-alive connection issuing serial JSON requests."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, Any]:
        assert self._reader is not None and self._writer is not None
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        raw = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        data = await self._reader.readexactly(length) if length else b""
        return status, (json.loads(data) if data else None)


# -- workload ------------------------------------------------------------------


#: Most distinct queries :func:`_query_population` can produce: the five
#: kernels take turns, and each has three sizes, every one of which can
#: also be bumped once on a repeated draw.
MAX_DISTINCT = 5 * 3 * 2


def _query_population(seed: int, distinct: int) -> list[dict[str, Any]]:
    """A deterministic set of small advise queries across kernel types."""
    if not 1 <= distinct <= MAX_DISTINCT:
        raise ValueError(
            f"distinct = {distinct}: the query population holds "
            f"1..{MAX_DISTINCT} distinct advise queries"
        )
    rng = random.Random(seed)
    kernels = [
        lambda: {"kernel": "stream", "params": {"n": rng.choice([1 << 18, 1 << 20, 1 << 22])}},
        lambda: {"kernel": "gemm", "params": {"order": rng.choice([128, 256, 384])}},
        lambda: {"kernel": "fft", "params": {"size": rng.choice([256, 512, 1024])}},
        lambda: {"kernel": "stencil", "params": {"nx": rng.choice([24, 32, 48])}},
        lambda: {"kernel": "spmv", "params": {"n_rows": rng.choice([2000, 5000, 10000])}},
    ]
    population = []
    seen = set()
    while len(population) < distinct:
        q = kernels[len(population) % len(kernels)]()
        fp = json.dumps(q, sort_keys=True)
        if fp in seen:
            q["params"] = {
                k: v + (2 if q["kernel"] == "stencil" else 1)
                for k, v in q["params"].items()
            }
            fp = json.dumps(q, sort_keys=True)
            if fp in seen:
                continue
        seen.add(fp)
        population.append(q)
    return population


def _percentiles(samples: list[float]) -> dict[str, float]:
    if not samples:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0}
    ordered = sorted(samples)
    qs = statistics.quantiles(ordered, n=100, method="inclusive") if len(ordered) > 1 else [ordered[0]] * 99
    return {
        "p50_ms": qs[49] * 1000.0,
        "p99_ms": qs[98] * 1000.0,
        "mean_ms": statistics.fmean(ordered) * 1000.0,
    }


async def _engine_executions(client: Client) -> int:
    """Read the coalescing-proof counter from ``/metrics``."""
    _, payload = await client.request("GET", "/metrics")
    metrics = (payload or {}).get("metrics", {})
    entry = metrics.get(tm.METRIC_SERVE_ENGINE_EXECUTIONS)
    if isinstance(entry, dict):
        return int(entry.get("value", 0))
    return 0


# -- the bench -----------------------------------------------------------------


async def _run(
    *,
    clients: int,
    requests_per_client: int,
    distinct: int,
    identical: int,
    seed: int,
    jobs: int,
    cache_dir: Path | None,
) -> dict[str, Any]:
    population = _query_population(seed, distinct)
    app = ServeApp(ServeConfig(port=0, jobs=jobs, cache_dir=cache_dir))
    server = await app.serve()
    host, port = server.sockets[0].getsockname()[:2]
    rng = random.Random(seed + 1)

    try:
        control = Client(host, port)
        await control.connect()

        # Phase 1 — coalescing proof on a cold cache: N identical
        # concurrent queries must fold onto one engine execution.
        proof_query = {"kernel": "gemm", "params": {"order": 320}}
        before = await _engine_executions(control)

        async def one_identical() -> float:
            c = Client(host, port)
            await c.connect()
            t0 = time.perf_counter()
            status, _ = await c.request("POST", "/v1/advise", proof_query)
            dt = time.perf_counter() - t0
            await c.close()
            if status != 200:
                raise RuntimeError(f"proof query failed: HTTP {status}")
            return dt

        proof_lat = await asyncio.gather(
            *(one_identical() for _ in range(identical))
        )
        proof_executions = await _engine_executions(control) - before

        # Phase 2 — mixed sustained load: each client walks a seeded
        # schedule over the query population (repetition ~ zipf-ish by
        # construction: low indices are drawn more often).
        latencies: dict[str, list[float]] = {"advise": [], "metrics": [], "healthz": []}
        failures = 0

        async def one_client(cid: int) -> None:
            nonlocal failures
            crng = random.Random(seed + 100 + cid)
            c = Client(host, port)
            await c.connect()
            for i in range(requests_per_client):
                roll = crng.random()
                if roll < 0.9:
                    route = "advise"
                    idx = min(
                        int(crng.paretovariate(1.2)) - 1, len(population) - 1
                    )
                    method, path, payload = (
                        "POST", "/v1/advise", population[idx],
                    )
                elif roll < 0.95:
                    route, method, path, payload = (
                        "metrics", "GET", "/metrics", None,
                    )
                else:
                    route, method, path, payload = (
                        "healthz", "GET", "/healthz", None,
                    )
                t0 = time.perf_counter()
                status, _ = await c.request(method, path, payload)
                latencies[route].append(time.perf_counter() - t0)
                if status != 200:
                    failures += 1
            await c.close()

        t_start = time.perf_counter()
        await asyncio.gather(*(one_client(i) for i in range(clients)))
        elapsed_s = time.perf_counter() - t_start
        total_requests = sum(len(v) for v in latencies.values())

        _, metrics_payload = await control.request("GET", "/metrics")
        await control.close()
    finally:
        server.close()
        await server.wait_closed()
        app.shutdown()

    serve_stats = (metrics_payload or {}).get("serve", {})
    cache_stats = serve_stats.get("cache", {})
    answered = max(1, serve_stats.get("requests", 1))
    cache_hits = cache_stats.get("hot_hits", 0) + cache_stats.get("disk_hits", 0)
    return {
        "config": {
            "clients": clients,
            "requests_per_client": requests_per_client,
            "distinct_queries": distinct,
            "identical_concurrent": identical,
            "jobs": jobs,
            "seed": seed,
        },
        "proof": {
            "identical_concurrent": identical,
            "engine_executions": proof_executions,
            "latency": _percentiles(proof_lat),
        },
        "mixed": {
            "elapsed_s": elapsed_s,
            "requests": total_requests,
            "failures": failures,
            "throughput_rps": total_requests / elapsed_s if elapsed_s else 0.0,
            "routes": {
                route: {"n": len(v), **_percentiles(v)}
                for route, v in latencies.items()
            },
        },
        "ratios": {
            "coalesced": serve_stats.get("coalesced", 0) / answered,
            "cache_hit": cache_hits / answered,
            "hot_hit": cache_stats.get("hot_hits", 0) / answered,
        },
        "serve": serve_stats,
    }


def run_bench(
    *,
    out: Path,
    clients: int = 8,
    requests_per_client: int = 40,
    distinct: int = 24,
    identical: int = 100,
    seed: int = 7,
    jobs: int = 0,
    cache_dir: Path | None = None,
    slo_p99_ms: float = DEFAULT_SLO_P99_MS,
) -> dict[str, Any]:
    """Run the harness, write ``out``, and attach pass/fail verdicts.

    Telemetry is enabled for the duration (the proof needs the
    ``serve.engine.executions`` counter); the caller's telemetry state
    is restored on exit. With ``cache_dir=None`` the bench runs against
    a fresh temporary cache (the coalescing proof requires a cold key).
    """
    import contextlib as _ctx
    import tempfile

    with _ctx.ExitStack() as stack:
        if cache_dir is None:
            cache_dir = Path(
                stack.enter_context(tempfile.TemporaryDirectory())
            )
        stack.enter_context(telemetry.session())
        doc = asyncio.run(
            _run(
                clients=clients,
                requests_per_client=requests_per_client,
                distinct=distinct,
                identical=identical,
                seed=seed,
                jobs=jobs,
                cache_dir=cache_dir,
            )
        )
    advise_p99 = doc["mixed"]["routes"]["advise"]["p99_ms"]
    doc["verdict"] = {
        "slo_p99_ms": slo_p99_ms,
        "advise_p99_ms": advise_p99,
        "slo_ok": advise_p99 <= slo_p99_ms,
        "coalescing_ok": doc["proof"]["engine_executions"] == 1,
        "no_failures": doc["mixed"]["failures"] == 0,
    }
    doc["verdict"]["ok"] = all(
        doc["verdict"][k] for k in ("slo_ok", "coalescing_ok", "no_failures")
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return doc
