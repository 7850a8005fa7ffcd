"""Serve stack: HTTP protocol, routes, coalescing, pool, differential."""

import asyncio
import json

import pytest

from repro import telemetry
from repro.experiments import run as run_experiment
from repro.runtime import SharedResultCache, faults, run_batch
from repro.serve import advisor
from repro.serve import app as serve_app
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.batcher import Batcher
from repro.serve.bench import Client
from repro.serve.http import (
    MAX_BODY_BYTES,
    ProtocolError,
    Rendered,
    read_request,
    render_response,
)
from repro.serve.pool import PoolError, ServePool
from repro.telemetry import names as tm

STREAM_QUERY = {"kernel": "stream", "params": {"n": 1 << 20}}


async def _parse(data: bytes):
    """read_request against an in-memory stream (built inside the loop)."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return await read_request(reader)


def run(coro):
    return asyncio.run(coro)


# -- protocol unit tests ------------------------------------------------------


class TestProtocol:
    def test_parse_request(self):
        raw = (
            b"POST /v1/advise HTTP/1.1\r\n"
            b"Content-Length: 2\r\n"
            b"X-Custom: yes\r\n\r\n{}"
        )
        req = run(_parse(raw))
        assert req.method == "POST"
        assert req.path == "/v1/advise"
        assert req.headers["x-custom"] == "yes"
        assert req.json() == {}
        assert req.keep_alive

    def test_clean_eof_returns_none(self):
        assert run(_parse(b"")) is None

    def test_connection_close_header(self):
        raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        assert not run(_parse(raw)).keep_alive

    @pytest.mark.parametrize(
        "raw,status",
        [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET / SMTP/1.0\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nbad header\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: moo\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort", 400),
            (
                b"POST / HTTP/1.1\r\nContent-Length: "
                + str(MAX_BODY_BYTES + 1).encode()
                + b"\r\n\r\n",
                413,
            ),
            # Content-Length is ASCII digits only, and one value.
            (b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: 0_3\r\n\r\nabc", 400),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
                b"Content-Length: 5\r\n\r\nabcde",
                400,
            ),
        ],
    )
    def test_protocol_errors(self, raw, status):
        with pytest.raises(ProtocolError) as err:
            run(_parse(raw))
        assert err.value.status == status

    def test_render_response_framing(self):
        wire = render_response(200, {"b": 1, "a": 2})
        head, _, body = wire.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body) == {"a": 2, "b": 1}
        # deterministic bytes: sorted keys, no whitespace
        assert body == b'{"a":2,"b":1}'

    @pytest.mark.parametrize(
        "payload",
        [
            {"footprint": 1, "kernel": "x", "winner": {"b": 2, "a": [1.5]}},
            {"alpha": 1, "Meta": 2, "met": {"z": None}},
            {"meta0": 1, "metb": 2.25, "z": [{"y": 1, "x": 2}]},
            {},
            {"text": "na\u00efve \u2603", "zone": {"caf\u00e9": "\u00fc"}},
            {"a": 1, "meta": {"stale": True}, "z": 2},
            {"meta": "only"},
        ],
    )
    def test_rendered_splice_is_render_response(self, payload):
        """A stored rendering plus its meta is the response body of the
        object with meta set, byte for byte."""
        meta = {"key": "k", "cache": "hot", "trace_id": "t", "wall_s": 1e-4}
        rendered = Rendered.of(payload)
        assert render_response(200, rendered.splice(meta)) == render_response(
            200, dict(payload, meta=meta)
        )

    def test_bad_json_body(self):
        req = run(_parse(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nnot"))
        with pytest.raises(ProtocolError) as err:
            req.json()
        assert err.value.status == 400


# -- end-to-end over real sockets ---------------------------------------------


class _Server:
    """Async context: in-process app bound to an ephemeral port."""

    def __init__(self, tmp_path, **overrides):
        defaults = dict(port=0, jobs=0, cache_dir=tmp_path / "cache")
        defaults.update(overrides)
        self.app = ServeApp(ServeConfig(**defaults))

    async def __aenter__(self):
        self.server = await self.app.serve()
        self.port = self.server.sockets[0].getsockname()[1]
        self.client = Client("127.0.0.1", self.port)
        await self.client.connect()
        return self

    async def __aexit__(self, *exc):
        await self.client.close()
        self.server.close()
        await self.server.wait_closed()
        self.app.shutdown()


class TestRoutes:
    def test_healthz_metrics_and_errors(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                status, payload = await s.client.request("GET", "/healthz")
                assert (status, payload["status"]) == (200, "ok")
                status, _ = await s.client.request("GET", "/nowhere")
                assert status == 404
                status, _ = await s.client.request("DELETE", "/healthz")
                assert status == 405
                status, payload = await s.client.request(
                    "POST", "/v1/advise", {"kernel": "nope"}
                )
                assert status == 400
                assert "unknown kernel" in payload["error"]["message"]
                status, payload = await s.client.request("GET", "/metrics")
                assert status == 200
                # the in-flight /metrics request counts itself: 5 total
                assert payload["serve"]["requests"] == 5
                assert payload["serve"]["errors"] == 3

        run(go())

    def test_non_finite_and_huge_params_answer_400(self, tmp_path):
        """JSON's Infinity and NaN, and a 400-digit integer, are bad
        queries, not internal errors."""

        async def go():
            async with _Server(tmp_path) as s:
                answers = []
                for n in (float("inf"), float("-inf"), float("nan"), 10**400):
                    answers.append(
                        await s.client.request(
                            "POST",
                            "/v1/advise",
                            {"kernel": "stream", "params": {"n": n}},
                        )
                    )
                return answers

        answers = run(go())
        assert [status for status, _ in answers] == [400] * 4
        messages = [payload["error"]["message"] for _, payload in answers]
        assert all("must be an integer" in m for m in messages[:3])
        assert "out of range" in messages[3]

    def test_advise_differential_byte_identical(self, tmp_path):
        """The served answer equals the offline engine path, byte for byte."""

        async def go():
            async with _Server(tmp_path) as s:
                status, payload = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                assert status == 200
                return payload

        served = run(go())
        assert served["meta"]["cache"] == "miss"
        offline = advisor.advise(STREAM_QUERY)
        stripped = {k: v for k, v in served.items() if k != "meta"}
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            offline, sort_keys=True
        )

    def test_repeat_hits_hot_tier_then_disk(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                _, first = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                _, second = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                return first, second

        first, second = run(go())
        assert first["meta"]["cache"] == "miss"
        assert second["meta"]["cache"] == "hot"
        assert {k: v for k, v in first.items() if k != "meta"} == {
            k: v for k, v in second.items() if k != "meta"
        }

    def test_cached_answer_survives_restart_via_disk(self, tmp_path):
        async def go(expect_tier):
            async with _Server(tmp_path) as s:
                _, payload = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                assert payload["meta"]["cache"] == expect_tier
                return {k: v for k, v in payload.items() if k != "meta"}

        first = run(go("miss"))
        second = run(go("disk"))  # fresh app, same cache dir
        assert first == second

    def test_experiment_route_differential(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                status, payload = await s.client.request(
                    "POST", "/v1/experiment", {"experiment": "eq1"}
                )
                assert status == 200
                status_bad, bad = await s.client.request(
                    "POST", "/v1/experiment", {"experiment": "nope"}
                )
                assert status_bad == 400
                assert "unknown experiment" in bad["error"]["message"]
                return payload

        served = run(go())
        offline = run_experiment("eq1", quick=True).as_dict()
        stripped = {k: v for k, v in served.items() if k != "meta"}
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            offline, sort_keys=True
        )

    def test_batch_fill_is_a_served_disk_hit(self, tmp_path):
        """One stored form per key: an experiment a batch cached answers
        the serve route from disk, with the offline result as its body."""
        run_batch(["table2"], cache=SharedResultCache(tmp_path / "cache"))

        async def go():
            async with _Server(tmp_path) as s:
                return await s.client.request(
                    "POST", "/v1/experiment", {"experiment": "table2"}
                )

        status, served = run(go())
        assert (status, served["meta"]["cache"]) == (200, "disk")
        offline = run_experiment("table2", quick=True).as_dict()
        stripped = {k: v for k, v in served.items() if k != "meta"}
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            offline, sort_keys=True
        )

    def test_serve_fill_is_a_batch_cache_hit(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                return await s.client.request(
                    "POST", "/v1/experiment", {"experiment": "table2"}
                )

        status, served = run(go())
        assert (status, served["meta"]["cache"]) == (200, "miss")
        (hit,) = run_batch(
            ["table2"], cache=SharedResultCache(tmp_path / "cache")
        ).outcomes
        (fresh,) = run_batch(["table2"]).outcomes
        assert hit.cache_hit and not fresh.cache_hit
        assert hit.result.render() == fresh.result.render()

    def test_no_cache_mode_always_executes(self, tmp_path):
        async def go():
            async with _Server(tmp_path, no_cache=True) as s:
                _, first = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                _, second = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                return first, second

        first, second = run(go())
        assert first["meta"]["cache"] == "miss"
        assert second["meta"]["cache"] == "miss"


class TestHotPath:
    """A repeated advise request: one memo lookup, one hot-tier lookup."""

    def test_a_hot_hit_dispatches_nothing(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                tiers = []
                for _ in range(3):
                    _, payload = await s.client.request(
                        "POST", "/v1/advise", STREAM_QUERY
                    )
                    tiers.append(payload["meta"]["cache"])
                _, metrics = await s.client.request("GET", "/metrics")
                return tiers, metrics["serve"]

        tiers, serve = run(go())
        assert tiers == ["miss", "hot", "hot"]
        # The batcher counts pool runs: the two hits never reached it.
        assert (serve["dispatched"], serve["coalesced"]) == (1, 0)
        assert serve["cache"]["hot_hits"] == 2

    def test_a_repeated_body_normalizes_once(self, tmp_path, monkeypatch):
        normalized = []
        normalize = advisor.normalize

        def counting(payload):
            normalized.append(payload)
            return normalize(payload)

        monkeypatch.setattr(advisor, "normalize", counting)
        respelled = {"params": {"n": 1 << 20}, "kernel": "stream"}
        bad = {"kernel": "nope"}

        async def go():
            async with _Server(tmp_path) as s:
                statuses = []
                for query in (STREAM_QUERY, STREAM_QUERY, respelled, bad, bad):
                    status, _ = await s.client.request(
                        "POST", "/v1/advise", query
                    )
                    statuses.append(status)
                return statuses, len(s.app.queries)

        statuses, remembered = run(go())
        assert statuses == [200, 200, 200, 400, 400]
        # Another spelling is another body; a bad body is never remembered.
        assert normalized == [STREAM_QUERY, respelled, bad, bad]
        assert remembered == 2

    def test_the_memo_is_bounded_like_the_hot_tier(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serve_app, "HOT_CAPACITY", 2)
        normalized = []
        normalize = advisor.normalize

        def counting(payload):
            normalized.append(payload["params"]["n"])
            return normalize(payload)

        monkeypatch.setattr(advisor, "normalize", counting)

        async def go():
            async with _Server(tmp_path) as s:
                sizes = []
                for n in (8, 16, 8, 32, 16):
                    query = {"kernel": "stream", "params": {"n": n}}
                    status, _ = await s.client.request(
                        "POST", "/v1/advise", query
                    )
                    assert status == 200
                    sizes.append(len(s.app.queries))
                return sizes

        sizes = run(go())
        assert sizes == [1, 2, 2, 2, 2]
        # Reading 8 again refreshed it, so 32 evicted 16.
        assert normalized == [8, 16, 32, 16]


class TestCoalescing:
    def test_many_identical_concurrent_one_execution(self, tmp_path):
        """The acceptance bar: >=100 identical concurrent queries on a
        cold cache produce exactly one engine execution."""
        n = 120

        async def go():
            async with _Server(tmp_path) as s:
                async def one():
                    c = Client("127.0.0.1", s.port)
                    await c.connect()
                    status, payload = await c.request(
                        "POST", "/v1/advise", STREAM_QUERY
                    )
                    await c.close()
                    return status, payload

                results = await asyncio.gather(*(one() for _ in range(n)))
                return results

        with telemetry.session():
            results = run(go())
            executions = (
                telemetry.get_registry()
                .counter(tm.METRIC_SERVE_ENGINE_EXECUTIONS)
                .value
            )
        assert executions == 1
        bodies = {
            json.dumps(
                {k: v for k, v in payload.items() if k != "meta"},
                sort_keys=True,
            )
            for status, payload in results
        }
        assert all(status == 200 for status, _ in results)
        assert len(bodies) == 1  # every waiter got the identical answer

    def test_late_miss_joins_the_claimed_execution(self, tmp_path):
        """A request whose hot lookup missed, but that is still in flight
        when an identical request arrives, executes once for both of them."""

        async def go():
            async with _Server(tmp_path) as s:
                missed, release = asyncio.Event(), asyncio.Event()
                pool_run = s.app.pool.run
                runs = 0

                async def held_run(*args, **kwargs):
                    nonlocal runs
                    runs += 1
                    if runs == 1:  # hold the first request after its miss
                        missed.set()
                        await asyncio.wait_for(release.wait(), 10)
                    return await pool_run(*args, **kwargs)

                s.app.pool.run = held_run
                first = asyncio.create_task(
                    s.client.request("POST", "/v1/advise", STREAM_QUERY)
                )
                assert await asyncio.wait_for(missed.wait(), 10)
                other = Client("127.0.0.1", s.port)
                await other.connect()
                second = asyncio.create_task(
                    other.request("POST", "/v1/advise", STREAM_QUERY)
                )
                for _ in range(1000):
                    if second.done() or s.app.batcher.coalesced:
                        break
                    await asyncio.sleep(0.01)
                release.set()
                results = [await first, await second]
                await other.close()
                return runs, results

        runs, results = run(go())
        assert runs == 1
        assert [status for status, _ in results] == [200, 200]
        first, second = (
            {k: v for k, v in payload.items() if k != "meta"}
            for _, payload in results
        )
        assert first == second

    def test_request_yields_single_rooted_span_tree(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                await s.client.request("POST", "/v1/advise", STREAM_QUERY)

        with telemetry.session():
            run(go())
            spans = telemetry.get_tracer().finished()
        by_id = {sp.span_id: sp for sp in spans}
        request_spans = [
            sp for sp in spans if sp.name == tm.SPAN_SERVE_REQUEST
        ]
        assert len(request_spans) == 1
        execute = [sp for sp in spans if sp.name == tm.SPAN_SERVE_EXECUTE]
        assert len(execute) == 1
        assert execute[0].parent_id == request_spans[0].span_id
        advise = [sp for sp in spans if sp.name == tm.SPAN_SERVE_ADVISE]
        assert len(advise) == 1
        # the worker-side advise span reaches the request root
        node = advise[0]
        seen = set()
        while node.parent_id is not None:
            assert node.span_id not in seen
            seen.add(node.span_id)
            node = by_id[node.parent_id]
        assert node.span_id == request_spans[0].span_id


class TestBatcher:
    def test_identical_keys_share_one_execution(self):
        calls = []

        async def execute(key, job):
            calls.append(key)
            return f"answer:{key}"

        async def go():
            b = Batcher(execute)
            results = await asyncio.gather(
                *(b.submit("k1", None) for _ in range(50))
            )
            return b, results

        b, results = run(go())
        assert calls == ["k1"]
        assert set(results) == {"answer:k1"}
        assert b.coalesced == 49
        assert b.dispatched == b.batches == 1

    def test_per_item_exception_isolation(self):
        async def execute(key, job):
            if key == "bad":
                raise ValueError("boom")
            return "ok"

        async def go():
            b = Batcher(execute)
            results = await asyncio.gather(
                b.submit("good", None),
                b.submit("bad", None),
                b.submit("bad", None),
                return_exceptions=True,
            )
            return b, results

        b, (good, bad, bad_coalesced) = run(go())
        assert good == "ok"
        assert isinstance(bad, ValueError)
        assert isinstance(bad_coalesced, ValueError)
        assert b.inflight == 0

    def test_fresh_execution_after_completion(self):
        n_calls = 0

        async def execute(key, job):
            nonlocal n_calls
            n_calls += 1
            return "x"

        async def go():
            b = Batcher(execute)
            await b.submit("k", None)
            await b.submit("k", None)  # in-flight map must be drained
            return b

        b = run(go())
        assert n_calls == 2
        assert b.coalesced == 0
        assert b.inflight == 0

    def test_cancelled_waiter_leaves_shared_result_intact(self):
        n_calls = 0

        async def go():
            release = asyncio.Event()

            async def execute(key, job):
                nonlocal n_calls
                n_calls += 1
                await release.wait()
                return "shared"

            b = Batcher(execute)
            claimer = asyncio.create_task(b.submit("k", None))
            joiner = asyncio.create_task(b.submit("k", None))
            await asyncio.sleep(0)
            claimer.cancel()
            await asyncio.sleep(0)
            release.set()
            return b, claimer, await joiner

        b, claimer, result = run(go())
        assert claimer.cancelled()
        assert result == "shared"
        assert n_calls == 1
        assert b.coalesced == 1
        assert b.inflight == 0


class TestPoolArguments:
    @pytest.mark.parametrize(
        "kwargs", [{"retries": -1}, {"timeout_s": 0.0}, {"timeout_s": -1.0}]
    )
    def test_rejects_out_of_range_numbers(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be"):
            ServePool(1, **kwargs)


class TestPoolFaults:
    def teardown_method(self):
        faults.install(None)

    def test_flaky_execution_retried(self):
        faults.install(faults.FaultPlan.parse("advise:stream=flaky_once"))
        canonical = advisor.normalize(STREAM_QUERY)

        async def go():
            pool = ServePool(0, retries=1)
            return await pool.run(
                "advise",
                canonical,
                quick=True,
                key=advisor.query_key(canonical),
                trace_id="t1",
            )

        envelope = run(go())
        assert envelope["result"]["winner"]

    def test_persistent_crash_exhausts_attempts(self):
        faults.install(faults.FaultPlan.parse("advise:stream=crash"))
        canonical = advisor.normalize(STREAM_QUERY)

        async def go():
            pool = ServePool(0, retries=1)
            return await pool.run(
                "advise",
                canonical,
                quick=True,
                key=advisor.query_key(canonical),
                trace_id="t1",
            )

        with pytest.raises(PoolError, match="after 2 attempts"):
            run(go())

    def test_crash_surfaces_as_http_500(self, tmp_path):
        faults.install(faults.FaultPlan.parse("advise:stream=crash"))

        async def go():
            async with _Server(tmp_path) as s:
                return await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )

        status, payload = run(go())
        assert status == 500
        assert "attempts" in payload["error"]["message"]
