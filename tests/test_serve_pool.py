"""Serve worker shards as real processes (``jobs >= 1``).

Each shard is one worker process on a socketpair; the worker stores its
answer in the shared cache before replying. These tests drive the pool
through the HTTP app with short deadlines, so hangs cost under a second.
"""

import asyncio
import json
import os
import pickle
import signal
import threading

import pytest

from repro.experiments import run as run_experiment
from repro.runtime import SharedResultCache, faults, pool as worker_pool, run_batch
from repro.serve import advisor, pool
from repro.serve import app as serve_app
from repro.serve.bench import Client
from tests.test_serve_http import _Server as _InlineServer

STREAM_QUERY = {"kernel": "stream", "params": {"n": 1 << 20}}
GEMM_QUERY = {"kernel": "gemm", "params": {"order": 256}}


def run(coro):
    return asyncio.run(coro)


def object_path(cache_dir, key):
    return cache_dir / "objects" / key[:2] / f"{key}.json"


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture
def fault_plan(tmp_path, monkeypatch):
    """Set a fault plan the worker processes inherit through the environment."""

    def install(spec):
        monkeypatch.setenv(faults.ENV_SPEC, spec)
        monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "fault-state"))

    return install


class _Server(_InlineServer):
    """An app with real shards: ``jobs=1`` and a 1 s deadline by default."""

    def __init__(self, tmp_path, **overrides):
        super().__init__(tmp_path, **{"jobs": 1, "timeout_s": 1.0, **overrides})

    async def connect(self):
        client = Client("127.0.0.1", self.port)
        await client.connect()
        return client

    async def raw_advise(self, query):
        """One request on its own connection; the reply body's bytes."""
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        body = json.dumps(query).encode()
        writer.write(
            b"POST /v1/advise HTTP/1.1\r\nConnection: close\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        length = next(
            int(line.split(b":")[1])
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        )
        data = await reader.readexactly(length)
        writer.close()
        await writer.wait_closed()
        return data

    def pid(self, index=0):
        return self.app.pool._shards[index].proc.pid

    async def first_pid(self):
        """The pid of shard 0's worker once a request has started it."""
        for _ in range(1000):
            if self.app.pool._shards[0] is not None:
                return self.pid()
            await asyncio.sleep(0.005)
        raise AssertionError("no shard started within 5 s")



class TestStoredAnswers:
    def test_miss_is_offline_answer_and_stored_before_reply(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                data = await s.raw_advise(STREAM_QUERY)
                key = json.loads(data)["meta"]["key"]
                return data, object_path(tmp_path / "cache", key).exists()

        data, stored = run(go())
        served = json.loads(data)
        assert served["meta"]["cache"] == "miss"
        expected = dict(advisor.advise(STREAM_QUERY), meta=served["meta"])
        wire = json.dumps(expected, sort_keys=True, separators=(",", ":"))
        assert data == wire.encode("utf-8")
        assert stored

    def test_repeat_is_hot_and_a_fresh_app_reads_disk(self, tmp_path):
        async def go(tiers):
            async with _Server(tmp_path) as s:
                bodies = []
                for tier in tiers:
                    status, payload = await s.client.request(
                        "POST", "/v1/advise", STREAM_QUERY
                    )
                    assert (status, payload.pop("meta")["cache"]) == (200, tier)
                    bodies.append(payload)
                return bodies

        first, hot = run(go(["miss", "hot"]))
        (disk,) = run(go(["disk"]))
        assert first == hot == disk

    def test_inline_mode_stores_and_no_cache_mode_does_not(self, tmp_path):
        async def go(cache_dir, **overrides):
            async with _Server(tmp_path, cache_dir=cache_dir, **overrides) as s:
                status, payload = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                assert status == 200
                return payload["meta"]["key"]

        key = run(go(tmp_path / "inline", jobs=0))
        assert object_path(tmp_path / "inline", key).exists()
        run(go(tmp_path / "none", no_cache=True))
        assert not (tmp_path / "none").exists()


class TestNoHelperThread:
    """The server answers every tier without a helper thread: hot hits on
    the event loop, disk hits and misses in the key's shard."""

    @pytest.mark.parametrize("jobs", [1, 0])
    def test_every_tier_is_served_without_a_thread(self, tmp_path, jobs, monkeypatch):
        cache_dir = tmp_path / "cache"
        run_batch(["table2"], cache=SharedResultCache(cache_dir))
        handed_off = []

        def refuse(*args, **kwargs):
            handed_off.append(args)
            raise AssertionError("the server handed work to a thread")

        monkeypatch.setattr(asyncio, "to_thread", refuse)

        async def go(requests):
            loop = asyncio.get_running_loop()
            loop.run_in_executor = refuse
            threads = threading.active_count()
            async with _Server(tmp_path, jobs=jobs, timeout_s=10.0) as s:
                answers = []
                for route, body in requests:
                    status, payload = await s.client.request("POST", route, body)
                    assert status == 200, payload
                    answers.append((payload.pop("meta")["cache"], payload))
                _, metrics = await s.client.request("GET", "/metrics")
            assert threading.active_count() == threads
            assert loop._default_executor is None
            return answers, metrics["serve"]["cache"]

        advise = ("/v1/advise", STREAM_QUERY)
        experiment = ("/v1/experiment", {"experiment": "table2"})
        answers, counts = run(go([advise, advise, experiment]))
        assert [tier for tier, _ in answers] == ["miss", "hot", "disk"]
        assert answers[0][1] == answers[1][1] == advisor.advise(STREAM_QUERY)
        assert answers[2][1] == json.loads(
            json.dumps(run_experiment("table2", quick=True).as_dict())
        )
        assert counts == {"hot_hits": 1, "disk_hits": 1, "misses": 1, "hot_entries": 2}
        # A fresh app on the same cache dir: its shard reads the disk fill,
        # and the server keeps that answer in its own hot tier.
        (restarted, promoted), counts = run(go([advise, advise]))
        assert restarted == ("disk", answers[0][1])
        assert promoted == ("hot", answers[0][1])
        assert counts == {"hot_hits": 1, "disk_hits": 1, "misses": 0, "hot_entries": 1}
        assert handed_off == []

    def test_hot_entry_is_the_offline_answer_without_meta(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                tiers = []
                for _ in range(3):
                    status, payload = await s.client.request(
                        "POST", "/v1/advise", STREAM_QUERY
                    )
                    assert status == 200
                    tiers.append(payload["meta"]["cache"])
                key = payload["meta"]["key"]
                _, metrics = await s.client.request("GET", "/metrics")
                return tiers, s.app.hot[key], metrics["serve"]["cache"]

        tiers, entry, counts = run(go())
        assert tiers == ["miss", "hot", "hot"]
        assert "meta" not in entry
        assert entry == advisor.evaluate(advisor.normalize(STREAM_QUERY))
        assert counts == {"hot_hits": 2, "disk_hits": 0, "misses": 1, "hot_entries": 1}


class TestHotTier:
    """The server's own LRU of answers, in front of the shards' disk store."""

    def test_repeat_hits_never_touch_disk(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                first = await s.raw_advise(STREAM_QUERY)
                for path in (tmp_path / "cache" / "objects").glob("*/*.json"):
                    path.unlink()
                return first, await s.raw_advise(STREAM_QUERY)

        first, repeat = (json.loads(data) for data in run(go()))
        tiers = first.pop("meta")["cache"], repeat.pop("meta")["cache"]
        assert tiers == ("miss", "hot")
        assert repeat == first

    def test_a_hit_refreshes_recency_so_the_bound_evicts_the_oldest(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(serve_app, "HOT_CAPACITY", 2)
        a, b, c = STREAM_QUERY, GEMM_QUERY, {"kernel": "stream", "params": {"n": 1 << 21}}

        async def go():
            async with _Server(tmp_path) as s:
                tiers = []
                for query in (a, b, a, c, a, b):
                    status, payload = await s.client.request("POST", "/v1/advise", query)
                    assert status == 200
                    tiers.append(payload["meta"]["cache"])
                _, metrics = await s.client.request("GET", "/metrics")
                return tiers, metrics["serve"]["cache"]

        tiers, counts = run(go())
        # The hit on A refreshed it, so C evicted B: A is hot, B is read back.
        assert tiers == ["miss", "miss", "hot", "miss", "hot", "disk"]
        assert counts == {"hot_hits": 2, "disk_hits": 1, "misses": 3, "hot_entries": 2}


class TestShardFailures:
    def test_hang_is_503_then_a_fresh_shard_answers(self, tmp_path, fault_plan):
        fault_plan("advise:stream=hang")

        async def go():
            async with _Server(tmp_path, timeout_s=0.3) as s:
                hung = asyncio.ensure_future(
                    s.client.request("POST", "/v1/advise", STREAM_QUERY)
                )
                hung_pid = await s.first_pid()
                status, payload = await hung
                assert status == 503
                assert "deadline" in payload["error"]["message"]
                _, metrics = await s.client.request("GET", "/metrics")
                assert metrics["serve"]["pool_recycles"] == 1
                status, payload = await s.client.request(
                    "POST", "/v1/advise", GEMM_QUERY
                )
                assert (status, payload["meta"]["cache"]) == (200, "miss")
                return hung_pid, s.pid()

        hung_pid, pid = run(go())
        assert pid != hung_pid
        assert not pid_alive(hung_pid) and not pid_alive(pid)

    def test_request_queued_behind_a_hang_gets_the_replacement(
        self, tmp_path, fault_plan
    ):
        fault_plan("advise:stream=hang")

        async def go():
            async with _Server(tmp_path) as s:
                hung = asyncio.ensure_future(
                    s.client.request("POST", "/v1/advise", STREAM_QUERY)
                )
                first_pid = await s.first_pid()
                await asyncio.sleep(0.5)
                other = await s.connect()
                status, payload = await other.request(
                    "POST", "/v1/advise", GEMM_QUERY
                )
                await other.close()
                assert (await hung)[0] == 503
                return first_pid, s.pid(), status, payload

        first_pid, second_pid, status, payload = run(go())
        assert (status, payload["meta"]["cache"]) == (200, "miss")
        assert second_pid != first_pid

    def test_flaky_once_is_retried_and_crash_exhausts_attempts(
        self, tmp_path, fault_plan
    ):
        fault_plan("advise:stream=flaky_once;advise:gemm=crash")

        async def go():
            async with _Server(tmp_path, retries=2) as s:
                flaky = await s.client.request("POST", "/v1/advise", STREAM_QUERY)
                crash = await s.client.request("POST", "/v1/advise", GEMM_QUERY)
                _, metrics = await s.client.request("GET", "/metrics")
                return flaky, crash, metrics["serve"]["pool_recycles"]

        (flaky_status, _), (crash_status, crash), recycles = run(go())
        assert flaky_status == 200
        assert crash_status == 500
        assert "after 3 attempts" in crash["error"]["message"]
        assert "injected crash" in crash["error"]["message"]
        assert recycles == 0  # a raised exception leaves the worker up

    def test_killed_shard_is_replaced_transparently(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                status, _ = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                assert status == 200
                killed = s.pid()
                os.kill(killed, signal.SIGKILL)
                for _ in range(200):
                    if s.app.pool._shards[0].reader.at_eof():
                        break
                    await asyncio.sleep(0.01)
                status, payload = await s.client.request(
                    "POST", "/v1/advise", GEMM_QUERY
                )
                _, metrics = await s.client.request("GET", "/metrics")
                return killed, s.pid(), status, payload, metrics

        killed, pid, status, payload, metrics = run(go())
        assert (status, payload["meta"]["cache"]) == (200, "miss")
        assert pid != killed
        assert metrics["serve"]["pool_recycles"] == 1
        assert metrics["serve"]["errors"] == 0

    def test_worker_dying_mid_job_is_recycled_and_retried(
        self, tmp_path, fault_plan
    ):
        fault_plan("advise:stream=hang_once")

        async def go():
            async with _Server(tmp_path) as s:
                request = asyncio.ensure_future(
                    s.client.request("POST", "/v1/advise", STREAM_QUERY)
                )
                killed = await s.first_pid()
                await asyncio.sleep(0.1)  # the job is in the worker, hung
                os.kill(killed, signal.SIGKILL)
                status, payload = await request
                _, metrics = await s.client.request("GET", "/metrics")
                return killed, s.pid(), status, payload, metrics

        killed, pid, status, payload, metrics = run(go())
        assert (status, payload["meta"]["cache"]) == (200, "miss")
        assert pid != killed
        assert metrics["serve"]["pool_recycles"] == 1

    def test_shutdown_leaves_no_shard_alive(self, tmp_path):
        async def go():
            async with _Server(tmp_path, jobs=2) as s:
                pool = s.app.pool
                for n in range(1, 65):
                    if all(pool._shards):
                        break
                    query = {"kernel": "stream", "params": {"n": n << 16}}
                    status, _ = await s.client.request("POST", "/v1/advise", query)
                    assert status == 200
                pids = [s.pid(0), s.pid(1)]
            return pids, pool

        pids, pool = run(go())
        assert not any(pid_alive(pid) for pid in pids)
        assert pool._shards == [None, None] and not pool._dying
        pool.shutdown()  # idempotent


def test_unpicklable_worker_exception_comes_back_as_pool_error():
    exc = RuntimeError("holds a lock")
    exc.lock = threading.Lock()
    header = worker_pool._HEADER
    frame = worker_pool._reply(False, exc)
    (size,) = header.unpack(frame[: header.size])
    ok, value = pickle.loads(frame[header.size :])
    assert size == len(frame) - header.size
    assert not ok
    assert isinstance(value, pool.PoolError)
    assert str(value) == "RuntimeError('holds a lock')"
    ok, value = pickle.loads(worker_pool._reply(False, KeyError("k"))[header.size :])
    assert (ok, type(value), value.args) == (False, KeyError, ("k",))
