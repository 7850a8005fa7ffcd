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

from repro.runtime import faults, pool as worker_pool
from repro.serve import advisor, pool
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
