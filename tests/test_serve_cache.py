"""The result cache under concurrency: one lock, disk only, stats hardening."""

import asyncio
import fcntl
import json
import multiprocessing
import os
import threading

import pytest

from repro.experiments import run as run_experiment
from repro.experiments.results import ExperimentResult
from repro.runtime import file_lock
from repro.runtime.cache import SCHEMA_VERSION, SharedResultCache, _atomic_write_json
from repro.serve import advisor
from tests.test_serve_http import _Server

PAYLOAD = {"schema": 1, "winner": {"platform": "knl", "mode": "cache"}}
STREAM_QUERY = {"kernel": "stream", "params": {"n": 1 << 20}}


# -- multiprocess workers (module level: picklable under spawn and fork) ------


def _locked_increment(root, n):
    """Read-modify-write a counter file n times under the cache lock."""
    from pathlib import Path

    root = Path(root)
    target = root / "counter.txt"
    for _ in range(n):
        with file_lock(root / "counter.lock"):
            value = int(target.read_text()) if target.exists() else 0
            target.write_text(str(value + 1))


def _hammer(root, worker_id, iterations):
    """Mixed reads + writes + clears against one shared cache dir.

    Exits nonzero if any operation raises or any read returns a
    corrupt object — the assertion the parent checks via exitcode.
    """
    cache = SharedResultCache(root)
    for i in range(iterations):
        key = f"{worker_id:x}{i % 5:x}" + "0" * 62
        cache.put_payload(key, {"worker": worker_id, "i": i, **PAYLOAD})
        got = cache.get_payload(key)
        # A concurrent clear() may race the read to None, but a present
        # payload must always be complete and well-formed.
        if got is not None and ("winner" not in got or "worker" not in got):
            raise SystemExit(3)
        cache.record_run(hits=1, misses=1)
        if worker_id == 0 and i % 7 == 6:
            cache.clear()
        other = f"{(worker_id ^ 1):x}{i % 5:x}" + "0" * 62
        got = cache.get_payload(other)
        if got is not None and "winner" not in got:
            raise SystemExit(4)


def _record_runs(root, n):
    cache = SharedResultCache(root)
    for _ in range(n):
        cache.record_run(hits=1, misses=2)


def _run_procs(target, argslist):
    procs = [
        multiprocessing.Process(target=target, args=args) for args in argslist
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert all(p.exitcode == 0 for p in procs), [p.exitcode for p in procs]


# -- file_lock ----------------------------------------------------------------


class TestFileLock:
    def test_serializes_read_modify_write(self, tmp_path):
        n, procs = 100, 3
        _run_procs(_locked_increment, [(str(tmp_path), n)] * procs)
        assert int((tmp_path / "counter.txt").read_text()) == n * procs

    def test_reentrant_across_processes_only(self, tmp_path):
        # Same-process sequential acquisition works (no deadlock).
        with file_lock(tmp_path / "a.lock"):
            pass
        with file_lock(tmp_path / "a.lock"):
            pass

    def test_a_raise_inside_the_block_releases_the_lock(self, tmp_path):
        path = tmp_path / "a.lock"
        with pytest.raises(RuntimeError, match="inside the block"):
            with file_lock(path):
                raise RuntimeError("inside the block")
        # flock locks conflict between open file descriptions, even in one
        # process: a lock the raise leaked refuses this fresh descriptor.
        fd = os.open(path, os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(fd)


def _result():
    result = ExperimentResult(experiment_id="table2", title="T")
    result.add_table("t", ("a",), [(1,)])
    return result


#: Every mutation of the cache, each of which must take the lock file.
MUTATIONS = {
    "put": lambda cache: cache.put("ab" * 32, _result(), quick=True),
    "put_payload": lambda cache: cache.put_payload("cd" * 32, dict(PAYLOAD)),
    "clear": lambda cache: cache.clear(),
    "record_run": lambda cache: cache.record_run(hits=1, misses=0),
}


class TestOneLock:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_every_mutation_waits_for_the_cache_lock(self, tmp_path, name):
        cache = SharedResultCache(tmp_path)
        done = threading.Event()

        def mutate():
            MUTATIONS[name](cache)
            done.set()

        worker = threading.Thread(target=mutate)
        with file_lock(cache._lock_path):
            worker.start()
            assert not done.wait(0.2), f"{name} ran without the lock"
        worker.join(10)
        assert done.is_set() and not worker.is_alive()

    def test_clear_cannot_lose_to_a_stats_update(self, tmp_path):
        """A clear() issued while record_run() sits between its read and
        its write waits for that write, then resets the counts; it is
        never overwritten by counts read before it."""
        cache = SharedResultCache(tmp_path)
        cache.record_run(hits=5, misses=0)
        read, release = threading.Event(), threading.Event()
        read_counts = cache._read_counts

        def blocking_read():
            counts = read_counts()
            read.set()
            release.wait(10)
            return counts

        cache._read_counts = blocking_read
        recorder = threading.Thread(
            target=cache.record_run, kwargs={"hits": 1, "misses": 0}
        )
        recorder.start()
        assert read.wait(10)
        clearer = threading.Thread(target=cache.clear)
        clearer.start()
        clearer.join(0.2)  # an unlocked clear() finishes in this time
        release.set()
        recorder.join(10)
        clearer.join(10)
        assert not recorder.is_alive() and not clearer.is_alive()
        assert SharedResultCache(tmp_path).stats().lifetime_hits in (0, 1)


# -- no hot tier (the server keeps one: tests/test_serve_pool.py) ------------


class TestHotTier:
    """The cache has none: every read decodes the object file, so what a
    hot tier used to promise a caller (an isolated copy, a clear that
    empties it) holds of the disk store. Promotion from disk to hot is
    the server's, over the objects this cache writes."""

    def test_nothing_is_kept_in_memory(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        key = "ab" * 32
        cache.put_payload(key, dict(PAYLOAD))
        for path in cache.entries():
            os.unlink(path)
        assert cache.get_payload(key) is None

    def test_hot_copy_is_isolated(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        key = "ef" * 32
        cache.put_payload(key, dict(PAYLOAD))
        first = cache.get_payload(key)
        first["winner"] = "mutated"
        assert cache.get_payload(key)["winner"] == PAYLOAD["winner"]

    def test_clear_clears_hot_tier(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        key = "0a" * 32
        cache.put_payload(key, dict(PAYLOAD))
        cache.clear()
        assert cache.get_payload(key) is None

    def test_disk_promotes_to_hot(self, tmp_path):
        canonical = advisor.normalize(STREAM_QUERY)
        key = advisor.query_key(canonical)
        answer = advisor.evaluate(canonical)
        writer = SharedResultCache(tmp_path / "cache")
        writer.put_payload(key, answer, kind="serve.advise")

        async def go():
            async with _Server(tmp_path) as s:
                served = []
                for _ in range(2):
                    status, payload = await s.client.request(
                        "POST", "/v1/advise", STREAM_QUERY
                    )
                    assert status == 200, payload
                    served.append((payload.pop("meta")["cache"], payload))
                return served, dict(s.app.hot)

        served, hot = asyncio.run(go())
        # The server read the writer's object, then answered from its tier.
        assert served == [("disk", answer), ("hot", answer)]
        assert hot == {key: answer}


def test_clear_removes_temp_objects_a_killed_writer_left(tmp_path):
    cache = SharedResultCache(tmp_path)
    for key in ("ab" * 32, "cd" * 32):
        cache.put_payload(key, dict(PAYLOAD))
    orphan = tmp_path / "objects" / "ab" / "tmpk1ll3d.tmp"
    orphan.write_text('{"schema": 2, "payl')
    # Not the cache's: --cache-dir may name a directory shared with others.
    neighbour = tmp_path / "other.tmp"
    neighbour.write_text("keep")
    assert cache.clear() == 2
    assert not orphan.exists()
    assert neighbour.read_text() == "keep"
    assert list((tmp_path / "objects").glob("*/*")) == []


# -- object files -------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: advisor.advise({"kernel": "spmv", "params": {"n_rows": 4096}}),
        lambda: run_experiment("table2", quick=True).as_dict(),
        lambda: {"machine": "Xeon Phi™ 7210 — MCDRAM ≥ 16 GiB", "日本": ["café", "✓"]},
    ],
    ids=["advise", "experiment", "non-ascii"],
)
def test_object_bytes_equal_json_dump(tmp_path, make):
    payload = make()
    _atomic_write_json(tmp_path / "written.json", payload)
    with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert (tmp_path / "written.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()


# -- stats hardening ----------------------------------------------------------


class TestStatsHardening:
    def test_corrupt_stats_resets_counts(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        (tmp_path / "stats.json").write_text("{not json!!")
        assert cache.stats().lifetime_hits == 0
        cache.record_run(hits=2, misses=1)
        assert cache.stats().lifetime_hits == 2

    def test_wrong_shape_stats_tolerated(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        (tmp_path / "stats.json").write_text('["a", "list"]')
        assert cache.stats().lifetime_misses == 0
        (tmp_path / "stats.json").write_text(
            json.dumps({"lifetime_hits": "NaN", "lifetime_misses": 3})
        )
        assert cache.stats().lifetime_hits == 0
        assert cache.stats().lifetime_misses == 3

    def test_concurrent_record_run_loses_no_updates(self, tmp_path):
        n, procs = 50, 4
        _run_procs(_record_runs, [(str(tmp_path), n)] * procs)
        stats = SharedResultCache(tmp_path).stats()
        assert stats.lifetime_hits == n * procs
        assert stats.lifetime_misses == 2 * n * procs


# -- multiprocess contention --------------------------------------------------


class TestContention:
    def test_two_processes_never_corrupt_objects_or_stats(self, tmp_path):
        _run_procs(
            _hammer,
            [(str(tmp_path), 0, 40), (str(tmp_path), 1, 40)],
        )
        cache = SharedResultCache(tmp_path)
        # Every surviving object decodes cleanly.
        for path in cache.entries():
            doc = json.loads(path.read_text())
            assert doc["schema"] == SCHEMA_VERSION
            assert "winner" in doc["payload"]
        # stats.json survived interleaved writers (and clears, which
        # reset it) as valid JSON counts — never a corrupt partial write.
        stats = cache.stats()
        assert stats.lifetime_hits >= 0
        assert stats.lifetime_misses >= 0
        assert stats.lifetime_hits == stats.lifetime_misses  # 1:1 recorded
