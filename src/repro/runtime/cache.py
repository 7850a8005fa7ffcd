"""Content-addressed result cache.

JSON payloads are stored one file per key under
``<cache-dir>/objects/<key[:2]>/<key>.json``. An experiment's task key
(see :mod:`repro.runtime.fingerprint`) covers the experiment id, sweep
mode, package version, and the source digest of everything the
experiment can execute, so a lookup either misses or returns exactly
what a fresh run would print. The default location is
``~/.cache/opm-repro``, overridable via ``--cache-dir`` or the
``OPM_REPRO_CACHE_DIR`` environment variable.

``put`` and ``put_payload`` write one layout, and lookups read only its
``schema`` and ``payload``; an experiment's payload is its
``ExperimentResult.as_dict()``. So a result a batch cached is a hit for
the serve app, and a serve fill is a hit for the next batch.

Alongside the objects the cache keeps ``stats.json`` with lifetime and
last-run hit/miss counts; ``opm-repro cache stats`` renders it and CI
asserts on it. A corrupt or partial stats file reads as empty counts
instead of tracebacking.

One class, :class:`SharedResultCache`, serves the batch scheduler,
``report``, the ``cache`` subcommands and the :mod:`repro.serve`
service, so concurrent batches, serve workers and ``cache clear`` can
share one directory. Every mutation (``put``, ``put_payload``,
``clear``, ``record_run``) holds the one cache-wide lock file,
``cache.lock``, around its own writes: a clear cannot interleave with a
stats update, and two stats updates cannot lose each other's counts.
Reads take no lock, because every object is written to a temp file and
``os.replace``d into place, so a reader sees a whole object or none. An
in-process LRU hot tier in front of the on-disk objects serves repeat
hits without touching disk; ``put_hot`` fills only that tier, for an
answer another process (a serve worker) has already stored.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import dataclasses
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

try:  # pragma: no cover - always present on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.experiments.results import ExperimentResult

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR = "OPM_REPRO_CACHE_DIR"

#: Bump when the object layout changes; older entries read as misses.
SCHEMA_VERSION = 2


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "opm-repro"


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """A snapshot of the on-disk cache state."""

    cache_dir: Path
    entries: int
    total_bytes: int
    last_run_hits: int
    last_run_misses: int
    lifetime_hits: int
    lifetime_misses: int

    @property
    def last_run_hit_rate(self) -> float:
        looked_up = self.last_run_hits + self.last_run_misses
        return self.last_run_hits / looked_up if looked_up else 0.0

    def render(self) -> str:
        return "\n".join(
            [
                f"cache dir: {self.cache_dir}",
                f"entries: {self.entries} "
                f"({self.total_bytes / 2**20:.2f} MiB)",
                f"last run: {self.last_run_hits} hits, "
                f"{self.last_run_misses} misses "
                f"(hit rate {self.last_run_hit_rate:.1%})",
                f"lifetime: {self.lifetime_hits} hits, "
                f"{self.lifetime_misses} misses",
            ]
        )


class SharedResultCache:
    """Filesystem-backed, content-addressed store with an LRU hot tier.

    ``hot_capacity`` bounds the hot tier (entries; 0 disables it). Tier
    accounting (``hot_hits`` / ``disk_hits`` / ``misses``) is kept on
    the instance; the serve app publishes it as ``serve.cache.*``
    counters.
    """

    def __init__(
        self, root: str | Path | None = None, *, hot_capacity: int = 256
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._hot = _LruTier(hot_capacity)
        self._tier_lock = threading.Lock()
        self.hot_hits = 0
        self.disk_hits = 0
        self.misses = 0

    @property
    def _lock_path(self) -> Path:
        return self.root / "cache.lock"

    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    # -- reads (lock-free) ---------------------------------------------------

    def get(self, key: str) -> ExperimentResult | None:
        """The cached result for ``key``, or None on miss/corruption."""
        return self._lookup(key, _decode_result)

    def get_payload(self, key: str) -> dict[str, Any] | None:
        """The JSON payload stored under ``key``, or None."""
        return self._lookup(key, lambda v: v if isinstance(v, dict) else None)

    def _lookup(self, key: str, decode: Callable[[Any], Any]) -> Any | None:
        """``decode`` of the object's payload: hot tier, then disk."""
        hot = self._hot.get(key)
        if hot is not None:
            value = decode(hot)
            if value is not None:
                self._count("hot")
                return value
        try:
            doc = json.loads(self._object_path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            doc = None
        raw = (
            doc.get("payload")
            if isinstance(doc, dict) and doc.get("schema") == SCHEMA_VERSION
            else None
        )
        value = None if raw is None else decode(raw)
        if value is None:
            self._count("miss")
            return None
        self._hot.put(key, raw)
        self._count("disk")
        return value

    def _count(self, tier: str) -> None:
        with self._tier_lock:
            if tier == "hot":
                self.hot_hits += 1
            elif tier == "disk":
                self.disk_hits += 1
            else:
                self.misses += 1

    def put_hot(self, key: str, payload: dict[str, Any]) -> None:
        """Keep ``payload`` in the hot tier only; for an answer another
        process has already stored on disk. Touches no disk."""
        self._hot.put(key, payload)

    @property
    def hot_entries(self) -> int:
        return len(self._hot)

    def entries(self) -> list[Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.json"))

    # -- mutations (each under the cache lock) -------------------------------

    def put(
        self,
        key: str,
        result: ExperimentResult,
        *,
        quick: bool,
        wall_time_s: float | None = None,
    ) -> Path:
        """Store ``result`` under ``key`` as its ``as_dict()`` payload."""
        return self._write(
            key,
            result.as_dict(),
            kind="experiment",
            meta={
                "experiment_id": result.experiment_id,
                "quick": quick,
                "wall_time_s": wall_time_s,
            },
        )

    def put_payload(
        self, key: str, payload: dict[str, Any], *, kind: str = "payload"
    ) -> Path:
        """Store a JSON payload under ``key`` atomically; returns the path."""
        return self._write(key, payload, kind=kind, meta={})

    def _write(
        self, key: str, payload: dict[str, Any], *, kind: str, meta: dict
    ) -> Path:
        path = self._object_path(key)
        with file_lock(self._lock_path):
            _atomic_write_json(
                path,
                {
                    "schema": SCHEMA_VERSION,
                    "key": key,
                    "kind": kind,
                    "created_unix_s": time.time(),
                    "meta": meta,
                    "payload": payload,
                },
            )
            self._hot.put(key, payload)
        return path

    def clear(self) -> int:
        """Delete every cached object and the stats file; returns count."""
        with file_lock(self._lock_path):
            self._hot.clear()
            entries = self.entries()
            for path in [*entries, self.root / "stats.json"]:
                with contextlib.suppress(OSError):
                    path.unlink()
        return len(entries)

    def record_run(self, *, hits: int, misses: int) -> None:
        """Fold one batch's hit/miss counts into ``stats.json``."""
        with file_lock(self._lock_path):
            counts = self._read_counts()
            counts["lifetime_hits"] = counts.get("lifetime_hits", 0) + hits
            counts["lifetime_misses"] = (
                counts.get("lifetime_misses", 0) + misses
            )
            counts["last_run_hits"] = hits
            counts["last_run_misses"] = misses
            _atomic_write_json(self.root / "stats.json", counts)

    # -- hit/miss accounting -------------------------------------------------

    def _read_counts(self) -> dict[str, int]:
        """Counts from ``stats.json``; corruption resets to empty."""
        try:
            data = json.loads(
                (self.root / "stats.json").read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict):
            return {}
        return {
            k: v
            for k, v in data.items()
            if isinstance(k, str) and isinstance(v, int)
        }

    def stats(self) -> CacheStats:
        entries = self.entries()
        total_bytes = 0
        for p in entries:
            try:
                total_bytes += p.stat().st_size
            except OSError:  # deleted by a concurrent clear()
                pass
        counts = self._read_counts()
        return CacheStats(
            cache_dir=self.root,
            entries=len(entries),
            total_bytes=total_bytes,
            last_run_hits=counts.get("last_run_hits", 0),
            last_run_misses=counts.get("last_run_misses", 0),
            lifetime_hits=counts.get("lifetime_hits", 0),
            lifetime_misses=counts.get("lifetime_misses", 0),
        )


def _decode_result(value: Any) -> ExperimentResult | None:
    try:
        return ExperimentResult.from_dict(value)
    except (KeyError, TypeError, ValueError):  # poisoned entry
        return None


@contextlib.contextmanager
def file_lock(path: Path, *, timeout_s: float = 30.0) -> Iterator[None]:
    """Advisory inter-process lock held for the duration of the block.

    Uses ``fcntl.flock`` on the given lock file. On platforms without
    ``fcntl`` the lock degrades to a best-effort spin on exclusive
    creation; either way the object writes it guards remain individually
    atomic, so the worst outcome of a lost lock is a redone write.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    if fcntl is not None:
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            # Closing drops the flock; the lock file itself is left in
            # place so waiters never race a concurrent unlink.
            os.close(fd)
        return
    deadline = time.monotonic() + timeout_s  # pragma: no cover - non-POSIX
    sidecar = path.with_suffix(path.suffix + ".x")  # pragma: no cover
    while True:  # pragma: no cover
        try:
            fd = os.open(sidecar, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if time.monotonic() >= deadline:
                yield  # proceed unlocked rather than deadlock
                return
            time.sleep(0.005)
    try:  # pragma: no cover
        yield
    finally:  # pragma: no cover
        os.close(fd)
        with contextlib.suppress(OSError):
            os.unlink(sidecar)


class _LruTier:
    """Bounded in-process LRU of deep-copied JSON payloads (thread-safe)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"hot_capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: collections.OrderedDict[str, Any] = (
            collections.OrderedDict()
        )
        self._lock = threading.Lock()

    def get(self, key: str) -> Any | None:
        with self._lock:
            if key not in self._entries:
                return None
            self._entries.move_to_end(key)
            return copy.deepcopy(self._entries[key])

    def put(self, key: str, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = copy.deepcopy(value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
