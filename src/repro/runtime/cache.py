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
shards, so concurrent batches, serve workers and ``cache clear`` can
share one directory. Every mutation (``put``, ``put_payload``,
``clear``, ``record_run``) holds the one cache-wide lock file,
``cache.lock``, around its own writes: a clear cannot interleave with a
stats update, and two stats updates cannot lose each other's counts.
Reads take no lock, because every object is written to a temp file and
``os.replace``d into place, so a reader sees a whole object or none.

The cache keeps nothing in memory: every read decodes the object file,
so it returns a fresh object its caller may mutate. The advisor server
keeps its own hot tier of answers in front of the shards
(:mod:`repro.serve.app`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
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
    """Filesystem-backed, content-addressed store; keeps nothing in memory."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

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
        """``decode`` of the stored object's payload, or None."""
        try:
            doc = json.loads(self._object_path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
            return None
        raw = doc.get("payload")
        return None if raw is None else decode(raw)

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
        return path

    def clear(self) -> int:
        """Delete every cached object and the stats file; returns the
        object count. Temp objects left by writers killed mid-write go
        too (under the lock no writer is live); temp files in ``root``
        itself stay, as ``--cache-dir`` may be shared with others."""
        with file_lock(self._lock_path):
            entries = self.entries()
            orphans = (self.root / "objects").glob("*/*.tmp")
            for path in [*entries, *orphans, self.root / "stats.json"]:
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

    Uses ``fcntl.flock`` on the given lock file; closing the descriptor
    releases the lock, also when the block raises. On platforms without
    ``fcntl`` the lock degrades to a spin on exclusive creation of a
    sidecar file, which gives up after ``timeout_s`` and runs the block
    unlocked. Each object write stays atomic even then, but an unlocked
    block can lose updates: two ``record_run`` read-modify-writes drop
    each other's counts, and a ``clear()`` that interleaves with one is
    overwritten by the counts read before it.
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


def _atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # One dumps: json.dump streams through the pure-Python encoder.
            fh.write(json.dumps(payload))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
