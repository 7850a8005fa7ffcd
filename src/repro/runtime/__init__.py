"""Execution runtime: parallel scheduling, result caching, resumability.

The paper's artifact is a sweep machine — 30 figures, 4 tables, and
968-matrix sparse sweeps per configuration. This package is the layer
that makes re-running it cheap:

* **Fingerprints** (:mod:`repro.runtime.fingerprint`) — content hashes
  over an experiment's id, sweep mode, package version, and the source
  of every in-package module it can reach.
* **Cache** (:mod:`repro.runtime.cache`) — content-addressed JSON store
  of serialized results under ``~/.cache/opm-repro`` (or
  ``$OPM_REPRO_CACHE_DIR``); unchanged experiments replay in
  milliseconds. One class, :class:`SharedResultCache`, whose every
  mutation holds one lock file, serves batches and the advisor alike.
* **Journal** (:mod:`repro.runtime.journal`) — append-only JSONL task
  log; an interrupted batch resumes with ``--resume <journal>``.
* **Scheduler** (:mod:`repro.runtime.scheduler`) — runs tasks inline, or
  in lanes over the worker pool (``--jobs N``, or any ``--timeout``) with
  bounded retry, exponential backoff, and deadline-accurate per-task
  timeouts, emitting spans and counters through :mod:`repro.telemetry`.
* **Pool** (:mod:`repro.runtime.pool`) — worker processes on
  socketpairs, one job in flight each; a hung or dying worker is killed
  and replaced without touching its siblings. The batch scheduler and
  ``repro serve`` share it. Imported only when a batch needs workers.
* **Faults** (:mod:`repro.runtime.faults`) — deterministic hang / crash
  / delay / flaky-once injection (``OPM_REPRO_FAULTS``) so the
  scheduler's unhappy paths are testable without real wall-clock hangs.
"""

from repro.runtime.cache import (
    CacheStats,
    SharedResultCache,
    default_cache_dir,
    file_lock,
)
from repro.runtime.faults import FaultInjected, FaultPlan
from repro.runtime.fingerprint import source_digest, task_key
from repro.runtime.journal import RunJournal, completed_tasks, final_statuses
from repro.runtime.scheduler import BatchSummary, TaskOutcome, run_batch

__all__ = [
    "BatchSummary",
    "CacheStats",
    "FaultInjected",
    "FaultPlan",
    "RunJournal",
    "SharedResultCache",
    "TaskOutcome",
    "completed_tasks",
    "default_cache_dir",
    "file_lock",
    "final_statuses",
    "run_batch",
    "source_digest",
    "task_key",
]
