"""Parallel experiment scheduler.

Runs a set of experiment ids through (in order of precedence per task):

1. the **resume set** — tasks already completed in a previous journal are
   skipped outright;
2. the **result cache** — a task whose content-addressed key (see
   :mod:`repro.runtime.fingerprint`) is cached returns in milliseconds;
3. **execution** — inline for ``jobs=1``, or fanned out across a
   ``ProcessPoolExecutor`` with bounded retry, exponential backoff, and
   a deadline-accurate per-task timeout.

Timeouts are *per task, measured from that task's own submission to a
free worker*: submission is throttled to the pool width, every in-flight
task carries a monotonic deadline, and a ``concurrent.futures.wait``
polling loop declares a task ``timeout`` the moment its own deadline
passes — never after some other task's wait. Because a running
``ProcessPoolExecutor`` future cannot be cancelled, a hung worker is
reaped by recycling the executor (terminate + fresh pool) so a stuck
process can never silently occupy a slot for the rest of the batch;
innocent in-flight tasks are resubmitted on the fresh pool without
consuming an extra attempt. Timed-out tasks participate in the same
bounded-retry/backoff path as crashed tasks and are journaled with a
distinct ``timeout`` status, which ``--resume`` treats as re-runnable.

Every execution, inline or pool, runs :func:`_worker_run`, whose
result comes back through the ``as_dict``/``from_dict`` round trip, so
serial runs, parallel runs, served runs and cache hits all print
byte-identical tables.

With telemetry enabled the scheduler opens a ``batch`` span (tagged
with a fresh ``trace_id``) with one ``task`` child per executed
experiment — inline *and* pool: pool submissions open a
manual-lifecycle ``task`` span at submission and pass the worker a
:class:`~repro.telemetry.collect.TraceContext`, so the worker's own
spans (``experiment``, ``kernel.*``, ``hierarchy.run``, ...) come back
inside the result envelope and are merged under that ``task`` span with
ids remapped and clocks rebased (see :mod:`repro.telemetry.collect`).
``task.wait`` resolution markers and ``pool.reap`` spans around
executor recycling complete the picture. The scheduler publishes
``runtime.cache.hits`` / ``runtime.cache.misses`` / ``runtime.tasks.*``
(including ``runtime.tasks.timeout``) / ``runtime.pool.recycled`` /
``runtime.telemetry.spans_merged`` / ``runtime.telemetry.dropped``
counters plus a ``runtime.task_wall_s`` histogram and a
``runtime.workers`` gauge — the numbers behind the batch summary
section in reports. Worker metric deltas fold into the same registry,
so parallel profiles account worker time instead of silently
under-counting it.

Deterministic fault injection for all of these paths lives in
:mod:`repro.runtime.faults`.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.experiments.results import ExperimentResult
from repro.telemetry import collect, names as tm
from repro.telemetry.spans import Span
from repro.runtime import faults
from repro.runtime.cache import SharedResultCache
from repro.runtime.journal import RunJournal

#: Ceiling for one exponential-backoff delay between retry attempts.
DEFAULT_BACKOFF_MAX_S = 30.0


@dataclasses.dataclass
class TaskOutcome:
    """What happened to one experiment in a batch."""

    experiment_id: str
    status: str  # done | failed | timeout | skipped
    result: ExperimentResult | None = None
    cache_hit: bool = False
    duration_s: float = 0.0
    attempts: int = 0
    error: str | None = None


@dataclasses.dataclass
class BatchSummary:
    """Aggregate of one :func:`run_batch` invocation."""

    outcomes: list[TaskOutcome]
    jobs: int
    quick: bool
    wall_time_s: float

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(
            1
            for o in self.outcomes
            if o.status != "skipped" and not o.cache_hit
        )

    @property
    def failed(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def timed_out(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if o.status == "timeout"]

    @property
    def skipped(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if o.status == "skipped"]

    @property
    def hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    def render(self) -> str:
        """One-paragraph plain-text summary for the terminal."""
        done = sum(1 for o in self.outcomes if o.status == "done")
        parts = [
            f"batch: {done}/{len(self.outcomes)} done"
            f" ({self.cache_hits} cached, {len(self.skipped)} resumed,"
            f" {len(self.failed)} failed, {len(self.timed_out)} timed out)",
            f"jobs={self.jobs} wall={self.wall_time_s:.2f}s"
            f" hit-rate={self.hit_rate:.1%}",
        ]
        for o in self.failed:
            parts.append(f"FAILED {o.experiment_id}: {o.error}")
        for o in self.timed_out:
            parts.append(f"TIMEOUT {o.experiment_id}: {o.error}")
        return "\n".join(parts)


def _package_parent() -> str:
    """Directory to prepend to ``sys.path`` in spawned workers."""
    import repro

    return str(Path(repro.__file__).resolve().parent.parent)


def _worker_init(package_parent: str) -> None:  # pragma: no cover - child
    if package_parent not in sys.path:
        sys.path.insert(0, package_parent)


def _worker_run(
    experiment_id: str,
    quick: bool,
    ctx: "collect.TraceContext | None" = None,
) -> dict[str, Any]:
    """Run one experiment, inline or in a worker; returns a picklable payload.

    With a :class:`~repro.telemetry.collect.TraceContext`, the task runs
    under a process-local tracer/metrics registry whose spans (rooted at
    an ``experiment`` span) and metric deltas ship home inside this
    envelope for the parent to merge under its ``task`` span.
    """
    from repro import telemetry
    from repro.experiments import registry

    faults.apply(experiment_id)
    spec = registry.get(experiment_id)
    with collect.worker_collection(ctx) as shipment:
        start = time.perf_counter()
        with telemetry.span(tm.SPAN_EXPERIMENT, id=experiment_id, quick=quick):
            result = spec.runner(quick=quick)
        duration_s = time.perf_counter() - start
    return {
        "experiment_id": experiment_id,
        "duration_s": duration_s,
        "result": result.as_dict(),
        "telemetry": shipment.export(),
    }


def _error_text(exc: BaseException) -> str:
    tail = traceback.format_exception_only(type(exc), exc)
    return "".join(tail).strip() or type(exc).__name__


def _backoff_delay(attempt: int, backoff: float, backoff_max: float) -> float:
    """Delay before retry number ``attempt + 1`` (exponential, capped)."""
    if backoff <= 0.0:
        return 0.0
    return min(backoff * (2.0 ** (attempt - 1)), backoff_max)


def run_batch(
    ids: Sequence[str],
    *,
    quick: bool = True,
    jobs: int = 1,
    cache: SharedResultCache | None = None,
    journal: RunJournal | None = None,
    resume_completed: Iterable[str] = (),
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = 0.0,
    backoff_max: float = DEFAULT_BACKOFF_MAX_S,
) -> BatchSummary:
    """Run ``ids``; returns per-task outcomes in input order.

    ``cache=None`` disables caching entirely. ``timeout`` bounds each
    task's execution measured from *its own* submission to a worker and
    only applies to pool execution (``jobs > 1``); a task past its
    deadline is journaled as ``timeout``, its hung worker is reaped by
    recycling the pool, and — like a crashed task — it is retried while
    attempts remain. ``retries`` is the number of *additional* attempts
    granted to a task whose execution raised or timed out. ``backoff``
    seconds (doubling per attempt, capped at ``backoff_max``) separate a
    failure from its retry. Out-of-range numbers raise ValueError.
    """
    from repro import telemetry
    from repro.experiments import registry

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and not timeout > 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    start = time.perf_counter()
    resume_completed = set(resume_completed)
    if journal is not None:
        journal.write_header(ids=list(ids), quick=quick, jobs=jobs)
    telemetry.gauge(tm.METRIC_RUNTIME_WORKERS).set(jobs)
    trace_id = collect.new_trace_id()

    with telemetry.span(
        tm.SPAN_BATCH, n_tasks=len(ids), jobs=jobs, quick=quick,
        trace_id=trace_id,
    ):
        outcomes: dict[str, TaskOutcome] = {}
        to_execute: list[str] = []
        for exp_id in ids:
            if exp_id in resume_completed:
                outcomes[exp_id] = TaskOutcome(exp_id, "skipped")
                telemetry.counter(tm.METRIC_TASKS_RESUMED).inc()
                if journal is not None:
                    journal.record(exp_id, "skipped")
                continue
            if journal is not None:
                journal.record(exp_id, "pending")
            cached = None
            if cache is not None:
                key = registry.get(exp_id).task_key(quick=quick)
                with telemetry.span(tm.SPAN_CACHE_LOOKUP, id=exp_id):
                    cached = cache.get(key)
            if cached is not None:
                outcomes[exp_id] = TaskOutcome(
                    exp_id, "done", result=cached, cache_hit=True
                )
                telemetry.counter(tm.METRIC_CACHE_HITS).inc()
                if journal is not None:
                    journal.record(exp_id, "done", cache="hit")
            else:
                if cache is not None:
                    telemetry.counter(tm.METRIC_CACHE_MISSES).inc()
                to_execute.append(exp_id)

        executed = (
            _execute_inline(
                to_execute,
                quick=quick,
                journal=journal,
                retries=retries,
                backoff=backoff,
                backoff_max=backoff_max,
            )
            if jobs <= 1
            else _execute_pool(
                to_execute,
                quick=quick,
                jobs=jobs,
                journal=journal,
                timeout=timeout,
                retries=retries,
                backoff=backoff,
                backoff_max=backoff_max,
                trace_id=trace_id,
            )
        )
        for exp_id, outcome in executed.items():
            outcomes[exp_id] = outcome
            if outcome.status == "done":
                telemetry.counter(tm.METRIC_TASKS_COMPLETED).inc()
                telemetry.histogram(tm.METRIC_TASK_WALL_S).observe(
                    outcome.duration_s
                )
                if cache is not None and outcome.result is not None:
                    key = registry.get(exp_id).task_key(quick=quick)
                    cache.put(
                        key,
                        outcome.result,
                        quick=quick,
                        wall_time_s=outcome.duration_s,
                    )
            elif outcome.status != "timeout":
                # timeout events are already counted per occurrence by
                # the pool loop (runtime.tasks.timeout).
                telemetry.counter(tm.METRIC_TASKS_FAILED).inc()

    summary = BatchSummary(
        outcomes=[outcomes[exp_id] for exp_id in ids],
        jobs=jobs,
        quick=quick,
        wall_time_s=time.perf_counter() - start,
    )
    if cache is not None:
        cache.record_run(
            hits=summary.cache_hits, misses=summary.cache_misses
        )
    return summary


def _run_with_manifest(
    exp_id: str, *, quick: bool
) -> tuple[ExperimentResult, float]:
    """Execute one task in-process under a ``task`` span + manifest.

    The body is the pool's :func:`_worker_run`, so inline, pool and
    served executions share one span vocabulary (``task`` →
    ``experiment`` → driver spans) and one ``as_dict``/``from_dict``
    round trip, and print byte-identical tables.
    """
    from repro import telemetry

    manifest = telemetry.start_manifest(exp_id, quick=quick)
    status = "ok"
    try:
        with telemetry.span(tm.SPAN_TASK, id=exp_id, quick=quick):
            payload = _worker_run(exp_id, quick)
    except Exception:
        status = "error"
        raise
    finally:
        telemetry.finish_manifest(manifest, status=status)
    return ExperimentResult.from_dict(payload["result"]), payload["duration_s"]


def _execute_inline(
    ids: Sequence[str],
    *,
    quick: bool,
    journal: RunJournal | None,
    retries: int,
    backoff: float = 0.0,
    backoff_max: float = DEFAULT_BACKOFF_MAX_S,
) -> dict[str, TaskOutcome]:
    outcomes: dict[str, TaskOutcome] = {}
    for exp_id in ids:
        for attempt in range(1, retries + 2):
            if journal is not None:
                journal.record(exp_id, "running", attempt=attempt)
            try:
                result, duration = _run_with_manifest(exp_id, quick=quick)
            except Exception as exc:
                outcomes[exp_id] = TaskOutcome(
                    exp_id,
                    "failed",
                    attempts=attempt,
                    error=_error_text(exc),
                )
                if journal is not None:
                    journal.record(
                        exp_id,
                        "failed",
                        attempt=attempt,
                        error=_error_text(exc),
                    )
                if attempt <= retries:
                    delay = _backoff_delay(attempt, backoff, backoff_max)
                    if delay > 0.0:
                        time.sleep(delay)
                continue
            outcomes[exp_id] = TaskOutcome(
                exp_id,
                "done",
                result=result,
                duration_s=duration,
                attempts=attempt,
            )
            if journal is not None:
                journal.record(
                    exp_id,
                    "done",
                    cache="miss",
                    duration_s=duration,
                    attempt=attempt,
                )
            break
    return outcomes


@dataclasses.dataclass
class _InFlight:
    """Book-keeping for one submitted-but-unresolved pool task."""

    experiment_id: str
    submitted_at: float  # time.monotonic() at submission
    deadline: float | None  # submitted_at + timeout, None = no timeout
    span: Span | None = None  # open `task` span (None when telemetry off)


@dataclasses.dataclass
class _Waiting:
    """A task queued for (re)submission."""

    experiment_id: str
    ready_at: float  # time.monotonic() before which it must not start
    new_attempt: bool  # False when requeued by a pool recycle


def _new_pool(jobs: int, n_tasks: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=min(jobs, n_tasks),
        initializer=_worker_init,
        initargs=(_package_parent(),),
    )


def _reap_pool(pool: ProcessPoolExecutor, *, reason: str, n_hung: int) -> None:
    """Terminate a pool whose running futures cannot be cancelled.

    ``shutdown(cancel_futures=True)`` only drops *queued* work; a worker
    stuck inside a task would keep the process alive forever, so the
    worker processes are terminated (then killed if necessary) after the
    executor stops accepting work.
    """
    from repro import telemetry

    with telemetry.span(tm.SPAN_POOL_REAP, reason=reason, n_hung=n_hung):
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + 2.0
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():  # pragma: no cover - stubborn child
                proc.kill()
                proc.join(timeout=1.0)
    telemetry.counter(tm.METRIC_POOL_RECYCLED).inc()


def _execute_pool(
    ids: Sequence[str],
    *,
    quick: bool,
    jobs: int,
    journal: RunJournal | None,
    timeout: float | None,
    retries: int,
    backoff: float = 0.0,
    backoff_max: float = DEFAULT_BACKOFF_MAX_S,
    trace_id: str = "",
) -> dict[str, TaskOutcome]:
    """Deadline-driven pool execution.

    Submission is throttled to the pool width so a task's deadline clock
    starts when it actually reaches a worker, not when the batch began.
    The loop wakes on the first completion or the earliest deadline /
    backoff expiry, whichever comes first, so a hung task is declared
    ``timeout`` about ``timeout`` seconds after *its own* start even if
    it was submitted last.
    """
    from repro import telemetry
    from repro.experiments import registry

    outcomes: dict[str, TaskOutcome] = {}
    if not ids:
        return outcomes
    # Load every experiment driver in the parent *before* forking the
    # pool: workers inherit the warm module graph, so a task's first
    # execution is not charged ~0.5 s of scipy imports against its
    # deadline (under a spawn start method the import cost reappears in
    # the worker — timeouts there must budget for startup).
    registry.get(ids[0])
    max_workers = min(jobs, len(ids))
    attempts = {exp_id: 0 for exp_id in ids}
    waiting: list[_Waiting] = [_Waiting(exp_id, 0.0, True) for exp_id in ids]
    running: dict[Future, _InFlight] = {}
    pool = _new_pool(jobs, len(ids))
    recycle_reason: str | None = None
    hung = 0

    def resolve(exp_id: str, status: str, **kwargs: Any) -> None:
        outcomes[exp_id] = TaskOutcome(
            exp_id, status, attempts=attempts[exp_id], **kwargs
        )

    def requeue_for_retry(exp_id: str, now: float) -> None:
        telemetry.counter(tm.METRIC_TASKS_RETRIED).inc()
        delay = _backoff_delay(attempts[exp_id], backoff, backoff_max)
        waiting.append(_Waiting(exp_id, now + delay, True))

    try:
        while waiting or running:
            now = time.monotonic()
            # A recycle request (hung worker or broken pool) is honored
            # once the loop is back at a submission point: every innocent
            # in-flight task is requeued (no extra attempt charged) and a
            # fresh executor replaces the poisoned one.
            if recycle_reason is not None:
                for future, flight in running.items():
                    future.cancel()
                    collect.close_task_span(flight.span, status="requeued")
                    waiting.append(
                        _Waiting(flight.experiment_id, now, False)
                    )
                running.clear()
                _reap_pool(pool, reason=recycle_reason, n_hung=hung)
                pool = _new_pool(jobs, len(ids))
                recycle_reason = None
                hung = 0

            # Fill free worker slots with tasks whose backoff has expired.
            ready = [w for w in waiting if w.ready_at <= now]
            while ready and len(running) < max_workers:
                item = ready.pop(0)
                waiting.remove(item)
                if item.new_attempt:
                    attempts[item.experiment_id] += 1
                if journal is not None:
                    journal.record(
                        item.experiment_id,
                        "running",
                        attempt=attempts[item.experiment_id],
                    )
                task_span = collect.open_task_span(
                    item.experiment_id,
                    quick=quick,
                    attempt=attempts[item.experiment_id],
                )
                ctx = collect.current_context(
                    item.experiment_id,
                    trace_id=trace_id,
                    parent_span_id=(
                        task_span.span_id if task_span is not None else None
                    ),
                )
                future = pool.submit(
                    _worker_run, item.experiment_id, quick, ctx
                )
                running[future] = _InFlight(
                    experiment_id=item.experiment_id,
                    submitted_at=now,
                    deadline=None if timeout is None else now + timeout,
                    span=task_span,
                )

            if not running:
                # Everything is waiting out a backoff delay.
                next_ready = min(w.ready_at for w in waiting)
                time.sleep(max(0.0, next_ready - time.monotonic()))
                continue

            # Sleep until something completes, a deadline passes, or a
            # backoff expires — whichever is first.
            wake_times = [
                f.deadline for f in running.values() if f.deadline is not None
            ] + [w.ready_at for w in waiting if w.ready_at > now]
            poll = (
                None
                if not wake_times
                else max(0.0, min(wake_times) - time.monotonic())
            )
            done, _ = futures_wait(
                running, timeout=poll, return_when=FIRST_COMPLETED
            )

            now = time.monotonic()
            for future in done:
                flight = running.pop(future)
                exp_id = flight.experiment_id
                attempt = attempts[exp_id]
                wait_s = now - flight.submitted_at
                try:
                    payload = future.result(timeout=0)
                except (Exception, CancelledError) as exc:
                    error = _error_text(exc)
                    if journal is not None:
                        journal.record(
                            exp_id, "failed", attempt=attempt, error=error
                        )
                    if isinstance(exc, BrokenExecutor):
                        # The whole executor is poisoned (worker died
                        # outside our control); every sibling future is
                        # about to fail the same way — recycle instead.
                        recycle_reason = recycle_reason or "broken-pool"
                    with telemetry.span(
                        tm.SPAN_TASK_WAIT, id=exp_id, status="failed",
                        wait_s=wait_s,
                    ):
                        pass
                    collect.close_task_span(flight.span, status="failed")
                    if attempt <= retries:
                        requeue_for_retry(exp_id, now)
                    else:
                        resolve(exp_id, "failed", error=error)
                    continue
                with telemetry.span(
                    tm.SPAN_TASK_WAIT, id=exp_id, status="done", wait_s=wait_s
                ):
                    pass
                # Merge the worker's shipped spans/metrics under the task
                # span *before* closing it, so the sink streams children
                # ahead of their parent (same order a with-block yields).
                collect.absorb(
                    payload.get("telemetry"), task_span=flight.span
                )
                collect.close_task_span(flight.span, status="done")
                resolve(
                    exp_id,
                    "done",
                    result=ExperimentResult.from_dict(payload["result"]),
                    duration_s=payload["duration_s"],
                )
                if journal is not None:
                    journal.record(
                        exp_id,
                        "done",
                        cache="miss",
                        duration_s=payload["duration_s"],
                        attempt=attempt,
                    )

            # Deadline sweep: anything still running past its own
            # deadline is declared timed out *now*, not when its future
            # happens to be waited on.
            expired = [
                (future, flight)
                for future, flight in running.items()
                if flight.deadline is not None and flight.deadline <= now
            ]
            for future, flight in expired:
                del running[future]
                future.cancel()  # no-op for running futures; documented
                exp_id = flight.experiment_id
                attempt = attempts[exp_id]
                elapsed = now - flight.submitted_at
                error = (
                    f"timed out after {elapsed:.2f}s"
                    f" (timeout {timeout}s, attempt {attempt})"
                )
                telemetry.counter(tm.METRIC_TASKS_TIMEOUT).inc()
                with telemetry.span(
                    tm.SPAN_TASK_WAIT, id=exp_id, status="timeout",
                    wait_s=elapsed,
                ):
                    pass
                collect.close_task_span(flight.span, status="timeout")
                if journal is not None:
                    journal.record(
                        exp_id, "timeout", attempt=attempt, error=error,
                        duration_s=elapsed,
                    )
                hung += 1
                recycle_reason = recycle_reason or "hung-worker"
                if attempt <= retries:
                    requeue_for_retry(exp_id, now)
                else:
                    resolve(
                        exp_id, "timeout", error=error, duration_s=elapsed
                    )
    finally:
        if recycle_reason is not None or hung:
            _reap_pool(pool, reason=recycle_reason or "hung-worker",
                       n_hung=hung)
        else:
            pool.shutdown(wait=True, cancel_futures=True)
    return outcomes
