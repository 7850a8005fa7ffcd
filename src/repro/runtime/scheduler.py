"""Experiment scheduler.

Runs a set of experiment ids through (in order of precedence per task):

1. the **resume set** — tasks already completed in a previous journal are
   skipped outright;
2. the **result cache** — a task whose content-addressed key (see
   :mod:`repro.runtime.fingerprint`) is cached returns in milliseconds;
3. **execution** — inline for ``jobs=1`` without a timeout, otherwise on
   the worker pool (:mod:`repro.runtime.pool`) with bounded retry,
   exponential backoff, and a per-task timeout.

The pooled path runs ``min(jobs, len(tasks))`` lanes on one event loop.
Each lane owns one worker shard: it takes the next ready task (a retry
is ready once its backoff has passed) and runs it on its shard under
``asyncio.wait_for``, so a task's deadline counts from its own start on
a worker. A task past its deadline has its worker killed and replaced;
its siblings on other shards keep running and are charged nothing.
Timed-out tasks participate in the same bounded-retry/backoff path as
crashed tasks and are journaled with a distinct ``timeout`` status,
which ``--resume`` treats as re-runnable. A worker that dies mid-task
fails only that task.

Every execution, inline or pooled, runs :func:`_worker_run`, whose
result comes back through the ``as_dict``/``from_dict`` round trip, so
serial runs, parallel runs, served runs and cache hits all print
byte-identical tables.

With telemetry enabled the scheduler opens a ``batch`` span (tagged
with a fresh ``trace_id``) with one ``task`` child per executed
experiment — inline *and* pooled: a pooled attempt opens a
manual-lifecycle ``task`` span when it starts and passes the worker a
:class:`~repro.telemetry.collect.TraceContext`, so the worker's own
spans (``experiment``, ``kernel.*``, ``hierarchy.run``, ...) come back
inside the result envelope and are merged under that ``task`` span with
ids remapped and clocks rebased (see :mod:`repro.telemetry.collect`).
``task.wait`` resolution markers and the pool's ``pool.reap`` spans
complete the picture. The scheduler publishes
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
import time
import traceback
from typing import Any, Iterable, Sequence

from repro.experiments.results import ExperimentResult
from repro.telemetry import collect, names as tm
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

    ``cache=None`` disables caching entirely. Tasks run inline when
    ``jobs=1`` and no ``timeout`` is given, otherwise on ``jobs`` worker
    processes (one when ``jobs=1``). ``timeout`` bounds each task's
    execution measured from *its own* start on a worker; a task past its
    deadline is journaled as ``timeout``, its worker is killed and
    replaced, and — like a crashed task — it is retried while attempts
    remain. ``retries`` is the number of *additional* attempts granted
    to a task whose execution raised or timed out. ``backoff`` seconds
    (doubling per attempt, capped at ``backoff_max``) separate a failure
    from its retry. Out-of-range numbers raise ValueError.
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
            if jobs == 1 and timeout is None
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
                # the pooled path (runtime.tasks.timeout).
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

    The body is the pool's :func:`_worker_run`, so inline, pooled and
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
    from repro import telemetry

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
                    telemetry.counter(tm.METRIC_TASKS_RETRIED).inc()
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
    """Run ``ids`` on ``min(jobs, len(ids))`` lanes, one worker shard each.

    A lane takes the next ready task and runs it on its own shard under
    ``asyncio.wait_for(timeout)``, so a deadline counts from the task's
    own start and killing a hung worker touches no other lane.
    """
    import asyncio

    from repro import telemetry
    from repro.experiments import registry
    from repro.runtime.pool import WorkerPool

    outcomes: dict[str, TaskOutcome] = {}
    if not ids:
        return outcomes
    # Load every experiment driver in the parent *before* the first fork:
    # workers inherit the warm module graph, so a task's first execution
    # is not charged ~0.3 s of driver imports against its deadline (under
    # a spawn start method the import cost reappears in the worker —
    # timeouts there must budget for startup).
    registry.get(ids[0])
    attempts = dict.fromkeys(ids, 0)
    # (ready_at, id) in the order tasks become runnable; a retry is
    # ready once its backoff has passed.
    waiting: list[tuple[float, str]] = [(0.0, exp_id) for exp_id in ids]

    async def run_task(pool: WorkerPool, lane: int, exp_id: str) -> None:
        attempts[exp_id] += 1
        attempt = attempts[exp_id]
        if journal is not None:
            journal.record(exp_id, "running", attempt=attempt)
        task_span = collect.open_task_span(exp_id, quick=quick, attempt=attempt)
        ctx = collect.current_context(
            exp_id,
            trace_id=trace_id,
            parent_span_id=task_span.span_id if task_span is not None else None,
        )
        started = time.monotonic()
        status, error = "done", ""
        try:
            envelope = await asyncio.wait_for(
                pool.call(lane, ("experiment", exp_id, quick, ctx)), timeout
            )
        except asyncio.TimeoutError:
            status = "timeout"
        except Exception as exc:
            status, error = "failed", _error_text(exc)
        wait_s = time.monotonic() - started
        with telemetry.span(
            tm.SPAN_TASK_WAIT, id=exp_id, status=status, wait_s=wait_s
        ):
            pass
        if status == "done":
            # Merge the worker's shipped spans/metrics under the task
            # span *before* closing it, so the sink streams children
            # ahead of their parent (same order a with-block yields).
            collect.absorb(envelope.get("telemetry"), task_span=task_span)
            collect.close_task_span(task_span, status="done")
            duration = envelope["duration_s"]
            outcomes[exp_id] = TaskOutcome(
                exp_id,
                "done",
                result=ExperimentResult.from_dict(envelope["result"]),
                duration_s=duration,
                attempts=attempt,
            )
            if journal is not None:
                journal.record(
                    exp_id, "done", cache="miss", duration_s=duration,
                    attempt=attempt,
                )
            return
        collect.close_task_span(task_span, status=status)
        elapsed: dict[str, float] = {}
        if status == "timeout":
            telemetry.counter(tm.METRIC_TASKS_TIMEOUT).inc()
            error = (
                f"timed out after {wait_s:.2f}s"
                f" (timeout {timeout}s, attempt {attempt})"
            )
            elapsed["duration_s"] = wait_s
        if journal is not None:
            journal.record(
                exp_id, status, attempt=attempt, error=error, **elapsed
            )
        if attempt <= retries:
            telemetry.counter(tm.METRIC_TASKS_RETRIED).inc()
            delay = _backoff_delay(attempt, backoff, backoff_max)
            waiting.append((time.monotonic() + delay, exp_id))
        else:
            outcomes[exp_id] = TaskOutcome(
                exp_id, status, attempts=attempt, error=error, **elapsed
            )

    async def lane(pool: WorkerPool, index: int) -> None:
        while waiting:
            now = time.monotonic()
            item = next((w for w in waiting if w[0] <= now), None)
            if item is None:
                await asyncio.sleep(min(waiting)[0] - now)
                continue
            waiting.remove(item)
            await run_task(pool, index, item[1])

    async def main() -> None:
        lanes = min(jobs, len(ids))
        pool = WorkerPool(lanes)
        try:
            await asyncio.gather(*(lane(pool, i) for i in range(lanes)))
        finally:
            pool.shutdown()

    asyncio.run(main())
    return outcomes
