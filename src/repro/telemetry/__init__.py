"""Telemetry: span tracing, metrics, and run provenance for the pipeline.

The paper's contribution is measurement; this package is the measurement
of the measurement pipeline itself. Three cooperating pieces:

* **Spans** (:mod:`repro.telemetry.spans`) — nested timed regions opened
  with ``with telemetry.span("simulate", kernel="spmv"):``, kept in a
  ring buffer and optionally streamed as JSONL.
* **Metrics** (:mod:`repro.telemetry.metrics`) — a process-wide registry
  of counters/gauges/histograms (cache hits, trace events, ...).
* **Manifests** (:mod:`repro.telemetry.manifest`) — provenance records
  tying every experiment invocation to its software stack, wall time and
  peak RSS.

Telemetry is **off by default** and the disabled fast path is one global
check: ``span()`` returns a shared no-op context manager and ``counter()``
a shared no-op metric, so instrumented code costs effectively nothing in
ordinary runs. Enable per-process with :func:`configure` or scoped with
:func:`session`::

    with telemetry.session(trace_path="run.jsonl"):
        run_batch(["fig6"])

Thread-safety: the span stack is thread-local (each thread nests its own
spans); the ring buffer, registry, and JSONL sink are lock-protected.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Mapping

from repro.telemetry import names
from repro.telemetry.export import JsonlSink, read_jsonl, records_of_type, scan_jsonl
from repro.telemetry.manifest import RunManifest, platform_spec_hash
from repro.telemetry.metrics import (
    NOOP_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import NOOP_SPAN, Span, Tracer, traced

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "RunManifest",
    "Span",
    "Tracer",
    "configure",
    "counter",
    "disable",
    "enabled",
    "gauge",
    "get_registry",
    "get_tracer",
    "histogram",
    "manifests",
    "names",
    "note_platform",
    "platform_spec_hash",
    "read_jsonl",
    "record_counts",
    "records_of_type",
    "reset",
    "scan_jsonl",
    "session",
    "span",
    "traced",
]


class _State:
    """Process-wide telemetry state (one per interpreter)."""

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self.sink: JsonlSink | None = None
        self.manifests: list[RunManifest] = []

    def adopt(
        self, *, enabled: bool, tracer: Tracer, registry: MetricsRegistry
    ) -> tuple:
        """Swap in process-local tracer/registry; returns the prior state.

        Used by :mod:`repro.telemetry.collect` when a pool worker starts
        a task: the worker must not inherit the parent's ring buffer or
        (under fork) its open JSONL sink — spans travel home inside the
        task result envelope instead. The swap is plain attribute
        rebinding on this one object, so worker-purity holds: nothing at
        module level is reassigned.
        """
        prev = (self.enabled, self.tracer, self.registry, self.sink)
        self.enabled = enabled
        self.tracer = tracer
        self.registry = registry
        self.sink = None
        return prev

    def restore(self, prev: tuple) -> None:
        """Undo :meth:`adopt` (worker task finished or died trying)."""
        self.enabled, self.tracer, self.registry, self.sink = prev


_STATE = _State()


def _state() -> _State:
    """The live process-wide state (internal; for the collect module)."""
    return _STATE


# -- configuration -----------------------------------------------------------


def configure(*, enabled: bool = True, trace_path: str | None = None) -> None:
    """Turn telemetry on/off; optionally stream spans/manifests as JSONL."""
    _STATE.enabled = enabled
    if _STATE.sink is not None:
        _STATE.sink.close()
        _STATE.sink = None
    if trace_path is not None:
        _STATE.sink = JsonlSink(trace_path)
    _STATE.tracer.attach_sink(_STATE.sink if enabled else None)


def disable() -> None:
    configure(enabled=False)


def enabled() -> bool:
    return _STATE.enabled


def reset() -> None:
    """Clear spans, metrics and manifests (keeps the enabled flag)."""
    _STATE.tracer.clear()
    _STATE.registry.clear()
    _STATE.manifests.clear()


@contextlib.contextmanager
def session(*, trace_path: str | None = None) -> Iterator[_State]:
    """Scoped enablement: fresh spans/metrics inside, prior state after."""
    prev_enabled = _STATE.enabled
    reset()
    configure(enabled=True, trace_path=trace_path)
    try:
        yield _STATE
    finally:
        configure(enabled=prev_enabled)


# -- spans -------------------------------------------------------------------


def get_tracer() -> Tracer:
    return _STATE.tracer


def span(name: str, **attrs: Any):
    """Open a nested span (no-op context manager when disabled)."""
    if not _STATE.enabled:
        return NOOP_SPAN
    return _STATE.tracer.span(name, **attrs)


# -- metrics -----------------------------------------------------------------


def get_registry() -> MetricsRegistry:
    return _STATE.registry


def counter(name: str):
    return _STATE.registry.counter(name) if _STATE.enabled else NOOP_METRIC


def gauge(name: str):
    return _STATE.registry.gauge(name) if _STATE.enabled else NOOP_METRIC


def histogram(name: str, buckets=None):
    if not _STATE.enabled:
        return NOOP_METRIC
    if buckets is None:
        return _STATE.registry.histogram(name)
    return _STATE.registry.histogram(name, buckets)


def record_counts(prefix: str, counts: Mapping[str, int | float]) -> None:
    """Bulk-publish integer counters under ``prefix`` (no-op when off)."""
    if _STATE.enabled:
        _STATE.registry.record_counts(prefix, counts)


# -- manifests ---------------------------------------------------------------


def start_manifest(experiment_id: str, *, quick: bool) -> RunManifest | None:
    """Open a provenance record for one experiment (None when disabled)."""
    if not _STATE.enabled:
        return None
    m = RunManifest.start(experiment_id, quick=quick)
    _STATE.manifests.append(m)
    return m


def finish_manifest(m: RunManifest | None, *, status: str = "ok") -> None:
    """Close a manifest and stream it to the sink, if any."""
    if m is None:
        return
    m.finish(status=status, n_spans=_STATE.tracer.n_started)
    if _STATE.sink is not None:
        _STATE.sink.write(m.as_dict())


def manifests() -> list[RunManifest]:
    return list(_STATE.manifests)


def note_platform(spec: Any) -> None:
    """Record a simulated platform's spec hash on the open manifest.

    Called by the platform factories (:func:`repro.platforms.broadwell`
    etc.); a no-op unless a manifest is currently running.
    """
    if not _STATE.enabled or not _STATE.manifests:
        return
    m = _STATE.manifests[-1]
    if m.status == "running" and getattr(spec, "name", None):
        m.add_platform(spec.name, spec)

