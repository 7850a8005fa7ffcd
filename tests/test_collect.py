"""Cross-process telemetry collection: context, shipping, merge laws.

Covers `repro.telemetry.collect` (trace propagation and worker span
shipping), the metric `merge()` laws it relies on, tolerant JSONL
reading, and the headline differential: a `--jobs 2` batch trace must
contain the same span vocabulary, correctly parented, as a serial one.
"""

import json

import pytest

from repro import telemetry
from repro.telemetry import collect
from repro.telemetry import names as tm
from repro.telemetry.collect import (
    DEFAULT_SPAN_BUDGET,
    TraceContext,
    absorb,
    current_context,
    new_trace_id,
    open_task_span,
    worker_collection,
)
from repro.telemetry.export import read_jsonl, scan_jsonl
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry

CHEAP_IDS = ["table2", "table3", "eq1", "ext7"]


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Leave the process-wide state disabled and empty around every test."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


class TestTraceContext:
    def test_roundtrips_through_dict(self):
        ctx = TraceContext(
            trace_id="abc123", experiment_id="fig6", parent_span_id=7
        )
        assert TraceContext.from_dict(ctx.as_dict()) == ctx
        assert ctx.span_budget == DEFAULT_SPAN_BUDGET

    def test_current_context_none_when_disabled(self):
        assert (
            current_context("fig6", trace_id="t", parent_span_id=1) is None
        )

    def test_current_context_when_enabled(self):
        telemetry.configure(enabled=True)
        ctx = current_context(
            "fig6", trace_id="t1", parent_span_id=3, span_budget=10
        )
        assert ctx == TraceContext(
            trace_id="t1",
            experiment_id="fig6",
            parent_span_id=3,
            span_budget=10,
        )

    def test_trace_ids_distinct(self):
        assert new_trace_id() != new_trace_id()


class TestMergeLaws:
    """merge(a, b) must equal observing both series interleaved."""

    def test_counter_merge_is_sum(self):
        a, b = Counter("c"), Counter("c")
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7
        a.merge(b.as_dict())
        assert a.value == 11

    def test_counter_merge_rejects_other_types(self):
        with pytest.raises(TypeError):
            Counter("c").merge(Gauge("g"))

    def test_gauge_merge_is_last_writer_wins(self):
        parent, worker = Gauge("g"), Gauge("g")
        parent.set(2.0)
        worker.set(5.0)  # worker writes strictly after the parent
        parent.merge(worker)
        assert parent.value == 5.0

    def test_histogram_merge_equals_interleaved(self):
        buckets = (1e-3, 1e-2, 1e-1, 1.0)
        series_a = [0.0005, 0.004, 0.5]
        series_b = [0.02, 0.02, 2.0, 0.0001]
        merged, interleaved = Histogram("h", buckets), Histogram("h", buckets)
        shipped = Histogram("h", buckets)
        for v in series_a:
            merged.observe(v)
        for v in series_b:
            shipped.observe(v)
        merged.merge(shipped.as_dict())
        for v in series_a + series_b:
            interleaved.observe(v)
        got, want = merged.as_dict(), interleaved.as_dict()
        assert got.pop("sum") == pytest.approx(want.pop("sum"))
        assert got == want

    def test_histogram_merge_rejects_bucket_mismatch(self):
        a = Histogram("h", (1.0, 2.0))
        b = Histogram("h", (1.0, 3.0))
        with pytest.raises(ValueError, match="bucket bounds differ"):
            a.merge(b)

    def test_registry_merge_snapshot_creates_and_folds(self):
        worker = MetricsRegistry()
        worker.counter("c").inc(2)
        worker.gauge("g").set(9.0)
        worker.histogram("h", (1.0, 2.0)).observe(1.5)
        parent = MetricsRegistry()
        parent.counter("c").inc(1)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("c").value == 3
        assert parent.gauge("g").value == 9.0
        assert parent.histogram("h", (1.0, 2.0)).count == 1

    def test_registry_merge_snapshot_rejects_unknown_type(self):
        with pytest.raises(TypeError, match="unknown record type"):
            MetricsRegistry().merge_snapshot({"x": {"type": "mystery"}})


class TestWorkerCollection:
    def _ctx(self, budget=DEFAULT_SPAN_BUDGET):
        return TraceContext(
            trace_id="t1",
            experiment_id="fig6",
            parent_span_id=42,
            span_budget=budget,
        )

    def test_none_context_ships_nothing(self):
        with worker_collection(None) as shipment:
            with telemetry.span(tm.SPAN_EXPERIMENT, id="fig6"):
                pass
        assert shipment.export() is None

    def test_collects_spans_and_metrics(self):
        with worker_collection(self._ctx()) as shipment:
            with telemetry.span(tm.SPAN_EXPERIMENT, id="fig6"):
                with telemetry.span(tm.SPAN_KERNEL_TRACE, kernel="spmv"):
                    pass
            telemetry.counter(tm.METRIC_TASKS_COMPLETED).inc()
        payload = shipment.export()
        assert payload["trace_id"] == "t1"
        assert payload["experiment_id"] == "fig6"
        assert [s["name"] for s in payload["spans"]] == [
            tm.SPAN_KERNEL_TRACE,
            tm.SPAN_EXPERIMENT,
        ]
        assert payload["n_dropped"] == 0
        assert payload["metrics"][tm.METRIC_TASKS_COMPLETED]["value"] == 1

    def test_restores_prior_state(self):
        tracer_before = telemetry.get_tracer()
        registry_before = telemetry.get_registry()
        assert not telemetry.enabled()
        with worker_collection(self._ctx()):
            assert telemetry.enabled()
            assert telemetry.get_tracer() is not tracer_before
        assert not telemetry.enabled()
        assert telemetry.get_tracer() is tracer_before
        assert telemetry.get_registry() is registry_before
        # Nothing leaked into the parent-side tracer.
        assert telemetry.get_tracer().finished() == []

    def test_span_budget_drops_oldest_and_counts(self):
        with worker_collection(self._ctx(budget=2)) as shipment:
            for i in range(5):
                with telemetry.span(tm.SPAN_STEPPING_CURVE, i=i):
                    pass
        payload = shipment.export()
        assert len(payload["spans"]) == 2
        assert payload["n_dropped"] == 3


class TestAbsorb:
    def test_absorb_none_is_zero(self):
        telemetry.configure(enabled=True)
        assert absorb(None, task_span=None) == 0

    def test_absorb_when_disabled_is_zero(self):
        assert absorb({"spans": [{"span_id": 1}]}, task_span=None) == 0

    def test_remaps_reparents_and_rebases(self):
        telemetry.configure(enabled=True)
        tracer = telemetry.get_tracer()
        task = open_task_span("fig6", quick=True, attempt=1)
        # Worker-side trace built in an isolated collection scope.
        with worker_collection(
            TraceContext(
                trace_id="t1",
                experiment_id="fig6",
                parent_span_id=task.span_id,
            )
        ) as shipment:
            with telemetry.span(tm.SPAN_EXPERIMENT, id="fig6"):
                with telemetry.span(tm.SPAN_KERNEL_TRACE):
                    pass
        merged = absorb(shipment.export(), task_span=task)
        collect.close_task_span(task, status="done")
        assert merged == 2
        spans = {s.name: s for s in tracer.finished()}
        experiment = spans[tm.SPAN_EXPERIMENT]
        kernel = spans[tm.SPAN_KERNEL_TRACE]
        done_task = spans[tm.SPAN_TASK]
        # Parentage: worker root under the task span, child link intact.
        assert experiment.parent_id == done_task.span_id
        assert kernel.parent_id == experiment.span_id
        # Ids were remapped onto the parent tracer's space (no clashes).
        ids = [s.span_id for s in tracer.finished()]
        assert len(ids) == len(set(ids))
        # Clock rebasing: children anchored at/after the task span start,
        # containment preserved.
        assert experiment.start_s >= done_task.start_s
        assert kernel.start_s >= experiment.start_s
        assert kernel.end_s <= experiment.end_s + 1e-9
        # Bookkeeping counter.
        assert (
            telemetry.get_registry()
            .counter(tm.METRIC_TELEMETRY_MERGED)
            .value
            == 2
        )

    def test_absorb_merges_worker_metrics_and_dropped(self):
        telemetry.configure(enabled=True)
        telemetry.counter(tm.METRIC_TASKS_COMPLETED).inc(1)
        shipment = {
            "trace_id": "t1",
            "experiment_id": "fig6",
            "clock_origin_s": 0.0,
            "spans": [],
            "n_dropped": 7,
            "metrics": {
                tm.METRIC_TASKS_COMPLETED: {
                    "type": "counter",
                    "name": tm.METRIC_TASKS_COMPLETED,
                    "value": 2,
                }
            },
        }
        assert absorb(shipment, task_span=None) == 0
        registry = telemetry.get_registry()
        assert registry.counter(tm.METRIC_TASKS_COMPLETED).value == 3
        assert (
            registry.counter(tm.METRIC_TELEMETRY_DROPPED).value == 7
        )

    def test_budget_dropped_parent_reparents_to_task(self):
        telemetry.configure(enabled=True)
        task = open_task_span("fig6", quick=True, attempt=1)
        # A child whose parent (span 1) fell to the worker's span budget.
        shipment = {
            "trace_id": "t1",
            "experiment_id": "fig6",
            "clock_origin_s": 0.0,
            "spans": [
                {
                    "span_id": 2,
                    "parent_id": 1,
                    "name": tm.SPAN_KERNEL_TRACE,
                    "attrs": {},
                    "start_s": 0.1,
                    "duration_s": 0.05,
                }
            ],
            "n_dropped": 1,
            "metrics": {},
        }
        absorb(shipment, task_span=task)
        collect.close_task_span(task, status="done")
        spans = {s.name: s for s in telemetry.get_tracer().finished()}
        orphan = spans[tm.SPAN_KERNEL_TRACE]
        assert orphan.parent_id == spans[tm.SPAN_TASK].span_id


class TestTolerantJsonl:
    def _write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines))
        return path

    def test_read_jsonl_skips_truncated_line(self, tmp_path):
        good = json.dumps({"type": "span", "span_id": 1})
        path = self._write(tmp_path, [good, '{"type": "span", "span_'])
        assert list(read_jsonl(path)) == [{"type": "span", "span_id": 1}]

    def test_scan_jsonl_counts_skipped(self, tmp_path):
        good = json.dumps({"type": "span", "span_id": 1})
        path = self._write(
            tmp_path, [good, "{broken", good.replace("1", "2"), "{also broken"]
        )
        records, n_skipped = scan_jsonl(path)
        assert [r["span_id"] for r in records] == [1, 2]
        assert n_skipped == 2

    def test_strict_mode_raises(self, tmp_path):
        path = self._write(tmp_path, ["{truncated"])
        with pytest.raises(json.JSONDecodeError):
            list(read_jsonl(path, errors="strict"))

    def test_unknown_errors_value_rejected(self, tmp_path):
        path = self._write(tmp_path, ["{}"])
        with pytest.raises(ValueError, match="errors"):
            list(read_jsonl(path, errors="replace"))


class TestDifferentialSerialVsParallel:
    """A --jobs 2 batch must tell the same story as a serial one."""

    def _span_names(self, jobs):
        from repro.runtime import run_batch

        with telemetry.session():
            summary = run_batch(CHEAP_IDS, jobs=jobs, cache=None)
            spans = list(telemetry.get_tracer().finished())
        assert not summary.failed and not summary.timed_out
        return spans

    def test_parallel_trace_has_serial_vocabulary(self):
        serial = {s.name for s in self._span_names(jobs=1)}
        parallel_spans = self._span_names(jobs=2)
        parallel = {s.name for s in parallel_spans}
        # Worker spans shipped home: everything the serial trace has.
        assert serial - parallel == set()
        # The pool path may add scheduler-only resolution/reap spans.
        assert parallel - serial <= {tm.SPAN_TASK_WAIT, tm.SPAN_POOL_REAP}

        by_id = {s.span_id: s for s in parallel_spans}
        by_name: dict = {}
        for s in parallel_spans:
            by_name.setdefault(s.name, []).append(s)
        # Single root: exactly one batch span with no parent.
        (batch,) = by_name[tm.SPAN_BATCH]
        assert batch.parent_id is None
        # Every experiment span is parented under a task span, every
        # task span under the batch span.
        assert len(by_name[tm.SPAN_EXPERIMENT]) == len(CHEAP_IDS)
        for exp in by_name[tm.SPAN_EXPERIMENT]:
            assert by_id[exp.parent_id].name == tm.SPAN_TASK
        for task in by_name[tm.SPAN_TASK]:
            assert task.parent_id == batch.span_id
            assert task.attrs["status"] == "done"

    def test_parallel_metrics_include_worker_side(self):
        from repro.runtime import run_batch

        with telemetry.session():
            run_batch(CHEAP_IDS, jobs=2, cache=None)
            parallel = telemetry.get_registry().snapshot()
        with telemetry.session():
            run_batch(CHEAP_IDS, jobs=1, cache=None)
            serial = telemetry.get_registry().snapshot()
        # One worker shipment merged per task, and nothing the serial
        # path publishes goes missing on the pool path.
        assert (
            parallel[tm.METRIC_TELEMETRY_MERGED]["value"]
            >= len(CHEAP_IDS)
        )
        assert set(serial) <= set(parallel)
        assert (
            parallel[tm.METRIC_TASKS_COMPLETED]["value"]
            == serial[tm.METRIC_TASKS_COMPLETED]["value"]
            == len(CHEAP_IDS)
        )
