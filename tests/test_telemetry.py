"""Telemetry subsystem: spans, metrics, manifests, summaries."""

import json
import threading

import pytest

from repro import telemetry
from repro.telemetry.export import JsonlSink, read_jsonl, records_of_type
from repro.telemetry.manifest import RunManifest, platform_spec_hash
from repro.telemetry.metrics import (
    NOOP_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import NOOP_SPAN, Tracer, traced
from repro.telemetry.analyze import aggregate_spans, from_spans
from repro.telemetry.summary import render_profile


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Leave the process-wide state disabled and empty around every test."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


class TestTracer:
    def test_nesting_records_parent(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.name for s in t.finished()] == ["inner", "outer"]

    def test_durations_monotone(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        inner, outer = t.finished()
        assert 0.0 <= inner.duration_s <= outer.duration_s

    def test_attrs_and_set_attr(self):
        t = Tracer()
        with t.span("phase", kernel="spmv", n=4096) as sp:
            sp.set_attr("events", 12)
        (done,) = t.finished()
        assert done.attrs == {"kernel": "spmv", "n": 4096, "events": 12}

    def test_ring_buffer_drops_oldest(self):
        t = Tracer(capacity=4)
        for i in range(10):
            with t.span(f"s{i}"):
                pass
        names = [s.name for s in t.finished()]
        assert names == ["s6", "s7", "s8", "s9"]
        assert t.n_dropped == 6
        assert t.n_started == 10

    def test_exception_annotates_span(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("bad"):
                raise ValueError("boom")
        (sp,) = t.finished()
        assert sp.attrs["error"] == "ValueError"
        assert sp.end_s is not None

    def test_threads_nest_independently(self):
        t = Tracer()
        errors = []

        def worker(tag):
            try:
                with t.span(f"outer-{tag}"):
                    with t.span(f"inner-{tag}") as sp:
                        assert sp.name == f"inner-{tag}"
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        spans = t.finished()
        assert len(spans) == 16
        by_id = {s.span_id: s for s in spans}
        for sp in spans:
            if sp.name.startswith("inner"):
                tag = sp.name.split("-")[1]
                assert by_id[sp.parent_id].name == f"outer-{tag}"

    def test_sink_streams_finished_spans(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer()
        with JsonlSink(path) as sink:
            t.attach_sink(sink)
            with t.span("a"):
                pass
        (rec,) = list(read_jsonl(path))
        assert rec["type"] == "span" and rec["name"] == "a"


class TestGlobalSpanApi:
    def test_disabled_returns_shared_noop(self):
        assert telemetry.span("anything", k=1) is NOOP_SPAN
        with telemetry.span("anything") as sp:
            sp.set_attr("x", 1)  # must not raise
        assert telemetry.get_tracer().finished() == []

    def test_enabled_records(self):
        telemetry.configure(enabled=True)
        with telemetry.span("simulate", kernel="spmv", n=4096):
            pass
        (sp,) = telemetry.get_tracer().finished()
        assert sp.name == "simulate"
        assert sp.attrs["kernel"] == "spmv"

    def test_traced_decorator_honours_toggle(self):
        @traced("decorated.phase")
        def fn(x):
            return x + 1

        assert fn(1) == 2
        assert telemetry.get_tracer().finished() == []
        telemetry.configure(enabled=True)
        assert fn(2) == 3
        (sp,) = telemetry.get_tracer().finished()
        assert sp.name == "decorated.phase"

    def test_session_scopes_state(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with telemetry.session(trace_path=str(path)):
            assert telemetry.enabled()
            with telemetry.span("inside"):
                pass
        assert not telemetry.enabled()
        assert [r["name"] for r in records_of_type(path, "span")] == ["inside"]


class TestMetrics:
    def test_counter(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge("rss")
        g.set(3.5)
        g.add(0.5)
        assert g.value == 4.0

    def test_histogram_buckets(self):
        h = Histogram("lat", buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.005, 0.05, 5.0):
            h.observe(v)
        assert h.counts == [1, 2, 1, 1]
        assert h.count == 5
        assert h.min == 0.0005 and h.max == 5.0
        assert h.mean == pytest.approx(5.0605 / 5)
        assert h.quantile(0.5) == 0.01
        assert h.as_dict()["counts"] == [1, 2, 1, 1]

    def test_registry_get_or_create_and_type_clash(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        with pytest.raises(TypeError):
            r.gauge("a")
        assert len(r) == 1
        assert "a" in r

    def test_snapshot_sorted(self):
        r = MetricsRegistry()
        r.counter("b").inc()
        r.counter("a").inc(2)
        snap = r.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["a"]["value"] == 2

    def test_record_counts_filters_non_numeric(self):
        r = MetricsRegistry()
        r.record_counts("memory.L1", {"hits": 3, "name": "L1", "ok": True})
        assert r.counter("memory.L1.hits").value == 3
        assert "memory.L1.name" not in r
        assert "memory.L1.ok" not in r

    def test_global_handles_noop_when_disabled(self):
        assert telemetry.counter("x") is NOOP_METRIC
        telemetry.counter("x").inc()
        telemetry.configure(enabled=True)
        telemetry.counter("x").inc(7)
        assert telemetry.get_registry().counter("x").value == 7


class TestManifest:
    def test_lifecycle_and_fields(self):
        m = RunManifest.start("fig6", quick=True)
        assert m.status == "running"
        m.finish(status="ok", n_spans=3)
        assert m.wall_time_s is not None and m.wall_time_s >= 0
        assert m.peak_rss_bytes is None or m.peak_rss_bytes > 0
        d = m.as_dict()
        assert d["type"] == "manifest"
        assert d["experiment_id"] == "fig6"
        assert d["python_version"].count(".") == 2
        json.dumps(d)  # JSONL-encodable

    def test_platform_hash_stable(self):
        from repro.platforms import broadwell

        a, b = broadwell(), broadwell()
        assert platform_spec_hash(a) == platform_spec_hash(b)
        assert platform_spec_hash(a) != platform_spec_hash(broadwell(edram=False))

    def test_note_platform_lands_on_open_manifest(self):
        from repro.platforms import knl

        telemetry.configure(enabled=True)
        m = telemetry.start_manifest("fig17", quick=True)
        knl()
        telemetry.finish_manifest(m)
        assert "Xeon Phi 7210" in m.platform_spec_hashes


class TestSummary:
    def _spans(self):
        t = Tracer()
        with t.span("experiment"):
            with t.span("sweep.kernel", kernel="gemm"):
                pass
            with t.span("sweep.kernel", kernel="spmv"):
                pass
        return t.finished()

    def test_aggregate_self_time(self):
        rows = {r.name: r for r in aggregate_spans(from_spans(self._spans()))}
        exp, sweep = rows["experiment"], rows["sweep.kernel"]
        assert sweep.count == 2
        assert exp.count == 1
        assert exp.self_s == pytest.approx(exp.total_s - sweep.total_s, abs=1e-9)

    def test_render_profile_has_bars(self):
        text = render_profile(self._spans())
        assert "experiment" in text and "self-time" in text
        assert "#" in text

    def test_render_profile_empty(self):
        assert "no spans" in render_profile([])


class TestIntegration:
    def test_hierarchy_publishes_metrics(self):
        from repro.memory import for_broadwell
        from repro.platforms import broadwell

        telemetry.configure(enabled=True)
        h = for_broadwell(broadwell(), scale=0.0005)
        h.run_lines(range(4096))
        reg = telemetry.get_registry()
        assert reg.counter("memory.L1.accesses").value == 4096
        spans = list(telemetry.get_tracer().iter_finished("hierarchy.run"))
        assert spans and spans[0].attrs["refs"] == 4096
        # Second run publishes deltas, not cumulative totals.
        h.run_lines(range(4096))
        assert reg.counter("memory.L1.accesses").value == 8192
        assert reg.counter("memory.L1.cache.evictions").value >= 0

    @pytest.mark.parametrize("prefetch", [None, "next-line", "stride"])
    def test_replay_counters_explain_hierarchy_run(self, prefetch):
        import numpy as np

        from repro.memory import for_broadwell
        from repro.platforms import broadwell

        telemetry.configure(enabled=True)
        reg = telemetry.get_registry()
        h = for_broadwell(broadwell(), scale=0.001, prefetch=prefetch)
        rng = np.random.default_rng(5)
        # A hot loop the 8-line L1 resolves wholesale, then a strided
        # sweep and a random phase that walk.
        addrs = np.concatenate(
            [np.tile(np.arange(6), 3000), np.arange(0, 30_000, 3), rng.integers(0, 9000, 6000)]
        )
        writes = rng.random(addrs.size) < 0.3
        issued = useful = 0
        for run in range(3):
            if run == 2:
                h.reset()  # zeroes the prefetch stats, not the published totals
            pf = h._prefetcher
            before = (pf.stats.issued, pf.stats.useful) if pf else (0, 0)
            h.run_array(addrs, writes)
            if pf is not None:
                issued += pf.stats.issued - before[0]
                useful += pf.stats.useful - before[1]
                assert reg.counter("memory.prefetch.issued").value == issued > 0
                assert reg.counter("memory.prefetch.useful").value == useful > 0
        assert ("memory.prefetch.issued" in reg) == (prefetch is not None)

        def replay(level, kind):
            return reg.counter(f"memory.{level}.replay.{kind}").value

        # Events each level received over the three runs: every
        # reference at L1; below, the level above's misses plus its
        # dirty-victim writebacks (published totals survive reset()).
        received = addrs.size * 3
        assert replay("L1", "wholesale") > 0 and replay("L1", "walked") > 0
        for name in ("L1", "L2", "L3"):
            assert replay(name, "wholesale") + replay(name, "walked") == received, name
            received = sum(
                reg.counter(f"memory.{name}.{k}").value for k in ("misses", "writebacks")
            )
        if prefetch is not None:
            assert replay("L3", "wholesale") == 0  # every reference is observed

    def test_group_replay_counts_shared_work_once(self):
        """A replay group publishes each member's level and cache counts
        exactly as solo replays do, but the work above the LLC once."""
        import numpy as np

        from repro.memory import for_broadwell
        from repro.platforms import broadwell

        rng = np.random.default_rng(6)
        addrs = np.concatenate(
            [np.tile(np.arange(6), 3000), np.arange(0, 30_000, 3), rng.integers(0, 9000, 6000)]
        )
        writes = rng.random(addrs.size) < 0.3
        kinds = ("next-line", None, "stride")

        def replay(grouped):
            telemetry.reset()
            telemetry.configure(enabled=True)
            hs = [for_broadwell(broadwell(), scale=0.001, prefetch=k) for k in kinds]
            if grouped:
                hs[0].run_batched([(addrs, writes)], also=hs[1:])
            else:
                for h in hs:
                    h.run_batched([(addrs, writes)])
            spans = telemetry.get_tracer().iter_finished("hierarchy.run")
            counts = {k: v["value"] for k, v in telemetry.get_registry().snapshot().items()}
            return counts, [(sp.attrs["hierarchies"], sp.attrs["refs"]) for sp in spans]

        solo, solo_spans = replay(grouped=False)
        group, group_spans = replay(grouped=True)
        assert solo_spans == [(1, addrs.size)] * 3
        assert group_spans == [(3, addrs.size)]
        assert solo.keys() == group.keys()
        for name, value in solo.items():
            if name.startswith(("memory.L1.replay.", "memory.L2.replay.")):
                assert group[name] * 3 == value, name
            else:
                assert group[name] == value, name
        assert group["memory.L1.replay.walked"] > 0 and group["memory.L3.replay.walked"] > 0

    def test_kernel_trace_and_simulate_spans(self):
        from repro.kernels import StreamKernel
        from repro.memory import for_broadwell
        from repro.platforms import broadwell

        telemetry.configure(enabled=True)
        kernel = StreamKernel(512)
        h = for_broadwell(broadwell(), scale=0.0005)
        stats = kernel.simulate(h)
        assert stats["L1"].accesses > 0
        names = {sp.name for sp in telemetry.get_tracer().finished()}
        assert {"kernel.trace", "kernel.simulate", "hierarchy.run"} <= names
        assert telemetry.get_registry().counter(
            "kernel.stream.trace_events"
        ).value == 3 * 512

    def test_disabled_run_untouched(self):
        from repro.experiments import run

        result = run("fig6", quick=True)
        assert all(t.name != "telemetry" for t in result.tables)
        assert telemetry.manifests() == []


class TestHierarchyStats:
    def test_merge_and_as_dict(self):
        from repro.memory import for_broadwell
        from repro.platforms import broadwell

        h = for_broadwell(broadwell(), scale=0.0005)
        a = h.run_lines(range(512))
        h.reset()
        b = h.run_lines(range(512))
        merged = a.merge(b)
        assert merged["L1"].accesses == a["L1"].accesses + b["L1"].accesses
        d = merged.as_dict()
        assert d["L1"]["accesses"] == merged["L1"].accesses
        assert set(d) == {lvl.name for lvl in merged.levels}

    def test_merge_shape_mismatch(self):
        from repro.memory.stats import HierarchyStats, LevelStats

        a = HierarchyStats(levels=[LevelStats(name="L1", line=64)])
        b = HierarchyStats(levels=[LevelStats(name="L2", line=64)])
        with pytest.raises(ValueError):
            a.merge(b)


class TestEmptyDataTable:
    def test_zero_row_table_renders_header(self):
        from repro.experiments.results import DataTable

        t = DataTable(name="telemetry", columns=("phase", "count"), rows=[])
        text = t.render()
        assert "phase" in text and "count" in text
        assert text.splitlines()[0] == "telemetry"
