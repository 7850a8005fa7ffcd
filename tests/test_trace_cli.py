"""The `repro trace` analysis suite: loader, renderers, CLI plumbing."""

import json

import pytest

from repro.cli import main
from repro.telemetry import analyze

#: A small two-generation trace: a parallel batch (task + shipped
#: worker experiment span) followed by an appended second run whose
#: span ids restart at 1 — plus one truncated line mid-file.
SPANS_RUN1 = [
    {
        "type": "span",
        "span_id": 3,
        "parent_id": 2,
        "name": "experiment",
        "attrs": {"id": "fig6", "quick": True},
        "start_s": 10.01,
        "duration_s": 0.40,
    },
    {
        "type": "span",
        "span_id": 2,
        "parent_id": 1,
        "name": "task",
        "attrs": {"id": "fig6", "status": "done"},
        "start_s": 10.0,
        "duration_s": 0.50,
    },
    {
        "type": "span",
        "span_id": 1,
        "parent_id": None,
        "name": "batch",
        "attrs": {"jobs": 2},
        "start_s": 9.9,
        "duration_s": 0.70,
    },
]
SPANS_RUN2 = [
    {
        "type": "span",
        "span_id": 1,
        "parent_id": None,
        "name": "experiment",
        "attrs": {"id": "eq1"},
        "start_s": 1.0,
        "duration_s": 0.10,
    },
]


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps(r) for r in SPANS_RUN1]
    lines.append('{"type": "span", "span_id": 9, "trunca')
    lines.append(json.dumps({"type": "manifest", "run_id": "abc"}))
    lines.extend(json.dumps(r) for r in SPANS_RUN2)
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadTrace:
    def test_links_and_generations(self, trace_path):
        trace = analyze.load_trace(trace_path)
        assert len(trace.spans) == 4
        assert trace.n_skipped_lines == 1
        assert trace.n_manifests == 1
        # Two roots: run 1's batch and run 2's standalone experiment
        # (its reused span id 1 starts a new generation).
        assert [r.name for r in trace.roots] == ["experiment", "batch"]
        batch = next(r for r in trace.roots if r.name == "batch")
        (task,) = batch.children
        assert task.name == "task"
        (experiment,) = task.children
        assert experiment.name == "experiment"
        assert experiment.attrs["id"] == "fig6"

    def test_self_time_clamped(self, trace_path):
        trace = analyze.load_trace(trace_path)
        batch = next(r for r in trace.roots if r.name == "batch")
        assert batch.self_s == pytest.approx(0.20)
        leaf = batch.children[0].children[0]
        assert leaf.self_s == pytest.approx(0.40)


class TestAnalysis:
    def test_render_tree_indents_and_offsets(self, trace_path):
        text = analyze.render_tree(analyze.load_trace(trace_path))
        lines = text.splitlines()
        assert len(lines) == 4
        batch_line = next(ln for ln in lines if "batch" in ln)
        assert "700.00ms" in batch_line and "jobs=2" in batch_line
        task_line = next(ln for ln in lines if "  task" in ln)
        assert "+100.00ms" in task_line  # offset from the batch root

    def test_max_depth_truncates(self, trace_path):
        text = analyze.render_tree(
            analyze.load_trace(trace_path), max_depth=1
        )
        assert "task" in text
        assert "quick" not in text  # the experiment child sits at depth 2

    def test_critical_path_follows_gating_child(self, trace_path):
        steps = analyze.critical_path(analyze.load_trace(trace_path))
        assert [s.node.name for s in steps] == [
            "batch",
            "task",
            "experiment",
        ]
        assert steps[0].self_on_path_s == pytest.approx(0.20)
        assert steps[1].self_on_path_s == pytest.approx(0.10)
        assert steps[2].self_on_path_s == pytest.approx(0.40)

    def test_critical_path_chains_back_to_back_siblings(self, tmp_path, capsys):
        """A serial batch: the path runs through every task in turn and
        descends into the longest one, not the one that finished last."""
        spans = [  # (id, parent, name, start, end)
            (1, None, "batch", 0.00, 1.00),
            (2, 1, "cache.lookup", 0.01, 0.02),
            (3, 1, "task", 0.05, 0.25),
            (4, 1, "task", 0.26, 0.86),
            (5, 4, "experiment", 0.27, 0.85),
            (6, 5, "kernel.trace", 0.28, 0.38),
            (7, 5, "hierarchy.run", 0.40, 0.80),
            (8, 1, "pool.reap", 0.30, 0.50),  # overlaps: not on the chain
            (9, 1, "task", 0.87, 0.97),
        ]
        path = tmp_path / "serial.jsonl"
        path.write_text(
            "".join(
                json.dumps(
                    {
                        "type": "span",
                        "span_id": sid,
                        "parent_id": parent,
                        "name": name,
                        "attrs": {"n": sid},
                        "start_s": start,
                        "duration_s": end - start,
                    }
                )
                + "\n"
                for sid, parent, name, start, end in spans
            )
        )
        steps = analyze.critical_path(analyze.load_trace(path))
        assert [(s.node.attrs["n"], s.depth) for s in steps] == [
            (1, 0), (2, 1), (3, 1), (4, 1), (5, 2), (6, 3), (7, 3), (9, 1),
        ]
        assert [s.self_on_path_s for s in steps] == pytest.approx(
            [0.09, 0.01, 0.20, 0.02, 0.08, 0.10, 0.40, 0.10]
        )
        assert sum(s.self_on_path_s for s in steps) == pytest.approx(1.0)
        assert main(["trace", "critical-path", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["depth"] for s in payload["steps"]] == [s.depth for s in steps]

    def test_aggregate_orders_by_total(self, trace_path):
        rows = analyze.aggregate_spans(analyze.load_trace(trace_path))
        assert [r.name for r in rows] == ["batch", "experiment", "task"]
        experiment = rows[1]
        assert experiment.count == 2
        assert experiment.total_s == pytest.approx(0.50)
        assert experiment.p50_s == pytest.approx(0.10)
        assert experiment.p99_s == pytest.approx(0.40)

    def test_percentiles_exact_on_known_series(self):
        values = sorted(float(i) for i in range(1, 101))
        assert analyze._percentile(values, 0.50) == 50.0
        assert analyze._percentile(values, 0.99) == 99.0
        assert analyze._percentile(values, 1.0) == 100.0
        assert analyze._percentile([], 0.5) == 0.0

    def test_fold_stacks_self_time_microseconds(self, trace_path):
        folded = dict(
            line.rsplit(" ", 1)
            for line in analyze.fold_stacks(analyze.load_trace(trace_path))
        )
        assert folded["batch"] == "200000"
        assert folded["batch;task"] == "100000"
        assert folded["batch;task;experiment"] == "400000"
        assert folded["experiment"] == "100000"  # run 2's root


class TestTraceCli:
    def test_tree(self, trace_path, capsys):
        assert main(["trace", "tree", str(trace_path)]) == 0
        out = capsys.readouterr()
        assert "batch" in out.out and "experiment" in out.out
        assert "skipped 1 undecodable line(s)" in out.err

    def test_critical_path_json(self, trace_path, capsys):
        assert (
            main(
                [
                    "trace",
                    "critical-path",
                    str(trace_path),
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_skipped_lines"] == 1
        assert [s["name"] for s in payload["steps"]] == [
            "batch",
            "task",
            "experiment",
        ]

    def test_top_json(self, trace_path, capsys):
        assert (
            main(["trace", "top", str(trace_path), "--format", "json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_spans"] == 4
        names = {row["name"]: row["count"] for row in payload["rows"]}
        assert names == {"batch": 1, "task": 1, "experiment": 2}

    def test_flame_to_file(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "out.folded"
        assert (
            main(
                ["trace", "flame", str(trace_path), "-o", str(out_path)]
            )
            == 0
        )
        assert "batch;task;experiment 400000" in out_path.read_text()

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["trace", "top", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_empty_trace_messages(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        for sub in (["tree"], ["critical-path"], ["top"], ["flame"]):
            assert main(["trace", *sub, str(path)]) == 0
        assert "(no spans in trace)" in capsys.readouterr().out
