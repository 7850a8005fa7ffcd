"""Tests of the benchmark itself: self-time accounting, the traffic
generator, the correctness checks, and the bypass predictions.

    python3 -m pytest perfbench -q

The bypass tests run one traced pass of every workload (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layerdiff  # noqa: E402
import layers  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


# -- self time -------------------------------------------------------------------


def test_nested_layers_report_self_time():
    rec = layers.Layers()
    inner = rec.timed(lambda: "inner", lambda: _spin(0.05))

    def outer_body():
        _spin(0.02)
        inner()
        inner()

    rec.timed(lambda: "outer", outer_body)()
    assert rec.calls == {"outer": 1, "inner": 2}
    assert rec.self_s["inner"] == pytest.approx(0.10, abs=0.02)
    assert rec.self_s["outer"] == pytest.approx(0.02, abs=0.015)


def test_iterator_time_is_charged_to_its_layer_not_the_consumer():
    rec = layers.Layers()

    def chunks():
        for _ in range(3):
            _spin(0.02)
            yield ([0] * 10, None)

    def consume(items):
        for _ in items:
            _spin(0.01)

    rec.timed(lambda items: "memory", consume)(rec.timed_iter("trace", chunks()))
    assert rec.counts["trace.refs"] == 30
    assert rec.self_s["trace"] == pytest.approx(0.06, abs=0.02)
    assert rec.self_s["memory"] == pytest.approx(0.03, abs=0.015)


def test_snapshot_merges_into_another_recorder():
    a, b = layers.Layers(), layers.Layers()
    a.timed(lambda: "x", lambda: None)()
    a.samples["pool"].append(0.5)
    b.merge(a.snapshot())
    b.merge(a.snapshot())
    assert b.calls["x"] == 2
    assert b.samples["pool"] == [0.5, 0.5]


# -- speed probe -------------------------------------------------------------------


def test_probe_rescales_to_the_reference_speed():
    # Twice as slow as the reference, and 0.1 s spent in the probe itself.
    summary = {"mean_s": 2 * worker.SpeedProbe.REF_S, "spent_s": 0.1}
    assert worker.SpeedProbe.scale(2.1, summary) == pytest.approx(1.0)


def test_probe_samples_while_the_work_runs():
    probe = worker.SpeedProbe()
    probe.start()
    try:
        _spin(0.3)
    finally:
        probe.stop()
    summary = probe.summary(0.0, float("inf"))
    assert len(probe.samples) >= 10
    assert 0.0 < summary["spent_s"] < 0.3
    assert summary["mean_s"] == pytest.approx(summary["spent_s"] / len(probe.samples))


# -- traffic -----------------------------------------------------------------------


def test_traffic_is_seeded_and_keeps_producing_distinct_queries():
    bodies, order = queries.traffic(3, 5000)
    assert (bodies, order) == queries.traffic(3, 5000)
    assert bodies != queries.traffic(4, 5000)[0]
    assert len(order) == 5000
    assert len(bodies) > 1000
    assert max(order) == len(bodies) - 1


def test_every_generated_query_is_valid():
    from repro.serve import advisor

    bodies, _ = queries.traffic(5, 600)
    kernels = set()
    for body in bodies:
        canonical = advisor.normalize(json.loads(body))
        kernels.add(canonical["kernel"])
    assert kernels == set(queries.KERNELS)


# -- correctness checks --------------------------------------------------------------


def test_digest_mismatch_counts_as_failed():
    reference = run._reference_digests()["quick"]
    good = {"id": "ext4", "status": "done", "digest": reference["ext4"], "error": None}
    bad = dict(good, id="ext8", digest="0" * 64)
    crashed = dict(good, status="failed", digest=None, error="boom")
    assert run._check_outcomes([{"outcomes": [good]}], quick=True) == (1, 0)
    assert run._check_outcomes([{"outcomes": [good, bad, crashed]}], quick=True) == (3, 2)


def test_served_answer_must_match_offline_advisor_byte_for_byte():
    from repro.serve import advisor

    bodies = [json.dumps({"kernel": "stream", "params": {"n": 4096}}).encode()]
    answer = dict(advisor.advise(json.loads(bodies[0])), meta={"cache": "miss"})
    wire = json.dumps(answer, sort_keys=True, separators=(",", ":")).encode()
    good = {"status": 200, "body": 0, "data": wire}
    altered = dict(good, data=wire.replace(b'"schema":2', b'"schema":3'))
    refused = dict(good, status=503)
    assert worker.check_answers(bodies, [good]) == 0
    assert worker.check_answers(bodies, [good, altered, refused]) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- layer diff ----------------------------------------------------------------------


def test_layerdiff_reports_changed_layers(tmp_path, capsys):
    for side, value in (("before", 2.0), ("after", 1.5)):
        (tmp_path / side).mkdir()
        doc = {"metrics": {"engine.estimate_s": {"value": value, "unit": "s"},
                           "memory.replay_plain_s": {"value": 0.0, "unit": "s"}}}
        (tmp_path / side / "sweep.json").write_text(json.dumps(doc))
    assert layerdiff.main([str(tmp_path / "before"), str(tmp_path / "after")]) == 0
    out = capsys.readouterr().out
    assert "engine.estimate_s" in out and "-25.0%" in out
    assert "memory.replay_plain_s" not in out


# -- bypass predictions (one traced run per workload) ---------------------------------


@pytest.fixture(scope="module")
def traced():
    def run_traced(workload: str) -> dict:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "4", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        doc = json.loads(proc.stdout.splitlines()[-1])
        assert doc["correct"], doc
        return {k: v["value"] for k, v in doc["metrics"].items()}

    return {w: run_traced(w) for w in ("replay", "sweep", "serve")}


def test_replay_never_calls_the_engine(traced):
    m = traced["replay"]
    assert m["engine.estimate_calls"] == 0
    assert m["memory.replay_prefetch_refs"] > 0 and m["memory.replay_plain_refs"] > 0
    assert m["memory.replay_prefetch_refs"] + m["memory.replay_plain_refs"] == m["kernels.trace_refs"]
    assert m["power.price_calls"] > 0


def test_sweep_and_serve_never_replay(traced):
    for workload in ("sweep", "serve"):
        m = traced[workload]
        assert m["memory.replay_calls"] == 0
        assert m["kernels.trace_refs"] == 0
        assert m["engine.estimate_calls"] > 0


def test_serve_stages_are_measured(traced):
    m = traced["serve"]
    assert m["serve.handle_p50_ms"] > 0 and m["serve.pool_p50_ms"] > 0
    assert m["runtime.cache_get_calls"] > m["runtime.cache_put_calls"] > 0
    ratios = m["runtime.cache_hot_ratio"] + m["runtime.cache_disk_ratio"] + m["runtime.cache_miss_ratio"]
    assert ratios == pytest.approx(1.0)


@pytest.mark.parametrize("workload", ["replay", "sweep"])
def test_named_layers_explain_most_of_the_wall_time(traced, workload):
    assert traced[workload]["attributed_ratio"] >= 0.8
