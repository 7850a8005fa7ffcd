"""End-to-end CLI tests: ``python -m repro`` in a real subprocess.

These exercise the installed-entry-point behaviour (argument parsing,
exit codes, files on disk) that in-process ``main()`` calls can mask.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def run_cli(*args: str, timeout: float = 300.0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=str(REPO_ROOT),
    )


class TestListAndRun:
    def test_list(self):
        proc = run_cli("list")
        assert proc.returncode == 0
        assert "fig6" in proc.stdout
        assert "table5" in proc.stdout

    def test_run_fig6_quiet_csv_dir(self, tmp_path):
        proc = run_cli("run", "fig6", "--quiet", "--csv-dir", str(tmp_path))
        assert proc.returncode == 0
        assert proc.stdout.strip() == ""  # --quiet suppresses rendering
        csvs = sorted(p.name for p in (tmp_path / "fig6").glob("*.csv"))
        assert csvs, "no CSVs written"
        assert all("wrote" in line for line in proc.stderr.splitlines())

    def test_unknown_id_exit_2(self):
        proc = run_cli("run", "fig99")
        assert proc.returncode == 2
        assert "unknown experiment" in proc.stderr
        assert "valid ids:" in proc.stderr


class TestUsageErrors:
    """Bad arguments exit 2 with a message, never a traceback or a hang."""

    @pytest.mark.parametrize(
        "args", [("--reps", "0"), ("--reps", "-1"), ("--scale", "-1")]
    )
    def test_energy_rejects_bad_arguments(self, args):
        proc = run_cli("energy", "--kernel", "stream", *args, timeout=60)
        assert proc.returncode == 2
        assert f"argument {args[0]}: must be > 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_serve_bench_rejects_unreachable_distinct(self, tmp_path):
        out = tmp_path / "bench.json"
        proc = run_cli("serve-bench", "--distinct", "31", "-o", str(out), timeout=60)
        assert proc.returncode == 2
        assert "1..30 distinct advise queries" in proc.stderr
        assert not out.exists()


class TestTraceFlag:
    def test_trace_emits_valid_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        proc = run_cli("run", "fig6", "--quiet", "--trace", str(path))
        assert proc.returncode == 0
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert records, "trace file is empty"
        spans = [r for r in records if r["type"] == "span"]
        manifests = [r for r in records if r["type"] == "manifest"]
        # Nested spans: the experiment root plus per-phase children.
        assert any(r["parent_id"] is None for r in spans)
        assert any(r["parent_id"] is not None for r in spans)
        assert {r["name"] for r in spans} >= {"experiment", "stepping.curve"}
        assert all(r["duration_s"] >= 0 for r in spans)
        (manifest,) = manifests
        assert manifest["experiment_id"] == "fig6"
        assert manifest["status"] == "ok"
        assert manifest["wall_time_s"] > 0

    def test_trace_result_carries_telemetry_table(self, tmp_path):
        path = tmp_path / "t.jsonl"
        proc = run_cli("run", "fig6", "--trace", str(path))
        assert proc.returncode == 0
        assert "telemetry" in proc.stdout


class TestProfileSubcommand:
    def test_profile_fig6(self):
        proc = run_cli("profile", "fig6")
        assert proc.returncode == 0
        assert "== profile: fig6 ==" in proc.stdout
        assert "phase" in proc.stdout and "self_s" in proc.stdout
        assert "stepping.curve" in proc.stdout
        assert "manifest" in proc.stdout

    def test_profile_with_trace(self, tmp_path):
        path = tmp_path / "p.jsonl"
        proc = run_cli("profile", "fig6", "--trace", str(path))
        assert proc.returncode == 0
        types = {
            json.loads(line)["type"]
            for line in path.read_text().splitlines()
            if line.strip()
        }
        assert types >= {"span", "manifest"}


@pytest.mark.parametrize("exp_id", ["ext4"])
class TestKernelPhaseSpans:
    def test_trace_has_kernel_spans(self, tmp_path, exp_id):
        """Experiments that drive the exact simulator emit one span per
        kernel phase (trace generation + hierarchy walk)."""
        path = tmp_path / "k.jsonl"
        proc = run_cli("run", exp_id, "--quiet", "--trace", str(path))
        assert proc.returncode == 0
        names = [
            json.loads(line)["name"]
            for line in path.read_text().splitlines()
            if line.strip() and json.loads(line)["type"] == "span"
        ]
        assert "kernel.trace" in names
        assert "hierarchy.run" in names
