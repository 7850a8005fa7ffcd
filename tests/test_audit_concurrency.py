"""Tests for the concurrency-aware audit families: ASYNC, LIFE.

Every rule gets a trigger fixture (the violation fires) and a pass
fixture (the sanctioned idiom stays silent), mirroring the call sites
in ``serve/app.py`` and the telemetry layer. The result cache's lock
discipline is pinned by its own tests in ``tests/test_serve_cache.py``.
Fixture modules are written into a ``repro/...``-shaped temp tree so
module scoping behaves exactly as on the real package.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.audit import run_audit
from repro.audit.engine import default_rules

SRC_DIR = Path(repro.__file__).resolve().parent.parent
PACKAGE_DIR = Path(repro.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent


def write(root: Path, rel: str, code: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return path


def findings_for(root: Path, *, select=None):
    findings, _ = run_audit([root], select=select)
    return findings


def rule_ids(findings) -> set[str]:
    return {f.rule_id for f in findings}


# -- ASYNC001 -----------------------------------------------------------------


def test_async001_flags_blocking_calls_in_async_def(tmp_path):
    write(
        tmp_path,
        "repro/serve/h.py",
        """
        import subprocess
        import time

        async def handler(cache, key):
            time.sleep(0.1)
            subprocess.run(["ls"])
            open("x").read()
            return cache.get_payload(key)
        """,
    )
    findings = findings_for(tmp_path, select=["ASYNC001"])
    assert len(findings) == 4
    assert "time.sleep" in findings[0].message
    assert all("async def handler" in f.message for f in findings)
    # The server runs no helper thread, so the remedy is the pool only.
    assert all(f.message.endswith("stalls the event loop; move it to the worker pool")
               for f in findings)
    assert not any("to_thread" in f.message for f in findings)


def test_async001_passes_sync_code_and_to_thread_dispatch(tmp_path):
    write(
        tmp_path,
        "repro/serve/h.py",
        """
        import asyncio
        import time

        def sync_helper(cache, key):
            time.sleep(0.1)
            return cache.get_payload(key)

        async def handler(cache, key):
            await asyncio.sleep(0)
            return await asyncio.to_thread(cache.get_payload, key)
        """,
    )
    assert findings_for(tmp_path, select=["ASYNC001"]) == []


# -- ASYNC002 -----------------------------------------------------------------


def test_async002_flags_shield_of_fresh_expression(tmp_path):
    write(
        tmp_path,
        "repro/serve/b.py",
        """
        import asyncio

        async def submit(job):
            return await asyncio.shield(run(job))
        """,
    )
    (finding,) = findings_for(tmp_path, select=["ASYNC002"])
    assert "owner" in finding.message


def test_async002_passes_shield_of_owned_future(tmp_path):
    write(
        tmp_path,
        "repro/serve/b.py",
        """
        import asyncio

        async def submit(self, job):
            future = self.pending[job]
            return await asyncio.shield(future)
        """,
    )
    assert findings_for(tmp_path, select=["ASYNC002"]) == []


# -- ASYNC003 -----------------------------------------------------------------


def test_async003_flags_discarded_task(tmp_path):
    write(
        tmp_path,
        "repro/serve/t.py",
        """
        import asyncio

        async def kick(loop):
            loop.create_task(drain())
            asyncio.ensure_future(drain())
        """,
    )
    findings = findings_for(tmp_path, select=["ASYNC003"])
    assert len(findings) == 2
    assert "discarded" in findings[0].message


def test_async003_passes_retained_task(tmp_path):
    write(
        tmp_path,
        "repro/serve/t.py",
        """
        import asyncio

        async def kick(self, loop):
            self._drainer = loop.create_task(drain())
            await asyncio.create_task(drain())
        """,
    )
    assert findings_for(tmp_path, select=["ASYNC003"]) == []


# -- LIFE001 ------------------------------------------------------------------


def test_life001_flags_begin_dropped_on_a_branch(tmp_path):
    write(
        tmp_path,
        "repro/serve/sp.py",
        """
        def handle(tracer, ok):
            sp = tracer.begin("t")
            if ok:
                tracer.finish(sp)
            return ok
        """,
    )
    (finding,) = findings_for(tmp_path, select=["LIFE001"])
    assert "non-raising path" in finding.message
    assert "'handle'" in finding.message


def test_life001_flags_bare_begin_statement(tmp_path):
    write(
        tmp_path,
        "repro/serve/sp.py",
        """
        def handle(tracer):
            tracer.begin("t")
        """,
    )
    (finding,) = findings_for(tmp_path, select=["LIFE001"])
    assert "dropped" in finding.message


def test_life001_flags_leak_through_loop_break(tmp_path):
    write(
        tmp_path,
        "repro/serve/sp.py",
        """
        def drain(tracer, queue):
            while queue:
                sp = tracer.begin("t")
                if not queue.pop():
                    break
                tracer.finish(sp)
        """,
    )
    (finding,) = findings_for(tmp_path, select=["LIFE001"])
    assert "'drain'" in finding.message


def test_life001_passes_try_finally_and_exception_paths(tmp_path):
    write(
        tmp_path,
        "repro/serve/sp.py",
        """
        def handle(tracer, work):
            sp = tracer.begin("t")
            try:
                work()
            finally:
                tracer.finish(sp)

        def raising(tracer, work):
            sp = tracer.begin("t")
            if not work:
                raise ValueError("no work")
            tracer.finish(sp)
        """,
    )
    assert findings_for(tmp_path, select=["LIFE001"]) == []


def test_life001_passes_none_guard_idiom(tmp_path):
    # The serve app's _dispatch shape: begin under enabled(), finish
    # under an `is not None` guard; the rule follows only the bound arm.
    write(
        tmp_path,
        "repro/serve/sp.py",
        """
        def dispatch(telemetry, request):
            sp = None
            if telemetry.enabled():
                sp = telemetry.get_tracer().begin("t")
            status = request()
            if sp is not None:
                telemetry.get_tracer().finish(sp)
            return status
        """,
    )
    assert findings_for(tmp_path, select=["LIFE001"]) == []


def test_life001_passes_ownership_transfer_forms(tmp_path):
    write(
        tmp_path,
        "repro/serve/sp.py",
        """
        def opened(tracer):
            return tracer.begin("t")

        def stored(self, tracer):
            self._sp = tracer.begin("t")

        def handed_off(tracer, flight):
            sp = tracer.begin("t")
            flight.attach(span=sp)
        """,
    )
    assert findings_for(tmp_path, select=["LIFE001"]) == []


# -- LIFE002 ------------------------------------------------------------------


def test_life002_flags_sink_touch_on_worker_path(tmp_path):
    write(
        tmp_path,
        "repro/runtime/w.py",
        """
        from repro import telemetry

        def entry(payload):
            telemetry.configure(enabled=True)
            return payload

        def main(pool):
            return pool.submit(entry, 1)
        """,
    )
    (finding,) = findings_for(tmp_path, select=["LIFE002"])
    assert "worker-reachable" in finding.message
    assert "worker_collection" in finding.message


def test_life002_passes_unreachable_and_sanctioned_code(tmp_path):
    write(
        tmp_path,
        "repro/runtime/w.py",
        """
        from repro import telemetry

        def cli_setup():
            telemetry.configure(enabled=True)  # not worker-reachable

        def entry(payload):
            return payload + 1

        def main(pool):
            return pool.submit(entry, 1)
        """,
    )
    assert findings_for(tmp_path, select=["LIFE002"]) == []


# -- SPAN002 and the sanctioned manual lifecycle ------------------------------


def test_span002_does_not_flag_manual_lifecycle_api(tmp_path):
    write(
        tmp_path,
        "repro/serve/manual.py",
        """
        def interleaved(tracer, work):
            sp = tracer.begin("t")
            sibling = tracer.allocate_id()
            work(sibling)
            tracer.finish(sp)
        """,
    )
    assert findings_for(tmp_path, select=["SPAN002"]) == []
    # ... and the whole-run view stays clean: LIFE001 owns the pairing.
    assert findings_for(tmp_path) == []


# -- suppression --------------------------------------------------------------


def test_multi_rule_same_line_suppression(tmp_path):
    # The rule list without a space after the comma.
    code = """
        import time
        import numpy as np

        def sample():
            return time.time(), np.random.rand(2){}
        """
    write(tmp_path, "repro/trace/m.py", code.format(""))
    assert rule_ids(findings_for(tmp_path)) == {"DET001", "DET002"}
    write(
        tmp_path,
        "repro/trace/m.py",
        code.format("  # audit: ignore[DET001,DET002]"),
    )
    assert findings_for(tmp_path) == []


# -- the real tree ------------------------------------------------------------


def test_merged_tree_is_clean_under_all_families():
    result = run_audit([PACKAGE_DIR, TESTS_DIR])
    assert result.findings == []
    assert result.n_files > 100
    assert set(result.rule_timings) == {
        r.rule_id for r in default_rules()
    }


# -- CLI: sarif, --stats, --changed -------------------------------------------


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", "audit", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={
            "PYTHONPATH": str(SRC_DIR),
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )


def test_cli_sarif_document_structure(tmp_path):
    write(
        tmp_path,
        "repro/serve/bad.py",
        """
        import time

        async def handler():
            time.sleep(1)
        """,
    )
    proc = run_cli("--format", "sarif", str(tmp_path))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-audit"
    rule_index = {r["id"]: i for i, r in enumerate(driver["rules"])}
    assert "ASYNC001" in rule_index and "PARSE001" in rule_index
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in ("error", "warning")
    (result,) = run["results"]
    assert result["ruleId"] == "ASYNC001"
    assert result["level"] == "error"
    assert result["ruleIndex"] == rule_index["ASYNC001"]
    assert result["message"]["text"]
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("repro/serve/bad.py")
    assert location["region"]["startLine"] == 5


def test_cli_sarif_clean_tree_has_no_results(tmp_path):
    write(tmp_path, "repro/serve/ok.py", "X = 1\n")
    proc = run_cli("--format", "sarif", str(tmp_path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["runs"][0]["results"] == []


def test_cli_stats_reports_per_rule_timing(tmp_path):
    write(tmp_path, "repro/serve/ok.py", "X = 1\n")
    proc = run_cli("--stats", str(tmp_path))
    assert proc.returncode == 0
    assert "stats: total" in proc.stderr
    assert "LIFE001" in proc.stderr
    proc = run_cli("--stats", "--format", "json", str(tmp_path))
    doc = json.loads(proc.stdout)
    timings = doc["summary"]["timings"]
    assert set(timings) == {r.rule_id for r in default_rules()}
    assert all(isinstance(v, float) for v in timings.values())


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        [
            "git",
            "-c",
            "user.email=audit@test",
            "-c",
            "user.name=audit",
            *args,
        ],
        cwd=repo,
        check=True,
        capture_output=True,
        env={"PATH": "/usr/bin:/bin", "HOME": str(repo)},
    )


def test_cli_changed_scans_only_git_modified_files(tmp_path):
    repo = tmp_path / "checkout"
    write(repo, "repro/trace/stable.py", "import time\nT = time.time()\n")
    write(repo, "repro/trace/edited.py", "X = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "seed")
    # stable.py has a DET002 finding but is untouched; edited.py gains
    # one, and an untracked file brings a DET001.
    write(
        repo,
        "repro/trace/edited.py",
        "import time\n\ndef f():\n    return time.time()\n",
    )
    write(
        repo,
        "repro/trace/fresh.py",
        "import numpy as np\n\ndef g():\n    return np.random.rand(2)\n",
    )
    proc = run_cli("--changed", "--format", "json", cwd=repo)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["summary"]["by_rule"] == {"DET001": 1, "DET002": 1}
    assert doc["summary"]["files_scanned"] == 2
    paths = {f["path"] for f in doc["findings"]}
    assert all("stable.py" not in p for p in paths)


def test_cli_changed_outside_git_checkout_is_usage_error(tmp_path):
    lonely = tmp_path / "nowhere"
    lonely.mkdir()
    proc = run_cli("--changed", cwd=lonely)
    assert proc.returncode == 2
    assert "git" in proc.stderr
