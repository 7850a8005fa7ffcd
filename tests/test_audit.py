"""Tests for ``repro.audit``: engine, every rule, suppression, CLI.

Fixture modules are written into a ``repro/...``-shaped temp tree so
module-name resolution (and therefore rule scoping) behaves exactly as
it does on the real package.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.audit import run_audit
from repro.audit.callgraph import CallGraph
from repro.audit.engine import (
    PARSE_RULE_ID,
    Finding,
    default_rules,
    discover_files,
    load_module,
    module_name_for,
)
from repro.audit.registry_rules import expected_id

SRC_DIR = Path(repro.__file__).resolve().parent.parent
PACKAGE_DIR = Path(repro.__file__).resolve().parent


def write(root: Path, rel: str, code: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return path


def findings_for(root: Path, *, select=None) -> list[Finding]:
    findings, _ = run_audit([root], select=select)
    return findings


def rule_ids(findings) -> set[str]:
    return {f.rule_id for f in findings}


# -- engine -------------------------------------------------------------------


def test_default_rules_cover_all_shipped_ids():
    assert [r.rule_id for r in default_rules()] == [
        "DET001",
        "DET002",
        "SPAN001",
        "SPAN002",
        "PURE001",
        "PURE002",
        "UNIT001",
        "REG001",
        "ASYNC001",
        "ASYNC002",
        "ASYNC003",
        "LIFE001",
        "LIFE002",
    ]


def test_module_name_resolution_anchors_at_package_root(tmp_path):
    path = tmp_path / "deep" / "repro" / "trace" / "gen.py"
    assert module_name_for(path) == "repro.trace.gen"
    init = tmp_path / "repro" / "memory" / "__init__.py"
    assert module_name_for(init) == "repro.memory"
    assert module_name_for(tmp_path / "random_script.py") == ""


def test_unparsable_file_is_a_parse_finding(tmp_path):
    write(tmp_path, "repro/trace/broken.py", "def f(:\n")
    findings = findings_for(tmp_path)
    assert [f.rule_id for f in findings] == [PARSE_RULE_ID]


def test_unknown_select_rule_raises(tmp_path):
    with pytest.raises(ValueError, match="NOPE001"):
        run_audit([tmp_path], select=["NOPE001"])


def test_select_restricts_to_named_rules(tmp_path):
    write(
        tmp_path,
        "repro/trace/bad.py",
        """
        import time
        import numpy as np

        def f():
            return time.time(), np.random.rand(3)
        """,
    )
    assert rule_ids(findings_for(tmp_path)) == {"DET001", "DET002"}
    assert rule_ids(findings_for(tmp_path, select=["DET002"])) == {"DET002"}


# -- suppression --------------------------------------------------------------


def test_suppression_comment_silences_named_rule(tmp_path):
    write(
        tmp_path,
        "repro/trace/sup.py",
        """
        import time

        def f():
            return time.time()  # audit: ignore[DET002]
        """,
    )
    assert findings_for(tmp_path) == []


def test_suppression_of_other_rule_does_not_silence(tmp_path):
    write(
        tmp_path,
        "repro/trace/sup.py",
        """
        import time

        def f():
            return time.time()  # audit: ignore[DET001]
        """,
    )
    assert rule_ids(findings_for(tmp_path)) == {"DET002"}


def test_bare_suppression_silences_every_rule_on_line(tmp_path):
    write(
        tmp_path,
        "repro/trace/sup.py",
        """
        import time
        import numpy as np

        def f():
            return time.time(), np.random.rand(2)  # audit: ignore
        """,
    )
    assert findings_for(tmp_path) == []


def test_suppression_list_handles_multiple_rules(tmp_path):
    write(
        tmp_path,
        "repro/trace/sup.py",
        """
        import time
        import numpy as np

        def f():
            return time.time(), np.random.rand(2)  # audit: ignore[DET001, DET002]
        """,
    )
    assert findings_for(tmp_path) == []


# -- DET001 -------------------------------------------------------------------


def test_det001_triggers_on_stdlib_and_numpy_global_rng(tmp_path):
    write(
        tmp_path,
        "repro/kernels/bad.py",
        """
        import random
        import numpy as np

        def f():
            a = random.randint(0, 5)
            b = np.random.rand(3)
            c = np.random.default_rng()
            return a, b, c
        """,
    )
    findings = [f for f in findings_for(tmp_path) if f.rule_id == "DET001"]
    assert len(findings) == 3
    assert "random.randint" in findings[0].message
    assert "numpy.random.rand" in findings[1].message
    assert "without a seed" in findings[2].message


def test_det001_passes_on_seeded_generators(tmp_path):
    write(
        tmp_path,
        "repro/kernels/good.py",
        """
        import random
        import numpy as np

        def f(seed):
            rng = np.random.default_rng(seed)
            legacy = random.Random(seed)
            return rng.integers(0, 5), legacy.random()
        """,
    )
    assert findings_for(tmp_path) == []


def test_det001_scope_excludes_orchestration_code(tmp_path):
    write(
        tmp_path,
        "repro/runtime/jitterer.py",
        """
        import random

        def backoff_jitter():
            return random.random()
        """,
    )
    assert findings_for(tmp_path) == []


# -- DET002 -------------------------------------------------------------------


def test_det002_triggers_on_wall_clock_in_simulation_code(tmp_path):
    write(
        tmp_path,
        "repro/memory/bad.py",
        """
        import time
        from datetime import datetime

        def f():
            return time.perf_counter(), datetime.now()
        """,
    )
    findings = [f for f in findings_for(tmp_path) if f.rule_id == "DET002"]
    assert len(findings) == 2
    messages = " | ".join(f.message for f in findings)
    assert "time.perf_counter" in messages
    assert "datetime.datetime.now" in messages


def test_det002_passes_outside_simulation_scope(tmp_path):
    write(
        tmp_path,
        "repro/telemetry/clocky.py",
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    assert findings_for(tmp_path) == []


# -- SPAN001 ------------------------------------------------------------------


def test_span001_triggers_on_unregistered_literal_and_fstring(tmp_path):
    write(
        tmp_path,
        "repro/engine/bad.py",
        """
        from repro import telemetry

        def f(k):
            with telemetry.span("definitely.not.registered"):
                pass
            telemetry.counter(f"adhoc.{k}").inc()
        """,
    )
    findings = [f for f in findings_for(tmp_path) if f.rule_id == "SPAN001"]
    assert len(findings) == 2
    assert "not in the canonical registry" in findings[0].message
    assert "dynamically formatted" in findings[1].message


def test_span001_passes_on_registry_names_and_constants(tmp_path):
    write(
        tmp_path,
        "repro/engine/good.py",
        """
        from repro import telemetry
        from repro.telemetry import names as tm
        from repro.telemetry.names import SPAN_BATCH

        def f(kernel):
            with telemetry.span("hierarchy.run"):
                pass
            with telemetry.span(tm.SPAN_TASK):
                pass
            with telemetry.span(SPAN_BATCH):
                pass
            telemetry.counter(tm.kernel_trace_events(kernel)).inc()
            telemetry.counter("kernel.spmv.trace_events").inc()
        """,
    )
    assert findings_for(tmp_path) == []


# -- SPAN002 ------------------------------------------------------------------


def test_span002_triggers_on_span_outside_with(tmp_path):
    write(
        tmp_path,
        "repro/engine/bad.py",
        """
        from repro import telemetry

        def f():
            sp = telemetry.span("hierarchy.run")
            telemetry.span("hierarchy.run")
            return sp
        """,
    )
    findings = [f for f in findings_for(tmp_path) if f.rule_id == "SPAN002"]
    assert len(findings) == 2


def test_span002_passes_on_with_block_and_returned_wrapper(tmp_path):
    write(
        tmp_path,
        "repro/engine/good.py",
        """
        from repro import telemetry

        def f():
            with telemetry.span("hierarchy.run") as sp:
                sp.set_attr("refs", 1)

        def facade(name):
            return telemetry.span(name)
        """,
    )
    assert findings_for(tmp_path) == []


# -- PURE001 ------------------------------------------------------------------

def test_pure001_triggers_on_global_and_container_writes(tmp_path):
    write(
        tmp_path,
        "repro/experiments/fig01_bad.py",
        """
        from repro.experiments.registry import register
        _MEMO = {}
        _TOTAL = 0

        def helper(x):
            global _TOTAL
            _TOTAL += x
            _MEMO[x] = x * 2

        @register("fig1", "t", "Figure 1")
        def run(quick=True):
            helper(3)
            return None
        """,
    )
    findings = [f for f in findings_for(tmp_path) if f.rule_id == "PURE001"]
    messages = " | ".join(f.message for f in findings)
    assert "declares global _TOTAL" in messages
    assert "module-level container '_MEMO'" in messages


def test_pure001_reaches_through_pool_submit(tmp_path):
    write(
        tmp_path,
        "repro/runtime/shipit.py",
        """
        from concurrent.futures import ProcessPoolExecutor

        _SEEN = {}

        def worker_entry(task):
            _SEEN[task] = True
            return task

        def dispatch(tasks):
            with ProcessPoolExecutor() as pool:
                return [pool.submit(worker_entry, t) for t in tasks]
        """,
    )
    findings = [f for f in findings_for(tmp_path) if f.rule_id == "PURE001"]
    assert len(findings) == 1
    assert "worker_entry" in findings[0].message


def test_pure001_reaches_through_process_target(tmp_path):
    write(
        tmp_path,
        "repro/serve/shard.py",
        """
        import multiprocessing

        _SEEN = {}

        def shard_main(conn):
            _SEEN[conn] = True

        def start(conn):
            proc = multiprocessing.Process(target=shard_main, args=(conn,))
            proc.start()
            return proc
        """,
    )
    findings = [f for f in findings_for(tmp_path) if f.rule_id == "PURE001"]
    assert len(findings) == 1
    assert "shard_main" in findings[0].message


def test_pure001_passes_on_process_target_with_local_state(tmp_path):
    write(
        tmp_path,
        "repro/serve/shard.py",
        """
        import multiprocessing

        _SEEN = {}

        def _remember(conn):
            # Called by the parent only: not reachable from the worker.
            _SEEN[conn] = True

        def shard_main(conn):
            seen = {}
            seen[conn] = True
            return seen

        def start(conn):
            proc = multiprocessing.Process(target=shard_main, args=(conn,))
            proc.start()
            _remember(conn)
            return proc
        """,
    )
    assert not [f for f in findings_for(tmp_path) if f.rule_id == "PURE001"]


def test_pure001_passes_on_local_state_and_unreachable_globals(tmp_path):
    write(
        tmp_path,
        "repro/experiments/fig02_good.py",
        """
        from repro.experiments.registry import register
        _IMPORT_TIME_REGISTRY = {}

        def _module_setup(key):
            # Not reachable from the driver: module plumbing may keep state.
            _IMPORT_TIME_REGISTRY[key] = True

        @register("fig2", "t", "Figure 2")
        def run(quick=True):
            memo = {}
            memo["local"] = 1
            total = 0
            total += 5
            return memo, total
        """,
    )
    assert findings_for(tmp_path) == []


# -- PURE002 ------------------------------------------------------------------


def test_pure002_triggers_on_unlisted_env_read(tmp_path):
    write(
        tmp_path,
        "repro/experiments/fig03_env.py",
        """
        from repro.experiments.registry import register
        import os

        @register("fig3", "t", "Figure 3")
        def run(quick=True):
            return os.environ.get("OPM_SECRET_TUNING"), os.environ["PATH"]
        """,
    )
    findings = [f for f in findings_for(tmp_path) if f.rule_id == "PURE002"]
    assert len(findings) == 2
    messages = " | ".join(f.message for f in findings)
    assert "'OPM_SECRET_TUNING'" in messages
    assert "'PATH'" in messages


def test_pure002_passes_on_allowlisted_env_reads(tmp_path):
    write(
        tmp_path,
        "repro/experiments/fig04_env.py",
        """
        from repro.experiments.registry import register
        import os

        ENV_SPEC = "OPM_REPRO_FAULTS"

        @register("fig4", "t", "Figure 4")
        def run(quick=True):
            direct = os.environ.get("OPM_REPRO_CACHE_DIR")
            via_constant = os.getenv(ENV_SPEC)
            return direct, via_constant
        """,
    )
    assert findings_for(tmp_path) == []


# -- UNIT001 ------------------------------------------------------------------


def test_unit001_triggers_on_mixed_add_sub_and_compare(tmp_path):
    write(
        tmp_path,
        "repro/memory/sizing.py",
        """
        def f(size_bytes, n_lines, n_elems):
            a = size_bytes + n_lines
            b = n_elems - size_bytes
            if n_lines > n_elems:
                return a, b
            return None
        """,
    )
    findings = [f for f in findings_for(tmp_path) if f.rule_id == "UNIT001"]
    assert len(findings) == 3
    assert "'size_bytes' is bytes" in findings[0].message
    assert "'n_lines' is lines" in findings[0].message


def test_unit001_passes_on_same_unit_conversion_and_calls(tmp_path):
    write(
        tmp_path,
        "repro/memory/sizing.py",
        """
        def to_bytes(n_lines, line_bytes):
            return n_lines * line_bytes

        def f(size_bytes, line_bytes, n_lines):
            same = size_bytes + line_bytes
            converted = size_bytes + to_bytes(n_lines, line_bytes)
            scaled = n_lines * line_bytes
            return same, converted, scaled
        """,
    )
    assert findings_for(tmp_path) == []


# -- REG001 -------------------------------------------------------------------


def test_reg001_expected_id_mapping():
    assert expected_id("fig06_stepping") == "fig6"
    assert expected_id("table02_kernels") == "table2"
    assert expected_id("ext07_cluster_modes") == "ext7"
    assert expected_id("eq01_energy_breakeven") == "eq1"
    assert expected_id("registry") is None
    assert expected_id("results") is None


def test_reg001_triggers_on_mismatch_and_missing_register(tmp_path):
    write(
        tmp_path,
        "repro/experiments/fig05_wrong.py",
        """
        from repro.experiments.registry import register
        @register("fig6", "t", "Figure 5")
        def run(quick=True):
            return None
        """,
    )
    write(
        tmp_path,
        "repro/experiments/table03_missing.py",
        """
        def run(quick=True):
            return None
        """,
    )
    findings = [f for f in findings_for(tmp_path) if f.rule_id == "REG001"]
    assert len(findings) == 2
    messages = " | ".join(f.message for f in findings)
    assert "registered id 'fig6'" in messages and "'fig5'" in messages
    assert "never registers" in messages


def test_reg001_passes_on_matching_id_and_helper_modules(tmp_path):
    write(
        tmp_path,
        "repro/experiments/fig07_fine.py",
        """
        from repro.experiments.registry import register
        @register("fig7", "t", "Figure 7")
        def run(quick=True):
            return None
        """,
    )
    write(
        tmp_path,
        "repro/experiments/sweeps.py",
        """
        def helper():
            return 1
        """,
    )
    assert findings_for(tmp_path) == []


# -- the real tree ------------------------------------------------------------


def test_merged_tree_is_audit_clean():
    findings, n_files = run_audit([PACKAGE_DIR])
    assert findings == []
    assert n_files > 100


def test_callgraph_reaches_the_pool_worker_on_the_real_tree():
    """The one worker is reached only through ``Process(target=_shard_main)``
    → ``_pool_worker``; losing that root would drop both worker kinds out
    of PURE001, PURE002 and LIFE002 without a finding to show it."""
    mods = [load_module(path) for path in discover_files([PACKAGE_DIR])]
    reachable = CallGraph(mods).reachable
    assert ("repro.runtime.pool", "_shard_main") in reachable
    assert ("repro.runtime.scheduler", "_worker_run") in reachable
    assert ("repro.serve.advisor", "evaluate") in reachable
    assert ("repro.experiments.fig06_stepping", "run") in reachable


# -- CLI ----------------------------------------------------------------------


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


def test_cli_exit_0_and_summary_on_clean_tree(tmp_path):
    write(tmp_path, "repro/trace/ok.py", "X = 1\n")
    proc = run_cli(str(tmp_path))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert "1 file(s) scanned, 0 findings" in proc.stderr


def test_cli_exit_1_and_text_findings(tmp_path):
    write(
        tmp_path,
        "repro/trace/bad.py",
        """
        import time

        def f():
            return time.time()
        """,
    )
    proc = run_cli(str(tmp_path))
    assert proc.returncode == 1
    assert "DET002" in proc.stdout
    assert "bad.py:5:" in proc.stdout


def test_cli_exit_2_on_unknown_rule_and_missing_path(tmp_path):
    proc = run_cli("--select", "BOGUS9", str(tmp_path))
    assert proc.returncode == 2
    assert "unknown rule id" in proc.stderr
    proc = run_cli(str(tmp_path / "nope"))
    assert proc.returncode == 2
    assert "no such path" in proc.stderr


def test_cli_json_schema(tmp_path):
    write(
        tmp_path,
        "repro/trace/bad.py",
        """
        import numpy as np

        def f():
            return np.random.rand(2)
        """,
    )
    proc = run_cli("--format", "json", str(tmp_path))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["version"] == 1
    assert doc["summary"]["files_scanned"] == 1
    assert doc["summary"]["findings"] == 1
    assert doc["summary"]["by_rule"] == {"DET001": 1}
    (finding,) = doc["findings"]
    assert set(finding) == {"rule_id", "path", "line", "message", "severity"}
    assert finding["rule_id"] == "DET001"
    assert finding["severity"] == "error"
    assert finding["line"] == 5


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in (
        "DET001",
        "DET002",
        "SPAN001",
        "SPAN002",
        "PURE001",
        "PURE002",
        "UNIT001",
        "REG001",
    ):
        assert rule_id in proc.stdout
