"""Fault injection and the deadline-correct scheduler timeout path.

Every unhappy path the scheduler must survive — hangs, crashes, flaky
tasks, hung and dying workers — is driven here through
:mod:`repro.runtime.faults` so no test sleeps longer than ~2 s.
"""

import multiprocessing
import os
import time

import pytest

from repro import telemetry
from repro.cli import main
from repro.runtime import (
    FaultInjected,
    FaultPlan,
    RunJournal,
    completed_tasks,
    run_batch,
)
from repro.runtime import faults
from repro.runtime.journal import final_statuses, read_entries
from repro.telemetry import names as tm


@pytest.fixture
def fault_state(tmp_path, monkeypatch):
    """Cross-process attempt-marker directory for the *_once behaviors."""
    state = tmp_path / "fault-state"
    monkeypatch.setenv(faults.ENV_STATE, str(state))
    return state


class TestFaultPlan:
    def test_parse_and_spec_round_trip(self):
        plan = FaultPlan.parse("a=hang; b=crash ;c=delay:0.5;d=flaky_once")
        assert plan.faults["a"].kind == "hang"
        assert plan.faults["b"].kind == "crash"
        assert plan.faults["c"].kind == "delay"
        assert plan.faults["c"].seconds == 0.5
        assert FaultPlan.parse(plan.as_spec()).faults == plan.faults

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("a=explode")

    def test_parse_rejects_clause_without_eq(self):
        with pytest.raises(ValueError, match="not 'id=kind'"):
            FaultPlan.parse("just-an-id")

    def test_parse_rejects_non_numeric_delay(self):
        with pytest.raises(ValueError, match="numeric ':SECS'"):
            FaultPlan.parse("a=delay:soon")

    def test_empty_plan_is_falsy_noop(self):
        assert not FaultPlan()
        faults.apply("anything")  # no plan installed or in env: no-op

    def test_env_crash_applies_only_to_named_id(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "x=crash")
        with pytest.raises(FaultInjected):
            faults.apply("x")
        faults.apply("y")

    def test_flaky_once_with_state_dir_fires_once(
        self, fault_state, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_SPEC, "x=flaky_once")
        with pytest.raises(FaultInjected):
            faults.apply("x")
        faults.apply("x")  # marker recorded: second attempt passes

    def test_install_overrides_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "x=crash")
        faults.install(FaultPlan())
        try:
            faults.apply("x")  # installed empty plan wins over env
        finally:
            faults.install(None)
        with pytest.raises(FaultInjected):
            faults.apply("x")

    def test_delay_sleeps(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "x=delay:0.05")
        start = time.monotonic()
        faults.apply("x")
        assert time.monotonic() - start >= 0.05


class TestDeadlineTimeout:
    def test_hang_times_out_on_its_own_clock_and_pool_recycles(
        self, monkeypatch, tmp_path
    ):
        """A hung task is declared dead ~timeout s after ITS start.

        The slow-but-honest sibling finishes normally and must not have
        its wait charged to the hung task's clock (the pre-fix scheduler
        waited on futures in submission order).
        """
        monkeypatch.setenv(
            faults.ENV_SPEC, "table2=hang;table3=delay:0.3"
        )
        journal_path = tmp_path / "j.jsonl"
        start = time.monotonic()
        with telemetry.session():
            with RunJournal(journal_path) as journal:
                summary = run_batch(
                    ["table3", "table2"],
                    jobs=2,
                    cache=None,
                    journal=journal,
                    timeout=0.6,
                    retries=0,
                )
            snapshot = telemetry.get_registry().snapshot()
            span_names = {
                sp.name for sp in telemetry.get_tracer().finished()
            }
        wall = time.monotonic() - start
        by_id = {o.experiment_id: o for o in summary.outcomes}
        assert by_id["table3"].status == "done"
        assert by_id["table2"].status == "timeout"
        assert "timed out after" in by_id["table2"].error
        # Deadline accuracy: ~0.6 s after table2's own submission, not
        # 0.6 s after table3's wait ended and far below wall-clock * N.
        assert 0.5 <= by_id["table2"].duration_s < 1.2
        assert wall < 2.0
        assert snapshot["runtime.tasks.timeout"]["value"] == 1
        assert snapshot["runtime.pool.recycled"]["value"] == 1
        assert {"batch", "task.wait", "pool.reap"} <= span_names
        # Journal carries the distinct status; resume would re-run it.
        assert final_statuses(journal_path)["table2"].status == "timeout"
        assert completed_tasks(journal_path) == {"table3"}
        assert len(summary.timed_out) == 1 and not summary.failed

    def test_hang_once_timeout_is_retried_to_success(
        self, fault_state, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_SPEC, "eq1=hang_once")
        with telemetry.session():
            summary = run_batch(
                ["eq1"], jobs=2, cache=None, timeout=0.4, retries=1
            )
            snapshot = telemetry.get_registry().snapshot()
        (outcome,) = summary.outcomes
        assert outcome.status == "done"
        assert outcome.attempts == 2
        assert snapshot["runtime.tasks.timeout"]["value"] == 1
        assert snapshot["runtime.tasks.retried"]["value"] == 1
        assert snapshot["runtime.pool.recycled"]["value"] == 1

    def test_resume_reruns_timed_out_tasks(self, monkeypatch, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        monkeypatch.setenv(faults.ENV_SPEC, "eq1=hang")
        with RunJournal(journal_path) as journal:
            first = run_batch(
                ["eq1", "table2"],
                jobs=2,
                cache=None,
                journal=journal,
                timeout=0.4,
                retries=0,
            )
        assert {o.experiment_id: o.status for o in first.outcomes} == {
            "eq1": "timeout",
            "table2": "done",
        }
        done = completed_tasks(journal_path)
        assert done == {"table2"}  # the timeout is not terminal
        monkeypatch.delenv(faults.ENV_SPEC)
        with RunJournal(journal_path, append=True) as journal:
            second = run_batch(
                ["eq1", "table2"],
                jobs=2,
                cache=None,
                journal=journal,
                resume_completed=done,
                timeout=30.0,
            )
        by_id = {o.experiment_id: o for o in second.outcomes}
        assert by_id["eq1"].status == "done"
        assert by_id["table2"].status == "skipped"
        assert completed_tasks(journal_path) == {"eq1", "table2"}


class TestOneWorkerPerTask:
    """A deadline or a dying worker touches only its own task's worker."""

    def test_hung_task_deadline_leaves_healthy_siblings_running(
        self, monkeypatch, tmp_path
    ):
        # table3 starts on the second worker once eq1 is done (~0.5 s), so
        # it is mid-run when table2's deadline passes (~0.9 s) and finishes
        # well inside its own (~1.4 s).
        monkeypatch.setenv(
            faults.ENV_SPEC, "table2=hang;eq1=delay:0.5;table3=delay:0.6"
        )
        journal_path = tmp_path / "j.jsonl"
        with telemetry.session():
            with RunJournal(journal_path) as journal:
                summary = run_batch(
                    ["table2", "eq1", "table3"],
                    jobs=2,
                    cache=None,
                    journal=journal,
                    timeout=0.9,
                    retries=0,
                )
            task_statuses = [
                sp.attrs["status"]
                for sp in telemetry.get_tracer().finished()
                if sp.name == tm.SPAN_TASK
            ]
        assert {o.experiment_id: o.status for o in summary.outcomes} == {
            "table2": "timeout",
            "eq1": "done",
            "table3": "done",
        }
        running = [
            e.task for e in read_entries(journal_path) if e.status == "running"
        ]
        assert sorted(running) == ["eq1", "table2", "table3"]
        assert sorted(task_statuses) == ["done", "done", "timeout"]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched fault hook reaches workers only through fork",
    )
    def test_dying_worker_fails_only_its_own_task(self, monkeypatch):
        def apply(exp_id):
            if exp_id == "table2":
                time.sleep(0.1)
                os._exit(1)
            if exp_id == "table3":
                time.sleep(0.5)

        monkeypatch.setattr(faults, "apply", apply)
        with telemetry.session():
            summary = run_batch(
                ["table2", "table3"], jobs=2, cache=None, retries=0
            )
            snapshot = telemetry.get_registry().snapshot()
        by_id = {o.experiment_id: o for o in summary.outcomes}
        assert (by_id["table2"].status, by_id["table2"].attempts) == ("failed", 1)
        assert (by_id["table3"].status, by_id["table3"].attempts) == ("done", 1)
        assert "worker exited mid-job" in by_id["table2"].error
        assert snapshot["runtime.pool.recycled"]["value"] == 1
        assert multiprocessing.active_children() == []

    def test_serial_timeout_runs_the_task_on_one_worker(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "eq1=hang")
        start = time.monotonic()
        summary = run_batch(
            ["eq1"], jobs=1, cache=None, timeout=0.4, retries=0
        )
        (outcome,) = summary.outcomes
        assert outcome.status == "timeout"
        assert "timed out after" in outcome.error
        assert time.monotonic() - start < 1.5
        assert multiprocessing.active_children() == []


class TestCrashAndBackoff:
    def test_pool_crash_is_retried_with_backoff_to_success(
        self, fault_state, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_SPEC, "table2=flaky_once")
        start = time.monotonic()
        summary = run_batch(
            ["table2"], jobs=2, cache=None, retries=1, backoff=0.2
        )
        elapsed = time.monotonic() - start
        (outcome,) = summary.outcomes
        assert outcome.status == "done"
        assert outcome.attempts == 2
        assert elapsed >= 0.2  # the backoff delay was actually observed

    def test_pool_crash_exhausts_retries(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "table2=crash")
        summary = run_batch(["table2"], jobs=2, cache=None, retries=1)
        (outcome,) = summary.outcomes
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "injected crash" in outcome.error

    def test_inline_flaky_once_with_backoff(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_STATE, raising=False)
        faults.install(FaultPlan.parse("table2=flaky_once"))
        start = time.monotonic()
        try:
            summary = run_batch(
                ["table2"], jobs=1, cache=None, retries=1, backoff=0.1
            )
        finally:
            faults.install(None)
        (outcome,) = summary.outcomes
        assert outcome.status == "done"
        assert outcome.attempts == 2
        assert time.monotonic() - start >= 0.1


class TestCliTimeout:
    def test_cli_hung_task_exit_code_summary_and_journal(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv(faults.ENV_SPEC, "eq1=hang")
        journal_path = tmp_path / "j.jsonl"
        rc = main(
            [
                "run", "eq1", "--quiet", "--no-cache",
                "--jobs", "2", "--timeout", "0.4", "--retries", "0",
                "--backoff", "0.1", "--journal", str(journal_path),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "1 timed out" in err
        assert "timed out after" in err
        assert final_statuses(journal_path)["eq1"].status == "timeout"
