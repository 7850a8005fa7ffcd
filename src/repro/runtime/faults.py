"""Deterministic fault injection for the batch scheduler.

Testing the scheduler's unhappy paths — hangs, crashes, slow tasks,
flaky-once failures — must not require real multi-minute wall-clock
hangs or nondeterministic races. This module lets a test (or a CI smoke
job) declare, per experiment id, a *behavior* the task exhibits before
its driver runs:

``hang``
    Sleep forever. The scheduler's deadline logic must declare the task
    ``timeout`` and kill the hung worker.
``hang_once``
    Hang on the first attempt, run normally afterwards — exercises the
    timeout → retry → success path. Requires fault state (see below).
``crash``
    Raise :class:`FaultInjected` every attempt.
``flaky_once``
    Raise :class:`FaultInjected` on the first attempt only — exercises
    retry-with-backoff → eventual success. Requires fault state.
``delay:SECS``
    Sleep ``SECS`` seconds, then run normally.

Plans are carried by environment variables so they survive the hop into
worker processes (:mod:`repro.runtime.pool`):

* ``OPM_REPRO_FAULTS`` — the plan spec, e.g.
  ``"fig7=hang;table2=crash;eq1=delay:0.25"``.
* ``OPM_REPRO_FAULTS_STATE`` — directory for cross-process attempt
  markers, needed by the ``*_once`` behaviors (each first attempt drops
  a marker file; later attempts see it and behave normally). Without it
  the ``*_once`` behaviors fall back to in-process memory, which is only
  deterministic for inline execution (``jobs=1`` without a timeout).

Programmatic use inside one process can bypass the environment with
:func:`install`. Injection points call :func:`apply` with the task id;
outside of an installed or environment-configured plan it is a no-op, so
production runs pay one dict lookup against an empty plan.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

#: Plan spec environment variable read by :func:`active_plan`.
ENV_SPEC = "OPM_REPRO_FAULTS"
#: Directory for cross-process ``*_once`` attempt markers.
ENV_STATE = "OPM_REPRO_FAULTS_STATE"

_KINDS = frozenset({"hang", "hang_once", "crash", "flaky_once", "delay"})


class FaultInjected(RuntimeError):
    """Raised by ``crash``/``flaky_once`` faults (picklable across workers)."""


@dataclasses.dataclass(frozen=True)
class Fault:
    """One injected behavior for one experiment id."""

    kind: str  # hang | hang_once | crash | flaky_once | delay
    seconds: float = 0.0  # delay duration (``delay`` only)


class FaultPlan:
    """Mapping of experiment id -> :class:`Fault`."""

    def __init__(self, faults: dict[str, Fault] | None = None) -> None:
        self.faults = dict(faults or {})
        self._seen: set[str] = set()  # in-process *_once fallback state

    def __bool__(self) -> bool:
        return bool(self.faults)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``"id=kind[:secs];id2=kind2"`` into a plan.

        Raises :class:`ValueError` naming the offending clause so a typo
        in ``OPM_REPRO_FAULTS`` fails loudly instead of silently running
        a fault-free batch.
        """
        faults: dict[str, Fault] = {}
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if "=" not in clause:
                raise ValueError(f"fault clause {clause!r} is not 'id=kind'")
            exp_id, _, behavior = clause.partition("=")
            kind, _, arg = behavior.partition(":")
            exp_id, kind = exp_id.strip(), kind.strip()
            if kind not in _KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} in clause {clause!r} "
                    f"(expected one of {sorted(_KINDS)})"
                )
            seconds = 0.0
            if kind == "delay":
                try:
                    seconds = float(arg)
                except ValueError:
                    raise ValueError(
                        f"fault clause {clause!r}: delay needs "
                        "a numeric ':SECS' argument"
                    ) from None
            faults[exp_id] = Fault(kind, seconds)
        return cls(faults)

    def as_spec(self) -> str:
        """Inverse of :meth:`parse` (environment-variable form)."""
        parts = []
        for exp_id, fault in self.faults.items():
            if fault.kind == "delay":
                parts.append(f"{exp_id}=delay:{fault.seconds}")
            else:
                parts.append(f"{exp_id}={fault.kind}")
        return ";".join(parts)

    def _first_attempt(self, exp_id: str) -> bool:
        """True exactly once per task, tracked across processes if
        ``OPM_REPRO_FAULTS_STATE`` is set (marker files), else in-process."""
        state_dir = os.environ.get(ENV_STATE)
        if state_dir:
            marker = Path(state_dir) / f"fault.{exp_id}.attempted"
            marker.parent.mkdir(parents=True, exist_ok=True)
            try:
                marker.touch(exist_ok=False)
            except FileExistsError:
                return False
            return True
        if exp_id in self._seen:
            return False
        self._seen.add(exp_id)
        return True

    def apply(self, exp_id: str) -> None:
        """Execute the configured fault for ``exp_id`` (no-op if none)."""
        fault = self.faults.get(exp_id)
        if fault is None:
            return
        if fault.kind == "delay":
            time.sleep(fault.seconds)
        elif fault.kind == "crash":
            raise FaultInjected(f"injected crash for {exp_id}")
        elif fault.kind == "flaky_once":
            if self._first_attempt(exp_id):
                raise FaultInjected(f"injected flaky-once crash for {exp_id}")
        elif fault.kind == "hang" or (
            fault.kind == "hang_once" and self._first_attempt(exp_id)
        ):
            _hang()


def _hang() -> None:  # pragma: no cover - the worker gets terminated
    while True:
        time.sleep(0.05)


_installed: FaultPlan | None = None
_env_spec: str | None = None
_env_plan: FaultPlan = FaultPlan()


def install(plan: FaultPlan | None) -> None:
    """Set (or with ``None`` clear) the in-process plan, overriding env."""
    global _installed
    _installed = plan


def active_plan() -> FaultPlan:
    """The installed plan, else one parsed from ``OPM_REPRO_FAULTS``.

    The environment-derived plan is cached per spec string so its
    in-process ``*_once`` fallback state survives across calls.
    """
    # The env-derived plan is intentionally cached in module globals so
    # *_once fallback state survives across calls inside one worker; the
    # whole layer is inert unless OPM_REPRO_FAULTS (fingerprint-
    # allowlisted) is set.
    global _env_spec, _env_plan  # audit: ignore[PURE001]
    if _installed is not None:
        return _installed
    spec = os.environ.get(ENV_SPEC, "")
    if spec != _env_spec:
        _env_spec = spec
        _env_plan = FaultPlan.parse(spec) if spec else FaultPlan()
    return _env_plan


def apply(exp_id: str) -> None:
    """Injection hook: run any configured fault for ``exp_id``."""
    plan = active_plan()
    if plan:
        plan.apply(exp_id)
