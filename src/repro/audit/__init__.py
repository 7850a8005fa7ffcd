"""Repo-specific static analysis: the invariants pytest cannot see.

``repro audit`` walks the source tree's ASTs and enforces the
correctness contracts the runtime relies on but never checks:

========  ==============================================================
DET001    no unseeded / global RNG draws in simulation code
DET002    no wall-clock reads in simulation code
SPAN001   span/metric name literals must come from repro.telemetry.names
SPAN002   spans must be opened by a ``with`` block (manual
          begin/finish lifecycles are sanctioned and checked by LIFE001)
PURE001   worker-reachable code must not mutate module-level state
PURE002   worker-reachable env reads limited to the fingerprint allowlist
UNIT001   no +/-/comparison across _bytes/_lines/_elems identifiers
REG001    experiment modules register the id their filename encodes
ASYNC001  no blocking calls in ``async def`` bodies
ASYNC002  ``asyncio.shield`` only wraps owned futures
ASYNC003  ``create_task``/``ensure_future`` results must be retained
LIFE001   manual ``Tracer.begin`` closes on every non-raising CFG path
LIFE002   worker-reachable code never touches fork-shared telemetry sinks
========  ==============================================================

Silence a deliberate violation in place with
``# audit: ignore[RULE1,RULE2]`` on the flagged line.

Programmatic use::

    from repro.audit import run_audit
    findings, n_files = run_audit(["src/repro"], select=["DET001"])
"""

from __future__ import annotations

from repro.audit.engine import (
    AuditResult,
    Finding,
    ProjectContext,
    Rule,
    SourceModule,
    default_rules,
    run_audit,
)

__all__ = [
    "AuditResult",
    "Finding",
    "ProjectContext",
    "Rule",
    "SourceModule",
    "default_rules",
    "run_audit",
]
