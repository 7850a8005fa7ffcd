"""PURE rules: code reachable from workers must not smuggle state.

The scheduler and the advisor service ship work to the worker pool
(:mod:`repro.runtime.pool`) and cache results under a key derived
*only* from (experiment id, sweep mode, package version, source
digest). Two things silently invalidate that key:

* **module-global mutation** — a driver (or anything it calls) writing
  module state makes the result depend on execution order within a
  worker process, a fork-level race no test reliably reproduces;
* **environment reads outside the fingerprint allowlist** — an env var
  that changes the result but is not part of the cache key means two
  different results share one key.

Both rules walk the conservative worker-reachability graph built by
:mod:`repro.audit.callgraph` — seeded from ``@register(...)`` drivers
and process or pool entry points, among them the pool's
``Process(target=_shard_main)`` — and flag offending statements in any
reachable function. The graph is shared with the LIFE rules through the
engine's :class:`~repro.audit.engine.ProjectContext`, so one audit run
builds it once no matter how many rule families consume it.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from repro.audit.callgraph import CallGraph, FuncInfo, ModuleIndex, local_names
from repro.audit.engine import (
    Finding,
    ProjectContext,
    Rule,
    SourceModule,
)
from repro.audit.resolve import dotted_chain, literal_str, qualified_name

#: Environment variables the runtime deliberately reads in workers and
#: treats as part of the experiment's identity (fault injection) or as
#: result-neutral plumbing (cache location). Anything else read on a
#: worker path must either join the fingerprint or stop being read.
FINGERPRINT_ENV_ALLOWLIST = frozenset(
    {
        "OPM_REPRO_FAULTS",
        "OPM_REPRO_FAULTS_STATE",
        "OPM_REPRO_CACHE_DIR",
    }
)


class _PurityProjectRule(Rule):
    """Shared scaffolding: walk the run-shared worker-reachability graph."""

    scope = ("repro",)

    def check_project(
        self,
        mods: Sequence[SourceModule],
        ctx: ProjectContext | None = None,
    ) -> Iterable[Finding]:
        scoped = [m for m in mods if self.applies_to(m)]
        if not scoped:
            return
        graph = ctx.callgraph() if ctx is not None else CallGraph(scoped)
        for index, func in graph.reachable_funcs():
            yield from self.check_function(index, func)

    def check_function(
        self, index: ModuleIndex, func: FuncInfo
    ) -> Iterable[Finding]:  # pragma: no cover - overridden
        return ()


class GlobalMutationRule(_PurityProjectRule):
    """PURE001: worker-reachable code must not assign module state."""

    rule_id = "PURE001"
    description = (
        "functions reachable from experiment drivers or pool-submitted "
        "entry points must not mutate module-level state (global "
        "assignments, module-attribute stores, writes into module-level "
        "containers) — workers would diverge by execution order and "
        "cached results would not be a function of their key"
    )

    def check_function(
        self, index: ModuleIndex, func: FuncInfo
    ) -> Iterable[Finding]:
        mod = index.mod
        locals_ = local_names(func.node)
        declared_global: set[str] = set()
        for node in ast.walk(func.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
                yield self.finding(
                    mod,
                    node,
                    f"'{func.qualname}' declares global "
                    f"{', '.join(node.names)} on a worker-reachable path",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    yield from self._check_target(
                        mod, index, func, target, locals_
                    )

    def _check_target(
        self,
        mod: SourceModule,
        index: ModuleIndex,
        func: FuncInfo,
        target: ast.AST,
        locals_: set[str],
    ) -> Iterable[Finding]:
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            name = target.value.id
            if name in index.module_level and name not in locals_:
                yield self.finding(
                    mod,
                    target,
                    f"'{func.qualname}' writes into module-level "
                    f"container '{name}' on a worker-reachable path",
                )
        elif isinstance(target, ast.Attribute):
            base = target.value
            chain = dotted_chain(base)
            if chain is None or chain[0] == "self" or chain[0] in locals_:
                return
            resolved = qualified_name(base, index.imports)
            if resolved is None:
                return
            if resolved.split(".", 1)[0] in ("repro", "sys", "os") or (
                chain[0] in index.module_level
            ):
                yield self.finding(
                    mod,
                    target,
                    f"'{func.qualname}' assigns attribute "
                    f"'{resolved}.{target.attr}' (module/global state) on "
                    "a worker-reachable path",
                )


class UnfingerprintedEnvRule(_PurityProjectRule):
    """PURE002: worker-reachable env reads must be fingerprinted."""

    rule_id = "PURE002"
    description = (
        "functions reachable from worker entry points may only read "
        "environment variables in the fingerprint allowlist "
        "(OPM_REPRO_FAULTS[_STATE], OPM_REPRO_CACHE_DIR); any other env "
        "read can change a result without changing its cache key"
    )

    def check_function(
        self, index: ModuleIndex, func: FuncInfo
    ) -> Iterable[Finding]:
        mod = index.mod
        for node in ast.walk(func.node):
            key_node: ast.AST | None = None
            if isinstance(node, ast.Call):
                name = qualified_name(node.func, index.imports)
                if name in ("os.getenv", "os.environ.get") and node.args:
                    key_node = node.args[0]
                else:
                    continue
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                base = qualified_name(node.value, index.imports)
                if base != "os.environ":
                    continue
                key_node = node.slice
            else:
                continue
            key = literal_str(key_node, index.imports)
            if key is None:
                yield self.finding(
                    mod,
                    node,
                    f"'{func.qualname}' reads an environment variable "
                    "whose name the audit cannot resolve statically on a "
                    "worker-reachable path",
                )
            elif key not in FINGERPRINT_ENV_ALLOWLIST:
                yield self.finding(
                    mod,
                    node,
                    f"'{func.qualname}' reads env var {key!r} on a "
                    f"worker-reachable path but {key!r} is not in the "
                    "fingerprint allowlist",
                )
