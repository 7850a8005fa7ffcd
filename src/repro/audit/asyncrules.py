"""ASYNC rules: the serve event loop never blocks and never leaks tasks.

``repro serve`` multiplexes every request on one asyncio thread; a
single blocking call anywhere in an ``async def`` stalls all of them at
once, and the stall is invisible in tests (one request at a time never
notices). Three event-loop disciplines are enforced statically:

* **ASYNC001** — no blocking calls in ``async def`` bodies: stdlib
  blockers (``time.sleep``, ``subprocess.*``, ``open``, path
  read/write helpers, ``Future.result``) plus the repo's own
  known-blocking surface (the result cache's disk API
  ``get_payload``/``put_payload``/``record_run`` and the worker entry
  points). In serve code the remedy is the worker pool:
  ``ServeApp._execute`` awaits ``ServePool.run``, which runs the work in
  a shard process. The server runs no helper thread, and
  ``tests/test_serve_pool.py`` fails on any ``asyncio.to_thread``. A
  blocking callable passed as an *argument* (``asyncio.to_thread(fn,
  ...)``) is not a call, so the rule does not flag that form.
* **ASYNC002** — ``asyncio.shield(x)`` must shield an *owned* future
  (a plain name or attribute). Shielding a freshly created coroutine or
  task (``shield(do_work())``) detaches it: when the awaiter is
  cancelled, nothing holds a reference that resolves or cancels the
  inner task on exception paths.
* **ASYNC003** — ``create_task``/``ensure_future`` results must be
  retained (assigned, awaited, or passed on). A bare-statement task is
  garbage-collectable mid-flight and its exceptions vanish into the
  "Task exception was never retrieved" log.

Nested ``def``/``async def`` bodies are excluded from the enclosing
scan — each async function is checked exactly once, and a nested sync
helper is assumed to be dispatched off the loop by its caller (that
call site is where ASYNC001 fires if it is not).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.audit.engine import Finding, Rule, SourceModule
from repro.audit.resolve import qualified_name

#: Fully-qualified callables that block the calling thread.
BLOCKING_QUALIFIED = frozenset(
    {
        "time.sleep",
        "open",
        "os.system",
        "os.replace",
        "os.rename",
        "shutil.copy",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.rmtree",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
)

#: Method names that block regardless of receiver: sync path I/O and
#: the blocking future wait, plus the repo's cache disk API.
BLOCKING_ATTRS = frozenset(
    {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "result",
        "get_payload",
        "put_payload",
        "record_run",
    }
)

#: Worker entry points: calling one inline runs an entire experiment
#: (or advisor evaluation) on the loop thread.
BLOCKING_LOCAL = frozenset({"_pool_worker", "_worker_run"})


def _async_defs(mod: SourceModule) -> Iterator[ast.AsyncFunctionDef]:
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


def _own_body_nodes(
    func: ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk ``func``'s body without descending into nested defs."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue  # nested defs get their own scan (if async)
        stack.extend(ast.iter_child_nodes(node))


class _AsyncRule(Rule):
    scope = ("repro",)

    def applies_to(self, mod: SourceModule) -> bool:
        if mod.module.startswith("repro.audit"):
            return False
        return super().applies_to(mod)


class BlockingCallInAsyncRule(_AsyncRule):
    """ASYNC001: no blocking calls on the event loop."""

    rule_id = "ASYNC001"
    description = (
        "async def bodies must not call blocking functions (time.sleep, "
        "subprocess, sync file I/O, Future.result, the cache's disk "
        "API, worker entry points) — one blocked coroutine stalls every "
        "request on the loop; serve code sends such work to the worker "
        "pool"
    )

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        for func in _async_defs(mod):
            for node in _own_body_nodes(func):
                if not isinstance(node, ast.Call):
                    continue
                label = self._blocking_label(node, mod)
                if label is not None:
                    yield self.finding(
                        mod,
                        node,
                        f"blocking call '{label}' inside "
                        f"'async def {func.name}' — stalls the event "
                        "loop; move it to the worker pool",
                    )

    def _blocking_label(
        self, node: ast.Call, mod: SourceModule
    ) -> str | None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in BLOCKING_LOCAL:
            return func.id
        name = qualified_name(func, mod.imports)
        if name is not None and name in BLOCKING_QUALIFIED:
            return name
        if isinstance(func, ast.Attribute) and func.attr in BLOCKING_ATTRS:
            return name if name is not None else f"….{func.attr}"
        return None


class ShieldOwnerRule(_AsyncRule):
    """ASYNC002: shield only futures something else owns."""

    rule_id = "ASYNC002"
    description = (
        "asyncio.shield() must wrap an owned future (a name/attribute "
        "something retains), not an inline coroutine/task creation — a "
        "shielded orphan has no owner to resolve or cancel it when the "
        "awaiter is cancelled on an exception path"
    )

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, mod.imports)
            if name is None or not (
                name == "shield" or name.endswith(".shield")
            ):
                continue
            if not node.args:
                continue
            arg = node.args[0]
            if isinstance(arg, (ast.Name, ast.Attribute)):
                continue
            yield self.finding(
                mod,
                node,
                "asyncio.shield() wraps an expression no one retains; "
                "bind the future first so an owner can resolve or "
                "cancel it after the awaiter is cancelled",
            )


class TaskRetentionRule(_AsyncRule):
    """ASYNC003: created tasks must be retained."""

    rule_id = "ASYNC003"
    description = (
        "the result of create_task()/ensure_future() must be retained "
        "(assigned, awaited, or passed on); a fire-and-forget task can "
        "be garbage-collected mid-flight and its exceptions are never "
        "retrieved"
    )

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        parents = mod.parent_map()
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, mod.imports)
            if name is None:
                continue
            tail = name.rpartition(".")[2]
            if tail not in ("create_task", "ensure_future"):
                continue
            if isinstance(parents.get(node), ast.Expr):
                yield self.finding(
                    mod,
                    node,
                    f"'{tail}' result discarded — keep a reference "
                    "(e.g. 'self._task = ...') so the task cannot be "
                    "collected and its exceptions are observed",
                )
