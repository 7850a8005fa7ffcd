"""LOCK rules: shared-cache writes stay under the lock file.

The serve layer points N workers plus any concurrent ``repro run``
batch at one cache directory; :class:`~repro.runtime.cache.
SharedResultCache` keeps that sound by funnelling every mutation
through ``file_lock`` (an ``fcntl.flock`` on a lock file). Nothing at
runtime *checks* that discipline — a new mutating method that forgets
the lock works perfectly in every single-process test and only
corrupts state under concurrent load. These rules pin the discipline
statically:

* **LOCK001** — inside a class the repo designates as lock-guarded
  (``SharedResultCache``), calls that mutate the shared store
  (``super().put/put_payload/clear`` and direct ``_atomic_write_json``)
  must sit lexically inside ``with file_lock(...)``.
* **LOCK002** — the ``stats.json`` read-modify-write (any
  ``_atomic_write_json``/``write_text`` whose arguments mention
  ``stats.json``) must sit inside ``with file_lock(...)``; two
  unserialized writers lose each other's lifetime counts.
* **LOCK003** — a raw ``fcntl.flock(fd, LOCK_EX/LOCK_SH)`` acquire
  must be inside a ``try`` whose ``finally`` releases the same fd
  (``os.close(fd)``, ``fd.close()``, or ``flock(fd, LOCK_UN)``), so no
  CFG path leaks a held lock.

All three checks are lexical/structural, not interprocedural: a
mutation performed under a lock taken by the *caller* would be flagged
and needs a rationale suppression. That direction of error is the safe
one — the reviewer sees the claim in the diff.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.audit.engine import Finding, Rule, SourceModule
from repro.audit.resolve import qualified_name

#: Classes whose mutating methods must hold the cache-wide lock file.
GUARDED_CLASSES = ("SharedResultCache",)

#: ``super().<attr>(...)`` calls that mutate the shared on-disk store.
_MUTATING_SUPER_ATTRS = frozenset({"put", "put_payload", "clear"})


def _under_file_lock(node: ast.AST, mod: SourceModule) -> bool:
    """True when ``node`` is lexically inside ``with file_lock(...):``."""
    parents = mod.parent_map()
    cur: ast.AST | None = node
    while cur is not None:
        if isinstance(cur, (ast.With, ast.AsyncWith)):
            for item in cur.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    name = qualified_name(expr.func, mod.imports)
                    if name is not None and (
                        name == "file_lock" or name.endswith(".file_lock")
                    ):
                        return True
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False  # don't credit a lock in an enclosing function
        cur = parents.get(cur)
    return False


def _is_super_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


def _mentions_literal(node: ast.AST, needle: str) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and needle in sub.value
        ):
            return True
    return False


class SharedCacheMutationRule(Rule):
    """LOCK001: SharedResultCache mutations only under file_lock."""

    rule_id = "LOCK001"
    description = (
        "inside a lock-guarded cache class (SharedResultCache), calls "
        "that mutate the shared store (super().put/put_payload/clear, "
        "_atomic_write_json) must be lexically inside "
        "'with file_lock(...)' — an unguarded write races every other "
        "process sharing the cache directory"
    )
    scope = ("repro.runtime", "repro.serve")

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        for cls in mod.tree.body:
            if (
                not isinstance(cls, ast.ClassDef)
                or cls.name not in GUARDED_CLASSES
            ):
                continue
            for node in ast.walk(cls):
                if not isinstance(node, ast.Call):
                    continue
                label = self._mutator(node, mod)
                if label is None:
                    continue
                if not _under_file_lock(node, mod):
                    yield self.finding(
                        mod,
                        node,
                        f"'{cls.name}' mutates the shared store via "
                        f"'{label}' outside 'with file_lock(...)'",
                    )

    def _mutator(self, node: ast.Call, mod: SourceModule) -> str | None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_SUPER_ATTRS
            and _is_super_call(func.value)
        ):
            return f"super().{func.attr}"
        name = qualified_name(func, mod.imports)
        if name is not None and (
            name == "_atomic_write_json"
            or name.endswith("._atomic_write_json")
        ):
            return "_atomic_write_json"
        return None


class StatsWriteRule(Rule):
    """LOCK002: stats.json writes must hold the cache lock file."""

    rule_id = "LOCK002"
    description = (
        "writes to the cache's stats.json (the hit/miss "
        "read-modify-write) must be inside 'with file_lock(...)'; "
        "unserialized writers lose each other's lifetime counts"
    )
    scope = ("repro.runtime", "repro.serve")

    _WRITE_ATTRS = frozenset({"write_text", "write_bytes"})

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._writes_stats(node, mod):
                continue
            if not _under_file_lock(node, mod):
                yield self.finding(
                    mod,
                    node,
                    "stats.json write outside 'with file_lock(...)' — "
                    "the read-modify-write must be serialized through "
                    "the lock file",
                )

    def _writes_stats(self, node: ast.Call, mod: SourceModule) -> bool:
        func = node.func
        is_writer = False
        name = qualified_name(func, mod.imports)
        if name is not None and (
            name == "_atomic_write_json"
            or name.endswith("._atomic_write_json")
        ):
            is_writer = True
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in self._WRITE_ATTRS
        ):
            is_writer = _mentions_literal(func.value, "stats.json")
        if not is_writer:
            return False
        for arg in [*node.args, *[kw.value for kw in node.keywords]]:
            if _mentions_literal(arg, "stats.json"):
                return True
        if isinstance(func, ast.Attribute):
            return _mentions_literal(func.value, "stats.json")
        return False


class FlockPairRule(Rule):
    """LOCK003: every flock acquire pairs with a finally-release."""

    rule_id = "LOCK003"
    description = (
        "fcntl.flock(fd, LOCK_EX/LOCK_SH) must be inside a try whose "
        "finally releases the same fd (os.close(fd) / fd.close() / "
        "flock(fd, LOCK_UN)) so no control-flow path leaks a held lock"
    )
    scope = ("repro",)

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        parents = mod.parent_map()
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_acquire(node, mod):
                continue
            fd = (
                node.args[0].id
                if node.args and isinstance(node.args[0], ast.Name)
                else None
            )
            if not self._released_in_finally(node, fd, mod, parents):
                yield self.finding(
                    mod,
                    node,
                    "flock acquired without a pairing release in a "
                    "'finally' block — a raise between acquire and "
                    "release leaks the lock for every other process",
                )

    def _is_acquire(self, node: ast.Call, mod: SourceModule) -> bool:
        name = qualified_name(node.func, mod.imports)
        if name is None or not (
            name == "flock" or name.endswith(".flock")
        ):
            return False
        if len(node.args) < 2:
            return False
        ids = {
            part
            for sub in ast.walk(node.args[1])
            for part in (
                [sub.id]
                if isinstance(sub, ast.Name)
                else [sub.attr]
                if isinstance(sub, ast.Attribute)
                else []
            )
        }
        if "LOCK_UN" in ids:
            return False  # a release, not an acquire
        return bool(ids & {"LOCK_EX", "LOCK_SH"})

    def _released_in_finally(
        self,
        node: ast.AST,
        fd: str | None,
        mod: SourceModule,
        parents: dict[ast.AST, ast.AST],
    ) -> bool:
        cur: ast.AST | None = node
        while cur is not None:
            if isinstance(cur, ast.Try) and cur.finalbody:
                for stmt in cur.finalbody:
                    for sub in ast.walk(stmt):
                        if isinstance(sub, ast.Call) and self._is_release(
                            sub, fd, mod
                        ):
                            return True
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            cur = parents.get(cur)
        return False

    def _is_release(
        self, node: ast.Call, fd: str | None, mod: SourceModule
    ) -> bool:
        name = qualified_name(node.func, mod.imports)
        same_fd = (
            fd is None
            or any(
                isinstance(a, ast.Name) and a.id == fd for a in node.args
            )
        )
        if name is not None and (
            name == "os.close" or name.endswith(".close")
        ):
            if name.endswith(".close") and name != "os.close":
                # fd.close(): the receiver is the fd itself.
                return fd is None or name == f"{fd}.close"
            return same_fd
        if name is not None and (
            name == "flock" or name.endswith(".flock")
        ):
            unlocks = any(
                (isinstance(sub, ast.Attribute) and sub.attr == "LOCK_UN")
                or (isinstance(sub, ast.Name) and sub.id == "LOCK_UN")
                for a in node.args
                for sub in ast.walk(a)
            )
            return unlocks and same_fd
        return False
