"""Shared call-graph and control-flow scaffolding for the audit rules.

Two analyses live here because several rule families need them:

* **Conservative call graph** (:class:`CallGraph`) — a name-based,
  flow-insensitive reachability graph seeded from the worker entry
  points (functions registered as experiment drivers via
  ``@register(...)``, functions handed to a pool via
  ``.submit(fn, ...)`` / ``initializer=fn``, and process or thread
  bodies given as ``target=fn``). The PURE rules walk it to
  find state smuggled into workers; LIFE002 walks it to find
  fork-shared telemetry sinks touched on worker paths. It resolves only
  what imports make statically obvious — a rebound alias or a
  first-class function stored in a container contributes no edges — so
  every edge it *does* have is real, and rules stay false-positive-shy
  at the cost of missing dynamic dispatch.

* **Intraprocedural CFG** (:class:`Cfg`) — statement-level successor
  edges within one function, enough to ask "can control reach the
  function exit from here without passing one of *these* statements?".
  The LOCK and LIFE rules use it for must-pair properties (flock
  acquire/release, ``Tracer.begin``/``finish``). Approximations, by
  design: every top-level statement of a ``try`` body may jump to every
  handler; an explicit ``raise`` exits via the :data:`RAISE` sentinel
  directly (``finally`` ordering on exceptional paths is not modelled);
  implicit exceptions from arbitrary calls are not modelled at all.
  Rules that consume the CFG document which direction they err in.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterable, Sequence

from repro.audit.engine import SourceModule
from repro.audit.resolve import dotted_chain, qualified_name

__all__ = [
    "EXIT",
    "RAISE",
    "CallGraph",
    "Cfg",
    "FuncInfo",
    "ModuleIndex",
    "build_cfg",
    "local_names",
]


@dataclasses.dataclass
class FuncInfo:
    """One function or method as the call graph sees it."""

    module: str
    qualname: str  # "fn" or "Class.fn"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None


class ModuleIndex:
    """Functions, module-level names and imports of one module."""

    def __init__(self, mod: SourceModule) -> None:
        self.mod = mod
        self.imports = mod.imports
        self.funcs: dict[str, FuncInfo] = {}
        self.module_level: set[str] = set()
        for node in mod.tree.body:
            self._bind_top(node)
        for node in mod.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.funcs[node.name] = FuncInfo(
                    mod.module, node.name, node, None
                )
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        qual = f"{node.name}.{item.name}"
                        self.funcs[qual] = FuncInfo(
                            mod.module, qual, item, node.name
                        )

    def _bind_top(self, node: ast.stmt) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            self.module_level.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        self.module_level.add(name.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                self.module_level.add(node.target.id)


class CallGraph:
    """Cross-module function index + reachability from worker entries."""

    def __init__(self, mods: Sequence[SourceModule]) -> None:
        self.indexes: dict[str, ModuleIndex] = {}
        for mod in mods:
            if mod.module:
                self.indexes[mod.module] = ModuleIndex(mod)
        self.reachable = self._reach(self._entries())

    # -- entry points -------------------------------------------------------

    def _entries(self) -> list[tuple[str, str]]:
        entries: list[tuple[str, str]] = []
        for module, index in self.indexes.items():
            for qual, func in index.funcs.items():
                if self._is_driver(func, index):
                    entries.append((module, qual))
            for node in ast.walk(index.mod.tree):
                if isinstance(node, ast.Call):
                    entries.extend(self._submitted(node, index))
        return entries

    def _is_driver(self, func: FuncInfo, index: ModuleIndex) -> bool:
        for deco in func.node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = qualified_name(target, index.imports)
            if name is not None and (
                name == "register" or name.endswith(".register")
            ):
                return True
        return False

    def _submitted(
        self, node: ast.Call, index: ModuleIndex
    ) -> list[tuple[str, str]]:
        refs: list[ast.AST] = []
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            refs.append(node.args[0])
        for kw in node.keywords:
            if kw.arg in ("initializer", "target"):
                refs.append(kw.value)
        out = []
        for ref in refs:
            resolved = self._resolve_ref(ref, index)
            if resolved is not None:
                out.append(resolved)
        return out

    # -- call graph ---------------------------------------------------------

    def _resolve_ref(
        self, node: ast.AST, index: ModuleIndex
    ) -> tuple[str, str] | None:
        """(module, qualname) a Name/Attribute reference points at."""
        chain = dotted_chain(node)
        if chain is None:
            return None
        if len(chain) == 1:
            name = chain[0]
            if name in index.funcs:
                return index.mod.module, name
            alias = index.imports.aliases.get(name)
            if alias and "." in alias:
                module, _, fn = alias.rpartition(".")
                target = self.indexes.get(module)
                if target is not None and fn in target.funcs:
                    return module, fn
            return None
        qual = qualified_name(node, index.imports)
        if qual is None:
            return None
        # Longest scanned-module prefix wins (modules nest).
        best = None
        for module in self.indexes:
            if qual.startswith(module + ".") and (
                best is None or len(module) > len(best)
            ):
                best = module
        if best is None:
            return None
        tail = qual[len(best) + 1 :]
        if tail in self.indexes[best].funcs:
            return best, tail
        return None

    def _edges(self, module: str, qual: str) -> list[tuple[str, str]]:
        index = self.indexes[module]
        func = index.funcs[qual]
        edges: list[tuple[str, str]] = []
        # Walk the *body* only: the function's own decorators run at
        # definition (import) time, not when a worker calls it.
        for node in (
            n for stmt in func.node.body for n in ast.walk(stmt)
        ):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            if (
                chain is not None
                and len(chain) == 2
                and chain[0] == "self"
                and func.cls is not None
            ):
                method = f"{func.cls}.{chain[1]}"
                if method in index.funcs:
                    edges.append((module, method))
                continue
            resolved = self._resolve_ref(node.func, index)
            if resolved is not None:
                edges.append(resolved)
        return edges

    def _reach(
        self, entries: Iterable[tuple[str, str]]
    ) -> set[tuple[str, str]]:
        seen: set[tuple[str, str]] = set()
        stack = [e for e in entries if e[0] in self.indexes]
        while stack:
            module, qual = stack.pop()
            if (module, qual) in seen or qual not in self.indexes[
                module
            ].funcs:
                continue
            seen.add((module, qual))
            stack.extend(self._edges(module, qual))
        return seen

    def reachable_funcs(self) -> Iterable[tuple[ModuleIndex, FuncInfo]]:
        for module, qual in sorted(self.reachable):
            index = self.indexes[module]
            yield index, index.funcs[qual]


def local_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally (params + stores), minus 'global' declarations."""
    globals_: set[str] = set()
    locals_: set[str] = set()
    args = func.args
    for a in (
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ):
        locals_.add(a.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            globals_.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            locals_.add(node.id)
    return locals_ - globals_


# -- intraprocedural CFG ------------------------------------------------------

#: Sentinel CFG node: the function returned or fell off the end.
EXIT = "<exit>"
#: Sentinel CFG node: control left via an explicit ``raise``.
RAISE = "<raise>"


class Cfg:
    """Statement-level successor graph of one function body.

    ``succ`` maps each statement node (and compound headers) to the
    statements that can execute next; :data:`EXIT` / :data:`RAISE` are
    terminal sentinels. ``branches`` records, for each ``ast.If``
    header, its ``(body_entry, orelse_entry)`` pair so path-sensitive
    consumers can follow a single arm.
    """

    def __init__(self) -> None:
        self.succ: dict[object, set[object]] = {}
        self.branches: dict[ast.If, tuple[object, object]] = {}
        self.entry: object = EXIT

    def _edge(self, node: object, to: object) -> None:
        self.succ.setdefault(node, set()).add(to)


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Cfg:
    """CFG over ``func``'s own statements (nested defs are opaque)."""
    cfg = Cfg()
    cfg.entry = _seq(cfg, func.body, EXIT, None)
    return cfg


def _seq(
    cfg: Cfg,
    body: Sequence[ast.stmt],
    follow: object,
    loop: tuple[object, object] | None,
) -> object:
    """Wire a statement sequence; returns its entry node."""
    entry = follow
    for stmt in reversed(body):
        entry = _stmt(cfg, stmt, entry, loop)
    return entry


def _stmt(
    cfg: Cfg,
    node: ast.stmt,
    follow: object,
    loop: tuple[object, object] | None,
) -> object:
    if isinstance(node, ast.If):
        body_entry = _seq(cfg, node.body, follow, loop)
        orelse_entry = _seq(cfg, node.orelse, follow, loop)
        cfg._edge(node, body_entry)
        cfg._edge(node, orelse_entry)
        cfg.branches[node] = (body_entry, orelse_entry)
        return node
    if isinstance(node, (ast.While, ast.For, ast.AsyncFor)):
        after = _seq(cfg, node.orelse, follow, loop) if node.orelse else follow
        body_entry = _seq(cfg, node.body, node, (node, follow))
        cfg._edge(node, body_entry)
        cfg._edge(node, after)
        return node
    if isinstance(node, ast.Break):
        cfg._edge(node, loop[1] if loop is not None else follow)
        return node
    if isinstance(node, ast.Continue):
        cfg._edge(node, loop[0] if loop is not None else follow)
        return node
    if isinstance(node, ast.Return):
        cfg._edge(node, EXIT)
        return node
    if isinstance(node, ast.Raise):
        cfg._edge(node, RAISE)
        return node
    if isinstance(node, (ast.With, ast.AsyncWith)):
        cfg._edge(node, _seq(cfg, node.body, follow, loop))
        return node
    if isinstance(node, ast.Try):
        after = (
            _seq(cfg, node.finalbody, follow, loop)
            if node.finalbody
            else follow
        )
        handler_entries = [
            _seq(cfg, h.body, after, loop) for h in node.handlers
        ]
        into_body = (
            _seq(cfg, node.orelse, after, loop) if node.orelse else after
        )
        body_entry = _seq(cfg, node.body, into_body, loop)
        cfg._edge(node, body_entry)
        # Any top-level statement of the protected body may raise into
        # any handler (nested raises inside deeper compounds are routed
        # by their own Raise edges; implicit raises deeper down are the
        # documented approximation).
        for stmt in node.body:
            for h_entry in handler_entries:
                cfg._edge(stmt, h_entry)
        return node
    if isinstance(node, ast.Match):
        for case in node.cases:
            cfg._edge(node, _seq(cfg, case.body, follow, loop))
        cfg._edge(node, follow)  # no case may match
        return node
    cfg._edge(node, follow)
    return node
