"""SPAN rules: telemetry names stay canonical, spans always close.

``report.py``, ``telemetry.analyze`` and the CI assertions key on span
and metric *names*; a typo'd name silently vanishes from every consumer.
SPAN001 therefore requires each literal name passed to ``span()`` /
``counter()`` / ``gauge()`` / ``histogram()`` to come from the canonical
registry (:mod:`repro.telemetry.names`). Call sites that reference the
registry's constants (or its prefix helpers) are canonical by
construction and pass without inspection.

SPAN002 enforces the lifecycle: a span object only records itself when
its context manager exits, so a ``span(...)`` call that is not the
subject of a ``with`` block (and is not a ``return``-ed wrapper result)
is a span that never closes — it would leak an entry on the tracer's
stack and misparent every later span on that thread.

SPAN002 deliberately does **not** police the sanctioned manual
lifecycle API — ``Tracer.begin`` / ``finish`` / ``allocate_id`` /
``ingest`` — which the scheduler and serve loop use where many logical
operations interleave on one thread and a ``with`` scope cannot
express the span's extent. Manual lifecycles have their own dedicated
invariant: LIFE001 (:mod:`repro.audit.liferules`) proves each
``begin`` reaches a ``finish``/ownership-handoff on every non-raising
control-flow path. No ``# audit: ignore[SPAN002]`` suppressions are
needed (or present) at manual-lifecycle call sites.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.audit.engine import Finding, Rule, SourceModule
from repro.audit.resolve import ImportTable, dotted_chain, qualified_name

#: Dotted suffixes that open a span on a tracer or the telemetry facade.
_SPAN_CALLERS = ("telemetry.span", "tracer.span")
_METRIC_ATTRS = ("counter", "gauge", "histogram")
_NAMES_MODULE = "repro.telemetry.names"

#: The sanctioned manual-lifecycle API (checked by LIFE001, not here).
MANUAL_LIFECYCLE_ATTRS = frozenset(
    {"begin", "finish", "allocate_id", "ingest"}
)


def _is_span_call(node: ast.Call, imports: ImportTable) -> bool:
    name = qualified_name(node.func, imports)
    if name is None:
        return False
    if name == f"{_NAMES_MODULE}.span":  # not a thing; guard anyway
        return False
    tail = name.rpartition(".")[2]
    if tail in MANUAL_LIFECYCLE_ATTRS:
        # tracer.begin(...)/finish(...)/allocate_id() are the manual
        # lifecycle API, not with-scoped spans; LIFE001 owns them.
        return False
    return name.endswith(".span") or name == "span"


def _is_metric_call(node: ast.Call, imports: ImportTable) -> bool:
    name = qualified_name(node.func, imports)
    if name is None:
        return False
    head, _, tail = name.rpartition(".")
    if tail not in _METRIC_ATTRS:
        return False
    # Only the telemetry facade / registry objects mint metrics; keep
    # unrelated .counter() methods (e.g. collections.Counter) out.
    return head.endswith("telemetry") or head.endswith("registry") or head == ""


def _is_registry_reference(node: ast.AST, imports: ImportTable) -> bool:
    """True when the name argument references repro.telemetry.names."""
    chain = dotted_chain(node)
    if chain is None:
        return False
    resolved = qualified_name(node, imports)
    if resolved is not None and resolved.startswith(_NAMES_MODULE + "."):
        return True
    # ``from repro.telemetry.names import SPAN_X`` resolves fully above;
    # accept the naming convention as a fallback for aliased imports.
    return chain[-1].startswith(("SPAN_", "METRIC_"))


class SpanNameRule(Rule):
    """SPAN001: literal span/metric names must be in the registry."""

    rule_id = "SPAN001"
    description = (
        "span and metric names passed as string literals must come from "
        "repro.telemetry.names (SPAN_NAMES / METRIC_NAMES / registered "
        "prefixes); consumers key on these names"
    )
    scope = ("repro",)

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        if mod.module.startswith(("repro.telemetry", "repro.audit")):
            # The registry itself and the checker's fixtures are exempt;
            # everything else in the package is held to the contract.
            return
        from repro.telemetry import names as tm

        imports = mod.imports
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            arg = node.args[0]
            if _is_span_call(node, imports):
                yield from self._check_name(
                    mod, node, arg, imports, "span", tm.SPAN_NAMES, ()
                )
            elif _is_metric_call(node, imports):
                yield from self._check_name(
                    mod,
                    node,
                    arg,
                    imports,
                    "metric",
                    tm.METRIC_NAMES,
                    tm.METRIC_PREFIXES,
                )

    def _check_name(
        self,
        mod: SourceModule,
        node: ast.Call,
        arg: ast.AST,
        imports: ImportTable,
        kind: str,
        registry: frozenset[str],
        prefixes: tuple[str, ...],
    ) -> Iterator[Finding]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value not in registry and not arg.value.startswith(
                tuple(prefixes)
            ):
                yield self.finding(
                    mod,
                    node,
                    f"{kind} name {arg.value!r} is not in the canonical "
                    "registry (repro.telemetry.names); register it there "
                    "and reference the constant",
                )
        elif isinstance(arg, ast.JoinedStr):
            yield self.finding(
                mod,
                node,
                f"dynamically formatted {kind} name — use the prefix "
                "helpers in repro.telemetry.names so the prefix stays "
                "registered",
            )
        # Name/Attribute arguments referencing the registry are canonical
        # by construction; other variables are out of static reach.


class SpanWithoutWithRule(Rule):
    """SPAN002: a span must be opened by a ``with`` block."""

    rule_id = "SPAN002"
    description = (
        "tracer.span()/telemetry.span() returns a context manager that "
        "only records on exit; opening one outside a 'with' block leaks "
        "an unclosed span (the manual Tracer.begin/finish/allocate_id "
        "API is sanctioned separately and checked by LIFE001)"
    )
    scope = ("repro",)

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        if mod.module.startswith("repro.audit"):
            return
        imports = mod.imports
        parents = mod.parent_map()
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            if not _is_span_call(node, imports):
                continue
            parent = parents.get(node)
            if isinstance(parent, ast.withitem):
                continue
            if isinstance(parent, ast.Return):
                # A facade returning the context manager for its caller
                # to enter (repro.telemetry.span does exactly this).
                continue
            yield self.finding(
                mod,
                node,
                "span opened outside a 'with' block — it will never "
                "close; write 'with ...span(name) as sp:'",
            )
