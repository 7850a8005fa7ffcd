"""Rule engine for the repo's AST-based invariant checker.

The engine owns everything rule-agnostic: file discovery, parsing,
module-name resolution, suppression comments, rule selection, and
finding aggregation. Rules are small classes that inspect parsed
modules (:class:`SourceModule`) and yield :class:`Finding` objects;
they never read files themselves.

Two inspection granularities exist because the invariants do:

* ``check_module(mod)`` — runs once per file; enough for rules whose
  evidence is local (an unseeded RNG call, a mis-named span).
* ``check_project(mods, ctx)`` — runs once with every scanned file;
  needed for rules that follow references across files (worker purity
  and fork-safety walk the call graph from experiment drivers into the
  modules they import).

Each source file is read and parsed exactly once per run, and the
expensive derived artifacts are shared: every rule sees the same
:class:`SourceModule` (one AST, one lazily-built import table, one
parent map) and project rules share one :class:`ProjectContext` whose
conservative call graph is built at most once per run no matter how
many rules walk it. ``run_audit`` returns an :class:`AuditResult` that
still unpacks as the historical ``(findings, n_files)`` pair but also
carries per-rule wall-clock timings for ``--stats``.

Suppression is per line: appending ``# audit: ignore[RULE1,RULE2]`` to
the flagged line silences exactly those rules there (bare
``# audit: ignore`` silences every rule on the line). Suppressions are
deliberate and visible in review — the checker has no global baseline
file to hide debt in.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import time
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

#: Rule id reserved for files the engine cannot parse.
PARSE_RULE_ID = "PARSE001"

_SUPPRESS_RE = re.compile(
    r"#\s*audit:\s*ignore(?:\[(?P<rules>[A-Z0-9_,\s]+)\])?"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    message: str
    severity: str = "error"  # "error" | "warning"

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"


class SourceModule:
    """One parsed source file plus the metadata rules need."""

    def __init__(self, path: Path, source: str, module: str) -> None:
        self.path = path
        self.source = source
        self.module = module  # dotted name, "" when not package-resolvable
        self.lines = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.suppressions = _parse_suppressions(self.lines)
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._imports: Any = None

    @property
    def imports(self) -> Any:
        """The module's :class:`~repro.audit.resolve.ImportTable`.

        Built on first use and shared by every rule, so N rules never
        re-scan the import statements N times.
        """
        if self._imports is None:
            from repro.audit.resolve import ImportTable

            self._imports = ImportTable(self.tree, self.module)
        return self._imports

    def parent_map(self) -> dict[ast.AST, ast.AST]:
        """Child node -> parent node for the whole tree (lazily built)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def suppressed(self, rule_id: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return not rules or rule_id in rules


def _parse_suppressions(lines: Sequence[str]) -> dict[int, frozenset[str]]:
    """1-based line -> suppressed rule ids (empty set = all rules)."""
    found: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(text)
        if m is None:
            continue
        spec = m.group("rules")
        if spec is None:
            found[lineno] = frozenset()
        else:
            found[lineno] = frozenset(
                part.strip() for part in spec.split(",") if part.strip()
            )
    return found


class Rule:
    """Base class: one invariant, one id, an optional module scope."""

    rule_id: str = ""
    description: str = ""
    severity: str = "error"
    #: Dotted-module prefixes this rule applies to; empty = every file.
    scope: tuple[str, ...] = ()

    def applies_to(self, mod: SourceModule) -> bool:
        if not self.scope:
            return True
        return any(
            mod.module == prefix or mod.module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        return ()

    def check_project(
        self,
        mods: Sequence[SourceModule],
        ctx: "ProjectContext | None" = None,
    ) -> Iterable[Finding]:
        return ()

    def finding(
        self, mod: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=str(mod.path),
            line=getattr(node, "lineno", 1),
            message=message,
            severity=self.severity,
        )


class ProjectContext:
    """Per-run artifacts shared by every project-scope rule.

    The conservative call graph is the expensive one — building it
    walks every scanned AST — so it is constructed at most once per
    audit run, on first request, and handed to each project rule
    instead of each rule rebuilding its own copy.
    """

    def __init__(self, mods: Sequence[SourceModule]) -> None:
        self.mods = mods
        self._callgraph: Any = None

    def callgraph(self) -> Any:
        """The worker-reachability :class:`~repro.audit.callgraph.CallGraph`
        over the run's ``repro``-package modules (built lazily, once)."""
        if self._callgraph is None:
            from repro.audit.callgraph import CallGraph

            scoped = [
                m
                for m in self.mods
                if m.module == "repro" or m.module.startswith("repro.")
            ]
            self._callgraph = CallGraph(scoped)
        return self._callgraph


@dataclasses.dataclass
class AuditResult:
    """What one audit run produced.

    Unpacks as the historical ``(findings, n_files)`` pair so existing
    callers keep working; ``rule_timings`` maps rule id -> seconds spent
    in that rule (module passes + project pass) for ``--stats``.
    """

    findings: list[Finding]
    n_files: int
    rule_timings: dict[str, float] = dataclasses.field(default_factory=dict)

    def __iter__(self) -> Iterator[Any]:
        return iter((self.findings, self.n_files))

    def __getitem__(self, index: int) -> Any:
        return (self.findings, self.n_files)[index]


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name for ``path``.

    Anchors at the *last* path component named like a package root we
    know about (``repro``, ``tests``, ``benchmarks``); fixture trees in
    temp directories resolve the same way as the real package, so scoped
    rules behave identically in tests.
    """
    parts = list(path.parts)
    anchor = None
    for i, part in enumerate(parts[:-1]):
        if part in ("repro", "tests", "benchmarks"):
            anchor = i
    if anchor is None:
        return ""
    dotted = list(parts[anchor:-1]) + [path.stem]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def discover_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            for sub in path.rglob("*.py"):
                if "__pycache__" not in sub.parts:
                    seen.add(sub)
        elif path.suffix == ".py":
            seen.add(path)
    return sorted(seen)


def load_module(path: Path) -> SourceModule | Finding:
    """Parse one file; a parse failure is itself a finding."""
    try:
        source = path.read_text(encoding="utf-8")
        return SourceModule(path, source, module_name_for(path))
    except (OSError, SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        return Finding(
            rule_id=PARSE_RULE_ID,
            path=str(path),
            line=line,
            message=f"cannot parse file: {exc}",
        )


def default_rules() -> list[Rule]:
    """One instance of every shipped rule, grouped by family."""
    from repro.audit.asyncrules import (
        BlockingCallInAsyncRule,
        ShieldOwnerRule,
        TaskRetentionRule,
    )
    from repro.audit.determinism import UnseededRandomRule, WallClockRule
    from repro.audit.liferules import ForkSharedSinkRule, SpanLifecycleRule
    from repro.audit.purity import GlobalMutationRule, UnfingerprintedEnvRule
    from repro.audit.registry_rules import RegistryIdRule
    from repro.audit.spanrules import SpanNameRule, SpanWithoutWithRule
    from repro.audit.units import MixedUnitsRule

    return [
        UnseededRandomRule(),
        WallClockRule(),
        SpanNameRule(),
        SpanWithoutWithRule(),
        GlobalMutationRule(),
        UnfingerprintedEnvRule(),
        MixedUnitsRule(),
        RegistryIdRule(),
        BlockingCallInAsyncRule(),
        ShieldOwnerRule(),
        TaskRetentionRule(),
        SpanLifecycleRule(),
        ForkSharedSinkRule(),
    ]


def run_audit(
    paths: Sequence[Path | str],
    *,
    select: Iterable[str] | None = None,
    rules: Sequence[Rule] | None = None,
) -> AuditResult:
    """Audit ``paths``; returns an :class:`AuditResult`.

    The result unpacks as ``(non-suppressed findings, files scanned)``.
    ``select`` restricts to the given rule ids; unknown ids raise
    ``ValueError`` (the CLI maps that to exit code 2).
    """
    rules = list(default_rules() if rules is None else rules)
    if select is not None:
        wanted = {s.strip().upper() for s in select if s.strip()}
        known = {rule.rule_id for rule in rules}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        rules = [rule for rule in rules if rule.rule_id in wanted]

    findings: list[Finding] = []
    mods: list[SourceModule] = []
    for path in discover_files(Path(p) for p in paths):
        loaded = load_module(path)
        if isinstance(loaded, Finding):
            findings.append(loaded)
        else:
            mods.append(loaded)

    by_path = {str(m.path): m for m in mods}
    ctx = ProjectContext(mods)
    timings: dict[str, float] = {}
    for rule in rules:
        started = time.perf_counter()
        raw: list[Finding] = []
        for mod in mods:
            if rule.applies_to(mod):
                raw.extend(rule.check_module(mod))
        raw.extend(rule.check_project(mods, ctx))
        timings[rule.rule_id] = time.perf_counter() - started
        for finding in raw:
            mod = by_path.get(finding.path)
            if mod is not None and mod.suppressed(
                finding.rule_id, finding.line
            ):
                continue
            findings.append(finding)

    findings.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    n_files = len(mods) + sum(
        1 for f in findings if f.rule_id == PARSE_RULE_ID
    )
    return AuditResult(findings, n_files, timings)
