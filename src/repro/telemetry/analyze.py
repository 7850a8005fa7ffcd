"""Trace-analysis toolkit: mine a JSONL span trace offline.

The JSONL sink (:mod:`repro.telemetry.export`) streams spans in close
order; this module rebuilds the forest — from a trace file
(:func:`load_trace`) or from a live tracer's finished spans
(:func:`from_spans`) — and answers the questions the paper's
methodology keeps asking of hardware — *where did the time go* — about
the pipeline itself:

* :func:`render_tree` — indented waterfall of every span with start
  offsets, durations, and attributes;
* :func:`critical_path` — the chain of spans that gated a root's close,
  the direct lever for shaving batch wall time;
* :func:`aggregate_spans` — per-name count / total / self / p50 / p99,
  the one aggregator behind ``profile``, ``report``'s Telemetry section
  and ``trace top``, all printed by :func:`render_top`;
* :func:`fold_stacks` — folded-stack lines (``a;b;c <µs>``) consumable
  by standard flamegraph tooling.

Traces may contain several runs appended to one file (the sink opens in
append mode); span ids restart per process, so the loader splits the
record stream into *generations* whenever an id repeats and roots each
generation independently. Undecodable lines (a worker or parent killed
mid-write) are counted, not fatal — ``repro trace`` surfaces the count.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.telemetry.export import scan_jsonl
from repro.telemetry.spans import Span


@dataclasses.dataclass
class SpanNode:
    """One span rebuilt from the trace file, linked into its tree."""

    span_id: int
    parent_id: int | None
    name: str
    attrs: dict[str, Any]
    start_s: float
    duration_s: float
    children: list["SpanNode"] = dataclasses.field(default_factory=list)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def self_s(self) -> float:
        """Duration minus direct children's durations (clamped at 0)."""
        return max(
            0.0, self.duration_s - sum(c.duration_s for c in self.children)
        )


@dataclasses.dataclass
class TraceFile:
    """Parsed trace: the span forest plus file-health bookkeeping."""

    path: str
    spans: list[SpanNode]
    roots: list[SpanNode]
    n_records: int
    n_manifests: int
    n_skipped_lines: int


def load_trace(path: str | Path) -> TraceFile:
    """Parse a JSONL trace into a rooted forest."""
    records, n_skipped = scan_jsonl(path)
    return _forest(
        [r for r in records if r.get("type") == "span"],
        path=str(path),
        n_records=len(records),
        n_manifests=sum(1 for r in records if r.get("type") == "manifest"),
        n_skipped_lines=n_skipped,
    )


def from_spans(spans: Sequence[Span]) -> TraceFile:
    """The forest of a live tracer's finished spans (``tracer.finished()``).

    A span whose parent is not among ``spans`` (still open, or dropped
    by the ring buffer) becomes a root.
    """
    return _forest(
        [sp.as_dict() for sp in spans],
        path="",
        n_records=len(spans),
        n_manifests=0,
        n_skipped_lines=0,
    )


def _forest(records: Sequence[dict[str, Any]], **bookkeeping: Any) -> TraceFile:
    """Link span records into a forest.

    Records stream in close order (children before parents), so linking
    happens after all of a generation's nodes exist. A repeated span id
    starts a new generation: ids are monotone within one process, so a
    repeat can only mean another run appended to the same file.
    """
    generations: list[dict[int, SpanNode]] = []
    current: dict[int, SpanNode] = {}
    for rec in records:
        sid = rec["span_id"]
        if sid in current:
            generations.append(current)
            current = {}
        current[sid] = SpanNode(
            span_id=sid,
            parent_id=rec.get("parent_id"),
            name=rec.get("name", "?"),
            attrs=dict(rec.get("attrs") or {}),
            start_s=float(rec.get("start_s", 0.0)),
            duration_s=float(rec.get("duration_s", 0.0)),
        )
    if current:
        generations.append(current)
    spans: list[SpanNode] = []
    roots: list[SpanNode] = []
    for generation in generations:
        for node in generation.values():
            spans.append(node)
            parent = (
                generation.get(node.parent_id)
                if node.parent_id is not None
                else None
            )
            if parent is None:
                roots.append(node)
            else:
                parent.children.append(node)
        for node in generation.values():
            node.children.sort(key=lambda c: (c.start_s, c.span_id))
    roots.sort(key=lambda r: (r.start_s, r.span_id))
    return TraceFile(spans=spans, roots=roots, **bookkeeping)


def _fmt_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _fmt_attrs(attrs: dict[str, Any], *, limit: int = 60) -> str:
    parts = [f"{k}={v}" for k, v in sorted(attrs.items())]
    text = " ".join(parts)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# -- tree ---------------------------------------------------------------------


def render_tree(trace: TraceFile, *, max_depth: int | None = None) -> str:
    """Indented waterfall: offset from root, duration, name, attrs."""
    if not trace.spans:
        return "(no spans in trace)"
    lines: list[str] = []
    for root in trace.roots:
        for node, depth in _walk(root, max_depth):
            offset_s = node.start_s - root.start_s
            lines.append(
                f"{'+' + _fmt_duration(offset_s):>10}  "
                f"{_fmt_duration(node.duration_s):>9}  "
                f"{'  ' * depth}{node.name}"
                + (f"  [{_fmt_attrs(node.attrs)}]" if node.attrs else "")
            )
    return "\n".join(lines)


def _walk(
    node: SpanNode, max_depth: int | None, depth: int = 0
) -> Iterator[tuple[SpanNode, int]]:
    yield node, depth
    if max_depth is not None and depth >= max_depth:
        return
    for child in node.children:
        yield from _walk(child, max_depth, depth + 1)


# -- critical path ------------------------------------------------------------


@dataclasses.dataclass
class PathStep:
    """One span on a critical path with its own on-path contribution."""

    node: SpanNode
    self_on_path_s: float  # duration minus the chain of children below it
    depth: int  # the root is 0


def critical_path(trace: TraceFile, root: SpanNode | None = None) -> list[PathStep]:
    """The spans that gated ``root``'s close (default: longest batch root).

    The child that *finishes last* gates its parent; its predecessor is
    the latest-ending sibling that ended before it started, and so on
    back, so children that ran one after another (a serial batch's
    tasks) form one chain. The parent's on-path self time is its
    duration minus the chain's; each chain member is a step one level
    deeper, and the path descends into the longest member.
    """
    if root is None:
        batches = [r for r in trace.roots if r.name == "batch"]
        candidates = batches or trace.roots
        if not candidates:
            return []
        root = max(candidates, key=lambda r: r.duration_s)
    steps: list[PathStep] = []
    _descend(root, 0, steps)
    return steps


def _descend(node: SpanNode, depth: int, steps: list[PathStep]) -> None:
    if not node.children:
        steps.append(PathStep(node, node.duration_s, depth))
        return
    chain = _gating_chain(node.children)
    steps.append(
        PathStep(
            node,
            max(0.0, node.duration_s - sum(c.duration_s for c in chain)),
            depth,
        )
    )
    longest = max(chain, key=lambda c: c.duration_s)
    for member in chain:
        if member is longest:
            _descend(member, depth + 1, steps)
        else:
            steps.append(PathStep(member, member.duration_s, depth + 1))


def _gating_chain(children: Sequence[SpanNode]) -> list[SpanNode]:
    """Back-to-back siblings ending with the one that finishes last."""
    by_end = sorted(children, key=lambda c: (c.end_s, c.duration_s))
    ends = [c.end_s for c in by_end]
    chain: list[SpanNode] = []
    i = len(by_end) - 1
    while i >= 0:
        node = by_end[i]
        chain.append(node)
        # Latest-ending sibling that ended by this one's start; the
        # bound keeps a zero-length span from choosing itself.
        i = min(bisect.bisect_right(ends, node.start_s), i) - 1
    return chain[::-1]


def render_critical_path(steps: Sequence[PathStep]) -> str:
    if not steps:
        return "(no spans in trace)"
    total_s = steps[0].node.duration_s or 1.0
    lines = [
        f"critical path: {len(steps)} span(s), "
        f"{_fmt_duration(steps[0].node.duration_s)} end to end"
    ]
    for step in steps:
        share = step.self_on_path_s / total_s
        lines.append(
            f"{_fmt_duration(step.node.duration_s):>9}  "
            f"{_fmt_duration(step.self_on_path_s):>9} self ({share:>5.1%})  "
            f"{'  ' * step.depth}{step.node.name}"
            + (
                f"  [{_fmt_attrs(step.node.attrs)}]"
                if step.node.attrs
                else ""
            )
        )
    return "\n".join(lines)


# -- per-name aggregation -----------------------------------------------------


@dataclasses.dataclass
class AggRow:
    """Aggregated durations for all spans sharing one name."""

    name: str
    count: int
    total_s: float
    self_s: float  # summed durations minus direct children's durations
    p50_s: float
    p99_s: float
    max_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def aggregate_spans(trace: TraceFile) -> list[AggRow]:
    """Per-name count/total/self/p50/p99/max, ordered by total wall time."""
    by_name: dict[str, list[SpanNode]] = {}
    for node in trace.spans:
        by_name.setdefault(node.name, []).append(node)
    rows = []
    for name, nodes in by_name.items():
        durations = sorted(n.duration_s for n in nodes)
        rows.append(
            AggRow(
                name=name,
                count=len(durations),
                total_s=sum(durations),
                self_s=sum(n.self_s for n in nodes),
                p50_s=_percentile(durations, 0.50),
                p99_s=_percentile(durations, 0.99),
                max_s=durations[-1],
            )
        )
    return sorted(rows, key=lambda r: r.total_s, reverse=True)


def render_top(rows: Sequence[AggRow]) -> str:
    """The per-name table that ``profile``, ``report`` and ``trace top`` print.

    The bar is each name's share of all recorded self time.
    """
    from repro.viz.ascii import hbar

    if not rows:
        return "(no spans in trace)"
    self_total = sum(r.self_s for r in rows) or 1.0
    name_w = max(len("phase"), *(len(r.name) for r in rows))
    lines = [
        f"{'phase':<{name_w}}  {'count':>6}  {'total_s':>9}  {'self_s':>9}  "
        f"{'mean_ms':>9}  {'p50_ms':>9}  {'p99_ms':>9}  self-time"
    ]
    for r in rows:
        share = r.self_s / self_total
        lines.append(
            f"{r.name:<{name_w}}  {r.count:>6}  {r.total_s:>9.4f}  "
            f"{r.self_s:>9.4f}  {r.mean_s * 1e3:>9.3f}  "
            f"{r.p50_s * 1e3:>9.3f}  {r.p99_s * 1e3:>9.3f}  "
            f"{hbar(share, 20)} {share:>6.1%}"
        )
    return "\n".join(lines)


def top_as_json(trace: TraceFile, rows: Sequence[AggRow]) -> str:
    payload = {
        "path": trace.path,
        "n_spans": len(trace.spans),
        "n_skipped_lines": trace.n_skipped_lines,
        "rows": [
            {
                "name": r.name,
                "count": r.count,
                "total_s": r.total_s,
                "self_s": r.self_s,
                "mean_s": r.mean_s,
                "p50_s": r.p50_s,
                "p99_s": r.p99_s,
                "max_s": r.max_s,
            }
            for r in rows
        ],
    }
    return json.dumps(payload, indent=2)


def critical_path_as_json(
    trace: TraceFile, steps: Sequence[PathStep]
) -> str:
    payload = {
        "path": trace.path,
        "n_skipped_lines": trace.n_skipped_lines,
        "steps": [
            {
                "name": s.node.name,
                "attrs": s.node.attrs,
                "depth": s.depth,
                "duration_s": s.node.duration_s,
                "self_on_path_s": s.self_on_path_s,
            }
            for s in steps
        ],
    }
    return json.dumps(payload, indent=2)


# -- flame graphs -------------------------------------------------------------


def fold_stacks(trace: TraceFile) -> list[str]:
    """Folded-stack lines (``root;child;leaf <self-µs>``) per stack.

    The value is *self* time in integer microseconds, the convention
    flamegraph.pl / speedscope / inferno all consume; identical stacks
    aggregate.
    """
    folded: dict[str, int] = {}
    for root in trace.roots:
        _fold(root, (), folded)
    return [
        f"{stack} {value}"
        for stack, value in sorted(folded.items())
        if value > 0
    ]


def _fold(
    node: SpanNode, prefix: tuple[str, ...], folded: dict[str, int]
) -> None:
    stack = (*prefix, node.name)
    key = ";".join(stack)
    folded[key] = folded.get(key, 0) + int(round(node.self_s * 1e6))
    for child in node.children:
        _fold(child, stack, folded)
