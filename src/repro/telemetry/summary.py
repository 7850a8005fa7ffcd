"""The per-phase view of a live tracer that ``profile`` and ``report`` print.

Spans go through the one aggregator,
:func:`repro.telemetry.analyze.aggregate_spans`, and its table renderer
— the same rows ``trace top`` prints for a trace file — optionally
followed by the registry snapshot, one metric per line.
"""

from __future__ import annotations

from typing import Sequence

from repro.telemetry import analyze
from repro.telemetry.spans import Span


def _metric_value(record: dict) -> object:
    """One registry snapshot record as text; histograms summarize."""
    if record["type"] == "histogram":
        return (
            f"n={record['count']} sum={record['sum']:.4g} "
            f"min={record['min']} max={record['max']}"
        )
    value = record["value"]
    return f"{value:.6g}" if isinstance(value, float) else value


def render_profile(
    spans: Sequence[Span], snapshot: dict[str, dict] | None = None
) -> str:
    """Per-phase wall/self-time table with self-time bars, then metrics."""
    rows = analyze.aggregate_spans(analyze.from_spans(spans))
    lines = [analyze.render_top(rows)]
    if snapshot:
        metric_w = max(len(name) for name in snapshot)
        lines += ["", "metrics:"]
        lines.extend(
            f"  {name:<{metric_w}}  {_metric_value(record)}"
            for name, record in snapshot.items()
        )
    return "\n".join(lines)
