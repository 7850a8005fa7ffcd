"""One-shot reproduction report generator.

``opm-repro report -o report.md`` runs every registered experiment and
assembles a single Markdown document: per-artifact data tables (truncated
to a readable size), the drivers' own notes, and a header recording the
configuration — the file you attach to a reproduction claim.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Sequence

from repro import telemetry
from repro._version import __version__
from repro.experiments import all_experiments
from repro.experiments.results import DataTable, ExperimentResult
from repro.runtime import BatchSummary, SharedResultCache, run_batch
from repro.telemetry.summary import render_profile

#: Keep per-table Markdown output readable.
MAX_ROWS = 16


def _markdown_table(table: DataTable, *, max_rows: int = MAX_ROWS) -> str:
    """Render a DataTable as GitHub Markdown, truncating long bodies."""
    out = io.StringIO()
    out.write("| " + " | ".join(str(c) for c in table.columns) + " |\n")
    out.write("|" + "---|" * len(table.columns) + "\n")
    rows = table.rows
    truncated = 0
    if len(rows) > max_rows:
        truncated = len(rows) - max_rows
        rows = rows[:max_rows]
    for row in rows:
        cells = [
            f"{v:.4g}" if isinstance(v, float) else str(v) for v in row
        ]
        out.write("| " + " | ".join(cells) + " |\n")
    if truncated:
        out.write(f"\n*... {truncated} more rows "
                  f"(full data via `opm-repro run {table.name}` + `--csv-dir`)*\n")
    return out.getvalue()


def render_experiment(result: ExperimentResult, artifact: str) -> str:
    """One report section per experiment."""
    out = io.StringIO()
    out.write(f"## {result.experiment_id} — {result.title}\n\n")
    out.write(f"*Paper artifact: {artifact}*\n\n")
    for table in result.tables:
        out.write(f"### {table.name}\n\n")
        out.write(_markdown_table(table))
        out.write("\n")
    if result.notes:
        out.write("**Notes**\n\n")
        for note in result.notes:
            out.write(f"- {note}\n")
        out.write("\n")
    return out.getvalue()


def _telemetry_section(
    manifests: Sequence[telemetry.RunManifest], spans: Sequence[telemetry.Span]
) -> str:
    """Provenance + wall-time appendix built from this report's own run."""
    out = io.StringIO()
    out.write("## Telemetry\n\n")
    out.write(
        "Every result this report computed in-process has a run manifest "
        "here (also available as JSONL via `opm-repro run --no-cache "
        "--trace`); a result served from the cache has none.\n\n"
    )
    out.write(
        "| experiment | manifest | sweep | wall_s | peak_rss_mib | "
        "platforms | status |\n"
        "|---|---|---|---|---|---|---|\n"
    )
    for m in manifests:
        rss = f"{m.peak_rss_bytes / 2**20:.1f}" if m.peak_rss_bytes else "n/a"
        platforms = (
            " ".join(
                f"{name}={','.join(hashes)}"
                for name, hashes in sorted(m.platform_spec_hashes.items())
            )
            or "-"
        )
        out.write(
            f"| {m.experiment_id} | {m.run_id} | "
            f"{'quick' if m.quick else 'full'} | "
            f"{m.wall_time_s:.3f} | {rss} | {platforms} | {m.status} |\n"
        )
    out.write("\nPhases by total wall time:\n\n```\n")
    out.write(render_profile(spans) + "\n```\n\n")
    return out.getvalue()


def batch_summary_section(summary: BatchSummary) -> str:
    """Markdown "Batch execution" section for a scheduler run.

    One row per task (status, result source, wall time, attempts) under a
    headline of the batch-level numbers the runtime's telemetry counters
    also carry: worker count, wall time, and cache hit rate.
    """
    out = io.StringIO()
    out.write("## Batch execution\n\n")
    out.write(
        f"Scheduler: {summary.jobs} worker(s), "
        f"{'quick' if summary.quick else 'full'} sweeps, wall "
        f"{summary.wall_time_s:.2f} s; cache hit rate "
        f"{summary.hit_rate:.1%} "
        f"({summary.cache_hits} hits / {summary.cache_misses} misses), "
        f"{len(summary.skipped)} resumed, {len(summary.failed)} failed, "
        f"{len(summary.timed_out)} timed out.\n\n"
    )
    out.write(
        "| task | status | source | wall_s | attempts |\n"
        "|---|---|---|---|---|\n"
    )
    for o in summary.outcomes:
        if o.status == "skipped":
            source = "journal"
        elif o.cache_hit:
            source = "cache"
        elif o.status == "done":
            source = "computed"
        else:
            source = "-"
        out.write(
            f"| {o.experiment_id} | {o.status} | {source} | "
            f"{o.duration_s:.3f} | {o.attempts} |\n"
        )
    for o in summary.failed:
        out.write(f"\n- `{o.experiment_id}` failed: {o.error}\n")
    for o in summary.timed_out:
        out.write(f"\n- `{o.experiment_id}` timed out: {o.error}\n")
    out.write("\n")
    return out.getvalue()


def generate(
    *,
    quick: bool = True,
    experiment_ids: Sequence[str] | None = None,
    jobs: int = 1,
    cache: SharedResultCache | None = None,
) -> str:
    """Build the full Markdown report (all experiments by default).

    The experiments run through the :mod:`repro.runtime` scheduler
    inside a telemetry session, so the report ends with a "Batch
    execution" section (per-task status, result source, wall time) and
    a provenance section: one run manifest per task computed inline,
    and the phases by wall time. A ``cache`` hit or a pool worker leaves
    no manifest.
    """
    specs = all_experiments()
    ids = list(experiment_ids) if experiment_ids else list(specs)
    out = io.StringIO()
    out.write(
        "# OPM reproduction report\n\n"
        f"Package `repro` v{__version__}; sweeps: "
        f"{'quick (reduced grids)' if quick else 'full (appendix grids)'}; "
        "all inputs deterministic.\n\n"
        "Paper: *Exploring and Analyzing the Real Impact of Modern "
        "On-Package Memory on HPC Scientific Kernels*, SC '17.\n\n"
    )
    out.write("Contents: " + ", ".join(ids) + "\n\n")
    with telemetry.session():
        summary = run_batch(ids, quick=quick, jobs=jobs, cache=cache)
        for outcome in summary.outcomes:
            if outcome.result is None:
                continue
            out.write(
                render_experiment(
                    outcome.result, specs[outcome.experiment_id].paper_artifact
                )
            )
            out.write("\n---\n\n")
        out.write(batch_summary_section(summary))
        out.write(
            _telemetry_section(
                telemetry.manifests(), telemetry.get_tracer().finished()
            )
        )
    return out.getvalue()


def write(path: str | Path, *, quick: bool = True,
          experiment_ids: Sequence[str] | None = None,
          jobs: int = 1, cache: SharedResultCache | None = None) -> Path:
    """Generate and write the report; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        generate(quick=quick, experiment_ids=experiment_ids, jobs=jobs,
                 cache=cache)
    )
    return path
