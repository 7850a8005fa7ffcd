"""Table 5: summarized statistics for the MCDRAM modes on KNL.

Per kernel and per mode (flat/cache/hybrid vs DDR): best GFlop/s, average
and maximum performance gap, average and maximum speedup — over the sweeps
Figures 15-19 and 23-25 plot (``sweeps.sweep``, which evaluates each once
per process), without Figure 23's two sizes beyond MCDRAM capacity and
without the sparse figures' scatter jitter. Negative entries (flat GEMM, hybrid SpTRANS,
SpTRSV) are expected: the paper's Table 5 has them too.
"""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import SWEEP_KERNELS, SWEEP_MODES, summarize, sweep


@register("table5", "MCDRAM mode summary statistics", "Table 5")
def run(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table5",
        title="Summarized statistics for MCDRAM modes (Table 5)",
    )
    base, *modes = SWEEP_MODES["knl"]
    rows = []
    for kernel in SWEEP_KERNELS:
        gflops = sweep("knl", kernel, quick=quick)
        summaries = [summarize(gflops, base=base, opm=mode) for mode in modes]
        rows.append(
            (
                kernel,
                summaries[0].best_base,
                "/".join(f"{s.best_opm:.1f}" for s in summaries),
                "/".join(f"{s.avg_gap:.2f}" for s in summaries),
                "/".join(f"{s.max_gap:.1f}" for s in summaries),
                "/".join(f"{s.avg_speedup:.3f}" for s in summaries),
                "/".join(f"{s.max_speedup:.3f}" for s in summaries),
            )
        )
    result.add_table(
        "summary",
        (
            "kernel",
            "DDR best GFlop/s",
            "Flat/Cache/Hybrid best",
            "avg gap (F/C/H)",
            "max gap (F/C/H)",
            "avg speedup (F/C/H)",
            "max speedup (F/C/H)",
        ),
        rows,
    )
    result.notes.append(
        "Expected sign structure (paper Table 5): MCDRAM gains are not "
        "uniformly positive — flat-mode GEMM (straddling past capacity) and "
        "SpTRSV (latency-bound) can fall below DDR."
    )
    return result
