"""Figure 7: GEMM heatmaps on Broadwell, with and without eDRAM."""

from __future__ import annotations

from repro.experiments.dense import heatmap_experiment
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult


@register("fig7", "GEMM on Broadwell (heatmaps)", "Figure 7")
def run(quick: bool = True) -> ExperimentResult:
    return heatmap_experiment(
        "fig7", "GEMM on Broadwell (order x tile)", "GEMM", "broadwell", quick=quick
    )
