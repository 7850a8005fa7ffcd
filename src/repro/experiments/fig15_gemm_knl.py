"""Figure 15: GEMM heatmaps on KNL across the four MCDRAM modes."""

from __future__ import annotations

from repro.experiments.dense import heatmap_experiment
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult


@register("fig15", "GEMM on KNL (4-mode heatmaps)", "Figure 15")
def run(quick: bool = True) -> ExperimentResult:
    return heatmap_experiment(
        "fig15", "GEMM on KNL (order x tile)", "GEMM", "knl", quick=quick
    )
