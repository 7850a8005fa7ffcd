"""Figure 16: Cholesky heatmaps on KNL across the four MCDRAM modes."""

from __future__ import annotations

from repro.experiments.dense import heatmap_experiment
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult


@register("fig16", "Cholesky on KNL (4-mode heatmaps)", "Figure 16")
def run(quick: bool = True) -> ExperimentResult:
    return heatmap_experiment(
        "fig16", "Cholesky on KNL (order x tile)", "Cholesky", "knl", quick=quick
    )
