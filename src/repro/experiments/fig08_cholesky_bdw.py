"""Figure 8: Cholesky heatmaps on Broadwell, with and without eDRAM."""

from __future__ import annotations

from repro.experiments.dense import heatmap_experiment
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult


@register("fig8", "Cholesky on Broadwell (heatmaps)", "Figure 8")
def run(quick: bool = True) -> ExperimentResult:
    return heatmap_experiment(
        "fig8", "Cholesky on Broadwell (order x tile)", "Cholesky", "broadwell", quick=quick
    )
