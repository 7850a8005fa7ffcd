"""Figure 19: SpTRSV (level-scheduled) on KNL."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import sparse_experiment


@register("fig19", "SpTRSV (level-scheduled) on KNL", "Figure 19")
def run(quick: bool = True) -> ExperimentResult:
    return sparse_experiment(
        "fig19", "SpTRSV (level-scheduled) on KNL", "SpTRSV", "knl", quick=quick
    )
