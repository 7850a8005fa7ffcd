"""Figure 11: SpTRSV (level-scheduled) on Broadwell."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import sparse_experiment


@register("fig11", "SpTRSV (level-scheduled) on Broadwell", "Figure 11")
def run(quick: bool = True) -> ExperimentResult:
    return sparse_experiment(
        "fig11", "SpTRSV (level-scheduled) on Broadwell", "SpTRSV", "broadwell", quick=quick
    )
