"""Figure 18: SpTRANS (MergeTrans) on KNL."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import sparse_experiment


@register("fig18", "SpTRANS (MergeTrans) on KNL", "Figure 18")
def run(quick: bool = True) -> ExperimentResult:
    return sparse_experiment(
        "fig18", "SpTRANS (MergeTrans) on KNL", "SpTRANS", "knl", quick=quick
    )
