"""Figure 10: SpTRANS (ScanTrans) on Broadwell."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import sparse_experiment


@register("fig10", "SpTRANS (ScanTrans) on Broadwell", "Figure 10")
def run(quick: bool = True) -> ExperimentResult:
    return sparse_experiment(
        "fig10", "SpTRANS (ScanTrans) on Broadwell", "SpTRANS", "broadwell", quick=quick
    )
