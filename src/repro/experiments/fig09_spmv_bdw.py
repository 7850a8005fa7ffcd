"""Figure 9: SpMV (CSR5) on Broadwell."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import sparse_experiment


@register("fig9", "SpMV (CSR5) on Broadwell", "Figure 9")
def run(quick: bool = True) -> ExperimentResult:
    return sparse_experiment(
        "fig9", "SpMV (CSR5) on Broadwell", "SpMV", "broadwell", quick=quick
    )
