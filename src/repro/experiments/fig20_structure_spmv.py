"""Figure 20: structure impact of SpMV on KNL.

Speedup of flat mode over DDR in the Figure 17 sweep, binned by
(rows, nonzeros).
"""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import structure_experiment


@register("fig20", "Structure impact of SpMV on KNL", "Figure 20")
def run(quick: bool = True) -> ExperimentResult:
    return structure_experiment(
        "fig20",
        "Structure impact of SpMV on KNL (rows x nnz)",
        "SpMV",
        quick=quick,
        note="small row counts cache their vectors efficiently.",
    )
