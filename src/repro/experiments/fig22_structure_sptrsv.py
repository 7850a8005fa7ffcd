"""Figure 22: structure impact of SpTRSV on KNL.

Speedup of flat mode over DDR in the Figure 19 sweep, binned by
(rows, nonzeros).
"""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import structure_experiment


@register("fig22", "Structure impact of SpTRSV on KNL", "Figure 22")
def run(quick: bool = True) -> ExperimentResult:
    return structure_experiment(
        "fig22",
        "Structure impact of SpTRSV on KNL (rows x nnz)",
        "SpTRSV",
        quick=quick,
        note="few rows with moderate nonzeros keep the solve vector cached.",
    )
