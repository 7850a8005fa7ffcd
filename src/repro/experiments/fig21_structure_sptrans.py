"""Figure 21: structure impact of SpTRANS on KNL.

Speedup of flat mode over DDR in the Figure 18 sweep, binned by
(rows, nonzeros).
"""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import structure_experiment


@register("fig21", "Structure impact of SpTRANS on KNL", "Figure 21")
def run(quick: bool = True) -> ExperimentResult:
    return structure_experiment(
        "fig21",
        "Structure impact of SpTRANS on KNL (rows x nnz)",
        "SpTRANS",
        quick=quick,
        note="small overall problems reuse best; SpTRANS has little other reuse.",
    )
