"""Figure 24: iso3dfd stencil on KNL across MCDRAM modes."""

from __future__ import annotations

from repro.experiments.curves import curve_experiment
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import sweep, sweep_configs


@register("fig24", "Stencil on KNL", "Figure 24")
def run(quick: bool = True) -> ExperimentResult:
    configs = sweep_configs("knl", "Stencil", quick=quick)
    fps = [3 * 8 * k.nx * k.ny * k.nz / 2**20 for k in configs]
    gflops = sweep("knl", "Stencil", quick=quick)
    return curve_experiment("fig24", "iso3dfd stencil on KNL", fps, gflops)
