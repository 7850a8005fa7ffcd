"""Figure 13: iso3dfd stencil on Broadwell."""

from __future__ import annotations

from repro.experiments.curves import curve_experiment
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import sweep, sweep_configs


@register("fig13", "Stencil on Broadwell", "Figure 13")
def run(quick: bool = True) -> ExperimentResult:
    configs = sweep_configs("broadwell", "Stencil", quick=quick)
    fps = [3 * 8 * k.nx * k.ny * k.nz / 2**20 for k in configs]
    gflops = sweep("broadwell", "Stencil", quick=quick)
    return curve_experiment("fig13", "iso3dfd stencil on Broadwell", fps, gflops)
