"""Figure 25: 3-D FFT on KNL across MCDRAM modes."""

from __future__ import annotations

from repro.experiments.curves import curve_experiment
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import sweep, sweep_configs


@register("fig25", "FFT on KNL", "Figure 25")
def run(quick: bool = True) -> ExperimentResult:
    configs = sweep_configs("knl", "FFT", quick=quick)
    fps = [48 * k.size**3 / 2**20 for k in configs]
    gflops = sweep("knl", "FFT", quick=quick)
    return curve_experiment("fig25", "3-D FFT on KNL", fps, gflops)
