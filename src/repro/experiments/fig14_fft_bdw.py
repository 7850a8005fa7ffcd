"""Figure 14: 3-D FFT on Broadwell."""

from __future__ import annotations

from repro.experiments.curves import curve_experiment
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import sweep, sweep_configs


@register("fig14", "FFT on Broadwell", "Figure 14")
def run(quick: bool = True) -> ExperimentResult:
    configs = sweep_configs("broadwell", "FFT", quick=quick)
    fps = [48 * k.size**3 / 2**20 for k in configs]
    gflops = sweep("broadwell", "FFT", quick=quick)
    return curve_experiment("fig14", "3-D FFT on Broadwell", fps, gflops)
