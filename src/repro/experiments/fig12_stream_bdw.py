"""Figure 12: STREAM TRIAD on Broadwell — the Stepping model live."""

from __future__ import annotations

from repro.experiments.curves import curve_experiment
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import sweep, sweep_configs


@register("fig12", "Stream on Broadwell", "Figure 12")
def run(quick: bool = True) -> ExperimentResult:
    configs = sweep_configs("broadwell", "Stream", quick=quick)
    fps = [3 * 8 * k.n / 2**20 for k in configs]
    gflops = sweep("broadwell", "Stream", quick=quick)
    return curve_experiment("fig12", "STREAM TRIAD on Broadwell", fps, gflops)
