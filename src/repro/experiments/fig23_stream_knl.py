"""Figure 23: STREAM TRIAD on KNL across MCDRAM modes."""

from __future__ import annotations

import numpy as np

from repro.experiments.curves import curve_experiment
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import run_sweep, sweep, sweep_configs
from repro.kernels import StreamKernel


@register("fig23", "Stream on KNL", "Figure 23")
def run(quick: bool = True) -> ExperimentResult:
    configs = sweep_configs("knl", "Stream", quick=quick)
    # Extend beyond MCDRAM capacity to expose the flat-mode cliff. Table 5
    # leaves these two sizes out, so only they are evaluated here.
    beyond = [StreamKernel(n=configs[-1].n * f) for f in (4, 16)]
    fps = [3 * 8 * k.n / 2**20 for k in configs + beyond]
    swept, extra = sweep("knl", "Stream", quick=quick), run_sweep(beyond, "knl")
    gflops = {label: np.concatenate([swept[label], extra[label]]) for label in swept}
    return curve_experiment("fig23", "STREAM TRIAD on KNL", fps, gflops)
