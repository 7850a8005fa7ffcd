"""Figure 29: MCDRAM tuning guideline via the Stepping model.

Reproduces the four-curve comparison (w/o MCDRAM, cache, flat, hybrid)
and derives the paper's mode-selection rules (Section 6, guidelines
I-IV).
"""

from __future__ import annotations

import numpy as np

from repro.engine import stepping
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import speedups
from repro.platforms import McdramMode, knl
from repro.platforms.tuning import ALL_MCDRAM_MODES
from repro.viz import line_chart


@register("fig29", "MCDRAM tuning guideline", "Figure 29")
def run(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig29",
        title="MCDRAM tuning via the Stepping model (mode selection)",
    )
    machine = knl()
    n = 60 if quick else 200
    sizes = np.logspace(np.log2(64e6), np.log2(128e9), n, base=2.0)
    workload = stepping.SteppingWorkload(ai=0.0625, mlp=512)
    curves = {
        str(mode): stepping.curve(
            machine, sizes=sizes, workload=workload, mcdram=mode
        )
        for mode in ALL_MCDRAM_MODES
    }
    result.figures.append(
        line_chart(
            sizes,
            {label: c.gflops for label, c in curves.items()},
            title="MCDRAM modes over problem size",
        )
    )
    result.add_table(
        "curves",
        ("size_bytes", *(curves.keys())),
        [
            (s, *(float(c.gflops[i]) for c in curves.values()))
            for i, s in enumerate(sizes.tolist())
        ],
    )
    flat = curves[str(McdramMode.FLAT)].gflops
    cache = curves[str(McdramMode.CACHE)].gflops
    hybrid = curves[str(McdramMode.HYBRID)].gflops
    ddr = curves[str(McdramMode.OFF)].gflops
    gib = 2.0**30
    in_cap = sizes <= 16 * gib
    result.notes.append(
        "Guideline II — flat mode is best when the data set fits MCDRAM: "
        f"flat >= cache on {float(np.mean(flat[in_cap] >= cache[in_cap] - 1e-9)):.0%} "
        "of in-capacity sizes."
    )
    past = sizes > 16 * gib
    result.notes.append(
        "Guideline I/IV — past MCDRAM capacity, flat mode collapses below "
        f"DDR (min ratio {float((flat[past] / ddr[past]).min()):.2f}x) while "
        "cache/hybrid modes degrade gracefully."
    )
    mid = (sizes > 8 * gib) & (sizes <= 16 * gib)
    if mid.any():
        result.notes.append(
            "Guideline III — hybrid peaks where the hot set fits its cache "
            "half but the data exceeds the flat half: hybrid/cache ratio "
            f"up to {float(speedups(hybrid[mid], cache[mid]).max()):.2f}x there."
        )
    return result
