"""Figure 28: eDRAM tuning guideline via the Stepping model.

Shows the performance-effective region (PER) between the L3 valley and the
eDRAM capacity, and the two post-peak regimes: convergence with the DDR
plateau when the steady-state eDRAM hit rate is ~0 (panel A) versus a
persistent gap when residual hits remain (panel B).
"""

from __future__ import annotations

import numpy as np

from repro.engine import stepping
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import speedups
from repro.platforms import broadwell
from repro.viz import line_chart


@register("fig28", "eDRAM tuning guideline", "Figure 28")
def run(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig28",
        title="eDRAM tuning via the Stepping model (PER and EER)",
    )
    machine = broadwell()
    n = 60 if quick else 200
    sizes = np.logspace(np.log2(256e3), np.log2(8e9), n, base=2.0)
    # Panel A: zero steady-state hit rate beyond capacity (streaming).
    stream_like = stepping.SteppingWorkload(ai=0.0625, hit_at_fit=1.0, mlp=48)
    on_a = stepping.curve(machine, sizes=sizes, workload=stream_like, edram=True, label="w/ eDRAM")
    off_a = stepping.curve(machine, sizes=sizes, workload=stream_like, edram=False, label="w/o eDRAM")
    result.figures.append(
        line_chart(
            sizes,
            {c.label: c.gflops for c in (on_a, off_a)},
            title="(A) zero residual hit rate: curves converge past the peak",
        )
    )
    result.add_table(
        "panel_a",
        ("size_bytes", "with_edram", "without_edram"),
        list(zip(sizes.tolist(), on_a.gflops.tolist(), off_a.gflops.tolist())),
    )
    # The PER: sizes where eDRAM delivers a speedup.
    speedup = speedups(on_a.gflops, off_a.gflops)
    effective = sizes[speedup > 1.01]
    if len(effective):
        result.notes.append(
            f"Performance-effective region (PER): {effective.min() / 2**20:.1f}"
            f" MB .. {effective.max() / 2**20:.1f} MB "
            f"(max speedup {speedup.max():.2f}x)."
        )
    # EER per Eq. (1): the region where the gain also beats the +8.6%
    # average power cost of enabling eDRAM.
    power_w = 0.086
    eer = sizes[speedup > 1.0 + power_w]
    result.notes.append(
        f"Energy-effective region (EER, gain > {power_w:.1%}) is narrower: "
        + (
            f"{eer.min() / 2**20:.1f} MB .. {eer.max() / 2**20:.1f} MB."
            if len(eer)
            else "empty for this workload."
        )
    )
    result.notes.append(
        "Outside the PER eDRAM does not degrade performance; "
        "performance-focused users should keep it enabled."
    )
    return result
