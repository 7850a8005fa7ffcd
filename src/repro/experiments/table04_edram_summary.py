"""Table 4: summarized statistics for applying eDRAM on Broadwell.

Per kernel: best GFlop/s without and with eDRAM, average and maximum
performance gap, average and maximum speedup — over the sweeps Figures
7-14 plot (``sweeps.sweep``, which evaluates each once per process),
without the sparse figures' scatter jitter.
"""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import SWEEP_KERNELS, SWEEP_MODES, summarize, sweep


@register("table4", "eDRAM summary statistics", "Table 4")
def run(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table4",
        title="Summarized statistics for applying eDRAM (Table 4)",
    )
    base, opm = SWEEP_MODES["broadwell"]
    rows = []
    speedup_sums = []
    for kernel in SWEEP_KERNELS:
        s = summarize(sweep("broadwell", kernel, quick=quick), base=base, opm=opm)
        rows.append(
            (
                kernel,
                s.best_base,
                s.best_opm,
                s.avg_gap,
                s.max_gap,
                s.avg_speedup,
                s.max_speedup,
            )
        )
        speedup_sums.append(s.avg_speedup)
    result.add_table(
        "summary",
        (
            "kernel",
            "w/o eDRAM best GFlop/s",
            "w/ eDRAM best GFlop/s",
            "avg gap",
            "max gap",
            "avg speedup",
            "max speedup",
        ),
        rows,
    )
    never_worse = all(r[6] >= 0.999 and r[2] >= r[1] * 0.999 for r in rows)
    result.notes.append(
        "eDRAM never degrades best-case performance across kernels: "
        + ("confirmed." if never_worse else "VIOLATED — inspect model.")
    )
    result.notes.append(
        f"Average speedup across kernels: "
        f"{sum(speedup_sums) / len(speedup_sums):.3f}x "
        "(paper reports 18.6% average gain, up to 3.54x on Cholesky)."
    )
    return result
