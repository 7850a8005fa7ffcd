"""Extension study: energy/time Pareto frontiers over OPM configurations.

The paper's Section 5 prices each OPM through Equation (1): one scalar
power increase against one scalar speedup. The per-level energy ledger
lets us ask the richer question — for each kernel, which of the six
memory configurations (Broadwell eDRAM off/on, KNL MCDRAM off / cache /
flat / hybrid) are *Pareto-optimal* on the (time-to-solution,
energy-to-solution) plane, and what does each GFlop/s cost in watts?

Two frontier views are reported:

* ``platform_pareto`` — non-domination among the modes of one machine.
  This is the operational question ("which BIOS setting on my node?")
  and the axis along which the paper's Eq. (1) trade-off lives.
* ``pareto`` — non-domination across all six configurations. This view
  routinely collapses toward KNL flat mode: stacked MCDRAM moves a byte
  for roughly a third of DDR4's energy *and* 5x the bandwidth, so at
  matched footprints the on-package part wins both axes — itself a
  finding worth stating.

Every priced run re-audits the energy-conservation laws; a violation
aborts the experiment (the ledger's books must close, same discipline as
the writeback ledger).
"""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.power.ledger import (
    DEMO_KERNELS,
    ENERGY_CONFIGS,
    demo_kernel,
    pareto_front,
    platform_pareto,
    price_config,
)
from repro.viz import bar_chart


@register("ext8", "Energy/time Pareto frontiers", "Extension (Section 5)")
def run(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext8",
        title="Energy-to-solution vs time-to-solution over OPM configurations",
    )
    reps = 1 if quick else 3
    rows = []
    frontier_rows = []
    labels: list[str] = []
    eff_by_config: dict[str, list[float]] = {
        f"{p}/{m}": [] for p, m in ENERGY_CONFIGS
    }
    degenerate = []
    for name in DEMO_KERNELS:
        kernel = demo_kernel(name)
        runs = [
            price_config(kernel, platform, mode, reps=reps)
            for platform, mode in ENERGY_CONFIGS
        ]
        for run_ in runs:
            violations = run_.ledger.conservation_violations()
            if violations:
                raise ValueError(
                    f"{name} on {run_.platform}/{run_.mode}: energy books "
                    f"do not close: {'; '.join(violations)}"
                )
        global_flags = pareto_front(runs)
        platform_flags = platform_pareto(runs)
        labels.append(name)
        for i, run_ in enumerate(runs):
            eff_by_config[f"{run_.platform}/{run_.mode}"].append(
                run_.gflops_per_watt
            )
            rows.append(
                (
                    name,
                    run_.platform,
                    run_.mode,
                    run_.seconds,
                    run_.energy_j,
                    run_.dynamic_j,
                    run_.edp_js,
                    run_.gflops_per_watt,
                    int(global_flags[i]),
                    int(platform_flags[i]),
                )
            )
        # Distinct (seconds, energy) points on the per-platform frontiers.
        points = {
            (r.seconds, r.energy_j) for r, f in zip(runs, platform_flags) if f
        }
        if len(points) < 2:
            degenerate.append(name)
        frontier_rows.append(
            (name, sum(global_flags), sum(platform_flags), len(points))
        )
    result.add_table(
        "pareto",
        (
            "kernel",
            "platform",
            "mode",
            "seconds",
            "energy_j",
            "dynamic_j",
            "edp_js",
            "gflops_per_watt",
            "pareto",
            "platform_pareto",
        ),
        rows,
    )
    result.add_table(
        "frontiers",
        ("kernel", "global_optimal", "platform_optimal", "distinct_points"),
        frontier_rows,
    )
    result.figures.append(
        bar_chart(
            labels,
            eff_by_config,
            title="Energy efficiency by configuration",
            unit="GF/W",
        )
    )
    if degenerate:
        result.notes.append(
            "DEGENERATE frontiers (fewer than 2 distinct Pareto points): "
            + ", ".join(degenerate)
        )
    else:
        result.notes.append(
            "Every kernel's frontier is non-degenerate: >= 2 distinct "
            "(seconds, energy) Pareto points across the six configurations."
        )
    knl_flat_wins = sum(
        1
        for r in rows
        if r[1] == "knl" and r[2] == "flat" and r[8]  # global pareto flag
    )
    result.notes.append(
        f"KNL flat mode sits on the global frontier for {knl_flat_wins} of "
        f"{len(DEMO_KERNELS)} kernels: on-package MCDRAM moves a byte cheaper "
        "and faster than DDR, so cross-machine comparison favours it on "
        "both axes; the Broadwell-vs-eDRAM trade-off lives on the "
        "platform_pareto column (Eq. (1) regime)."
    )
    return result
