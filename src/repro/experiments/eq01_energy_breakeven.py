"""Equation (1): the OPM energy breakeven condition, per kernel.

E_w/OPM / E_w/oOPM = (1+W)/(1+P) — the OPM saves energy when its
performance gain P exceeds its power increase W (paper: on average
W = 8.6% for eDRAM and 6.9% for MCDRAM flat).
"""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import representative_power
from repro.power import compare, energy_ratio


@register("eq1", "OPM energy breakeven (Equation 1)", "Equation (1)")
def run(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="eq1",
        title="Energy breakeven per kernel (Equation 1)",
    )
    # Broadwell: eDRAM on vs physically off.
    rows = []
    for label, s_off, s_on in representative_power("broadwell", "off", "on"):
        cmp = compare(s_on, s_off)
        rows.append(
            (
                label,
                cmp.perf_gain,
                cmp.power_increase,
                cmp.energy_ratio,
                "yes" if cmp.saves_energy else "no",
            )
        )
    result.add_table(
        "edram_breakeven",
        ("kernel", "perf_gain_P", "power_increase_W", "energy_ratio", "saves_energy"),
        rows,
    )
    # KNL: MCDRAM flat vs DDR (MCDRAM static power burned in both).
    rows = []
    for label, s_ddr, s_flat in representative_power("knl", "off", "flat"):
        cmp = compare(s_flat, s_ddr)
        rows.append(
            (
                label,
                cmp.perf_gain,
                cmp.power_increase,
                cmp.energy_ratio,
                "yes" if cmp.saves_energy else "no",
            )
        )
    result.add_table(
        "mcdram_breakeven",
        ("kernel", "perf_gain_P", "power_increase_W", "energy_ratio", "saves_energy"),
        rows,
    )
    result.notes.append(
        "Closed form: OPM saves energy iff P > W; e.g. a W of 8.6% "
        f"requires a speedup above {1 + 0.086:.3f}x "
        f"(ratio at exactly P=W: {energy_ratio(0.086, 0.086):.3f})."
    )
    return result
