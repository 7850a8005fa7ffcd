"""Figure 26: Broadwell power (package + DRAM), with vs without eDRAM."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import geomean, representative_power
from repro.viz import bar_chart


@register("fig26", "Broadwell power breakdown", "Figure 26")
def run(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig26",
        title="Broadwell average power: package and DRAM, w/ vs w/o eDRAM",
    )
    rows = [
        (label, s_off.package_w, s_on.package_w, s_off.dram_w, s_on.dram_w,
         s_on.total_w / s_off.total_w - 1.0)
        for label, s_off, s_on in representative_power("broadwell", "off", "on")
    ]
    # Geometric mean row, as in the paper's "GM" bars. geomean raises
    # on non-positive inputs — a zero watt reading or ratio is a bug,
    # not something to clamp away.
    gm_increase = geomean([r[5] + 1.0 for r in rows]) - 1.0
    rows.append(("GM", *(geomean(watts) for watts in list(zip(*rows))[1:5]), gm_increase))
    labels, pkg_off, pkg_on, dram_off, dram_on, _ = (list(col) for col in zip(*rows))
    result.add_table(
        "power",
        ("kernel", "package_w/o", "package_w/", "dram_w/o", "dram_w/",
         "total_increase"),
        rows,
    )
    result.figures.append(
        bar_chart(
            labels,
            {
                "pkg w/o eDRAM": pkg_off,
                "pkg w/  eDRAM": pkg_on,
                "dram w/o": dram_off,
                "dram w/ ": dram_on,
            },
            title="Broadwell average power (W)",
        )
    )
    # Quote the same statistic as the table's GM row — mixing the
    # arithmetic mean into the note while the row is geometric made the
    # two "averages" silently disagree.
    result.notes.append(
        f"Enabling eDRAM raises total power by {gm_increase:.1%} "
        "(geometric mean across kernels; paper: ~8.6%, +5.6 W)."
    )
    return result
