"""Figure 27: KNL power (package + DDR), with vs without MCDRAM use.

"w/o MCDRAM" only means MCDRAM is unused: it cannot be powered down, so
its static draw appears in both bars (paper Section 5.2). Heavy MCDRAM
use can *reduce* DDR (and sometimes total) power by absorbing traffic.
"""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import geomean, representative_power
from repro.viz import bar_chart


@register("fig27", "KNL power breakdown", "Figure 27")
def run(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig27",
        title="KNL average power: package and DDR, w/ vs w/o MCDRAM (flat)",
    )
    rows = [
        (label, s_ddr.package_w, s_flat.package_w, s_ddr.dram_w, s_flat.dram_w,
         s_flat.total_w / s_ddr.total_w - 1.0)
        for label, s_ddr, s_flat in representative_power("knl", "off", "flat")
    ]
    # Same discipline as fig26: shared geomean, loud on non-positive
    # inputs, and one statistic quoted everywhere.
    gm_increase = geomean([r[5] + 1.0 for r in rows]) - 1.0
    rows.append(("GM", *(geomean(watts) for watts in list(zip(*rows))[1:5]), gm_increase))
    labels, pkg_off, pkg_on, dram_off, dram_on, _ = (list(col) for col in zip(*rows))
    result.add_table(
        "power",
        ("kernel", "package_w/o", "package_w/", "ddr_w/o", "ddr_w/",
         "total_increase"),
        rows,
    )
    result.figures.append(
        bar_chart(
            labels,
            {
                "pkg w/o MCDRAM": pkg_off,
                "pkg w/  MCDRAM": pkg_on,
                "ddr w/o": dram_off,
                "ddr w/ ": dram_on,
            },
            title="KNL average power (W)",
        )
    )
    ddr_drops = sum(1 for r in rows[:-1] if r[4] < r[3])
    result.notes.append(
        f"MCDRAM flat mode reduces DDR power on {ddr_drops} of "
        f"{len(rows) - 1} kernels by absorbing DRAM traffic (paper's "
        "GEMM/Cholesky/SpTRANS/FFT observation)."
    )
    result.notes.append(
        f"Using MCDRAM raises total power by {gm_increase:.1%} "
        "(geometric mean across kernels; paper: ~6.9% for flat mode)."
    )
    return result
