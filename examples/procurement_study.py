"""Procurement study: is the OPM-equipped part worth it for *your* mix?

The paper names procurement specialists as audience (A): people deciding
whether to buy OPM-equipped processors for a known application mix. This
example scores a weighted workload mix on Broadwell with and without
eDRAM, and on KNL against the DDR-only configuration, reporting weighted
speedup, power increase and the Eq. (1) energy verdict.

Run with:  python examples/procurement_study.py
"""

from repro import platforms
from repro.engine import estimate
from repro.kernels import (
    FftKernel,
    GemmKernel,
    SpmvKernel,
    StencilKernel,
    StreamKernel,
)
from repro.platforms import McdramMode
from repro.power import compare, measure
from repro.sparse import from_params

#: The site's application mix: kernel factory and its share of cycles.
WORKLOAD_MIX = [
    ("CFD stencil", 0.40, lambda: StencilKernel(512, 512, 512, threads=8)),
    ("sparse solver", 0.25, lambda: SpmvKernel(
        descriptor=from_params("site", "grid3d", 3_000_000, 90_000_000, seed=3)
    )),
    ("dense chemistry", 0.20, lambda: GemmKernel(order=8192, tile=256)),
    ("signal processing", 0.10, lambda: FftKernel(size=288)),
    ("data movement", 0.05, lambda: StreamKernel(n=2**24)),
]


def study_broadwell() -> None:
    print("=" * 64)
    print("Broadwell i7-5775C: eDRAM on vs off")
    print("=" * 64)
    m_on = platforms.broadwell(edram=True)
    m_off = platforms.broadwell(edram=False)
    weighted_speedup = 0.0
    for name, weight, factory in WORKLOAD_MIX:
        profile = factory().profile()
        r_on = estimate(profile, m_on, edram=True)
        r_off = estimate(profile, m_off, edram=False)
        s_on = measure(r_on, m_on)
        s_off = measure(r_off, m_off)
        cmp = compare(s_on, s_off)
        weighted_speedup += weight * (1.0 + cmp.perf_gain)
        verdict = "saves energy" if cmp.saves_energy else "costs energy"
        print(
            f"  {name:<18} w={weight:.2f}  speedup {1 + cmp.perf_gain:5.2f}x  "
            f"power {cmp.power_increase:+6.1%}  -> {verdict}"
        )
    print(f"\n  weighted mix speedup with eDRAM: {weighted_speedup:.2f}x")
    print(
        "  recommendation:",
        "buy the eDRAM part"
        if weighted_speedup > 1.05
        else "eDRAM not decisive for this mix",
    )


def study_knl() -> None:
    print()
    print("=" * 64)
    print("KNL 7210: best MCDRAM mode vs DDR-only, per application")
    print("=" * 64)
    machine = platforms.knl()
    for name, _weight, factory in WORKLOAD_MIX:
        profile = factory().profile()
        ddr = estimate(profile, machine, mcdram=McdramMode.OFF)
        best_mode, best = max(
            (
                (mode, estimate(profile, machine, mcdram=mode))
                for mode in (McdramMode.FLAT, McdramMode.CACHE, McdramMode.HYBRID)
            ),
            key=lambda kv: kv[1].gflops,
        )
        print(
            f"  {name:<18} DDR {ddr.gflops:8.1f} -> {best.gflops:8.1f} GFlop/s "
            f"({best.gflops / ddr.gflops:4.2f}x, best: {best_mode.value} mode)"
        )


if __name__ == "__main__":
    study_broadwell()
    study_knl()
