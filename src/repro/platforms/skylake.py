"""Intel Skylake with memory-side eDRAM — the paper's Section 2.1 contrast.

Haswell/Broadwell place the eDRAM as a *CPU-side victim cache* whose tags
live in L3; Skylake moved it "to the position upon DRAM controllers ...
more like a memory-side buffer rather than a cache" (paper Section 2.1).
The paper evaluates only Broadwell (the one part whose eDRAM has a BIOS
switch) but repeatedly contrasts the two designs, so this module provides
the Skylake-shaped machine for the cpu-side-vs-memory-side design study
(`experiments/ext_edram_placement`).

Spec basis: Core i7-6770HQ-class part — 4 cores at 3.5 GHz, 64 MB eDRAM,
DDR4-2133. The eDRAM is modelled with ``kind="memory-side"`` and, unlike
MCDRAM, it acts purely as a DRAM cache (no flat/hybrid modes).
"""

from __future__ import annotations

from repro.platforms.spec import (
    GIB,
    KIB,
    MIB,
    EnergyCoefficients,
    MachineSpec,
    MemLevelSpec,
    OpmSpec,
)

#: DRAM domain coefficients. Declared explicitly: before the power model
#: required them, Skylake silently inherited Broadwell-ish defaults.
DRAM_STANDBY_W = 1.6
DRAM_W_PER_GBS = 0.08

#: eDRAM activity power at full bandwidth utilization (same OPIO
#: generation as Broadwell's part).
EDRAM_ACTIVE_W = 5.0

#: Per-line dynamic energy (pJ per 64-byte line).
L1_ENERGY = EnergyCoefficients(hit_pj=14.0, miss_pj=4.0, fill_pj=19.0, writeback_pj=19.0)
L2_ENERGY = EnergyCoefficients(hit_pj=42.0, miss_pj=9.0, fill_pj=52.0, writeback_pj=52.0)
L3_ENERGY = EnergyCoefficients(hit_pj=115.0, miss_pj=24.0, fill_pj=135.0, writeback_pj=135.0)
EDRAM_ENERGY = EnergyCoefficients(
    hit_pj=470.0, miss_pj=65.0, fill_pj=520.0, writeback_pj=520.0
)
DDR4_ENERGY = EnergyCoefficients(
    hit_pj=1750.0, miss_pj=0.0, fill_pj=1750.0, writeback_pj=1950.0
)

CORES = 4
FREQ_GHZ = 3.5
SP_PEAK = 448.0
DP_PEAK = 224.0
DDR_BW = 34.1
EDRAM_BW = 102.4
EDRAM_CAPACITY = 64 * MIB


def skylake_edram_spec() -> OpmSpec:
    """Skylake's memory-side eDRAM: a DRAM-side buffer.

    Being behind the memory controller, it caches DRAM traffic for *all*
    agents (the Section 2.1 advantage over Broadwell for e.g. PCIe
    devices) but no longer enjoys the CPU-side latency edge: its load
    latency sits at DDR level rather than below it.
    """
    return OpmSpec(
        name="eDRAM-ms",
        capacity=EDRAM_CAPACITY,
        bandwidth=EDRAM_BW,
        latency=58.0,  # ~DDR4 latency: memory-side placement
        ways=16,
        energy=EDRAM_ENERGY,
        kind="memory-side",
        static_power_w=1.0,
        can_power_off=True,
        active_power_w=EDRAM_ACTIVE_W,
    )


def skylake(edram: bool = True) -> MachineSpec:
    """Build the Skylake machine model (memory-side eDRAM variant)."""
    spec = MachineSpec(
        name="i7-6770HQ",
        arch="Skylake",
        cores=CORES,
        frequency_ghz=FREQ_GHZ,
        sp_peak_gflops=SP_PEAK,
        dp_peak_gflops=DP_PEAK,
        caches=(
            MemLevelSpec(
                name="L1",
                capacity=CORES * 32 * KIB,
                bandwidth=1500.0,
                latency=1.1,
                ways=8,
                shared=False,
                energy=L1_ENERGY,
            ),
            MemLevelSpec(
                name="L2",
                capacity=CORES * 256 * KIB,
                bandwidth=750.0,
                latency=3.0,
                ways=4,
                shared=False,
                energy=L2_ENERGY,
            ),
            MemLevelSpec(
                name="L3",
                capacity=6 * MIB,
                bandwidth=230.0,
                latency=11.0,
                ways=12,
                shared=True,
                energy=L3_ENERGY,
            ),
        ),
        opm=skylake_edram_spec() if edram else None,
        dram=MemLevelSpec(
            name="DDR4",
            capacity=32 * GIB,
            bandwidth=DDR_BW,
            latency=58.0,
            ways=None,
            energy=DDR4_ENERGY,
        ),
        base_package_power_w=13.0,
        max_dynamic_power_w=45.0,
        dram_standby_w=DRAM_STANDBY_W,
        dram_w_per_gbs=DRAM_W_PER_GBS,
    )
    from repro import telemetry

    telemetry.note_platform(spec)
    return spec
