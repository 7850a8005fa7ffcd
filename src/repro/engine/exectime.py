"""Analytic execution-time model.

Estimates the runtime and throughput of a kernel
(:class:`~repro.kernels.profile.WorkloadProfile`) on a platform
(:class:`~repro.platforms.spec.MachineSpec`) under a given OPM
configuration, via four composable mechanisms:

1. **Hierarchy absorption** — each phase's reuse curve is evaluated at
   the cumulative capacities of the configured level stack, yielding the
   bytes each level serves and the bytes transiting each port.
2. **Bandwidth bound** — every port is a channel; the phase cannot finish
   faster than its most loaded channel (pipelined-transfer roofline).
3. **Latency bound** — requests served at each level cost its latency,
   hidden by the phase's memory-level parallelism; a valley ramp degrades
   MLP just past a capacity boundary (paper Figure 6's cache valley).
4. **Compute bound** — Table 2 flops over the calibrated fraction of the
   platform's peak.

Phase time = max(compute, bandwidth, latency) + fixed serial overhead;
profile time = sum over phases. MCDRAM modes alter the stack: cache mode
inserts a direct-mapped stage (capacity derated for conflicts), flat mode
splits the memory boundary into static-share channels (with the
straddling penalty of paper Section 4.2.1-II when an allocation spans
both nodes), and hybrid composes a flat half over a cache half.

:func:`estimate` prices only the profile. The stack is compiled once per
``(machine, edram, mcdram, knobs)`` by :func:`compile_stack`, a bounded
``functools.lru_cache`` keyed on the values of the frozen specs: each
stage's flags (flat, OPM, on-chip, direct-mapped), its raw capacity, and
its capacity, bandwidth and latency with and without the straddle
penalty, plus the DRAM and MCDRAM-port rates and the machine constants.
Per call the footprint decides the flat share, whether the allocation
straddles, and which stages take write-backs; the calibrated efficiency
is read live. Each compiled constant is the same product, in the same
order, that a per-call derivation computes, so the floats follow a fixed
evaluation order, pinned against a per-phase oracle with its own stack
resolution by ``tests/test_engine_oracle.py``. The lognormal noise factor
is memoized per ``(seed, sigma)``. See docs/MODEL.md, "Evaluation".
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from typing import NamedTuple

import numpy as np

from repro.engine.calibration import DEFAULT_KNOBS, ModelKnobs, efficiency
from repro.kernels.profile import WorkloadProfile
from repro.memory.mcdram import McdramConfig
from repro.platforms.spec import LINE_BYTES, MachineSpec
from repro.platforms.tuning import EdramMode, McdramMode


class _Compiled(NamedTuple):
    """One resolved (machine, eDRAM, MCDRAM, knobs) stack.

    Holds everything :func:`estimate` reads that the profile cannot
    change. ``plain`` and ``straddled`` are the two straddle states, each
    ``(rows, dram_hz, port_hz, s_lat)``: the stage rows, the DRAM and
    MCDRAM-port rates in bytes/s, and the factor on DRAM latency. A row is
    ``(name, flat, raw capacity, capacity, bandwidth in bytes/s, latency,
    OPM stage, on-chip, memory-side, direct-mapped)``, where ``raw
    capacity`` is the stage's capacity before the straddle factor.
    """

    plain: tuple
    straddled: tuple
    flat_bytes: int | None  # the flat half's bytes; None without one
    can_straddle: bool  # flat mode: one allocation may span both nodes
    dram_name: str
    dram_latency: float
    port_name: str
    llc_capacity: float
    cores: int
    peak_hz: float  # dp_peak_gflops * 1e9


@dataclasses.dataclass(frozen=True)
class StageLoad:
    """Per-stage outcome for one phase."""

    name: str
    transit_bytes: float  # bytes crossing this stage's port
    served_bytes: float  # bytes this stage supplied


@dataclasses.dataclass(frozen=True)
class PhaseResult:
    name: str
    seconds: float
    bound: str  # "compute" | "bandwidth:<stage>" | "latency" | "overhead"
    loads: tuple[StageLoad, ...]


@dataclasses.dataclass(frozen=True)
class RunResult:
    """Modelled outcome of one kernel configuration on one platform."""

    kernel: str
    machine: str
    seconds: float
    gflops: float
    bound: str  # bound of the dominant phase
    phases: tuple[PhaseResult, ...]
    opm_bytes: float  # traffic served by the OPM (eDRAM or MCDRAM)
    dram_bytes: float  # traffic served by off-package DRAM

    def dominant_phase(self) -> PhaseResult:
        return max(self.phases, key=lambda p: p.seconds)


# -- stack compilation --------------------------------------------------------


@functools.lru_cache(maxsize=256)
def compile_stack(
    machine: MachineSpec,
    edram: EdramMode | bool | None,
    mcdram: McdramMode | None,
    knobs: ModelKnobs,
) -> _Compiled:
    """Resolve the OPM configuration into an ordered absorber stack.

    Memoized on the values of all four arguments (the specs and knobs are
    frozen dataclasses), never on a machine's name: multi-programmed
    tenants and the Figure 30 what-ifs build same-named machines that
    differ in one level.
    """
    # Stages: (name, flat, capacity, bandwidth in GB/s, latency, direct-mapped).
    stages = [
        (lvl.name, False, float(lvl.capacity or 0), lvl.bandwidth, lvl.latency, False)
        for lvl in machine.caches
    ]
    flat_bytes = None
    can_straddle = False
    opm = machine.opm
    if opm is not None and opm.kind == "victim-cache":
        if not _edram_off(edram):
            cap = float(opm.capacity or 0)
            if not knobs.edram_victim:
                # Inclusive design ablation: the L4 duplicates L3 contents.
                cap = max(0.0, cap - float(machine.llc.capacity or 0))
            stages.append((opm.name, False, cap, opm.bandwidth, opm.latency, False))
    elif opm is not None:  # Memory-side OPM (MCDRAM).
        mode = mcdram if mcdram is not None else McdramMode.CACHE
        config = McdramConfig.from_spec(opm, mode)
        if config.uses_flat:
            flat_bytes = config.flat_bytes
            can_straddle = mode is McdramMode.FLAT
            stages.append((
                f"{opm.name}-flat", True, float(config.flat_bytes),
                opm.bandwidth, opm.latency, False,
            ))
        if config.uses_cache:
            # MCDRAM's cache mode is direct-mapped (ways == 1): conflict
            # misses and tag checks derate it. A set-associative memory-side
            # buffer (Skylake's eDRAM) keeps its full capacity instead.
            dm = (opm.ways or 1) == 1
            stages.append((
                f"{opm.name}-cache",
                False,
                config.cache_bytes * (knobs.direct_map_capacity_factor if dm else 1.0),
                opm.bandwidth * (knobs.cache_mode_bandwidth_factor if dm else 1.0),
                opm.latency,
                dm,
            ))

    opm_name = opm.name if opm is not None else None

    def state(s_bw: float, s_lat: float, s_cap: float) -> tuple:
        rows = []
        on_chip = True
        for name, flat, capacity, bandwidth, latency, dm in stages:
            is_opm = opm_name is not None and name.startswith(opm_name)
            on_chip = on_chip and not is_opm
            rows.append((
                name,
                flat,
                capacity,
                capacity if flat else capacity * s_cap,
                bandwidth * (s_bw if flat else 1.0) * 1e9,
                latency * (s_lat if flat else 1.0),
                is_opm,
                on_chip,
                flat or is_opm,
                dm,
            ))
        dram_hz = machine.dram.bandwidth * s_bw * 1e9
        port_hz = opm.bandwidth * s_bw * 1e9 if opm is not None else 0.0
        return tuple(rows), dram_hz, port_hz, s_lat

    return _Compiled(
        plain=state(1.0, 1.0, 1.0),
        straddled=state(
            knobs.flat_straddle_bandwidth_factor,
            knobs.flat_straddle_latency_factor,
            knobs.flat_straddle_cache_factor,
        ),
        flat_bytes=flat_bytes,
        can_straddle=can_straddle,
        dram_name=machine.dram.name,
        dram_latency=machine.dram.latency,
        port_name=f"{opm_name}-port",
        llc_capacity=float(machine.llc.capacity or 0),
        cores=machine.cores,
        peak_hz=machine.dp_peak_gflops * 1e9,
    )


def _edram_off(edram: EdramMode | bool | None) -> bool:
    if edram is None:
        return False
    if isinstance(edram, EdramMode):
        return not edram.enabled
    return not edram


# -- evaluation ----------------------------------------------------------------


def _valley_ramp(footprint: float, llc_capacity: float, knobs: ModelKnobs) -> float:
    """Problem-size-dependent MLP availability (the cache valley).

    Data-parallel kernels expose outstanding misses in proportion to their
    problem size; just past the on-chip LLC the miss stream exists but the
    parallelism to hide it does not, producing the dip-then-recover shape
    of the paper's Figure 6. The ramp is a pure function of the footprint
    (not of which OPM is configured), so adding OPM capacity can never
    *reduce* modelled MLP — matching the paper's "eDRAM never hurts".
    """
    if not knobs.valley_enabled or llc_capacity <= 0:
        return 1.0
    ramp = footprint / (knobs.valley_span * llc_capacity)
    return float(min(1.0, max(knobs.valley_floor, ramp)))


# -- public API ----------------------------------------------------------------


def estimate(
    profile: WorkloadProfile,
    machine: MachineSpec,
    *,
    edram: EdramMode | bool | None = None,
    mcdram: McdramMode | None = None,
    knobs: ModelKnobs = DEFAULT_KNOBS,
    noise_seed: int | None = None,
) -> RunResult:
    """Model one kernel run; see the module docstring for semantics."""
    stack = compile_stack(machine, edram, mcdram, knobs)
    footprint = float(profile.footprint_bytes)
    share = 0.0  # flat stage only: fraction of incoming traffic served
    straddling = False
    if stack.flat_bytes is not None:
        share = min(1.0, stack.flat_bytes / footprint) if footprint > 0 else 1.0
        straddling = stack.can_straddle and 0.0 < share < 1.0
    table, dram_hz, port_hz, s_lat = stack.straddled if straddling else stack.plain
    eff = profile.compute_efficiency * efficiency(profile.kernel, machine.arch)
    peak = stack.peak_hz * eff
    ramp = _valley_ramp(footprint, stack.llc_capacity, knobs)
    dram_name = stack.dram_name
    dram_latency = stack.dram_latency

    phases: list[PhaseResult] = []
    dominant: PhaseResult | None = None
    opm_bytes = 0.0  # traffic served by the OPM stages
    dram_bytes = 0.0
    for phase in profile.phases:
        demand = phase.demand_bytes
        reuse = phase.reuse
        write_fraction = phase.write_fraction
        base_mlp = phase.global_mlp(stack.cores)
        # On-chip hits are pipelined; the valley ramp only throttles the
        # parallelism available to *below-LLC* misses.
        miss_mlp = base_mlp * ramp
        remaining = 1.0  # fraction of demand still unserved
        cum = 0.0  # cumulative absorber capacity seen so far
        above = reuse(cum)  # hit fraction of the capacity above this stage
        loads: list[StageLoad] = []
        bw_stage, bw_s = None, 0.0  # most loaded channel (first wins a tie)
        opm_port_load = 0.0  # MCDRAM flat + cache halves share one device
        latency_s = 0.0
        for name, flat, raw, capacity, bw, lat, is_opm, on_chip, memory_side, dm in table:
            transit = demand * remaining
            if flat:  # static placement share
                served = transit * share
                remaining *= 1.0 - share
                cum += capacity
                above = reuse(cum)
                port_load = served  # pass-down traffic does not cross this port
            else:
                cum += capacity
                here = reuse(cum)
                cond_hit = 0.0
                if above < 1.0:
                    cond_hit = max(0.0, (here - above) / (1.0 - above))
                    if dm:
                        # Proportional residency: a direct-mapped memory-side
                        # cache keeps ~capacity/working-set of an over-capacity
                        # cyclic footprint resident (no LRU thrash), which keeps
                        # the paper's cache mode above DDR past 16 GB (Figures
                        # 23/25). Applies to the fraction of traffic that is
                        # re-referenced at all.
                        overflow_ws = max(capacity, footprint - (cum - capacity))
                        residency = min(1.0, capacity / overflow_ws)
                        reusable = max(0.0, (reuse.max_fraction - above) / (1.0 - above))
                        cond_hit = max(cond_hit, residency * reusable)
                above = here
                served = transit * cond_hit
                remaining *= 1.0 - cond_hit
                port_load = transit  # misses transit on the fill path too
            # Dirty evictions from the on-chip caches land wherever the data
            # is serviced: any memory-side stage (flat or OPM cache) carries
            # write-back traffic for what it serves, as does an on-chip level
            # big enough to hold the whole problem (steady-state residency).
            wb = write_fraction * served if memory_side or raw >= footprint else 0.0
            channel_s = (port_load + wb) / bw
            if bw_stage is None or channel_s > bw_s:
                bw_stage, bw_s = name, channel_s
            if is_opm:
                opm_port_load += port_load + wb
                opm_bytes += served
            mlp = base_mlp if on_chip else miss_mlp
            latency_s += (served / LINE_BYTES) * lat * 1e-9 / mlp
            loads.append(StageLoad(name, transit, served))

        if opm_port_load > 0.0:
            # Hybrid mode: the flat and cache halves are the same physical
            # MCDRAM; their combined traffic cannot exceed the device port.
            channel_s = opm_port_load / port_hz
            if channel_s > bw_s:
                bw_stage, bw_s = stack.port_name, channel_s

        # Final DRAM channel.
        transit = demand * remaining
        channel_s = (transit + write_fraction * transit) / dram_hz
        if bw_stage is None or channel_s > bw_s:
            bw_stage, bw_s = dram_name, channel_s
        latency_s += (transit / LINE_BYTES) * dram_latency * s_lat * 1e-9 / miss_mlp
        loads.append(StageLoad(dram_name, transit, transit))
        dram_bytes += transit

        compute_s = phase.flops / peak
        core = max(compute_s, bw_s, latency_s)
        if core == compute_s:
            bound = "compute"
        elif core == bw_s:
            bound = f"bandwidth:{bw_stage}"
        else:
            bound = "latency"
        total = core + phase.serial_overhead_s
        if phase.serial_overhead_s > core:
            bound = "overhead"
        result = PhaseResult(phase.name, total, bound, tuple(loads))
        phases.append(result)
        if dominant is None or total > dominant.seconds:
            dominant = result

    seconds = sum(p.seconds for p in phases)
    flops = profile.flops
    gflops = flops / seconds / 1e9 if seconds > 0 else 0.0
    if knobs.noise_sigma > 0.0:
        gflops *= _noise_factor(_derive_seed(profile, noise_seed), knobs.noise_sigma)
        seconds = flops / (gflops * 1e9) if gflops > 0 else seconds
    return RunResult(
        kernel=profile.kernel,
        machine=machine.name,
        seconds=seconds,
        gflops=gflops,
        bound=dominant.bound,
        phases=tuple(phases),
        opm_bytes=opm_bytes,
        dram_bytes=dram_bytes,
    )


@functools.lru_cache(maxsize=8192)
def _noise_factor(seed: int, sigma: float) -> float:
    """Lognormal GFlop/s jitter for one derived seed.

    Memoized: building a ``Generator`` costs more than the rest of a noisy
    call, and a sweep prices each seed under several modes.
    """
    return float(np.exp(np.random.default_rng(seed).normal(0.0, sigma)))


def _derive_seed(profile: WorkloadProfile, noise_seed: int | None) -> int:
    """Deterministic per-configuration noise seed."""
    key = f"{profile.kernel}|{sorted(profile.params.items())}|{noise_seed}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")
