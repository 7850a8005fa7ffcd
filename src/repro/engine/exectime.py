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

:func:`estimate` is one pass per call: the stack's straddle-adjusted
stage constants are derived once into a table that every phase walks.
Its floats follow a fixed evaluation order, pinned against a per-phase
oracle by ``tests/test_engine_oracle.py``; the lognormal noise factor is
memoized per ``(seed, sigma)``. See docs/MODEL.md, "Evaluation".
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from typing import NamedTuple

import numpy as np

from repro.engine.calibration import DEFAULT_KNOBS, ModelKnobs, efficiency
from repro.kernels.profile import WorkloadProfile
from repro.memory.mcdram import McdramConfig
from repro.platforms.spec import LINE_BYTES, MachineSpec
from repro.platforms.tuning import EdramMode, McdramMode


class _Stage(NamedTuple):
    """One absorber in the configured stack."""

    name: str
    kind: str  # "cache" | "flat"
    capacity: float  # bytes (cache: curve capacity; flat: resident bytes)
    bandwidth: float  # GB/s
    latency: float  # ns
    share: float = 0.0  # flat only: fraction of incoming traffic served
    #: Direct-mapped stages (MCDRAM cache mode) retain a *proportional*
    #: share of an over-capacity cyclic working set, where an LRU stack
    #: would thrash to zero — this is what keeps the paper's cache mode
    #: above DDR past 16 GB (Figures 23/25).
    direct_mapped: bool = False


class _Stack(NamedTuple):
    stages: tuple[_Stage, ...]
    memory: _Stage  # the final DRAM channel
    straddling: bool


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


# -- stack construction -------------------------------------------------------


def build_stack(
    machine: MachineSpec,
    footprint: float,
    *,
    edram: EdramMode | bool | None = None,
    mcdram: McdramMode | None = None,
    knobs: ModelKnobs = DEFAULT_KNOBS,
) -> _Stack:
    """Resolve the OPM configuration into an ordered absorber stack."""
    stages = [
        _Stage(lvl.name, "cache", float(lvl.capacity or 0), lvl.bandwidth, lvl.latency)
        for lvl in machine.caches
    ]
    mem = machine.dram
    dram = _Stage(mem.name, "cache", math.inf, mem.bandwidth, mem.latency)
    opm = machine.opm
    if opm is None or (opm.kind == "victim-cache" and _edram_off(edram)):
        return _Stack(tuple(stages), dram, straddling=False)

    if opm.kind == "victim-cache":
        cap = float(opm.capacity or 0)
        if not knobs.edram_victim:
            # Inclusive design ablation: the L4 duplicates L3 contents.
            cap = max(0.0, cap - float(machine.llc.capacity or 0))
        stages.append(_Stage(opm.name, "cache", cap, opm.bandwidth, opm.latency))
        return _Stack(tuple(stages), dram, straddling=False)

    # Memory-side OPM (MCDRAM).
    mode = mcdram if mcdram is not None else McdramMode.CACHE
    config = McdramConfig.from_spec(opm, mode)
    straddling = False
    if config.uses_flat:
        share = min(1.0, config.flat_bytes / footprint) if footprint > 0 else 1.0
        straddling = mode is McdramMode.FLAT and 0.0 < share < 1.0
        stages.append(
            _Stage(
                name=f"{opm.name}-flat",
                kind="flat",
                capacity=float(config.flat_bytes),
                bandwidth=opm.bandwidth,
                latency=opm.latency,
                share=share,
            )
        )
    if config.uses_cache:
        # MCDRAM's cache mode is direct-mapped (ways == 1): conflict
        # misses and tag checks derate it. A set-associative memory-side
        # buffer (Skylake's eDRAM) keeps its full capacity instead.
        dm = (opm.ways or 1) == 1
        stages.append(
            _Stage(
                name=f"{opm.name}-cache",
                kind="cache",
                capacity=config.cache_bytes
                * (knobs.direct_map_capacity_factor if dm else 1.0),
                bandwidth=opm.bandwidth
                * (knobs.cache_mode_bandwidth_factor if dm else 1.0),
                latency=opm.latency,
                direct_mapped=dm,
            )
        )
    return _Stack(tuple(stages), dram, straddling=straddling)


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
    footprint = float(profile.footprint_bytes)
    stack = build_stack(machine, footprint, edram=edram, mcdram=mcdram, knobs=knobs)
    s_bw = s_lat = s_cap = 1.0
    if stack.straddling:
        s_bw = knobs.flat_straddle_bandwidth_factor
        s_lat = knobs.flat_straddle_latency_factor
        s_cap = knobs.flat_straddle_cache_factor
    opm = machine.opm
    opm_name = opm.name if opm is not None else None

    # Per-call stage table: (name, flat, capacity, share, bandwidth in B/s,
    # latency, OPM stage, on-chip, memory-ish, direct-mapped).
    table = []
    on_chip = True
    for stage in stack.stages:
        flat = stage.kind == "flat"
        is_opm = opm_name is not None and stage.name.startswith(opm_name)
        on_chip = on_chip and not is_opm
        # Dirty evictions from the on-chip caches land wherever the data
        # is serviced: any memory-side stage (flat or OPM cache) carries
        # write-back traffic for what it serves, as does an on-chip level
        # big enough to hold the whole problem (steady-state residency).
        memoryish = flat or is_opm or stage.capacity >= footprint
        table.append((
            stage.name,
            flat,
            stage.capacity if flat else stage.capacity * s_cap,
            stage.share,
            stage.bandwidth * (s_bw if flat else 1.0) * 1e9,
            stage.latency * (s_lat if flat else 1.0),
            is_opm,
            on_chip,
            memoryish,
            stage.direct_mapped,
        ))
    memory = stack.memory
    dram_hz = memory.bandwidth * s_bw * 1e9
    port_hz = opm.bandwidth * s_bw * 1e9 if opm is not None else 0.0
    eff = profile.compute_efficiency * efficiency(profile.kernel, machine.arch)
    peak = machine.dp_peak_gflops * 1e9 * eff
    ramp = _valley_ramp(footprint, float(machine.llc.capacity or 0), knobs)

    phases: list[PhaseResult] = []
    dominant: PhaseResult | None = None
    opm_bytes = 0.0  # traffic served by the OPM stages
    dram_bytes = 0.0
    for phase in profile.phases:
        demand = phase.demand_bytes
        reuse = phase.reuse
        write_fraction = phase.write_fraction
        base_mlp = phase.global_mlp(machine.cores)
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
        for name, flat, capacity, share, bw, lat, is_opm, on_chip, memoryish, dm in table:
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
                        # cyclic footprint resident (no LRU thrash). Applies to
                        # the fraction of traffic that is re-referenced at all.
                        overflow_ws = max(capacity, footprint - (cum - capacity))
                        residency = min(1.0, capacity / overflow_ws)
                        reusable = max(0.0, (reuse.max_fraction - above) / (1.0 - above))
                        cond_hit = max(cond_hit, residency * reusable)
                above = here
                served = transit * cond_hit
                remaining *= 1.0 - cond_hit
                port_load = transit  # misses transit on the fill path too
            wb = write_fraction * served if memoryish else 0.0
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
                bw_stage, bw_s = f"{opm_name}-port", channel_s

        # Final DRAM channel.
        transit = demand * remaining
        channel_s = (transit + write_fraction * transit) / dram_hz
        if bw_stage is None or channel_s > bw_s:
            bw_stage, bw_s = memory.name, channel_s
        latency_s += (transit / LINE_BYTES) * memory.latency * s_lat * 1e-9 / miss_mlp
        loads.append(StageLoad(memory.name, transit, transit))
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
