"""Per-phase engine oracle for the differential tests (imported by tests only).

:func:`repro.engine.exectime.estimate` prices a profile in one pass over
a stack compiled once per (machine, mode, knobs), with the lognormal
noise factor memoized. This module keeps the straightforward version it
replaced: :func:`build_stack` resolves the stack afresh for every call
and footprint, one :func:`_phase_time` call per phase re-derives every
stage's straddle-adjusted constants, a list of channel times is reduced
by ``max``, a second pass over the loads sums the OPM/DRAM byte totals,
and every noisy call builds a fresh ``np.random.default_rng``.
``tests/test_engine_oracle.py`` pins the fast path against it with exact
float equality.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.engine.calibration import DEFAULT_KNOBS, ModelKnobs, efficiency
from repro.engine.exectime import (
    PhaseResult,
    RunResult,
    StageLoad,
    _derive_seed,
    _valley_ramp,
)
from repro.kernels.profile import Phase, WorkloadProfile
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
    #: would thrash to zero.
    direct_mapped: bool = False


class _Stack(NamedTuple):
    stages: tuple[_Stage, ...]
    memory: _Stage  # the final DRAM channel
    straddling: bool


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


def _phase_time(
    phase: Phase,
    profile: WorkloadProfile,
    machine: MachineSpec,
    stack: _Stack,
    knobs: ModelKnobs,
) -> PhaseResult:
    demand = phase.demand_bytes
    footprint = float(profile.footprint_bytes)
    straddle_bw = knobs.flat_straddle_bandwidth_factor if stack.straddling else 1.0
    straddle_lat = knobs.flat_straddle_latency_factor if stack.straddling else 1.0
    straddle_cap = knobs.flat_straddle_cache_factor if stack.straddling else 1.0

    llc_capacity = float(machine.llc.capacity or 0)
    base_mlp = phase.global_mlp(machine.cores)
    miss_mlp = base_mlp * _valley_ramp(footprint, llc_capacity, knobs)
    opm_name = machine.opm.name if machine.opm is not None else None
    opm_port_bw = machine.opm.bandwidth if machine.opm is not None else 0.0

    remaining = 1.0
    cum = 0.0
    on_chip = True
    loads: list[StageLoad] = []
    channel_times: list[tuple[str, float]] = []
    opm_port_load = 0.0
    latency_s = 0.0

    for stage in stack.stages:
        is_opm_stage = opm_name is not None and stage.name.startswith(opm_name)
        if is_opm_stage:
            on_chip = False
        transit = demand * remaining
        if stage.kind == "cache":
            capacity = stage.capacity * straddle_cap
            frac_above = phase.reuse(cum)
            cum += capacity
            frac_here = phase.reuse(cum)
            cond_hit = 0.0
            if frac_above < 1.0:
                cond_hit = max(0.0, (frac_here - frac_above) / (1.0 - frac_above))
            if stage.direct_mapped and frac_above < 1.0:
                overflow_ws = max(capacity, footprint - (cum - capacity))
                residency = min(1.0, capacity / overflow_ws)
                reusable = max(
                    0.0,
                    (phase.reuse.max_fraction - frac_above)
                    / (1.0 - frac_above),
                )
                cond_hit = max(cond_hit, residency * reusable)
            served = transit * cond_hit
            remaining *= 1.0 - cond_hit
            port_load = transit
        else:
            served = transit * stage.share
            remaining *= 1.0 - stage.share
            cum += stage.capacity
            port_load = served
        is_memoryish = (
            stage.kind == "flat" or is_opm_stage or stage.capacity >= footprint
        )
        wb = phase.write_fraction * served if is_memoryish else 0.0
        bw = stage.bandwidth * (straddle_bw if stage.kind == "flat" else 1.0)
        channel_times.append((stage.name, (port_load + wb) / (bw * 1e9)))
        if is_opm_stage:
            opm_port_load += port_load + wb
        lat = stage.latency * (straddle_lat if stage.kind == "flat" else 1.0)
        mlp = base_mlp if on_chip else miss_mlp
        latency_s += (served / LINE_BYTES) * lat * 1e-9 / mlp
        loads.append(StageLoad(stage.name, transit, served))

    if opm_port_load > 0.0 and opm_port_bw > 0.0:
        channel_times.append(
            (f"{opm_name}-port", opm_port_load / (opm_port_bw * straddle_bw * 1e9))
        )

    transit = demand * remaining
    wb = phase.write_fraction * transit
    dram_bw = stack.memory.bandwidth * straddle_bw
    channel_times.append((stack.memory.name, (transit + wb) / (dram_bw * 1e9)))
    latency_s += (
        (transit / LINE_BYTES)
        * stack.memory.latency
        * straddle_lat
        * 1e-9
        / miss_mlp
    )
    loads.append(StageLoad(stack.memory.name, transit, transit))

    eff = profile.compute_efficiency * efficiency(profile.kernel, machine.arch)
    compute_s = phase.flops / (machine.dp_peak_gflops * 1e9 * eff)
    bw_stage, bw_s = max(channel_times, key=lambda kv: kv[1])
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
    return PhaseResult(
        name=phase.name, seconds=total, bound=bound, loads=tuple(loads)
    )


def estimate(
    profile: WorkloadProfile,
    machine: MachineSpec,
    *,
    edram: EdramMode | bool | None = None,
    mcdram: McdramMode | None = None,
    knobs: ModelKnobs = DEFAULT_KNOBS,
    noise_seed: int | None = None,
) -> RunResult:
    """The reference evaluation :func:`repro.engine.estimate` must equal."""
    stack = build_stack(
        machine,
        float(profile.footprint_bytes),
        edram=edram,
        mcdram=mcdram,
        knobs=knobs,
    )
    phases = tuple(
        _phase_time(p, profile, machine, stack, knobs) for p in profile.phases
    )
    seconds = sum(p.seconds for p in phases)
    gflops = profile.flops / seconds / 1e9 if seconds > 0 else 0.0
    if knobs.noise_sigma > 0.0:
        rng = np.random.default_rng(_derive_seed(profile, noise_seed))
        gflops *= float(np.exp(rng.normal(0.0, knobs.noise_sigma)))
        seconds = profile.flops / (gflops * 1e9) if gflops > 0 else seconds
    opm_bytes = 0.0
    dram_bytes = 0.0
    opm_name = machine.opm.name if machine.opm else None
    for pr in phases:
        for load in pr.loads:
            if opm_name and load.name.startswith(opm_name):
                opm_bytes += load.served_bytes
            elif load.name == machine.dram.name:
                dram_bytes += load.served_bytes
    dominant = max(phases, key=lambda p: p.seconds)
    return RunResult(
        kernel=profile.kernel,
        machine=machine.name,
        seconds=seconds,
        gflops=gflops,
        bound=dominant.bound,
        phases=phases,
        opm_bytes=opm_bytes,
        dram_bytes=dram_bytes,
    )
