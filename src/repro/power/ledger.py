"""Per-level energy accounting on top of the trace-driven simulator.

The RAPL model in :mod:`repro.power.rapl` prices a run from the outside
(two average-power domains over the wall time). This module prices it
from the inside: every hit, miss, fill and writeback the exact simulator
counted at every hierarchy level is multiplied by that level's
:class:`~repro.platforms.spec.EnergyCoefficients`, yielding joules *per
level* — the breakdown the paper's Section 5 can only infer from the two
RAPL counters.

The ledger obeys the same discipline as the dirty-flow ledger it is
built on (:meth:`repro.memory.hierarchy.Hierarchy.dirty_ledger`): the
books must close. :meth:`EnergyLedger.conservation_violations` audits

* **energy**: the per-level itemized sums equal the independently
  accumulated grand total (the two totals are summed in different
  association orders, so a bookkeeping slip in either shows up as a
  floating-point mismatch far above tolerance);
* **writebacks**: the writebacks priced at the memory levels equal the
  hierarchy's :meth:`~repro.memory.hierarchy.Hierarchy.memory_writebacks`
  — energy is only charged for dirty lines that really arrived;
* **dirty flow**: the underlying hierarchy's own conservation laws held
  when the ledger was cut (violations are carried into the audit).

:func:`price_run` combines the ledger with a bandwidth-bottleneck time
model into one energy/time point, the unit of the ``ext8`` Pareto sweep
and the ``repro energy`` CLI.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING

from repro import telemetry
from repro.memory.allocator import PAGE, NumaAllocator
from repro.memory.hierarchy import (
    Hierarchy,
    for_broadwell,
    for_knl,
    hierarchy_allocator,
)
from repro.memory.stats import HierarchyStats
from repro.platforms import McdramMode, check_mode, resolve
from repro.platforms.spec import EnergyCoefficients, MachineSpec
from repro.power.rapl import _dram_coefficients
from repro.telemetry import names as tm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.base import Kernel

#: Relative tolerance for the energy-conservation law. The two totals
#: differ only in floating-point association order, so anything beyond a
#: few ulps of drift indicates a genuine bookkeeping bug.
CONSERVATION_REL_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class LevelEnergy:
    """One hierarchy level's counters priced into joules."""

    name: str
    accesses: int
    hits: int
    misses: int
    fills: int
    writebacks: int
    hit_j: float
    miss_j: float
    fill_j: float
    writeback_j: float

    @property
    def dynamic_j(self) -> float:
        """Total dynamic joules charged to this level."""
        return self.hit_j + self.miss_j + self.fill_j + self.writeback_j

    def as_dict(self) -> dict[str, float | int | str]:
        return {
            "name": self.name,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "writebacks": self.writebacks,
            "hit_j": self.hit_j,
            "miss_j": self.miss_j,
            "fill_j": self.fill_j,
            "writeback_j": self.writeback_j,
            "dynamic_j": self.dynamic_j,
        }


@dataclasses.dataclass(frozen=True)
class EnergyLedger:
    """Per-level dynamic energy of one simulated run.

    ``total_dynamic_j`` is accumulated independently of the per-level
    itemization (grouped by counter kind across levels rather than by
    level), so the conservation audit cross-checks two genuinely
    different summations of the same counters.
    """

    kernel: str
    machine: str
    levels: tuple[LevelEnergy, ...]
    total_dynamic_j: float
    #: Level names that count as memory for the writeback law (DRAM and,
    #: on flat/hybrid KNL, the flat MCDRAM partition).
    memory_level_names: tuple[str, ...]
    #: ``Hierarchy.memory_writebacks()`` at the time the ledger was cut.
    memory_writebacks: int
    #: ``Hierarchy.conservation_violations()`` at the same instant.
    hierarchy_violations: tuple[str, ...]

    def __getitem__(self, name: str) -> LevelEnergy:
        for level in self.levels:
            if level.name == name:
                return level
        raise KeyError(name)

    @property
    def dynamic_j(self) -> float:
        """Itemized total: sum of the per-level energies."""
        return sum(level.dynamic_j for level in self.levels)

    @property
    def memory_writeback_j(self) -> float:
        """Joules paid writing dirty lines back at the memory levels."""
        return sum(
            level.writeback_j
            for level in self.levels
            if level.name in self.memory_level_names
        )

    def conservation_violations(
        self, *, rel_tol: float = CONSERVATION_REL_TOL
    ) -> list[str]:
        """Audit the ledger; an empty list means the books close."""
        violations = list(self.hierarchy_violations)
        itemized = self.dynamic_j
        if not math.isclose(
            itemized, self.total_dynamic_j, rel_tol=rel_tol, abs_tol=1e-18
        ):
            violations.append(
                f"energy: per-level sum {itemized!r} J != "
                f"independent total {self.total_dynamic_j!r} J"
            )
        priced_wb = sum(
            level.writebacks
            for level in self.levels
            if level.name in self.memory_level_names
        )
        if priced_wb != self.memory_writebacks:
            violations.append(
                f"writebacks: priced {priced_wb} at memory levels "
                f"{list(self.memory_level_names)} != "
                f"{self.memory_writebacks} counted by the hierarchy"
            )
        return violations

    def as_dict(self) -> dict[str, object]:
        return {
            "kernel": self.kernel,
            "machine": self.machine,
            "levels": [level.as_dict() for level in self.levels],
            "total_dynamic_j": self.total_dynamic_j,
            "memory_writebacks": self.memory_writebacks,
            "memory_writeback_j": self.memory_writeback_j,
        }


def _energy_table(machine: MachineSpec) -> dict[str, EnergyCoefficients | None]:
    """Map every level name the simulator can emit to its coefficients."""
    table: dict[str, EnergyCoefficients | None] = {
        lvl.name: lvl.energy for lvl in machine.caches
    }
    if machine.opm is not None:
        # The OPM spec prices all of its guises: the Broadwell victim
        # cache (stats carry the OPM's own name), cache-mode MCDRAM, and
        # the flat MCDRAM partition.
        table[machine.opm.name] = machine.opm.energy
        table["MCDRAM"] = machine.opm.energy
        table["MCDRAM-flat"] = machine.opm.energy
    table[machine.dram.name] = machine.dram.energy
    return table


def ledger_from_hierarchy(
    hierarchy: Hierarchy,
    machine: MachineSpec,
    *,
    kernel: str = "trace",
) -> EnergyLedger:
    """Price a simulated hierarchy's counters into an :class:`EnergyLedger`.

    Every level the simulation touched must carry
    :class:`~repro.platforms.spec.EnergyCoefficients` on ``machine``;
    a level without them fails loudly (same contract as the DRAM power
    coefficients in :mod:`repro.power.rapl` — no implicit defaults).
    """
    with telemetry.span(
        tm.SPAN_POWER_LEDGER, machine=machine.name, kernel=kernel
    ) as sp:
        stats = hierarchy.stats()
        table = _energy_table(machine)
        levels: list[LevelEnergy] = []
        # Independent accumulation, grouped by counter kind (picojoules
        # until the single final scaling) — see EnergyLedger docstring.
        hit_pj = miss_pj = fill_pj = wb_pj = 0.0
        for lvl in stats.levels:
            if lvl.name not in table:
                raise ValueError(
                    f"level {lvl.name!r}: machine {machine.name!r} "
                    f"describes no such level (knows {sorted(table)})"
                )
            coef = table[lvl.name]
            if coef is None:
                raise ValueError(
                    f"level {lvl.name!r} on machine {machine.name!r} "
                    "declares no energy coefficients: set "
                    "MemLevelSpec.energy / OpmSpec.energy to price it"
                )
            levels.append(
                LevelEnergy(
                    name=lvl.name,
                    accesses=lvl.accesses,
                    hits=lvl.hits,
                    misses=lvl.misses,
                    fills=lvl.fills,
                    writebacks=lvl.writebacks,
                    hit_j=coef.price(hits=lvl.hits),
                    miss_j=coef.price(misses=lvl.misses),
                    fill_j=coef.price(fills=lvl.fills),
                    writeback_j=coef.price(writebacks=lvl.writebacks),
                )
            )
            hit_pj += lvl.hits * coef.hit_pj
            miss_pj += lvl.misses * coef.miss_pj
            fill_pj += lvl.fills * coef.fill_pj
            wb_pj += lvl.writebacks * coef.writeback_pj
        memory_names = tuple(
            name
            for name in (machine.dram.name, "MCDRAM-flat")
            if any(lvl.name == name for lvl in stats.levels)
        )
        ledger = EnergyLedger(
            kernel=kernel,
            machine=machine.name,
            levels=tuple(levels),
            total_dynamic_j=1e-12 * (hit_pj + miss_pj + fill_pj + wb_pj),
            memory_level_names=memory_names,
            memory_writebacks=hierarchy.memory_writebacks(),
            hierarchy_violations=tuple(hierarchy.conservation_violations()),
        )
        sp.set_attr("levels", len(ledger.levels))
        sp.set_attr("dynamic_j", ledger.total_dynamic_j)
    telemetry.counter(tm.METRIC_POWER_LEDGERS).inc()
    violations = ledger.conservation_violations()
    if violations:
        telemetry.counter(tm.METRIC_POWER_CONSERVATION_FAILURES).inc(
            len(violations)
        )
    for level in ledger.levels:
        telemetry.record_counts(
            tm.power_level_prefix(level.name),
            {
                "hit_j": level.hit_j,
                "miss_j": level.miss_j,
                "fill_j": level.fill_j,
                "writeback_j": level.writeback_j,
            },
        )
    return ledger


# -- energy/time pricing of one configuration --------------------------------


@dataclasses.dataclass(frozen=True)
class PricedRun:
    """One kernel on one platform/mode, priced on both axes.

    ``seconds`` comes from a bandwidth-bottleneck model over the
    simulated per-level traffic (floored by the compute time at DP
    peak); ``energy_j`` is background power times that wall time plus
    the ledger's per-access dynamic energy.
    """

    kernel: str
    platform: str
    mode: str
    machine: str
    seconds: float
    background_w: float
    energy_j: float
    flops: float
    ledger: EnergyLedger

    @property
    def dynamic_j(self) -> float:
        return self.ledger.total_dynamic_j

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9

    @property
    def edp_js(self) -> float:
        """Energy-delay product (J*s)."""
        return self.energy_j * self.seconds

    @property
    def gflops_per_watt(self) -> float:
        """Energy efficiency; equals gflops / average watts."""
        return self.flops / 1e9 / self.energy_j

    def as_dict(self) -> dict[str, object]:
        return {
            "kernel": self.kernel,
            "platform": self.platform,
            "mode": self.mode,
            "machine": self.machine,
            "seconds": self.seconds,
            "background_w": self.background_w,
            "dynamic_j": self.dynamic_j,
            "energy_j": self.energy_j,
            "edp_js": self.edp_js,
            "gflops": self.gflops,
            "gflops_per_watt": self.gflops_per_watt,
        }


def _modelled_seconds(
    stats: HierarchyStats, machine: MachineSpec, flops: float
) -> float:
    """Bandwidth-bottleneck wall time for one simulated run.

    Each level's traffic must stream through its bandwidth; the slowest
    level sets the pace, floored by the compute time at DP peak so a
    run that touches almost no memory still takes non-zero time.
    """
    bw_gbs: dict[str, float] = {lvl.name: lvl.bandwidth for lvl in machine.caches}
    if machine.opm is not None:
        bw_gbs[machine.opm.name] = machine.opm.bandwidth
        bw_gbs["MCDRAM"] = machine.opm.bandwidth
        bw_gbs["MCDRAM-flat"] = machine.opm.bandwidth
    bw_gbs[machine.dram.name] = machine.dram.bandwidth
    transfer = max(
        (lvl.traffic_bytes / (bw_gbs[lvl.name] * 1e9) for lvl in stats.levels),
        default=0.0,
    )
    compute = flops / (machine.dp_peak_gflops * 1e9)
    return max(transfer, compute)


def price_run(
    kernel: "Kernel",
    machine: MachineSpec,
    hierarchy: Hierarchy,
    *,
    platform: str,
    mode: str,
    reps: int = 1,
) -> PricedRun:
    """Simulate ``kernel`` on ``hierarchy`` and price the run end to end.

    A run that replays zero references (``reps=0``) has no duration to
    price; it is rejected with a :class:`ValueError` instead of surfacing
    as a ``ZeroDivisionError`` from the utilization arithmetic.
    """
    stats = kernel.simulate(hierarchy, reps=reps)
    if stats.total_accesses == 0:
        raise ValueError(
            f"{kernel.name} on {platform}/{mode} replayed zero references "
            f"(reps = {reps}): a run must replay at least one to be priced"
        )
    ledger = ledger_from_hierarchy(hierarchy, machine, kernel=kernel.name)
    flops = float(kernel.flops()) * reps
    seconds = _modelled_seconds(stats, machine, flops)
    achieved = min(1.0, flops / seconds / 1e9 / machine.dp_peak_gflops)
    standby_w, _ = _dram_coefficients(machine)
    background_w = (
        machine.base_package_power_w
        + machine.max_dynamic_power_w * achieved
        + standby_w
    )
    if machine.opm is not None:
        background_w += machine.opm.static_power_w
    return PricedRun(
        kernel=kernel.name,
        platform=platform,
        mode=mode,
        machine=machine.name,
        seconds=seconds,
        background_w=background_w,
        energy_j=background_w * seconds + ledger.total_dynamic_j,
        flops=flops,
        ledger=ledger,
    )


# -- platform configurations and demo kernels ---------------------------------

#: The six (platform, mode) points of the energy Pareto sweep: both
#: Broadwell eDRAM BIOS settings and the four KNL MCDRAM modes the
#: paper evaluates.
ENERGY_CONFIGS: tuple[tuple[str, str], ...] = (
    ("broadwell", "off"),
    ("broadwell", "on"),
    ("knl", "off"),
    ("knl", "cache"),
    ("knl", "flat"),
    ("knl", "hybrid"),
)


def build_config(
    platform: str,
    mode: str,
    *,
    scale: float = 0.001,
    flat_capacity: int | None = None,
) -> tuple[MachineSpec, Hierarchy]:
    """Resolve one sweep point to ``(machine, hierarchy)``: the machine
    :func:`repro.platforms.resolve` builds, and its simulated hierarchy.

    ``scale`` shrinks the simulated capacities (the standard scaled-down
    technique of the conservation tests) so small kernel instances
    exercise realistic hit ratios. ``flat_capacity`` overrides the flat
    MCDRAM partition's byte capacity on flat/hybrid KNL (ignored
    elsewhere) — :func:`price_config` uses it to put the kernel under
    the capacity pressure the paper studies at full scale.
    """
    machine, kwargs = resolve(platform, mode)
    if platform == "broadwell":
        return machine, for_broadwell(machine, edram=kwargs["edram"], scale=scale)
    if platform != "knl":
        raise ValueError(
            f"platform = {platform!r}: energy configs cover 'broadwell' and 'knl'"
        )
    mcdram = kwargs["mcdram"]
    allocator = None
    if flat_capacity is not None and mcdram.flat_fraction > 0:
        assert machine.dram.capacity is not None
        allocator = NumaAllocator(
            flat_capacity, machine.dram.capacity, prefer_mcdram=True
        )
    return machine, for_knl(machine, mcdram, allocator=allocator, scale=scale)


#: The demo kernels, in the order ``repro energy`` and ext8 report them.
DEMO_KERNELS = (
    "stream", "gemm", "cholesky", "spmv", "sptrans", "sptrsv", "stencil", "fft",
)


def demo_kernel(name: str) -> "Kernel":
    """A small, fast-to-simulate instance of one paper kernel.

    Sized like the differential-test zoo: big enough to spill the scaled
    hierarchies of :func:`build_config`, small enough that pricing all
    six configurations stays interactive (the ``repro energy`` CLI and
    the quick ``ext8`` sweep both build kernels here).
    """
    from repro.kernels import (
        CholeskyKernel,
        FftKernel,
        GemmKernel,
        SpmvKernel,
        SptransKernel,
        SptrsvKernel,
        StencilKernel,
        StreamKernel,
    )
    from repro.sparse import generators

    builders = {
        "stream": lambda: StreamKernel(n=1500),
        "gemm": lambda: GemmKernel(order=20, tile=8),
        "cholesky": lambda: CholeskyKernel(order=20, tile=8),
        "spmv": lambda: SpmvKernel.from_matrix(
            generators.random_uniform(150, 900, seed=1)
        ),
        "sptrans": lambda: SptransKernel.from_matrix(
            generators.random_uniform(120, 600, seed=2)
        ),
        "sptrsv": lambda: SptrsvKernel.from_matrix(
            generators.banded(120, 600, seed=3)
        ),
        "stencil": lambda: StencilKernel(nx=18, ny=18, nz=18, steps=1),
        "fft": lambda: FftKernel(size=8),
    }
    if name not in builders:
        raise ValueError(
            f"kernel = {name!r}: choose from {', '.join(sorted(builders))}"
        )
    return builders[name]()


def price_config(
    kernel: "Kernel",
    platform: str,
    mode: str,
    *,
    scale: float = 0.001,
    reps: int = 1,
) -> PricedRun:
    """Build one configuration and price ``kernel`` on it.

    On flat/hybrid KNL the kernel's footprint is placed through the
    hierarchy's NUMA allocator first (MCDRAM-preferred, like ``numactl
    -p``): the trace layout and the allocator both hand out consecutive
    page-aligned addresses from the same origin, so the allocation
    covers exactly the span the trace touches. The flat partition is
    sized to the mode's flat fraction of that footprint, reproducing at
    demo scale the capacity-pressure regime the paper studies at full
    scale (flat mode fits the problem; hybrid spills half to DDR).
    """
    check_mode(platform, mode)
    footprint = int(kernel.profile().footprint_bytes)
    flat_capacity = None
    if platform == "knl":
        # Page-ceil plus one page of headroom, so flat mode (fraction
        # 1.0) really fits the whole page-rounded trace layout while
        # hybrid holds only its half.
        wanted = int(McdramMode(mode).flat_fraction * footprint)
        flat_capacity = -(-wanted // PAGE) * PAGE + PAGE
    machine, hierarchy = build_config(
        platform, mode, scale=scale, flat_capacity=flat_capacity
    )
    allocator = hierarchy_allocator(hierarchy)
    if allocator is not None:
        # Margin absorbs the trace layout's per-array page rounding.
        allocator.allocate(kernel.name, footprint + 16 * PAGE)
    return price_run(
        kernel, machine, hierarchy, platform=platform, mode=mode, reps=reps
    )


def pareto_front(runs: list[PricedRun]) -> list[bool]:
    """Non-domination flags on the (seconds, energy_j) plane.

    ``runs[i]`` is dominated when some other run is no worse on both
    axes and strictly better on at least one.
    """
    flags = []
    for p in runs:
        dominated = any(
            q is not p
            and q.seconds <= p.seconds
            and q.energy_j <= p.energy_j
            and (q.seconds < p.seconds or q.energy_j < p.energy_j)
            for q in runs
        )
        flags.append(not dominated)
    return flags


def platform_pareto(runs: list[PricedRun]) -> list[bool]:
    """:func:`pareto_front` flags among the runs of each run's own platform."""
    flags = [False] * len(runs)
    for platform in {r.platform for r in runs}:
        idx = [i for i, r in enumerate(runs) if r.platform == platform]
        for i, flag in zip(idx, pareto_front([runs[i] for i in idx])):
            flags[i] = flag
    return flags
