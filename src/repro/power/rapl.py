"""RAPL-style power model (paper Section 5.2, Figures 26/27).

The paper measures package and DRAM power with RAPL/PAPI. We model the
same two domains from quantities the execution engine already produces:

* **Package** = baseline + dynamic (proportional to achieved fraction of
  FLOP peak) + OPM contribution. The OPM draws static power whenever the
  machine has one — a BIOS-disabled eDRAM is absent from its machine;
  MCDRAM cannot be powered down (its static power is burned even in the
  "w/o MCDRAM" configuration) — plus an activity term proportional to its
  bandwidth utilization (``OpmSpec.active_power_w``).
* **DRAM** = standby + a per-GB/s activity term. Using the OPM *reduces*
  DRAM power by absorbing traffic, which is how the paper's Figure 27
  shows flat-mode MCDRAM sometimes lowering DDR (and even total) power.

Every coefficient lives on the platform spec
(:class:`~repro.platforms.spec.MachineSpec` for the DRAM domain,
:class:`~repro.platforms.spec.OpmSpec` for the OPM terms). A platform
that has not declared its DRAM coefficients fails loudly here — the old
behaviour of silently assuming Broadwell-ish defaults gave wrong power
for any new machine without any signal.
"""

from __future__ import annotations

import dataclasses

from repro.engine.exectime import RunResult
from repro.platforms.spec import MachineSpec


@dataclasses.dataclass(frozen=True)
class PowerSample:
    """Average power over one kernel run, RAPL-domain style."""

    kernel: str
    machine: str
    package_w: float
    dram_w: float
    seconds: float

    @property
    def total_w(self) -> float:
        return self.package_w + self.dram_w

    @property
    def energy_j(self) -> float:
        return self.total_w * self.seconds


def _dram_coefficients(machine: MachineSpec) -> tuple[float, float]:
    """The machine's declared (standby W, W per GB/s) pair, or raise."""
    if machine.dram_standby_w is None or machine.dram_w_per_gbs is None:
        raise ValueError(
            f"machine {machine.name!r} (arch {machine.arch!r}) declares no "
            "DRAM power coefficients: set dram_standby_w and dram_w_per_gbs "
            "on its MachineSpec (the bundled broadwell/knl/skylake models "
            "declare them; there are no implicit defaults)"
        )
    return machine.dram_standby_w, machine.dram_w_per_gbs


def measure(
    result: RunResult,
    machine: MachineSpec,
    *,
    achieved_fraction: float | None = None,
) -> PowerSample:
    """Model the average power of a completed run.

    The OPM's static and activity power are charged exactly when
    ``machine`` has an OPM: the machine :func:`repro.platforms.resolve`
    builds for eDRAM-off has none, and every KNL machine has MCDRAM,
    which cannot be powered down (paper Section 5.2).
    """
    if achieved_fraction is None:
        achieved_fraction = min(1.0, result.gflops / machine.dp_peak_gflops)
    standby_w, w_per_gbs = _dram_coefficients(machine)
    package = (
        machine.base_package_power_w
        + machine.max_dynamic_power_w * achieved_fraction
    )
    if machine.opm is not None:
        package += machine.opm.static_power_w
        opm_rate_gbs = (
            result.opm_bytes / result.seconds / 1e9 if result.seconds > 0 else 0.0
        )
        utilization = min(1.0, opm_rate_gbs / machine.opm.bandwidth)
        package += machine.opm.active_power_w * utilization
    dram_rate_gbs = (
        result.dram_bytes / result.seconds / 1e9 if result.seconds > 0 else 0.0
    )
    dram = standby_w + w_per_gbs * min(dram_rate_gbs, machine.dram.bandwidth)
    return PowerSample(
        kernel=result.kernel,
        machine=machine.name,
        package_w=package,
        dram_w=dram,
        seconds=result.seconds,
    )
