"""The OPM configurations of paper Table 1, resolved by (platform, mode) name.

Every caller that names an OPM mode (the figure sweeps, the power
figures, the serve advisor, the energy ledger and the artifact runners)
turns it into a machine and :func:`repro.engine.exectime.estimate`
keywords here, so each mode's machine is defined once.

A disabled eDRAM is physically absent from its machine: the BIOS switch
removes its static power too (paper Section 5.2). MCDRAM cannot be
powered down, so every KNL machine carries it and the mode only decides
how runs use it.
"""

from __future__ import annotations

import functools

from repro import telemetry
from repro.platforms.broadwell import broadwell
from repro.platforms.knl import knl
from repro.platforms.skylake import skylake
from repro.platforms.spec import MachineSpec
from repro.platforms.tuning import McdramMode

#: platform -> mode names, the OPM-off baseline first.
MODES: dict[str, tuple[str, ...]] = {
    "broadwell": ("off", "on"),
    "skylake": ("off", "on"),
    "knl": ("off", "cache", "flat", "hybrid", "hybrid25"),
}


def check_mode(platform: str, mode: str | None = None) -> tuple[str, ...]:
    """Return ``platform``'s mode names.

    Raises :class:`ValueError` naming the valid choices when ``platform``,
    or ``mode`` if given, is unknown.
    """
    modes = MODES.get(platform)
    if modes is None:
        raise ValueError(
            f"unknown platform {platform!r}; choose from {', '.join(MODES)}"
        )
    if mode is not None and mode not in modes:
        raise ValueError(
            f"unknown mode {mode!r} for {platform}; "
            f"choose from {', '.join(modes)}"
        )
    return modes


def resolve(platform: str, mode: str) -> tuple[MachineSpec, dict[str, object]]:
    """The machine one (platform, mode) runs on, and its ``estimate()`` keywords.

    Each machine is built once per process and shared: specs are frozen.
    Every call records the machine's spec on the open run manifest, as
    the factories do, and returns a fresh keywords dict.
    """
    check_mode(platform, mode)
    machine = _machine(platform, mode)
    telemetry.note_platform(machine)
    if platform == "knl":
        return machine, {"mcdram": McdramMode(mode)}
    return machine, {"edram": mode == "on"}


@functools.lru_cache(maxsize=None)
def _machine(platform: str, mode: str) -> MachineSpec:
    if platform == "knl":
        return knl(McdramMode(mode))
    factory = broadwell if platform == "broadwell" else skylake
    return factory(edram=mode == "on")
