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

    Not memoized: each call builds its machine, and the factory records
    the machine's spec on the open run manifest.
    """
    check_mode(platform, mode)
    if platform == "knl":
        mcdram = McdramMode(mode)
        return knl(mcdram), {"mcdram": mcdram}
    edram = mode == "on"
    factory = broadwell if platform == "broadwell" else skylake
    return factory(edram=edram), {"edram": edram}
