"""Evaluation platforms (paper Tables 1 and 3).

Public entry points:

* :func:`broadwell` — the eDRAM-equipped Core i7-5775C.
* :func:`knl` — the MCDRAM-equipped Xeon Phi 7210.
* :class:`EdramMode` / :class:`McdramMode` — OPM tuning options (Table 1).
* :data:`MODES` / :func:`resolve` — the (platform, mode) names every
  caller uses, and the machine and ``estimate()`` keywords each resolves to.
* :class:`MachineSpec` and friends — the spec dataclasses.
"""

from repro.platforms.broadwell import broadwell, edram_spec
from repro.platforms.cluster import ClusterMode, apply_cluster_mode
from repro.platforms.knl import knl, mcdram_spec
from repro.platforms.modes import MODES, check_mode, resolve
from repro.platforms.skylake import skylake, skylake_edram_spec
from repro.platforms.spec import (
    GIB,
    KIB,
    LINE_BYTES,
    MIB,
    WORD_BYTES,
    MachineSpec,
    MemLevelSpec,
    OpmSpec,
    total_capacity,
)
from repro.platforms.tuning import (
    ALL_EDRAM_MODES,
    ALL_MCDRAM_MODES,
    EdramMode,
    McdramMode,
)

__all__ = [
    "ALL_EDRAM_MODES",
    "ClusterMode",
    "apply_cluster_mode",
    "ALL_MCDRAM_MODES",
    "EdramMode",
    "GIB",
    "KIB",
    "LINE_BYTES",
    "MIB",
    "MODES",
    "MachineSpec",
    "McdramMode",
    "MemLevelSpec",
    "OpmSpec",
    "WORD_BYTES",
    "broadwell",
    "check_mode",
    "edram_spec",
    "knl",
    "mcdram_spec",
    "resolve",
    "skylake",
    "skylake_edram_spec",
    "total_capacity",
]
