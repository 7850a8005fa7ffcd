"""Run manifests: provenance for one experiment invocation.

Every ``opm-repro run`` / ``report`` invocation with telemetry enabled
produces one :class:`RunManifest` per experiment: which experiment, which
sweep mode, which software stack, how long it took, and how much memory
the process peaked at. A result CSV plus its manifest record is a
self-contained reproduction claim — the paper's measurements are only as
trustworthy as this kind of bookkeeping (Section 5's methodology).
"""

from __future__ import annotations

import dataclasses
import hashlib
import platform as _platform
import sys
import time
import uuid
from typing import Any

try:  # Unix-only; absent on some platforms — manifests then omit peak RSS.
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None  # type: ignore[assignment]


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dep in practice
        return "unavailable"
    return numpy.__version__


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, in bytes (None if unknown)."""
    if resource is None:  # pragma: no cover - non-POSIX
        return None
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return ru if sys.platform == "darwin" else ru * 1024


def platform_spec_hash(spec: Any) -> str:
    """Stable short hash of a MachineSpec-like object's repr.

    The dataclass repr includes every capacity/bandwidth/latency knob, so
    two runs share a hash iff they simulated the same platform table.
    """
    return hashlib.sha256(repr(spec).encode()).hexdigest()[:16]


@dataclasses.dataclass
class RunManifest:
    """Provenance record for one experiment invocation."""

    run_id: str
    experiment_id: str
    quick: bool
    package_version: str
    python_version: str
    numpy_version: str
    platform: str
    #: machine name -> sorted distinct hashes of the spec tables built
    #: under it (eDRAM off and on are two Broadwell tables).
    platform_spec_hashes: dict[str, list[str]] = dataclasses.field(default_factory=dict)
    started_unix_s: float = 0.0
    wall_time_s: float | None = None
    peak_rss_bytes: int | None = None
    n_spans: int = 0
    status: str = "running"

    @classmethod
    def start(cls, experiment_id: str, *, quick: bool) -> "RunManifest":
        from repro._version import __version__

        return cls(
            run_id=uuid.uuid4().hex[:12],
            experiment_id=experiment_id,
            quick=quick,
            package_version=__version__,
            python_version=_platform.python_version(),
            numpy_version=_numpy_version(),
            platform=_platform.platform(),
            started_unix_s=time.time(),
        )

    def add_platform(self, name: str, spec: Any) -> None:
        """Record the hash of a machine spec this run simulated."""
        known = self.platform_spec_hashes.get(name, [])
        self.platform_spec_hashes[name] = sorted({*known, platform_spec_hash(spec)})

    def finish(self, *, status: str = "ok", n_spans: int = 0) -> "RunManifest":
        self.wall_time_s = time.time() - self.started_unix_s
        self.peak_rss_bytes = peak_rss_bytes()
        self.n_spans = n_spans
        self.status = status
        return self

    def as_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        d["type"] = "manifest"
        return d
