"""Experiment registry.

Every figure/table driver registers itself under its experiment id
(``fig1`` .. ``fig30``, ``table2`` .. ``table5``, ``eq1``); the CLI and
the benchmark harness both resolve experiments through this registry, so
DESIGN.md's per-experiment index is enforced by construction.

Each driver is a callable ``run(quick: bool = True) -> ExperimentResult``;
``quick`` selects a reduced sweep (tests, benchmarks) versus the
paper-scale sweep.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Callable, Protocol

from repro.experiments.results import ExperimentResult


class ExperimentRunner(Protocol):  # pragma: no cover - typing only
    def __call__(self, quick: bool = True) -> ExperimentResult: ...


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry for one paper artifact."""

    experiment_id: str
    title: str
    paper_artifact: str  # "Figure 7", "Table 4", ...
    runner: ExperimentRunner

    @property
    def module(self) -> str:
        """Dotted name of the module that defines the driver."""
        return self.runner.__module__

    def source_fingerprint(self) -> str:
        """Digest of the driver module + its in-package import closure."""
        from repro.runtime.fingerprint import source_digest

        return source_digest(self.module)

    def task_key(self, *, quick: bool) -> str:
        """Content-addressed cache key for one invocation of this spec."""
        from repro.runtime.fingerprint import task_key

        return task_key(self.experiment_id, self.module, quick=quick)


_REGISTRY: dict[str, ExperimentSpec] = {}

#: Modules that register experiments on import (one per paper artifact).
_EXPERIMENT_MODULES = [
    "repro.experiments.fig01_gemm_pdf",
    "repro.experiments.fig04_ai_spectrum",
    "repro.experiments.fig05_roofline",
    "repro.experiments.fig06_stepping",
    "repro.experiments.fig07_gemm_bdw",
    "repro.experiments.fig08_cholesky_bdw",
    "repro.experiments.fig09_spmv_bdw",
    "repro.experiments.fig10_sptrans_bdw",
    "repro.experiments.fig11_sptrsv_bdw",
    "repro.experiments.fig12_stream_bdw",
    "repro.experiments.fig13_stencil_bdw",
    "repro.experiments.fig14_fft_bdw",
    "repro.experiments.fig15_gemm_knl",
    "repro.experiments.fig16_cholesky_knl",
    "repro.experiments.fig17_spmv_knl",
    "repro.experiments.fig18_sptrans_knl",
    "repro.experiments.fig19_sptrsv_knl",
    "repro.experiments.fig20_structure_spmv",
    "repro.experiments.fig21_structure_sptrans",
    "repro.experiments.fig22_structure_sptrsv",
    "repro.experiments.fig23_stream_knl",
    "repro.experiments.fig24_stencil_knl",
    "repro.experiments.fig25_fft_knl",
    "repro.experiments.fig26_power_bdw",
    "repro.experiments.fig27_power_knl",
    "repro.experiments.fig28_guideline_edram",
    "repro.experiments.fig29_guideline_mcdram",
    "repro.experiments.fig30_hw_tuning",
    "repro.experiments.table02_kernels",
    "repro.experiments.table03_platforms",
    "repro.experiments.table04_edram_summary",
    "repro.experiments.table05_mcdram_summary",
    "repro.experiments.eq01_energy_breakeven",
    # Extension studies (paper Sections 2.1 / 8 future work).
    "repro.experiments.ext01_edram_placement",
    "repro.experiments.ext02_os_sharing",
    "repro.experiments.ext03_pagetable",
    "repro.experiments.ext04_prefetch",
    "repro.experiments.ext05_syncfree",
    "repro.experiments.ext06_virtualization",
    "repro.experiments.ext07_cluster_modes",
    "repro.experiments.ext08_energy_pareto",
]


def register(
    experiment_id: str, title: str, paper_artifact: str
) -> Callable[[ExperimentRunner], ExperimentRunner]:
    """Decorator registering a driver under its experiment id."""

    def wrap(runner: ExperimentRunner) -> ExperimentRunner:
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        _REGISTRY[experiment_id] = ExperimentSpec(
            experiment_id=experiment_id,
            title=title,
            paper_artifact=paper_artifact,
            runner=runner,
        )
        return runner

    return wrap


def _load_all() -> None:
    for mod in _EXPERIMENT_MODULES:
        importlib.import_module(mod)


def all_experiments() -> dict[str, ExperimentSpec]:
    """Id -> spec for every registered experiment."""
    _load_all()
    return dict(sorted(_REGISTRY.items(), key=lambda kv: _sort_key(kv[0])))


def get(experiment_id: str) -> ExperimentSpec:
    _load_all()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def run(experiment_id: str, *, quick: bool = True) -> ExperimentResult:
    """Resolve and execute one experiment's driver in-process.

    The library call for tests, examples and benchmarks. The CLI runs
    experiments through :func:`repro.runtime.run_batch`, which adds the
    result cache, the ``task``/``experiment`` spans and the manifest.
    """
    return get(experiment_id).runner(quick=quick)


def _sort_key(exp_id: str) -> tuple[int, int]:
    if exp_id.startswith("ext"):
        kind = 3
    else:
        kind = {"f": 0, "t": 1, "e": 2}.get(exp_id[0], 4)
    digits = "".join(ch for ch in exp_id if ch.isdigit())
    return kind, int(digits or 0)
