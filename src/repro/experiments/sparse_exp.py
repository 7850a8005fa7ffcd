"""Shared machinery for the sparse-kernel figures (9-11, 17-22).

The paper's layout per kernel: a raw-throughput scatter over memory
footprint, a normalized-speedup scatter (OPM vs baseline), and a
structure heatmap of speedup binned by (rows, nonzeros). Broadwell
figures compare eDRAM on/off; KNL figures compare the four MCDRAM modes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine.calibration import DEFAULT_KNOBS
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import (
    collection_for,
    run_broadwell_sweep,
    run_knl_sweep,
    speedups,
)
from repro.kernels.base import Kernel
from repro.sparse import MatrixDescriptor
from repro.viz import heatmap, line_chart

#: Lognormal run-to-run jitter for scatter realism in the sparse figures.
SPARSE_NOISE_SIGMA = 0.06


def sparse_experiment(
    experiment_id: str,
    title: str,
    kernel_factory: Callable[[MatrixDescriptor], Kernel],
    platform: str,
    *,
    quick: bool,
    structure_heatmap: bool = True,
) -> ExperimentResult:
    """Run one sparse kernel over the matrix collection on one platform."""
    result = ExperimentResult(experiment_id=experiment_id, title=title)
    collection = collection_for(quick=quick)
    configs = [kernel_factory(d) for d in collection]
    knobs = DEFAULT_KNOBS.replace(noise_sigma=SPARSE_NOISE_SIGMA)
    if platform == "broadwell":
        points = run_broadwell_sweep(configs, knobs=knobs)
        base_label, opm_labels = "w/o eDRAM", ["w/ eDRAM"]
    else:
        points = run_knl_sweep(configs, knobs=knobs)
        base_label, opm_labels = "DDR", ["Flat", "Cache", "Hybrid"]
    footprints = np.array([d.footprint_bytes / 2**20 for d in collection])
    rows_arr = np.array([d.n_rows for d in collection])
    nnz_arr = np.array([d.nnz for d in collection])
    mode_values = {
        label: np.array([p.gflops(label) for p in points])
        for label in (base_label, *opm_labels)
    }
    # Raw throughput scatter.
    result.figures.append(
        line_chart(
            footprints,
            mode_values,
            title=f"{title}: GFlop/s vs footprint (MB)",
        )
    )
    # Speedup vs baseline.
    ratios = {
        label: speedups(mode_values[label], mode_values[base_label])
        for label in opm_labels
    }
    result.figures.append(
        line_chart(
            footprints,
            ratios,
            title=f"{title}: speedup vs {base_label}",
            y_label="speedup",
        )
    )
    result.add_table(
        "per_matrix",
        (
            "matrix",
            "family",
            "rows",
            "nnz",
            "footprint_mb",
            *(label.replace(" ", "_") for label in (base_label, *opm_labels)),
        ),
        [
            (
                d.name,
                d.family,
                d.n_rows,
                d.nnz,
                float(footprints[i]),
                *(float(mode_values[label][i]) for label in (base_label, *opm_labels)),
            )
            for i, d in enumerate(collection)
        ],
    )
    for label in opm_labels:
        sp = ratios[label]
        result.notes.append(
            f"{label}: avg speedup {sp.mean():.3f}x, max {sp.max():.3f}x, "
            f">1x on {np.mean(sp > 1.001):.0%} of matrices; effective "
            "region concentrates between the LLC valley and the OPM capacity."
        )
    if structure_heatmap:
        grid, row_edges, nnz_edges = structure_grid(
            rows_arr, nnz_arr, ratios[opm_labels[0]]
        )
        result.figures.append(
            heatmap(
                grid[::-1],
                row_labels=[f"2^{int(e)}" for e in row_edges[:-1][::-1]],
                col_labels=[f"2^{int(e)}" for e in nnz_edges[:-1]],
                title=f"{title}: {opm_labels[0]} speedup by (rows, nnz)",
            )
        )
        result.add_table(
            "structure",
            ("log2_rows_bin", "log2_nnz_bin", "mean_speedup", "count"),
            structure_rows(rows_arr, nnz_arr, ratios[opm_labels[0]]),
        )
    return result


def structure_grid(
    rows: np.ndarray, nnz: np.ndarray, values: np.ndarray, *, bins: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean `values` binned on a log2 (rows x nnz) grid (NaN where empty)."""
    lr = np.log2(np.maximum(rows, 2))
    ln = np.log2(np.maximum(nnz, 2))
    row_edges = np.linspace(lr.min(), lr.max() + 1e-9, bins + 1)
    nnz_edges = np.linspace(ln.min(), ln.max() + 1e-9, bins + 1)
    grid = np.full((bins, bins), np.nan)
    for i in range(bins):
        for j in range(bins):
            mask = (
                (lr >= row_edges[i])
                & (lr < row_edges[i + 1])
                & (ln >= nnz_edges[j])
                & (ln < nnz_edges[j + 1])
            )
            if mask.any():
                grid[i, j] = float(values[mask].mean())
    return grid, row_edges, nnz_edges


def structure_rows(
    rows: np.ndarray, nnz: np.ndarray, values: np.ndarray, *, bins: int = 8
) -> list[tuple]:
    """Tabular form of :func:`structure_grid` (only populated cells)."""
    lr = np.log2(np.maximum(rows, 2))
    ln = np.log2(np.maximum(nnz, 2))
    row_edges = np.linspace(lr.min(), lr.max() + 1e-9, bins + 1)
    nnz_edges = np.linspace(ln.min(), ln.max() + 1e-9, bins + 1)
    out = []
    for i in range(bins):
        for j in range(bins):
            mask = (
                (lr >= row_edges[i])
                & (lr < row_edges[i + 1])
                & (ln >= nnz_edges[j])
                & (ln < nnz_edges[j + 1])
            )
            if mask.any():
                out.append(
                    (
                        float(row_edges[i]),
                        float(nnz_edges[j]),
                        float(values[mask].mean()),
                        int(mask.sum()),
                    )
                )
    return out
