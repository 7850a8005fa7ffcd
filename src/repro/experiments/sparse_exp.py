"""Shared machinery for the sparse-kernel figures (9-11, 17-22).

The paper's layout per kernel: a raw-throughput scatter over memory
footprint, a normalized-speedup scatter (OPM vs baseline), and a
structure heatmap of speedup binned by (rows, nonzeros). Broadwell
figures compare eDRAM on/off and carry their heatmap inline; KNL
figures compare the four MCDRAM modes, and their heatmaps are Figures
20-22 (flat mode over DDR).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.calibration import DEFAULT_KNOBS
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import collection_for, speedups, sweep
from repro.sparse import MatrixDescriptor
from repro.viz import heatmap, line_chart

#: Lognormal run-to-run jitter for scatter realism in the sparse figures.
SPARSE_NOISE_SIGMA = 0.06
_SPARSE_KNOBS = DEFAULT_KNOBS.replace(noise_sigma=SPARSE_NOISE_SIGMA)


def sparse_experiment(
    experiment_id: str,
    title: str,
    kernel: str,
    platform: str,
    *,
    quick: bool,
) -> ExperimentResult:
    """Run one sparse kernel over the matrix collection on one platform."""
    result = ExperimentResult(experiment_id=experiment_id, title=title)
    collection = collection_for(quick=quick)
    mode_values = sweep(platform, kernel, quick=quick, knobs=_SPARSE_KNOBS)
    labels = list(mode_values)
    base_label, *opm_labels = labels
    footprints = np.array([d.footprint_bytes / 2**20 for d in collection])
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
            *(label.replace(" ", "_") for label in labels),
        ),
        [
            (
                d.name,
                d.family,
                d.n_rows,
                d.nnz,
                float(footprints[i]),
                *(float(mode_values[label][i]) for label in labels),
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
    if platform == "broadwell":  # KNL's structure heatmaps are Figures 20-22.
        _add_structure(
            result,
            collection,
            ratios[opm_labels[0]],
            f"{title}: {opm_labels[0]} speedup by (rows, nnz)",
        )
    return result


def structure_experiment(
    experiment_id: str, title: str, kernel: str, *, quick: bool, note: str
) -> ExperimentResult:
    """Figures 20-22: the structure view of one KNL sparse sweep.

    The MCDRAM modes' structural impact coincides (Section 4.2.2), so
    like the paper this draws one heatmap, for flat mode over DDR.
    """
    result = ExperimentResult(experiment_id=experiment_id, title=title)
    gflops = sweep("knl", kernel, quick=quick, knobs=_SPARSE_KNOBS)
    speedup = speedups(gflops["Flat"], gflops["DDR"])
    cells = _add_structure(
        result,
        collection_for(quick=quick),
        speedup,
        f"{kernel} on KNL: flat-mode speedup by (rows, nnz)",
    )
    if cells:
        top = max(cells, key=lambda r: r[2])
        result.notes.append(
            f"Hottest bin: rows ~2^{top[0]:.0f}, nnz ~2^{top[1]:.0f} "
            f"(mean speedup {top[2]:.2f}x) — {note}"
        )
    return result


def _add_structure(
    result: ExperimentResult,
    collection: Sequence[MatrixDescriptor],
    speedup: np.ndarray,
    title: str,
) -> list[tuple]:
    """Append the (rows, nnz) heatmap and ``structure`` table of ``speedup``."""
    grid, row_edges, nnz_edges, cells = structure_bins(
        np.array([d.n_rows for d in collection]),
        np.array([d.nnz for d in collection]),
        speedup,
    )
    result.figures.append(
        heatmap(
            grid[::-1],
            row_labels=[f"2^{int(e)}" for e in row_edges[:-1][::-1]],
            col_labels=[f"2^{int(e)}" for e in nnz_edges[:-1]],
            title=title,
        )
    )
    result.add_table(
        "structure",
        ("log2_rows_bin", "log2_nnz_bin", "mean_speedup", "count"),
        cells,
    )
    return cells


def structure_bins(
    rows: np.ndarray, nnz: np.ndarray, values: np.ndarray, *, bins: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple]]:
    """Mean ``values`` binned on a log2 (rows x nnz) grid.

    Returns the grid (NaN where empty), its row and nnz bin edges, and the
    populated cells as ``(log2_rows_bin, log2_nnz_bin, mean, count)`` rows.
    """
    lr = np.log2(np.maximum(rows, 2))
    ln = np.log2(np.maximum(nnz, 2))
    row_edges = np.linspace(lr.min(), lr.max() + 1e-9, bins + 1)
    nnz_edges = np.linspace(ln.min(), ln.max() + 1e-9, bins + 1)
    grid = np.full((bins, bins), np.nan)
    cells = []
    for i in range(bins):
        for j in range(bins):
            mask = (
                (lr >= row_edges[i])
                & (lr < row_edges[i + 1])
                & (ln >= nnz_edges[j])
                & (ln < nnz_edges[j + 1])
            )
            if mask.any():
                grid[i, j] = mean = float(values[mask].mean())
                cells.append(
                    (float(row_edges[i]), float(nnz_edges[j]), mean, int(mask.sum()))
                )
    return grid, row_edges, nnz_edges, cells
