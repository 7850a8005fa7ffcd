"""Shared machinery for the dense-kernel heatmap figures (7, 8, 15, 16)."""

from __future__ import annotations

import numpy as np

from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import dense_orders, dense_tiles, sweep
from repro.viz import heatmap


def heatmap_experiment(
    experiment_id: str,
    title: str,
    kernel: str,
    platform: str,
    *,
    quick: bool,
) -> ExperimentResult:
    """Sweep (order, tile) and emit one heatmap per OPM mode."""
    result = ExperimentResult(experiment_id=experiment_id, title=title)
    orders = dense_orders(platform, quick=quick)
    tiles = dense_tiles(quick=quick)
    gflops = sweep(platform, kernel, quick=quick)
    mode_labels = list(gflops)
    # sweep_configs lists the grid tile-major, one row of orders per tile.
    grids = {label: values.reshape(len(tiles), len(orders)) for label, values in gflops.items()}
    rows = [
        (order, tile, *(grids[label][ti, oi].item() for label in mode_labels))
        for ti, tile in enumerate(tiles)
        for oi, order in enumerate(orders)
    ]
    result.add_table(
        "gflops",
        ("order", "tile", *mode_labels),
        rows,
    )
    for label in mode_labels:
        grid = grids[label]
        result.figures.append(
            heatmap(
                grid[::-1],  # larger tiles on top, like the paper's y-axis
                row_labels=[str(t) for t in tiles[::-1]],
                col_labels=[str(o) for o in orders],
                title=f"{title} — {label} (GFlop/s)",
            )
        )
        result.notes.append(
            f"{label}: peak {grid.max():.1f} GFlop/s, "
            f"median {np.median(grid):.1f}, "
            f">=90% of peak on {np.mean(grid >= 0.9 * grid.max()):.1%} of configs."
        )
    return result
