"""Figure 1's NumPy Gaussian KDE returns scipy's densities bit for bit.

``fig01_gemm_pdf`` computes its densities without importing scipy's
stats package (see ``_gaussian_kde``); its result digest holds only while
every float equals ``gaussian_kde(samples)(grid)``'s. The sets cover
fig1's sample counts (192 quick, 1024 full), other counts from 2 to 1500,
several shapes (rounded samples bring ties) and grids of 2 to 300 points.
"""

import numpy as np
import pytest
from scipy.stats import gaussian_kde

from repro.experiments.fig01_gemm_pdf import _gaussian_kde

SIZES = (2, 3, 5, 17, 64, 192, 500, 777, 1024, 1500)
SHAPES = ("normal", "lognormal", "uniform", "rounded")
GRID_POINTS = (2, 7, 160, 300, 41)


def _samples(n: int, shape: str, rng: np.random.Generator) -> np.ndarray:
    if shape == "normal":
        return rng.normal(50.0, 10.0, n)
    if shape == "lognormal":
        return rng.lognormal(3.0, 0.7, n)
    if shape == "uniform":
        return rng.uniform(0.0, 100.0, n)
    return np.round(rng.normal(200.0, 40.0, n))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", SIZES)
def test_density_equals_scipy_gaussian_kde(n, shape):
    rng = np.random.default_rng([n, SHAPES.index(shape)])
    samples = _samples(n, shape, rng)
    points = GRID_POINTS[(SIZES.index(n) + SHAPES.index(shape)) % len(GRID_POINTS)]
    span = np.ptp(samples)
    grid = np.linspace(samples.min() - span / 4, samples.max() * 1.05 + span / 4, points)
    expected = gaussian_kde(samples)(grid)
    got = _gaussian_kde(samples, grid)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected), (
        f"{int(np.sum(got != expected))} of {points} points differ"
    )
