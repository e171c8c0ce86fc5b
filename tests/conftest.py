"""Shared fixtures for the test suite."""

import time

import numpy as np
import pytest

from smoothgd.saddle import (
    _sharing_decompositions,
    canonical_objective,
    eigen_structure,
)

# Grid shared by the eigenstructure checks: every size up to 64 against a
# sigma range spanning four orders of magnitude.
GRID_SIZES = tuple(range(2, 65))
GRID_SIGMAS = (0.01, 0.1, 1.0, 10.0, 100.0)

# wall-clock seconds spent building the grid, for the runtime budget checks
eigen_grid_seconds = None


@pytest.fixture(scope="session")
def eigen_grid():
    """Map (n, sigma) -> EigenStructure over the full check grid.

    Each size's sigmas are decomposed as one stack.
    """
    global eigen_grid_seconds
    start = time.perf_counter()
    grid = {}
    for n in GRID_SIZES:
        objective = canonical_objective(n)
        with _sharing_decompositions(objective, GRID_SIGMAS):
            for sigma in GRID_SIGMAS:
                grid[(n, sigma)] = eigen_structure(objective, sigma)
    eigen_grid_seconds = time.perf_counter() - start
    return grid


@pytest.fixture()
def rng():
    return np.random.default_rng(20240814)
