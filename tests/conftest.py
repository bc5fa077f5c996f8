"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.grid import Grid3D
from repro.md.atoms import AtomsSystem


@pytest.fixture
def live_telemetry():
    """Enabled telemetry on a clean registry; afterwards the registry is
    clean again and telemetry is as the session had it (``REPRO_TELEMETRY``)."""
    was_enabled = telemetry.enabled()
    telemetry.reset()
    telemetry.enable()
    try:
        yield
    finally:
        if not was_enabled:
            telemetry.disable()
        telemetry.reset()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture()
def small_grid() -> Grid3D:
    """An 8^3 grid on a 8 Bohr cube — the workhorse grid of the fast tests."""
    return Grid3D((8, 8, 8), (8.0, 8.0, 8.0))


@pytest.fixture()
def medium_grid() -> Grid3D:
    return Grid3D((12, 12, 12), (10.0, 10.0, 10.0))


@pytest.fixture()
def argon_fcc() -> AtomsSystem:
    """A 2x2x2 conventional-cell FCC argon crystal (32 atoms)."""
    lat = 5.26
    n = 2
    base = np.array(
        [[i, j, k] for i in range(n) for j in range(n) for k in range(n)], dtype=float
    ) * lat
    extra = np.concatenate(
        [base + [lat / 2, lat / 2, 0], base + [lat / 2, 0, lat / 2], base + [0, lat / 2, lat / 2]]
    )
    positions = np.vstack([base, extra])
    species = np.array(["Ar"] * len(positions), dtype=object)
    return AtomsSystem(positions, species, np.array([n * lat] * 3))
