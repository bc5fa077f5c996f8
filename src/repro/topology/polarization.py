"""Polarization textures: layer slices and unit-vector fields.

PbTiO3's local polarization is proportional to the B-site (Ti) off-centering
within each perovskite unit cell, so a local-mode field u(x, y, z) is a
polarization texture on the unit-cell grid.  The topological-charge
machinery consumes one z layer of it as a unit-vector field.
"""

from __future__ import annotations

import numpy as np


def in_plane_slice(field: np.ndarray, z_index: int = 0) -> np.ndarray:
    """Extract the (nx, ny, 3) slice at a given z layer of a 3-D texture."""
    field = np.asarray(field, dtype=float)
    if field.ndim != 4 or field.shape[-1] != 3:
        raise ValueError("field must have shape (nx, ny, nz, 3)")
    if not (0 <= z_index < field.shape[2]):
        raise IndexError("z_index out of range")
    return field[:, :, z_index, :]


def normalize_texture(field: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Unit-vector field n(r) = P(r)/|P(r)| with zero vectors left at zero."""
    field = np.asarray(field, dtype=float)
    norms = np.linalg.norm(field, axis=-1, keepdims=True)
    safe = np.where(norms > epsilon, norms, 1.0)
    unit = field / safe
    unit = np.where(norms > epsilon, unit, 0.0)
    return unit
