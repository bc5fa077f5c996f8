"""PbTiO3 perovskite builders and polar-texture initialisers.

The science application of the paper is laser control of polar-skyrmion
superlattices in PbTiO3.  These helpers build the atomistic structures:

* :func:`perovskite_unit_cell` — the cubic 5-atom ABO3 cell (Pb at the corner,
  Ti at the body centre, O at the face centres).
* :func:`perovskite_supercell` — an Nx x Ny x Nz replication.
* :func:`skyrmion_displacement_field` — an analytic Neel-type polar-skyrmion
  superlattice texture u(r) on the cell grid (unit vectors + magnitude).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.md.atoms import AtomsSystem

#: Cubic PbTiO3 lattice constant in Angstrom (paraelectric reference).
PBTIO3_LATTICE_CONSTANT = 3.97


def perovskite_unit_cell(lattice_constant: float = PBTIO3_LATTICE_CONSTANT) -> AtomsSystem:
    """The ideal cubic ABO3 unit cell: Pb(0,0,0), Ti(1/2,1/2,1/2), 3x O."""
    if lattice_constant <= 0:
        raise ValueError("lattice_constant must be positive")
    a = lattice_constant
    positions = np.array(
        [
            [0.0, 0.0, 0.0],        # Pb (A site)
            [0.5, 0.5, 0.5],        # Ti (B site)
            [0.5, 0.5, 0.0],        # O1 (in the xy face)
            [0.5, 0.0, 0.5],        # O2 (in the xz face)
            [0.0, 0.5, 0.5],        # O3 (in the yz face)
        ]
    ) * a
    species = np.array(["Pb", "Ti", "O", "O", "O"], dtype=object)
    return AtomsSystem(positions=positions, species=species, box=np.array([a, a, a]))


def perovskite_supercell(
    repeats: Tuple[int, int, int],
    lattice_constant: float = PBTIO3_LATTICE_CONSTANT,
) -> AtomsSystem:
    """An ``nx x ny x nz`` PbTiO3 supercell with cell indices in metadata."""
    cell = perovskite_unit_cell(lattice_constant)
    supercell = cell.replicate(repeats)
    supercell.metadata["lattice_constant"] = lattice_constant
    supercell.metadata["repeats"] = tuple(int(r) for r in repeats)
    return supercell


def _cell_grid_coordinates(repeats: Tuple[int, int, int]) -> np.ndarray:
    """Fractional (0..1) centre coordinates of each unit cell in a supercell grid."""
    nx, ny, nz = repeats
    ix, iy, iz = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    return np.stack(
        [(ix + 0.5) / nx, (iy + 0.5) / ny, (iz + 0.5) / nz], axis=-1
    )


def skyrmion_displacement_field(
    repeats: Tuple[int, int, int],
    skyrmions_per_axis: Tuple[int, int] = (1, 1),
    core_polarization: float = -1.0,
    background_polarization: float = 1.0,
    radius_fraction: float = 0.3,
    wall_width_fraction: float = 0.1,
) -> np.ndarray:
    """Analytic Neel-skyrmion superlattice texture on the unit-cell grid.

    Returns an array of shape ``(nx, ny, nz, 3)`` holding the local-mode
    direction-times-magnitude for each unit cell.  The texture is a square
    superlattice of ``skyrmions_per_axis`` Neel skyrmions in the x-y plane:
    the out-of-plane component P_z rotates from ``core_polarization`` at each
    skyrmion centre to ``background_polarization`` outside, with a radial
    in-plane (Neel) component in the wall region.  Each skyrmion carries
    topological charge +-1, so the superlattice charge equals the number of
    skyrmions (sign given by the core/background orientation) — this is the
    quantity the topology module recovers and the photo-switching benchmark
    tracks.
    """
    nx, ny, nz = repeats
    if nx < 2 or ny < 2 or nz < 1:
        raise ValueError("need at least a 2x2x1 supercell for a texture")
    sx, sy = skyrmions_per_axis
    if sx < 1 or sy < 1:
        raise ValueError("skyrmions_per_axis entries must be >= 1")
    if not (0 < radius_fraction < 0.5):
        raise ValueError("radius_fraction must lie in (0, 0.5)")
    if wall_width_fraction <= 0:
        raise ValueError("wall_width_fraction must be positive")
    coords = _cell_grid_coordinates(repeats)
    field = np.zeros((nx, ny, nz, 3))
    # Background: uniform out-of-plane polarisation.
    field[..., 2] = background_polarization
    # Skyrmion centres on a regular grid in fractional coordinates.
    centers_x = (np.arange(sx) + 0.5) / sx
    centers_y = (np.arange(sy) + 0.5) / sy
    # Radius / wall width in fractional units of one skyrmion cell.
    radius = radius_fraction / max(sx, sy)
    wall = wall_width_fraction / max(sx, sy)
    for cx in centers_x:
        for cy in centers_y:
            dx = coords[..., 0] - cx
            dy = coords[..., 1] - cy
            # Periodic minimum image in fractional coordinates.
            dx -= np.round(dx)
            dy -= np.round(dy)
            rho = np.sqrt(dx ** 2 + dy ** 2)
            # Out-of-plane angle theta(rho): 0 at the core (down), pi outside (up)
            # when core=-1, background=+1; smooth tanh wall profile.
            profile = np.tanh((rho - radius) / wall)
            pz = 0.5 * (background_polarization + core_polarization) + 0.5 * (
                background_polarization - core_polarization
            ) * profile
            in_plane = np.sqrt(np.maximum(0.0, 1.0 - profile ** 2))
            with np.errstate(invalid="ignore", divide="ignore"):
                ux = np.where(rho > 1e-12, dx / rho, 0.0)
                uy = np.where(rho > 1e-12, dy / rho, 0.0)
            magnitude = max(abs(background_polarization), abs(core_polarization))
            mask = rho < (radius + 4.0 * wall)
            field[..., 0] = np.where(mask, magnitude * in_plane * ux, field[..., 0])
            field[..., 1] = np.where(mask, magnitude * in_plane * uy, field[..., 1])
            field[..., 2] = np.where(mask, pz, field[..., 2])
    return field

