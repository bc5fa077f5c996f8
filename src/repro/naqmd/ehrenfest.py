"""Ehrenfest (mean-field) forces on the ions.

During the Ehrenfest segment of MESH the ions move on the mean-field potential
energy surface of the instantaneous electron density.  With the Gaussian-well
local pseudopotential model used throughout this reproduction the Hellmann-
Feynman force on ion I is analytic:

    F_I = - d/dR_I  integral n(r) v_ext(r; R_I) d^3r
        = - integral n(r) * depth_I * exp(-|r-R_I|^2 / 2 w_I^2) * (r - R_I)/w_I^2 d^3r

plus the classical ion-ion repulsion, for which a screened Coulomb (Yukawa)
pair term is used so the periodic lattice sums converge quickly.  The same
object also provides the potential builder, so QXMD can rebuild v_ext after
every MD step (the Δv_loc that the shadow dynamics ships to the GPU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.grid.grid3d import Grid3D
from repro.md import scatter_pair_forces
from repro.qd.hamiltonian import gaussian_external_potential
from repro.utils.mathutils import periodic_delta


@dataclass
class EhrenfestForces:
    """Hellmann-Feynman forces for Gaussian-well model ions.

    Parameters
    ----------
    grid:
        Real-space grid of the electron density.
    depths, widths:
        Per-ion Gaussian well parameters (Hartree, Bohr).
    charges:
        Effective ionic charges used for the ion-ion repulsion.
    screening_length:
        Yukawa screening length (Bohr) of the ion-ion term.
    """

    grid: Grid3D
    depths: Sequence[float]
    widths: Sequence[float]
    charges: Sequence[float]
    screening_length: float = 4.0

    def __post_init__(self) -> None:
        self.depths = np.asarray(self.depths, dtype=float)
        self.widths = np.asarray(self.widths, dtype=float)
        self.charges = np.asarray(self.charges, dtype=float)
        n = self.depths.size
        if self.widths.size != n or self.charges.size != n:
            raise ValueError("depths, widths and charges must have the same length")
        if np.any(self.widths <= 0):
            raise ValueError("widths must be positive")
        if self.screening_length <= 0:
            raise ValueError("screening_length must be positive")

    @property
    def n_ions(self) -> int:
        return self.depths.size

    # ------------------------------------------------------------------
    def external_potential(self, positions: np.ndarray) -> np.ndarray:
        """v_ext(r; R) for the current ion positions."""
        positions = np.asarray(positions, dtype=float).reshape(self.n_ions, 3)
        return gaussian_external_potential(
            self.grid, positions, self.depths, self.widths
        )

    # ------------------------------------------------------------------
    def _pair_geometry(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Minimum-image geometry of every unordered ion pair (i < j).

        Returns ``(iu, ju, delta, r)`` over the strict upper triangle of the
        pair matrix — the triangular-index form of the former double loop.
        """
        box = np.asarray(self.grid.lengths)
        iu, ju = np.triu_indices(self.n_ions, k=1)
        delta = periodic_delta(positions[iu], positions[ju], box)
        r = np.linalg.norm(delta, axis=1)
        return iu, ju, delta, r

    def electronic_forces(self, density: np.ndarray, positions: np.ndarray,
                          ion_block: int = 8) -> np.ndarray:
        """Hellmann-Feynman force of the electron density on every ion.

        Ions are processed in blocks of ``ion_block`` with the grid arithmetic
        broadcast across the whole block, so the per-ion work is a handful of
        dense array sweeps; the block size only bounds the (n_ions, grid)
        broadcast memory.
        """
        density = np.asarray(density, dtype=float)
        if density.shape != self.grid.shape:
            raise ValueError("density must live on the grid")
        if ion_block < 1:
            raise ValueError("ion_block must be >= 1")
        positions = np.asarray(positions, dtype=float).reshape(self.n_ions, 3)
        x, y, z = self.grid.meshgrid()
        lengths = np.asarray(self.grid.lengths)
        forces = np.zeros((self.n_ions, 3))
        for start in range(0, self.n_ions, ion_block):
            stop = min(start + ion_block, self.n_ions)
            block = positions[start:stop]  # (m, 3)
            dx = x[None] - block[:, 0, None, None, None]
            dy = y[None] - block[:, 1, None, None, None]
            dz = z[None] - block[:, 2, None, None, None]
            dx -= lengths[0] * np.round(dx / lengths[0])
            dy -= lengths[1] * np.round(dy / lengths[1])
            dz -= lengths[2] * np.round(dz / lengths[2])
            r2 = dx ** 2 + dy ** 2 + dz ** 2
            w2 = self.widths[start:stop, None, None, None] ** 2
            # dv_ext/dR = -depth * gauss * (r - R)/w^2  -> F = -∫ n dv/dR
            weight = density[None] * (
                -self.depths[start:stop, None, None, None] / w2
            ) * np.exp(-0.5 * r2 / w2)
            dv = self.grid.dv
            forces[start:stop, 0] = -np.sum(weight * dx, axis=(1, 2, 3)) * dv
            forces[start:stop, 1] = -np.sum(weight * dy, axis=(1, 2, 3)) * dv
            forces[start:stop, 2] = -np.sum(weight * dz, axis=(1, 2, 3)) * dv
        return forces

    def electronic_forces_reference(self, density: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Per-ion Python-loop Hellmann-Feynman forces (cross-check reference)."""
        density = np.asarray(density, dtype=float)
        if density.shape != self.grid.shape:
            raise ValueError("density must live on the grid")
        positions = np.asarray(positions, dtype=float).reshape(self.n_ions, 3)
        x, y, z = self.grid.meshgrid()
        lx, ly, lz = self.grid.lengths
        forces = np.zeros((self.n_ions, 3))
        for i in range(self.n_ions):
            dx = x - positions[i, 0]
            dy = y - positions[i, 1]
            dz = z - positions[i, 2]
            dx -= lx * np.round(dx / lx)
            dy -= ly * np.round(dy / ly)
            dz -= lz * np.round(dz / lz)
            r2 = dx ** 2 + dy ** 2 + dz ** 2
            w2 = self.widths[i] ** 2
            gauss = np.exp(-0.5 * r2 / w2)
            prefactor = -self.depths[i] / w2
            forces[i, 0] = -float(self.grid.integrate(density * prefactor * gauss * dx))
            forces[i, 1] = -float(self.grid.integrate(density * prefactor * gauss * dy))
            forces[i, 2] = -float(self.grid.integrate(density * prefactor * gauss * dz))
        return forces

    def ion_ion_forces(self, positions: np.ndarray) -> np.ndarray:
        """Screened-Coulomb (Yukawa) ion-ion repulsion forces.

        The former O(N^2) double loop is a single sweep over the triangular
        pair indices followed by a scatter-add back onto the ions.
        """
        positions = np.asarray(positions, dtype=float).reshape(self.n_ions, 3)
        kappa = 1.0 / self.screening_length
        iu, ju, delta, r = self._pair_geometry(positions)
        close = r >= 1e-8
        iu, ju, delta, r = iu[close], ju[close], delta[close], r[close]
        qq = self.charges[iu] * self.charges[ju]
        # d/dr [ q q exp(-kappa r)/r ] = -qq e^{-kr} (1 + kr) / r^2
        magnitude = qq * np.exp(-kappa * r) * (1.0 + kappa * r) / r ** 2
        pair_force = (magnitude / r)[:, None] * delta
        return scatter_pair_forces(self.n_ions, np.stack((iu, ju), axis=1), pair_force)

    def ion_ion_forces_reference(self, positions: np.ndarray) -> np.ndarray:
        """Double-loop Yukawa forces (cross-check reference)."""
        positions = np.asarray(positions, dtype=float).reshape(self.n_ions, 3)
        box = np.asarray(self.grid.lengths)
        forces = np.zeros((self.n_ions, 3))
        kappa = 1.0 / self.screening_length
        for i in range(self.n_ions):
            for j in range(self.n_ions):
                if i == j:
                    continue
                delta = periodic_delta(positions[i], positions[j], box)
                r = float(np.linalg.norm(delta))
                if r < 1e-8:
                    continue
                qq = self.charges[i] * self.charges[j]
                magnitude = qq * np.exp(-kappa * r) * (1.0 + kappa * r) / r ** 2
                forces[i] += magnitude * delta / r
        return forces

    def ion_ion_energy(self, positions: np.ndarray) -> float:
        """Total screened-Coulomb ion-ion energy (triangular-index sweep)."""
        positions = np.asarray(positions, dtype=float).reshape(self.n_ions, 3)
        kappa = 1.0 / self.screening_length
        iu, ju, _, r = self._pair_geometry(positions)
        close = r >= 1e-8
        qq = self.charges[iu[close]] * self.charges[ju[close]]
        r = r[close]
        return float(np.sum(qq * np.exp(-kappa * r) / r))

    def ion_ion_energy_reference(self, positions: np.ndarray) -> float:
        """Double-loop Yukawa energy (cross-check reference)."""
        positions = np.asarray(positions, dtype=float).reshape(self.n_ions, 3)
        box = np.asarray(self.grid.lengths)
        kappa = 1.0 / self.screening_length
        energy = 0.0
        for i in range(self.n_ions):
            for j in range(i + 1, self.n_ions):
                delta = periodic_delta(positions[i], positions[j], box)
                r = float(np.linalg.norm(delta))
                if r < 1e-8:
                    continue
                energy += self.charges[i] * self.charges[j] * np.exp(-kappa * r) / r
        return energy

    def total_forces(self, density: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Electronic (Hellmann-Feynman) plus ion-ion forces."""
        return self.electronic_forces(density, positions) + self.ion_ion_forces(positions)
