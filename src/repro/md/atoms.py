"""Atoms container for the classical MD engine (metal units)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.units import KB_EV


#: Atomic masses (amu) of the species used in the examples and benchmarks.
ATOMIC_MASSES: Dict[str, float] = {
    "H": 1.008,
    "O": 15.999,
    "Ti": 47.867,
    "Pb": 207.2,
    "Si": 28.085,
    "Al": 26.982,
    "Ar": 39.948,
}


@dataclass
class AtomsSystem:
    """A collection of atoms in an orthorhombic periodic box.

    Attributes
    ----------
    positions:
        ``(n_atoms, 3)`` Cartesian positions in Angstrom.
    species:
        Array of chemical symbols (object / str dtype), one per atom.
    box:
        Orthorhombic box edge lengths ``(3,)`` in Angstrom.
    velocities:
        ``(n_atoms, 3)`` velocities in Angstrom / fs; defaults to zero.
    masses:
        Per-atom masses in amu; defaults to tabulated values by species.
    """

    positions: np.ndarray
    species: np.ndarray
    box: np.ndarray
    velocities: Optional[np.ndarray] = None
    masses: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3).copy()
        self.species = np.asarray(self.species, dtype=object).reshape(-1)
        self.box = np.asarray(self.box, dtype=float).reshape(3).copy()
        n = self.positions.shape[0]
        if self.species.size != n:
            raise ValueError("species must have one entry per atom")
        if np.any(self.box <= 0):
            raise ValueError("box lengths must be positive")
        if self.velocities is None:
            self.velocities = np.zeros((n, 3))
        else:
            self.velocities = np.asarray(self.velocities, dtype=float).reshape(n, 3).copy()
        if self.masses is None:
            try:
                self.masses = np.array(
                    [ATOMIC_MASSES[s] for s in self.species], dtype=float
                )
            except KeyError as exc:
                raise ValueError(
                    f"unknown species {exc.args[0]!r}; provide masses explicitly"
                ) from exc
        else:
            self.masses = np.asarray(self.masses, dtype=float).reshape(n).copy()
            if np.any(self.masses <= 0):
                raise ValueError("masses must be positive")

    # ------------------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    def wrap(self) -> None:
        """Wrap all positions back into the primary periodic image."""
        self.positions %= self.box

    # ------------------------------------------------------------------
    def kinetic_energy(self) -> float:
        """Kinetic energy in eV (velocities in Ang/fs, masses in amu)."""
        # 1 amu (Ang/fs)^2 = 103.6427 eV
        conversion = 103.642697
        return float(0.5 * conversion * np.sum(self.masses[:, None] * self.velocities ** 2))

    def temperature(self) -> float:
        """Instantaneous kinetic temperature in Kelvin."""
        ndof = max(3 * self.n_atoms - 3, 1)
        return 2.0 * self.kinetic_energy() / (ndof * KB_EV)

    def set_temperature(self, temperature_k: float, rng: np.random.Generator) -> None:
        """Draw Maxwell-Boltzmann velocities for the target temperature."""
        if temperature_k < 0:
            raise ValueError("temperature must be non-negative")
        if temperature_k == 0:
            self.velocities[:] = 0.0
            return
        conversion = 103.642697  # amu (Ang/fs)^2 per eV
        sigma = np.sqrt(KB_EV * temperature_k / (self.masses * conversion))
        self.velocities = rng.standard_normal((self.n_atoms, 3)) * sigma[:, None]
        # Remove centre-of-mass drift.
        total_momentum = np.sum(self.masses[:, None] * self.velocities, axis=0)
        self.velocities -= total_momentum / self.masses.sum()

    def copy(self) -> "AtomsSystem":
        return AtomsSystem(
            positions=self.positions.copy(),
            species=self.species.copy(),
            box=self.box.copy(),
            velocities=self.velocities.copy(),
            masses=self.masses.copy(),
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------
    def replicate(self, repeats: Sequence[int]) -> "AtomsSystem":
        """Periodic replication of the system ``repeats`` times per axis."""
        repeats = np.asarray(repeats, dtype=int).reshape(3)
        if np.any(repeats < 1):
            raise ValueError("repeats must be >= 1 in every direction")
        positions = []
        species = []
        velocities = []
        masses = []
        for ix in range(repeats[0]):
            for iy in range(repeats[1]):
                for iz in range(repeats[2]):
                    shift = np.array([ix, iy, iz]) * self.box
                    positions.append(self.positions + shift)
                    species.append(self.species)
                    velocities.append(self.velocities)
                    masses.append(self.masses)
        return AtomsSystem(
            positions=np.concatenate(positions),
            species=np.concatenate(species),
            box=self.box * repeats,
            velocities=np.concatenate(velocities),
            masses=np.concatenate(masses),
        )
