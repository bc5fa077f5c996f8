"""Classical reference force fields.

These serve three purposes in the reproduction:

* exercising and testing the MD engine independently of the neural network,
* generating synthetic training data for the Allegro-lite models (the
  "first-principles training data" substitute, see DESIGN.md), and
* providing the ground-truth against which NN force errors and the
  fidelity-scaling (time-to-failure) study are measured.

All force fields implement the small :class:`ForceField` protocol:
``compute(atoms, neighbor_list=None) -> (energy, forces)`` in eV and eV/A.

The pair kernels are array-only: nothing runs per pair in Python.  Species
parameters are looked up in an ``(S, S)`` table over the distinct species,
and every pair force reaches the atoms through one scatter,
:func:`scatter_pair_forces`, which the NN and Ehrenfest pair forces share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from repro.md.atoms import AtomsSystem
from repro.md.neighborlist import NeighborList


class ForceField(Protocol):
    """Minimal interface every force provider implements."""

    cutoff: float

    def compute(
        self, atoms: AtomsSystem, neighbor_list: Optional[NeighborList] = None
    ) -> Tuple[float, np.ndarray]:
        """Return (potential energy [eV], forces [eV/A] of shape (n_atoms, 3))."""
        ...


def scatter_pair_forces(
    n_atoms: int, pairs: np.ndarray, pair_forces: np.ndarray
) -> np.ndarray:
    """Per-atom forces from pair forces: ``+f`` on ``pairs[:, 0]``, ``-f`` on
    ``pairs[:, 1]``.

    ``np.bincount`` adds its weights in input order, so the result is bit for
    bit what an unbuffered ``add.at`` of ``+f`` onto ``i`` and then ``-f``
    onto ``j`` gives.
    """
    index = np.concatenate((pairs[:, 0], pairs[:, 1]))
    weights = np.concatenate((pair_forces, -pair_forces))
    forces = np.empty((n_atoms, 3))
    for c in range(3):
        forces[:, c] = np.bincount(index, weights=weights[:, c], minlength=n_atoms)
    return forces


def _get_pairs(atoms: AtomsSystem, cutoff: float,
               neighbor_list: Optional[NeighborList]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build or reuse a neighbour list and return (pairs, vectors, distances).

    The returned vectors/distances always refer to the *current* positions —
    the pair list itself is reused between rebuilds (skin trick), but the
    geometry is recomputed so forces never act on stale coordinates.
    """
    if neighbor_list is None:
        neighbor_list = NeighborList(cutoff)
        return neighbor_list.build(atoms)
    if neighbor_list.needs_rebuild(atoms):
        return neighbor_list.build(atoms)
    return neighbor_list.current_geometry(atoms)


@dataclass
class LennardJones:
    """Pairwise Lennard-Jones with per-species-pair parameters.

    Parameters default to an argon-like fluid; mixed pairs use Lorentz-
    Berthelot combining rules on the per-species tables when provided.
    """

    epsilon: float = 0.0104  # eV
    sigma: float = 3.4       # Angstrom
    cutoff: float = 8.5
    species_epsilon: Optional[Dict[str, float]] = None
    species_sigma: Optional[Dict[str, float]] = None

    def _pair_parameters(self, species_i: str, species_j: str) -> Tuple[float, float]:
        eps_i = (self.species_epsilon or {}).get(species_i, self.epsilon)
        eps_j = (self.species_epsilon or {}).get(species_j, self.epsilon)
        sig_i = (self.species_sigma or {}).get(species_i, self.sigma)
        sig_j = (self.species_sigma or {}).get(species_j, self.sigma)
        return float(np.sqrt(eps_i * eps_j)), float(0.5 * (sig_i + sig_j))

    def compute(
        self, atoms: AtomsSystem, neighbor_list: Optional[NeighborList] = None
    ) -> Tuple[float, np.ndarray]:
        pairs, vectors, distances = _get_pairs(atoms, self.cutoff, neighbor_list)
        if pairs.shape[0] == 0:
            return 0.0, np.zeros((atoms.n_atoms, 3))
        # (S, S) parameter tables over the distinct species, gathered per pair.
        names, code = np.unique(atoms.species, return_inverse=True)
        eps_table = np.empty((names.size, names.size))
        sig_table = np.empty((names.size, names.size))
        for a, name_a in enumerate(names):
            for b, name_b in enumerate(names):
                eps_table[a, b], sig_table[a, b] = self._pair_parameters(name_a, name_b)
        code_i, code_j = code[pairs[:, 0]], code[pairs[:, 1]]
        eps = eps_table[code_i, code_j]
        sig = sig_table[code_i, code_j]
        inv_r = sig / distances
        inv_r6 = inv_r ** 6
        inv_r12 = inv_r6 ** 2
        pair_energy = 4.0 * eps * (inv_r12 - inv_r6)
        energy = float(np.sum(pair_energy))
        # dE/dr = 4 eps (-12 r^-13 sig^12 + 6 r^-7 sig^6); force on i is along +vec
        magnitude = 4.0 * eps * (12.0 * inv_r12 - 6.0 * inv_r6) / distances
        pair_forces = magnitude[:, None] * vectors / distances[:, None]
        return energy, scatter_pair_forces(atoms.n_atoms, pairs, pair_forces)


@dataclass
class MorsePotential:
    """Pairwise Morse potential (anharmonic bonds, used for XS training data).

    E(r) = D (1 - exp(-a (r - r0)))^2 - D, shifted so the minimum is -D.
    """

    depth: float = 0.4     # eV
    a: float = 1.6         # 1/Angstrom
    r0: float = 2.8        # Angstrom
    cutoff: float = 6.5

    def compute(
        self, atoms: AtomsSystem, neighbor_list: Optional[NeighborList] = None
    ) -> Tuple[float, np.ndarray]:
        pairs, vectors, distances = _get_pairs(atoms, self.cutoff, neighbor_list)
        if pairs.shape[0] == 0:
            return 0.0, np.zeros((atoms.n_atoms, 3))
        exponent = np.exp(-self.a * (distances - self.r0))
        pair_energy = self.depth * (1.0 - exponent) ** 2 - self.depth
        energy = float(np.sum(pair_energy))
        # dE/dr = 2 D a exponent (1 - exponent)
        dE_dr = 2.0 * self.depth * self.a * exponent * (1.0 - exponent)
        pair_forces = -dE_dr[:, None] * vectors / distances[:, None]
        return energy, scatter_pair_forces(atoms.n_atoms, pairs, pair_forces)


@dataclass
class HarmonicWells:
    """Per-atom harmonic tether to reference sites (Einstein crystal).

    Useful as an analytically solvable testbed: energy conservation, phonon
    frequency, and equipartition can all be checked in closed form.
    """

    reference_positions: np.ndarray
    spring_constant: float = 1.0  # eV / A^2
    cutoff: float = 0.0           # unused; present for protocol compatibility

    def __post_init__(self) -> None:
        self.reference_positions = np.asarray(
            self.reference_positions, dtype=float
        ).reshape(-1, 3)
        if self.spring_constant <= 0:
            raise ValueError("spring_constant must be positive")

    def compute(
        self, atoms: AtomsSystem, neighbor_list: Optional[NeighborList] = None
    ) -> Tuple[float, np.ndarray]:
        del neighbor_list
        if self.reference_positions.shape[0] != atoms.n_atoms:
            raise ValueError("reference positions must match the atom count")
        delta = atoms.positions - self.reference_positions
        delta -= atoms.box * np.round(delta / atoms.box)
        energy = float(0.5 * self.spring_constant * np.sum(delta ** 2))
        forces = -self.spring_constant * delta
        return energy, forces
