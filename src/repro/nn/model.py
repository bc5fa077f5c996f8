"""Allegro-lite: a strictly local, equivariant-by-construction pair potential.

Architecture (a deliberately small but structurally faithful stand-in for
Allegro, see DESIGN.md):

* Every ordered species pair (Z_i, Z_j) is one-hot encoded and passed through
  an embedding MLP that outputs the coefficients ``c_k(Z_i, Z_j)`` of a radial
  basis expansion.
* The pair energy is ``e_ij = sum_k c_k(Z_i, Z_j) B_k(r_ij)`` with the smooth
  cutoff built into B_k; total energy ``E = sum_{i<j} e_ij`` plus per-species
  reference energies.
* Forces are the exact analytic gradient
  ``F_i = -sum_j (de_ij/dr_ij) * r_hat_ij``, so they are conservative,
  rotation-equivariant, and sum to zero by construction.

Because every quantity is a per-pair scalar within a finite cutoff the model
inherits Allegro's strict locality: cost and memory are O(N) and the model can
be evaluated independently per spatial domain, which is what the scaling
benchmarks (Fig. 5) rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.md import AtomsSystem, NeighborList, scatter_pair_forces
from repro.nn.basis import RadialBasis
from repro.nn.mlp import MLP


@dataclass
class AllegroLiteModel:
    """The trainable pair-potential model.

    Parameters
    ----------
    species:
        Ordered list of chemical symbols the model knows about.
    cutoff:
        Radial cutoff in Angstrom.
    num_basis:
        Number of radial basis functions.
    hidden:
        Hidden-layer sizes of the species-pair embedding network.
    rng:
        Generator for weight initialisation.
    """

    species: Sequence[str]
    cutoff: float = 5.2
    num_basis: int = 8
    hidden: Tuple[int, ...] = (32, 32)
    rng: np.random.Generator = None  # type: ignore[assignment]
    atomic_reference_energies: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.species = tuple(dict.fromkeys(self.species))
        if not self.species:
            raise ValueError("need at least one species")
        if self.rng is None:
            self.rng = np.random.default_rng(0)
        self.basis = RadialBasis(self.cutoff, self.num_basis)
        n_species = len(self.species)
        input_size = 2 * n_species
        layer_sizes = (input_size, *self.hidden, self.num_basis)
        self.embedding = MLP(layer_sizes, activation="tanh", rng=self.rng)
        self._species_index = {s: i for i, s in enumerate(self.species)}

    # ------------------------------------------------------------------
    @property
    def num_weights(self) -> int:
        """Total trainable parameter count (the 'weights' of the T2S metric)."""
        return self.embedding.num_parameters

    def get_parameters(self) -> np.ndarray:
        return self.embedding.get_parameters()

    def set_parameters(self, flat: np.ndarray) -> None:
        self.embedding.set_parameters(flat)

    def copy(self) -> "AllegroLiteModel":
        clone = AllegroLiteModel(
            species=self.species,
            cutoff=self.cutoff,
            num_basis=self.num_basis,
            hidden=self.hidden,
            rng=np.random.default_rng(0),
            atomic_reference_energies=dict(self.atomic_reference_energies),
        )
        clone.set_parameters(self.get_parameters())
        return clone

    # ------------------------------------------------------------------
    def _pair_one_hot(self, species_i: np.ndarray, species_j: np.ndarray) -> np.ndarray:
        """Symmetrised one-hot encoding of the species pair."""
        n_species = len(self.species)
        n_pairs = species_i.size
        encoding = np.zeros((n_pairs, 2 * n_species))
        idx_i = np.array([self._species_index[s] for s in species_i])
        idx_j = np.array([self._species_index[s] for s in species_j])
        # Symmetrise: the unordered pair {A, B} maps to the same encoding as
        # {B, A} by summing both orderings' one-hots into two slots.
        encoding[np.arange(n_pairs), np.minimum(idx_i, idx_j)] = 1.0
        encoding[np.arange(n_pairs), n_species + np.maximum(idx_i, idx_j)] = 1.0
        return encoding

    def _reference_energy(self, atoms: AtomsSystem) -> float:
        if not self.atomic_reference_energies:
            return 0.0
        return float(
            sum(self.atomic_reference_energies.get(s, 0.0) for s in atoms.species)
        )

    # ------------------------------------------------------------------
    def energy_and_forces(
        self,
        atoms: AtomsSystem,
        neighbor_list: Optional[NeighborList] = None,
        return_cache: bool = False,
    ):
        """Total energy (eV) and forces (eV/A); optionally a training cache.

        The cache carries everything the loss gradient needs: the per-pair
        basis values/derivatives, the MLP forward cache, the pair unit
        vectors, and the pair index lists.
        """
        if neighbor_list is None:
            neighbor_list = NeighborList(self.cutoff)
        if neighbor_list.needs_rebuild(atoms):
            neighbor_list.build(atoms)
        pairs, vectors, distances = neighbor_list.current_geometry(atoms)
        reference = self._reference_energy(atoms)
        if pairs.shape[0] == 0:
            forces = np.zeros((atoms.n_atoms, 3))
            if return_cache:
                return reference, forces, None
            return reference, forces
        basis_values, basis_derivs = self.basis.evaluate(distances)
        species_i = atoms.species[pairs[:, 0]]
        species_j = atoms.species[pairs[:, 1]]
        encoding = self._pair_one_hot(species_i, species_j)
        coefficients, mlp_cache = self.embedding.forward(encoding, cache=True)
        pair_energies = np.sum(coefficients * basis_values, axis=1)
        energy = float(np.sum(pair_energies)) + reference
        # dE/dr_ij = sum_k c_k B'_k(r_ij); force on i along +unit vector.
        de_dr = np.sum(coefficients * basis_derivs, axis=1)
        unit = vectors / distances[:, None]
        pair_forces = -de_dr[:, None] * unit
        forces = scatter_pair_forces(atoms.n_atoms, pairs, pair_forces)
        if return_cache:
            cache = {
                "pairs": pairs,
                "unit": unit,
                "distances": distances,
                "basis_values": basis_values,
                "basis_derivs": basis_derivs,
                "coefficients": coefficients,
                "mlp_cache": mlp_cache,
                "n_atoms": atoms.n_atoms,
            }
            return energy, forces, cache
        return energy, forces

    # ------------------------------------------------------------------
    def parameter_gradient(
        self,
        cache: dict,
        grad_energy: float,
        grad_forces: np.ndarray,
    ) -> np.ndarray:
        """Gradient of ``grad_energy * E + sum(grad_forces * F)`` w.r.t. weights.

        ``grad_energy`` and ``grad_forces`` are the upstream derivatives of a
        scalar loss with respect to the predicted energy and forces; the chain
        rule through the pair structure reduces everything to a per-pair
        upstream gradient on the embedding-network output coefficients, which
        standard backprop then turns into a parameter gradient.
        """
        if cache is None:
            return np.zeros(self.num_weights)
        pairs = cache["pairs"]
        unit = cache["unit"]
        basis_values = cache["basis_values"]
        basis_derivs = cache["basis_derivs"]
        grad_forces = np.asarray(grad_forces, dtype=float)
        # dLoss/dc_k per pair: energy path + force path.
        # Energy path: dE/dc_k = B_k(r_ij).
        grad_coefficients = grad_energy * basis_values
        # Force path: F_i += -sum_k c_k B'_k u_ij  (and -F on j), so
        # dLoss/dc_k += (gF_j - gF_i) . u_ij * B'_k.
        gf_i = grad_forces[pairs[:, 0]]
        gf_j = grad_forces[pairs[:, 1]]
        force_proj = np.sum((gf_j - gf_i) * unit, axis=1)
        grad_coefficients = grad_coefficients + force_proj[:, None] * basis_derivs
        grad_params, _ = self.embedding.backward(cache["mlp_cache"], grad_coefficients)
        return grad_params


@dataclass
class AllegroCalculator:
    """ForceField-protocol adapter around an :class:`AllegroLiteModel`.

    This is what the MD integrators consume; it also records inference call
    statistics used by the T2S benchmarks.
    """

    model: AllegroLiteModel
    cutoff: float = field(init=False)
    call_count: int = field(default=0, init=False)
    atom_evaluations: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.cutoff = self.model.cutoff

    def compute(
        self, atoms: AtomsSystem, neighbor_list: Optional[NeighborList] = None
    ) -> Tuple[float, np.ndarray]:
        energy, forces = self.model.energy_and_forces(atoms, neighbor_list)
        self.call_count += 1
        self.atom_evaluations += atoms.n_atoms
        return energy, forces
