"""Block model inference (paper Sec. V.B.9).

GPU memory, not compute, limits the largest system one device can hold: the
neighbour-list tensor carries a 50-200x prefactor over the position tensor.
The paper therefore splits the inference over atom blocks — each block builds
only its own neighbour slice, evaluates the model, and accumulates forces —
reaching an order of magnitude larger systems per device.  The class below
implements the same blocking for the Allegro-lite calculator: energies and
forces are mathematically identical to the monolithic evaluation (the tests
assert this), while the peak pair-array size is bounded by the block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.md import AtomsSystem, NeighborList, scatter_pair_forces
from repro.nn.model import AllegroLiteModel


@dataclass
class BlockedInference:
    """Evaluate an Allegro-lite model block-by-block over the atoms.

    Parameters
    ----------
    model:
        The pair potential to evaluate.
    block_size:
        Number of atoms per inference block (the paper uses two batches per
        device; here the block size is explicit so memory scaling can be
        studied).
    """

    model: AllegroLiteModel
    block_size: int = 1024
    cutoff: float = field(init=False)
    peak_pairs_per_block: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.cutoff = self.model.cutoff

    def compute(
        self, atoms: AtomsSystem, neighbor_list: Optional[NeighborList] = None
    ) -> Tuple[float, np.ndarray]:
        """Blocked energy/force evaluation (ForceField protocol)."""
        if neighbor_list is None:
            neighbor_list = NeighborList(self.model.cutoff)
        if neighbor_list.needs_rebuild(atoms):
            neighbor_list.build(atoms)
        pairs, vectors, distances = neighbor_list.current_geometry(atoms)
        energy = self.model._reference_energy(atoms)
        if pairs.shape[0] == 0:
            return energy, np.zeros((atoms.n_atoms, 3))
        self.peak_pairs_per_block = 0
        # Assign each pair to the block of its first atom; every block then
        # evaluates only its own slice of the pair list, and one scatter in
        # pair order then sums the forces in the monolithic model's order.
        pair_forces = np.empty_like(vectors)
        block_of_pair = pairs[:, 0] // self.block_size
        n_blocks = int(block_of_pair.max()) + 1
        for block in range(n_blocks):
            mask = block_of_pair == block
            if not np.any(mask):
                continue
            block_pairs = pairs[mask]
            block_vectors = vectors[mask]
            block_distances = distances[mask]
            self.peak_pairs_per_block = max(self.peak_pairs_per_block, block_pairs.shape[0])
            basis_values, basis_derivs = self.model.basis.evaluate(block_distances)
            encoding = self.model._pair_one_hot(
                atoms.species[block_pairs[:, 0]], atoms.species[block_pairs[:, 1]]
            )
            coefficients = self.model.embedding.forward(encoding)
            energy += float(np.sum(coefficients * basis_values))
            de_dr = np.sum(coefficients * basis_derivs, axis=1)
            unit = block_vectors / block_distances[:, None]
            pair_forces[mask] = -de_dr[:, None] * unit
        return energy, scatter_pair_forces(atoms.n_atoms, pairs, pair_forces)

    def memory_model_bytes(self, n_atoms: int, neighbors_per_atom: float) -> dict:
        """Rough peak-memory model of blocked vs monolithic inference.

        Returns byte estimates for the position, type, and neighbour-list
        tensors, reproducing the scaling argument of Sec. V.B.9 (the neighbour
        list dominates with its ~50-200x prefactor).
        """
        bytes_per_float = 8
        bytes_per_int = 8
        positions = 3 * n_atoms * bytes_per_float
        types = n_atoms * bytes_per_int
        pairs_total = int(n_atoms * neighbors_per_atom / 2)
        neighbor_full = pairs_total * (2 * bytes_per_int + 4 * bytes_per_float)
        blocks = max(1, int(np.ceil(n_atoms / self.block_size)))
        neighbor_blocked = int(np.ceil(neighbor_full / blocks))
        return {
            "positions_bytes": positions,
            "types_bytes": types,
            "neighbor_list_bytes_monolithic": neighbor_full,
            "neighbor_list_bytes_blocked_peak": neighbor_blocked,
            "blocks": blocks,
        }
