"""Training datasets: containers and synthetic data generation.

The paper trains the PbTiO3 XS-NNQMD model on NAQMD data and the Allegro-FM on
a union of public datasets (Materials Project Trajectory, SPICE) unified by
total energy alignment.  None of those datasets ships with this reproduction,
so :func:`rattle_dataset` generates the synthetic equivalent: reference
configurations are built from a lattice (or liquid) seed, thermally rattled,
and labelled with energies/forces from a reference force field — either a
classical potential or the in-repo TDDFT/Ehrenfest machinery.  Multi-fidelity
unions are modelled by applying per-dataset affine energy offsets which TEA
must then recover (that is exactly the situation TEA solves for real data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.md.atoms import AtomsSystem
from repro.md.forcefields import ForceField
from repro.md.neighborlist import NeighborList


@dataclass
class Configuration:
    """One labelled training configuration."""

    atoms: AtomsSystem
    energy: float
    forces: np.ndarray
    fidelity: str = "reference"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.forces = np.asarray(self.forces, dtype=float).reshape(self.atoms.n_atoms, 3)


@dataclass
class ConfigurationDataset:
    """A list of labelled configurations with batching helpers."""

    configurations: List[Configuration] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.configurations)

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self.configurations)

    def add(self, configuration: Configuration) -> None:
        self.configurations.append(configuration)

    def split(self, fraction: float, rng: np.random.Generator) -> Tuple["ConfigurationDataset", "ConfigurationDataset"]:
        """Random train/validation split; ``fraction`` goes to the first set."""
        if not (0.0 < fraction < 1.0):
            raise ValueError("fraction must lie in (0, 1)")
        indices = rng.permutation(len(self.configurations))
        n_train = max(1, int(round(fraction * len(self.configurations))))
        train = ConfigurationDataset([self.configurations[i] for i in indices[:n_train]])
        valid = ConfigurationDataset([self.configurations[i] for i in indices[n_train:]])
        return train, valid

    def batches(self, batch_size: int, rng: Optional[np.random.Generator] = None) -> Iterator[List[Configuration]]:
        """Yield shuffled mini-batches."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        order = np.arange(len(self.configurations))
        if rng is not None:
            order = rng.permutation(order)
        for start in range(0, order.size, batch_size):
            yield [self.configurations[i] for i in order[start: start + batch_size]]


def rattle_dataset(
    seed_atoms: AtomsSystem,
    force_field: ForceField,
    num_configurations: int,
    displacement: float,
    rng: np.random.Generator,
    fidelity: str = "reference",
    energy_offset: float = 0.0,
    energy_scale: float = 1.0,
) -> ConfigurationDataset:
    """Generate configurations by random rattling of a seed structure.

    ``energy_offset`` / ``energy_scale`` apply an affine distortion to the
    labels, emulating a dataset computed with a different exchange-correlation
    functional or code — the multi-fidelity situation TEA is designed to undo.
    """
    if num_configurations < 1:
        raise ValueError("num_configurations must be >= 1")
    if displacement < 0:
        raise ValueError("displacement must be non-negative")
    dataset = ConfigurationDataset()
    neighbor_list = NeighborList(force_field.cutoff) if force_field.cutoff > 0 else None
    for _ in range(num_configurations):
        atoms = seed_atoms.copy()
        atoms.positions += displacement * rng.standard_normal(atoms.positions.shape)
        atoms.wrap()
        energy, forces = force_field.compute(atoms, neighbor_list)
        dataset.add(
            Configuration(
                atoms=atoms,
                energy=energy_scale * energy + energy_offset,
                forces=energy_scale * forces,
                fidelity=fidelity,
                metadata={"displacement": displacement},
            )
        )
    return dataset
