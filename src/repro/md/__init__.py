"""Molecular dynamics substrate of the XS-NNQMD module.

Everything the large-scale (device-scale) half of the paper needs from a
classical MD engine lives here: the atoms container, cell-list neighbour
search, velocity-Verlet / Langevin integrators, classical reference force
fields (used both for testing the engine and for generating neural-network
training data), the PbTiO3 perovskite / skyrmion-superlattice builders, and
the effective ferroelectric local-mode Hamiltonian used as the "second
principles" substitute for full DFT energetics (see DESIGN.md).

Units: Angstrom, eV, femtoseconds, atomic mass units ("metal" units).
"""

from repro.md.atoms import AtomsSystem
from repro.md.neighborlist import NeighborList, brute_force_pairs, build_pairs_reference
from repro.md.forcefields import (
    ForceField,
    HarmonicWells,
    LennardJones,
    MorsePotential,
    scatter_pair_forces,
)
from repro.md.integrators import VelocityVerlet, LangevinIntegrator
from repro.md.lattice import (
    perovskite_unit_cell,
    perovskite_supercell,
    skyrmion_displacement_field,
)
from repro.md.localmode import LocalModeModel, LocalModeLattice

__all__ = [
    "AtomsSystem",
    "NeighborList",
    "brute_force_pairs",
    "build_pairs_reference",
    "ForceField",
    "HarmonicWells",
    "LennardJones",
    "MorsePotential",
    "scatter_pair_forces",
    "VelocityVerlet",
    "LangevinIntegrator",
    "perovskite_unit_cell",
    "perovskite_supercell",
    "skyrmion_displacement_field",
    "LocalModeModel",
    "LocalModeLattice",
]
