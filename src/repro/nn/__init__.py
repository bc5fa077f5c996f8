"""Allegro-lite neural-network interatomic potentials (the ML half of MLMD).

The paper's XS-NNQMD module runs the Allegro family of strictly-local
equivariant potentials: Allegro (fast + SOTA accuracy), Allegro-Legato
(sharpness-aware-minimisation training for robustness / fidelity scaling) and
Allegro-FM (a foundation model unifying multi-fidelity training data through
total energy alignment).  This subpackage reproduces that stack in NumPy with
a deliberately small but architecturally faithful model:

* strictly local: every quantity is built from pairs within a finite cutoff,
  so cost and memory are O(N) and the model is trivially domain-decomposable
  (the property that makes Allegro exa-scalable);
* equivariant by construction: pair energies are rotation-invariant scalars
  and forces are scalars times unit bond vectors, summed antisymmetrically so
  momentum is conserved exactly;
* species-aware: a learned embedding network maps the species pair to the
  coefficients of a radial basis expansion of the pair energy.

Training (Adam or SAM), loss functions, dataset generation, total-energy
alignment and blocked inference live in the submodules.
"""

from repro.nn.basis import RadialBasis, polynomial_cutoff
from repro.nn.mlp import MLP
from repro.nn.model import AllegroLiteModel, AllegroCalculator
from repro.nn.dataset import ConfigurationDataset, Configuration, rattle_dataset
from repro.nn.loss import force_energy_loss
from repro.nn.optim import Adam
from repro.nn.sam import SAMOptimizer
from repro.nn.tea import TotalEnergyAlignment
from repro.nn.training import Trainer, TrainingHistory
from repro.nn.inference import BlockedInference

__all__ = [
    "RadialBasis",
    "polynomial_cutoff",
    "MLP",
    "AllegroLiteModel",
    "AllegroCalculator",
    "ConfigurationDataset",
    "Configuration",
    "rattle_dataset",
    "force_energy_loss",
    "Adam",
    "SAMOptimizer",
    "TotalEnergyAlignment",
    "Trainer",
    "TrainingHistory",
    "BlockedInference",
]
