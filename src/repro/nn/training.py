"""Training loop for Allegro-lite models (plain Adam or SAM / Allegro-Legato)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.md.neighborlist import NeighborList
from repro.nn.dataset import Configuration, ConfigurationDataset
from repro.nn.loss import force_energy_loss, force_rmse
from repro.nn.model import AllegroLiteModel
from repro.nn.optim import Adam
from repro.nn.sam import SAMOptimizer


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics."""

    train_loss: List[float] = field(default_factory=list)
    validation_loss: List[float] = field(default_factory=list)
    validation_force_rmse: List[float] = field(default_factory=list)


@dataclass
class Trainer:
    """Mini-batch trainer for :class:`AllegroLiteModel`.

    Parameters
    ----------
    model:
        The model to train (modified in place).
    learning_rate:
        Adam learning rate.
    energy_weight, force_weight:
        Loss weights.
    use_sam, sam_rho:
        Enable sharpness-aware minimisation (the Allegro-Legato recipe).
    """

    model: AllegroLiteModel
    learning_rate: float = 5e-3
    energy_weight: float = 1.0
    force_weight: float = 10.0
    use_sam: bool = False
    sam_rho: float = 0.05
    batch_size: int = 4
    rng: np.random.Generator = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = np.random.default_rng(0)
        self._adam = Adam(learning_rate=self.learning_rate)
        self._sam = SAMOptimizer(self._adam, rho=self.sam_rho) if self.use_sam else None

    # ------------------------------------------------------------------
    def _batch_loss_and_gradient(
        self, batch: List[Configuration], parameters: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Mean loss and parameter gradient of one mini-batch at ``parameters``."""
        original = self.model.get_parameters()
        self.model.set_parameters(parameters)
        total_loss = 0.0
        total_gradient = np.zeros(self.model.num_weights)
        for configuration in batch:
            neighbor_list = NeighborList(self.model.cutoff)
            energy, forces, cache = self.model.energy_and_forces(
                configuration.atoms, neighbor_list, return_cache=True
            )
            loss, grad_e, grad_f = force_energy_loss(
                energy,
                forces,
                configuration.energy,
                configuration.forces,
                configuration.atoms.n_atoms,
                self.energy_weight,
                self.force_weight,
            )
            total_loss += loss
            total_gradient += self.model.parameter_gradient(cache, grad_e, grad_f)
        self.model.set_parameters(original)
        n = max(len(batch), 1)
        return total_loss / n, total_gradient / n

    def evaluate(self, dataset: ConfigurationDataset) -> Tuple[float, float]:
        """Mean loss and force RMSE of the current model on a dataset."""
        if len(dataset) == 0:
            return 0.0, 0.0
        total_loss = 0.0
        rmse_values = []
        for configuration in dataset:
            energy, forces = self.model.energy_and_forces(configuration.atoms)
            loss, _, _ = force_energy_loss(
                energy,
                forces,
                configuration.energy,
                configuration.forces,
                configuration.atoms.n_atoms,
                self.energy_weight,
                self.force_weight,
            )
            total_loss += loss
            rmse_values.append(force_rmse(forces, configuration.forces))
        return total_loss / len(dataset), float(np.mean(rmse_values))

    # ------------------------------------------------------------------
    def train(
        self,
        dataset: ConfigurationDataset,
        epochs: int,
        validation: Optional[ConfigurationDataset] = None,
    ) -> TrainingHistory:
        """Run ``epochs`` of mini-batch training."""
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        history = TrainingHistory()
        for _ in range(epochs):
            epoch_losses = []
            for batch in dataset.batches(self.batch_size, self.rng):
                parameters = self.model.get_parameters()
                if self._sam is not None:
                    new_parameters, loss = self._sam.step(
                        parameters,
                        lambda p: self._batch_loss_and_gradient(batch, p),
                    )
                else:
                    loss, gradient = self._batch_loss_and_gradient(batch, parameters)
                    new_parameters = self._adam.step(parameters, gradient)
                self.model.set_parameters(new_parameters)
                epoch_losses.append(loss)
            history.train_loss.append(float(np.mean(epoch_losses)))
            if validation is not None:
                val_loss, val_rmse = self.evaluate(validation)
                history.validation_loss.append(val_loss)
                history.validation_force_rmse.append(val_rmse)
        return history
