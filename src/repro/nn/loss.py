"""Loss functions for force-field training.

The standard NNQMD loss is a weighted sum of per-atom energy and per-component
force mean squared errors.  The function returns both the scalar loss and the
upstream gradients (dLoss/dE, dLoss/dF) that
:meth:`repro.nn.model.AllegroLiteModel.parameter_gradient` converts into a
parameter gradient.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def force_energy_loss(
    predicted_energy: float,
    predicted_forces: np.ndarray,
    reference_energy: float,
    reference_forces: np.ndarray,
    n_atoms: int,
    energy_weight: float = 1.0,
    force_weight: float = 10.0,
) -> Tuple[float, float, np.ndarray]:
    """Weighted energy + force MSE loss and its upstream gradients.

    Loss = w_E * ((E_pred - E_ref)/N)^2 + w_F * mean_(i,a) (F_pred - F_ref)^2

    Returns ``(loss, dLoss/dE, dLoss/dF)``.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    if energy_weight < 0 or force_weight < 0:
        raise ValueError("loss weights must be non-negative")
    predicted_forces = np.asarray(predicted_forces, dtype=float)
    reference_forces = np.asarray(reference_forces, dtype=float)
    if predicted_forces.shape != reference_forces.shape:
        raise ValueError("force arrays must have matching shapes")
    energy_error = (predicted_energy - reference_energy) / n_atoms
    force_error = predicted_forces - reference_forces
    n_components = force_error.size if force_error.size else 1
    loss = energy_weight * energy_error ** 2 + force_weight * float(
        np.sum(force_error ** 2)
    ) / n_components
    grad_energy = 2.0 * energy_weight * energy_error / n_atoms
    grad_forces = 2.0 * force_weight * force_error / n_components
    return float(loss), float(grad_energy), grad_forces


def force_rmse(predicted_forces: np.ndarray, reference_forces: np.ndarray) -> float:
    """Root-mean-square force component error (eV/A)."""
    predicted_forces = np.asarray(predicted_forces, dtype=float)
    reference_forces = np.asarray(reference_forces, dtype=float)
    if predicted_forces.shape != reference_forces.shape:
        raise ValueError("force arrays must have matching shapes")
    return float(np.sqrt(np.mean((predicted_forces - reference_forces) ** 2)))
