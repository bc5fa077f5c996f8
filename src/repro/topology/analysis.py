"""Texture classification and switching detection.

The photo-switching study (Fig. 3 of the paper) needs three things beyond the
raw topological charge: a label for what kind of texture a snapshot is
(skyrmion lattice, uniform ferroelectric, depolarised), the time at which the
topological charge collapses after the pulse (the switching time), and a
compact per-snapshot summary that can be tabulated by the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.topology.charge import topological_charge
from repro.topology.polarization import in_plane_slice


@dataclass(frozen=True)
class TextureAnalysis:
    """Summary of one polarization texture snapshot."""

    topological_charge: float
    mean_polarization: np.ndarray
    polarization_rms: float
    label: str


def classify_texture(
    field: np.ndarray,
    charge_threshold: float = 0.5,
    polarization_threshold: float = 0.1,
    charge: Optional[float] = None,
) -> TextureAnalysis:
    """Classify a texture of shape ``(nx, ny, nz, 3)`` (or ``(nx, ny, 3)``).

    ``charge``, when given, is the already computed topological charge of
    the texture's middle layer (the slice classified); it is used instead
    of recomputing it.

    Labels:

    * ``skyrmion`` — |Q| >= charge_threshold (topologically non-trivial),
    * ``ferroelectric`` — trivial Q but a finite net polarization,
    * ``depolarized`` — both the charge and the net polarization are ~zero.
    """
    field = np.asarray(field, dtype=float)
    if field.ndim == 4:
        slice_2d = in_plane_slice(field, field.shape[2] // 2)
    elif field.ndim == 3 and field.shape[-1] == 3:
        slice_2d = field
    else:
        raise ValueError("field must have shape (nx, ny, 3) or (nx, ny, nz, 3)")
    if charge is None:
        charge = topological_charge(slice_2d)
    mean_p = field.reshape(-1, 3).mean(axis=0)
    rms = float(np.sqrt(np.mean(np.sum(field.reshape(-1, 3) ** 2, axis=1))))
    if abs(charge) >= charge_threshold:
        label = "skyrmion"
    elif np.linalg.norm(mean_p) >= polarization_threshold and rms >= polarization_threshold:
        label = "ferroelectric"
    else:
        label = "depolarized"
    return TextureAnalysis(
        topological_charge=float(charge),
        mean_polarization=mean_p,
        polarization_rms=rms,
        label=label,
    )


def switching_time(
    times: Sequence[float],
    charges: Sequence[float],
    threshold_fraction: float = 0.5,
) -> float:
    """First time at which |Q(t)| drops below a fraction of its initial value.

    Returns ``inf`` when the texture never switches within the trajectory —
    the behaviour of the unpumped control run in the photo-switching
    benchmark.
    """
    times = np.asarray(times, dtype=float)
    charges = np.asarray(charges, dtype=float)
    if times.shape != charges.shape or times.size == 0:
        raise ValueError("times and charges must be equal-length, non-empty")
    if not (0.0 < threshold_fraction < 1.0):
        raise ValueError("threshold_fraction must lie in (0, 1)")
    initial = abs(charges[0])
    if initial < 1e-12:
        return float("inf")
    below = np.abs(charges) < threshold_fraction * initial
    indices = np.nonzero(below)[0]
    if indices.size == 0:
        return float("inf")
    return float(times[indices[0]])

