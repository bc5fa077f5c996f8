"""Derived performance metrics exactly as defined in the paper.

* Maxwell-Ehrenfest time-to-solution (Table I): wall-clock seconds per quantum
  dynamics (QD) step divided by the number of simulated electrons.
* XS-NNQMD time-to-solution (Table II): wall-clock seconds per MD step divided
  by the product of the number of atoms and the number of neural-network
  weights (this normalisation is what lets a 440-weight model and a
  690,000-weight model be compared).
* Weak-scaling parallel efficiency (Sec. VII.A): isogranular speedup divided by
  the rank ratio, where "speed" is electrons (or atoms) times MD steps per
  second.
* Strong-scaling parallel efficiency: speedup relative to the smallest rank
  count divided by the rank ratio.
"""

from __future__ import annotations

import numpy as np


def me_time_to_solution(wall_seconds_per_qd_step: float, num_electrons: int) -> float:
    """Maxwell-Ehrenfest T2S: seconds per (electron * QD step)."""
    if num_electrons <= 0:
        raise ValueError("num_electrons must be positive")
    if wall_seconds_per_qd_step < 0:
        raise ValueError("wall time must be non-negative")
    return wall_seconds_per_qd_step / float(num_electrons)


def nnqmd_time_to_solution(
    wall_seconds_per_md_step: float, num_atoms: int, num_weights: int
) -> float:
    """XS-NNQMD T2S: seconds per (atom * weight * MD step)."""
    if num_atoms <= 0 or num_weights <= 0:
        raise ValueError("num_atoms and num_weights must be positive")
    if wall_seconds_per_md_step < 0:
        raise ValueError("wall time must be non-negative")
    return wall_seconds_per_md_step / (float(num_atoms) * float(num_weights))


def parallel_efficiency_weak(
    work_units: np.ndarray,
    wall_seconds: np.ndarray,
    ranks: np.ndarray,
) -> np.ndarray:
    """Weak-scaling efficiency relative to the smallest rank count.

    ``work_units`` is the per-run problem size (electrons or atoms) times the
    number of simulation steps; the "speed" of a run is work_units / seconds.
    Efficiency at P ranks is (speed(P)/speed(P0)) / (P/P0) where P0 is the
    smallest entry — exactly the paper's isogranular-speedup definition.
    """
    work_units = np.asarray(work_units, dtype=float)
    wall_seconds = np.asarray(wall_seconds, dtype=float)
    ranks = np.asarray(ranks, dtype=float)
    if not (work_units.shape == wall_seconds.shape == ranks.shape):
        raise ValueError("inputs must have matching shapes")
    if np.any(wall_seconds <= 0) or np.any(ranks <= 0):
        raise ValueError("wall_seconds and ranks must be positive")
    order = np.argsort(ranks)
    p0 = ranks[order[0]]
    speed = work_units / wall_seconds
    speed0 = speed[order[0]]
    return (speed / speed0) / (ranks / p0)


def parallel_efficiency_strong(wall_seconds: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Strong-scaling efficiency relative to the smallest rank count."""
    wall_seconds = np.asarray(wall_seconds, dtype=float)
    ranks = np.asarray(ranks, dtype=float)
    if wall_seconds.shape != ranks.shape:
        raise ValueError("inputs must have matching shapes")
    if np.any(wall_seconds <= 0) or np.any(ranks <= 0):
        raise ValueError("wall_seconds and ranks must be positive")
    order = np.argsort(ranks)
    p0 = ranks[order[0]]
    t0 = wall_seconds[order[0]]
    return (t0 / wall_seconds) / (ranks / p0)
