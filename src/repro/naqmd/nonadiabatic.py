"""Nonadiabatic couplings between Kohn-Sham states.

Surface hopping needs the scalar couplings d_ij = <psi_i | d/dt | psi_j>,
which measure how fast the adiabatic states mix because of ionic motion.  In
real-time grid codes the standard route (Hammes-Schiffer/Tully) is the
finite-difference overlap form

    d_ij(t + dt/2) ~ ( <psi_i(t)|psi_j(t+dt)> - <psi_i(t+dt)|psi_j(t)> ) / (2 dt)

which only needs orbital overlaps between consecutive MD steps — cheap GEMMs
on the (N_grid x N_orb) orbital matrices, i.e. the same GEMMified structure as
the rest of the LFD.
"""

from __future__ import annotations

import numpy as np

from repro.qd.wavefunctions import WaveFunctions


def coupling_from_overlap(overlap_forward: np.ndarray, overlap_backward: np.ndarray,
                          dt: float) -> np.ndarray:
    """Finite-difference nonadiabatic coupling matrix from orbital overlaps.

    Parameters
    ----------
    overlap_forward:
        Matrix of <psi_i(t) | psi_j(t + dt)>.
    overlap_backward:
        Matrix of <psi_i(t + dt) | psi_j(t)>.
    dt:
        MD time step (atomic units).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    overlap_forward = np.asarray(overlap_forward)
    overlap_backward = np.asarray(overlap_backward)
    if overlap_forward.shape != overlap_backward.shape:
        raise ValueError("overlap matrices must have the same shape")
    return (overlap_forward - overlap_backward) / (2.0 * dt)


def nonadiabatic_coupling_matrix(
    previous: WaveFunctions, current: WaveFunctions, dt: float
) -> np.ndarray:
    """d_ij between the orbitals of two consecutive MD steps.

    The result is an antisymmetric-to-leading-order complex matrix; its
    diagonal is numerically ~0 for norm-conserving propagation.
    """
    if previous.grid.shape != current.grid.shape:
        raise ValueError("wave functions must live on the same grid")
    prev_matrix = previous.as_matrix()
    cur_matrix = current.as_matrix()
    dv = previous.grid.dv
    forward = prev_matrix.conj().T @ cur_matrix * dv
    backward = cur_matrix.conj().T @ prev_matrix * dv
    return coupling_from_overlap(forward, backward, dt)

