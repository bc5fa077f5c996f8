"""FFT-based Poisson solver for periodic cells.

Solves nabla^2 V = -4 pi rho (Hartree atomic units, Gaussian electrostatics)
on a periodic grid.  The k = 0 component of the density is projected out,
which corresponds to the usual jellium/neutralising-background convention; the
returned potential has zero average.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.grid.grid3d import Grid3D


@lru_cache(maxsize=16)
def _coulomb_green(grid: Grid3D) -> np.ndarray:
    """``4 pi / k^2`` on the grid with the k = 0 term zeroed (read-only).

    Built once per grid and shared by every Poisson solve on it.
    """
    k2 = grid.k_squared()
    green = np.zeros_like(k2)
    nonzero = k2 > 1e-12
    green[nonzero] = 4.0 * np.pi / k2[nonzero]
    green.setflags(write=False)
    return green


def solve_poisson_fft(density: np.ndarray, grid: Grid3D) -> np.ndarray:
    """Hartree potential of ``density`` on a periodic grid via FFT.

    Parameters
    ----------
    density:
        Real charge density on the grid (electrons are positive density here;
        the sign convention is V_H(r) = \\int rho(r') / |r - r'| d^3r').
        Leading axes, if any, stack independent densities: ``(..., nx, ny,
        nz)`` is solved slice by slice in one FFT over the last three axes.
    grid:
        The grid the density lives on.

    Returns
    -------
    ndarray
        Real Hartree potential with zero mean, shaped like ``density``.
    """
    density = np.asarray(density, dtype=np.float64)
    if density.shape[-3:] != grid.shape:
        raise ValueError(f"density shape {density.shape} != grid shape {grid.shape}")
    axes = (-3, -2, -1)
    v_k = np.fft.fftn(density, axes=axes) * _coulomb_green(grid)
    return np.real(np.fft.ifftn(v_k, axes=axes))


def coulomb_energy(density: np.ndarray, grid: Grid3D) -> float:
    """Classical Hartree energy 1/2 \\int rho V_H of a periodic density."""
    potential = solve_poisson_fft(density, grid)
    return 0.5 * float(grid.integrate(density * potential))


def poisson_residual(potential: np.ndarray, density: np.ndarray, grid: Grid3D,
                     order: int = 4) -> float:
    """Relative residual || nabla^2 V + 4 pi rho || / || 4 pi rho ||.

    Used by tests and by the iterative Hartree (DSA) solver to verify
    convergence against the FD Laplacian actually used in the dynamics.
    """
    from repro.grid.stencil import laplacian

    lap = laplacian(potential, grid, order=order)
    rhs = -4.0 * np.pi * (density - np.mean(density))
    num = float(np.linalg.norm(lap - rhs))
    den = float(np.linalg.norm(rhs))
    return num / den if den > 0 else num
