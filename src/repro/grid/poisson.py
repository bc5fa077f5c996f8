"""Spectral Poisson solver for periodic cells.

Solves nabla^2 V = -4 pi rho (Hartree atomic units, Gaussian electrostatics)
on a periodic grid.  ``4 pi / k^2`` is even in each of kx, ky and kz, so
the separable Hartley transform ``H_x (x) H_y (x) H_z`` (``H = cos + sin``
of the DFT angles, real, its own inverse up to ``1/n``) diagonalises the
Coulomb operator just as the DFT does: the density is taken to that basis
and back with three real matrix products each way, built from the cached
per-axis DFT matrices of
:meth:`~repro.perf.workspace.KernelWorkspace.dft_basis` (no FFT, no complex
arithmetic).  The k = 0 component of the density is projected out, which
corresponds to the usual jellium/neutralising-background convention; the
returned potential has zero average.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.grid.grid3d import Grid3D, apply_separable
from repro.perf.workspace import get_workspace


@lru_cache(maxsize=16)
def _spectral_plan(grid: Grid3D):
    """``(forward, inverse, green)`` of the grid: the per-axis Hartley
    matrices ``Re F - Im F``, their inverses and ``4 pi / k^2`` with the
    k = 0 term zeroed (all read-only).

    Built once per grid and shared by every Poisson solve on it.
    """
    forward, inverse = [], []
    for n, length in zip(grid.shape, grid.lengths):
        dft = get_workspace().dft_basis(n, length).dft
        cas = dft.real - dft.imag
        forward.append(cas)
        inverse.append(cas / n)
    k2 = grid.k_squared()
    green = np.zeros_like(k2)
    nonzero = k2 > 1e-12
    green[nonzero] = 4.0 * np.pi / k2[nonzero]
    for array in (*forward, *inverse, green):
        array.setflags(write=False)
    return tuple(forward), tuple(inverse), green


def solve_poisson(density: np.ndarray, grid: Grid3D) -> np.ndarray:
    """Hartree potential of ``density`` on a periodic grid.

    Parameters
    ----------
    density:
        Real charge density on the grid (electrons are positive density here;
        the sign convention is V_H(r) = \\int rho(r') / |r - r'| d^3r').
        Leading axes, if any, stack independent densities: ``(..., nx, ny,
        nz)`` is solved slice by slice in one set of matrix products over the
        last three axes.
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
    forward, inverse, green = _spectral_plan(grid)
    v_k = apply_separable(density, forward)
    v_k *= green
    return apply_separable(v_k, inverse, out=v_k)


def poisson_residual(potential: np.ndarray, density: np.ndarray, grid: Grid3D,
                     order: int = 4) -> float:
    """Relative residual || nabla^2 V + 4 pi rho || / || 4 pi rho ||.

    Used by tests to check a solve against the FD Laplacian.
    """
    from repro.grid.stencil import laplacian

    lap = laplacian(potential, grid, order=order)
    rhs = -4.0 * np.pi * (density - np.mean(density))
    num = float(np.linalg.norm(lap - rhs))
    den = float(np.linalg.norm(rhs))
    return num / den if den > 0 else num
