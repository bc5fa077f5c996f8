"""Real-space grids and elliptic solvers for the LFD / DC-DFT substrate.

The paper represents local Kohn-Sham wave functions on finite-difference mesh
points, solves the Hartree potential with a tree-based multigrid method (the
globally-sparse-yet-locally-dense solver of Sec. V.A.2), and uses FFTs for the
per-domain dense work.  This subpackage provides those building blocks:

* :class:`Grid3D` — a uniform orthorhombic grid with periodic topology.
* :mod:`repro.grid.stencil` — 2nd/4th/6th-order Laplacian and gradient stencils
  in both "naive loop" and vectorised formulations (used by the Table III
  optimisation-ladder benchmark).
* :mod:`repro.grid.poisson` — spectral Poisson solver for periodic domains.
* :func:`apply_separable` — a per-axis operator ``U_x (x) U_y (x) U_z``
  applied as three matrix products (the kinetic step, the Poisson solve).
* :mod:`repro.grid.multigrid` — geometric multigrid V-cycle Poisson solver.
"""

from repro.grid.grid3d import Grid3D, apply_separable
from repro.grid.stencil import (
    gradient,
    laplacian,
    laplacian_naive,
    laplacian_reference,
    laplacian_stencil_width,
    shift_difference,
)
from repro.grid.poisson import solve_poisson, coulomb_energy
from repro.grid.multigrid import MultigridPoisson

__all__ = [
    "Grid3D",
    "apply_separable",
    "gradient",
    "laplacian",
    "laplacian_naive",
    "laplacian_reference",
    "laplacian_stencil_width",
    "shift_difference",
    "solve_poisson",
    "coulomb_energy",
    "MultigridPoisson",
]
