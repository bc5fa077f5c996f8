"""Real-space grids and elliptic solvers for the LFD substrate.

The paper represents local Kohn-Sham wave functions on finite-difference mesh
points and solves the Hartree potential with a tree-based multigrid method
(the globally-sparse-yet-locally-dense solver of Sec. V.A.2).  Here every
cell is periodic, so the Hartree potential is solved spectrally instead, with
per-axis matrices.  This subpackage provides those building blocks:

* :class:`Grid3D` — a uniform orthorhombic grid with periodic topology.
* :mod:`repro.grid.stencil` — 2nd/4th/6th-order Laplacian stencils in "naive
  loop", ``np.roll`` and fused formulations (the Table III optimisation
  ladder).
* :mod:`repro.grid.poisson` — spectral (Hartley-matrix) Poisson solver for
  periodic cells.
* :func:`apply_separable` — a per-axis operator ``U_x (x) U_y (x) U_z``
  applied as three matrix products (the kinetic step, the Poisson solve).
"""

from repro.grid.grid3d import Grid3D, apply_separable
from repro.grid.stencil import (
    laplacian,
    laplacian_naive,
    laplacian_reference,
)
from repro.grid.poisson import solve_poisson

__all__ = [
    "Grid3D",
    "apply_separable",
    "laplacian",
    "laplacian_naive",
    "laplacian_reference",
    "solve_poisson",
]
