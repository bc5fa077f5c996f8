"""Nonadiabatic quantum molecular dynamics (NAQMD): the "E" and "SH" of MESH.

Two complementary descriptions of coupled electron-ion dynamics (paper
Sec. III):

* **Ehrenfest dynamics** — mean-field forces from the instantaneous electron
  density drive the ions during the short, laser-driven transient
  (:mod:`repro.naqmd.ehrenfest`).
* **Surface hopping** — fewest-switches stochastic hops between Kohn-Sham
  states, driven by the nonadiabatic couplings that arise from slow ionic
  motion, describe the longer-time relaxation
  (:mod:`repro.naqmd.surface_hopping`).

The quantum uncertainty principle separates the two at t ~ hbar / dE; the
:class:`~repro.naqmd.mesh.MESHIntegrator` stitches them together inside one
MD step exactly as the paper's Eq. (2) does: N_QD electronic steps per MD
step, with the surface-hopping occupation update applied at the boundary.
"""

from repro.naqmd.nonadiabatic import nonadiabatic_coupling_matrix, coupling_from_overlap
from repro.naqmd.surface_hopping import SurfaceHopping, SurfaceHoppingResult
from repro.naqmd.ehrenfest import EhrenfestForces
from repro.naqmd.mesh import MESHIntegrator

__all__ = [
    "nonadiabatic_coupling_matrix",
    "coupling_from_overlap",
    "SurfaceHopping",
    "SurfaceHoppingResult",
    "EhrenfestForces",
    "MESHIntegrator",
]
