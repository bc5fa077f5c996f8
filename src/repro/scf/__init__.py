"""Ground-state Kohn-Sham solver (the starting point of every DC-MESH run).

Before the laser pulse arrives each DC domain needs its ground-state orbitals,
density and potentials.  The paper's QXMD subprogram obtains these with a
plane-wave SCF; here the same self-consistent field loop is run on the
real-space grid used by the LFD, so ground state and real-time propagation
share one representation.
"""

from repro.scf.eigensolver import lowest_eigenstates
from repro.scf.kohn_sham import KohnShamSolver, SCFResult
from repro.scf.mixing import DensityMixer

__all__ = ["lowest_eigenstates", "DensityMixer", "KohnShamSolver", "SCFResult"]
