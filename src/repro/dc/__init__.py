"""Divide-and-conquer (DC) spatial decomposition and the DC-MESH driver.

This is DCR level 1 of the paper (Sec. V.A.1): the simulation cell is split
into spatially localised domains Omega_alpha, each consisting of a mutually
exclusive *core* surrounded by a *buffer* layer; local Kohn-Sham problems are
solved per domain while the global density / Kohn-Sham potential is assembled
from the domain cores and fed back, forming the global-local SCF loop.  The
:class:`~repro.dc.dcmesh.DCMESHSimulation` driver then couples the per-domain
real-time TDDFT engines to the macroscopic Maxwell solver and to the
surface-hopping occupation updates — the full Maxwell-Ehrenfest-surface-
hopping (MESH) problem.
"""

from repro.dc.domains import DCDomain, DomainDecomposition
from repro.dc.dc_scf import DCKohnShamSolver, DCSCFResult
from repro.dc.dcmesh import DCMESHSimulation

__all__ = [
    "DCDomain",
    "DomainDecomposition",
    "DCKohnShamSolver",
    "DCSCFResult",
    "DCMESHSimulation",
]
