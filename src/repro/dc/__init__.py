"""The divide-and-conquer (DC) Maxwell-Ehrenfest-surface-hopping driver.

DCR level 1 of the paper (Sec. V.A.1) splits the simulation cell into
spatially localised domains Omega_alpha.  Here every domain holds the same
model material, so the ``dcmesh`` scenario solves one ground state and gives
each domain a copy; the paper's global-local DC-SCF loop is not
implemented.  :class:`~repro.dc.dcmesh.DCMESHSimulation` couples the per-domain
real-time TDDFT engines to the macroscopic Maxwell solver and to the
surface-hopping occupation updates — the full Maxwell-Ehrenfest-surface-
hopping (MESH) problem.
"""

from repro.dc.dcmesh import DCMESHSimulation

__all__ = ["DCMESHSimulation"]
