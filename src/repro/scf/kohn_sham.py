"""Self-consistent-field ground-state solver.

The loop is the textbook Kohn-Sham SCF: build v_loc from the current density,
diagonalise, fill orbitals by the aufbau principle, hand the (input, output)
density pair to the Anderson :class:`~repro.scf.mixing.DensityMixer` for the
next input density, and repeat until the density change drops below
tolerance.  ``mixing`` is the damping of the Anderson step; when the mixer's
safeguard clears its history the step falls back to plain linear mixing with
that same parameter, and ``SCFResult.mixer_restarts`` counts how often it
did.  The result feeds both the real-time TDDFT driver (initial
orbitals/occupations of each DC domain) and the divide-and-conquer assembly
(domain densities are stitched into the global density).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import List, Optional

import numpy as np

from repro.qd.hamiltonian import LocalHamiltonian
from repro.qd.occupations import OccupationState
from repro.qd.wavefunctions import WaveFunctions
from repro.scf.eigensolver import lowest_eigenstates
from repro.scf.mixing import DensityMixer
from repro.telemetry import metrics as _telemetry


@dataclass
class SCFResult:
    """Converged ground-state data."""

    wavefunctions: WaveFunctions
    occupations: OccupationState
    eigenvalues: np.ndarray
    density: np.ndarray
    total_energy: float
    converged: bool
    iterations: int
    density_residuals: List[float] = field(default_factory=list)
    mixer_restarts: int = 0

    @property
    def homo_lumo_gap(self) -> float:
        """Energy gap between the highest occupied and lowest unoccupied orbital.

        Returns 0.0 when every computed orbital is (partially) occupied.
        """
        occ = self.occupations.occupations
        occupied = np.where(occ > 1e-8)[0]
        virtual = np.where(occ <= 1e-8)[0]
        if occupied.size == 0 or virtual.size == 0:
            return 0.0
        return float(self.eigenvalues[virtual[0]] - self.eigenvalues[occupied[-1]])

    def copy(self, writeable: bool = True) -> "SCFResult":
        """An independent copy; ``writeable=False`` marks its arrays read-only
        (the form a shared ground-state cache entry takes)."""

        def own(array: np.ndarray) -> np.ndarray:
            array = np.array(array, copy=True)
            array.setflags(write=writeable)
            return array

        return replace(
            self,
            wavefunctions=WaveFunctions(self.wavefunctions.grid,
                                        own(self.wavefunctions.psi)),
            occupations=self.occupations.copy(),
            eigenvalues=own(self.eigenvalues),
            density=own(self.density),
            density_residuals=list(self.density_residuals),
        )


@dataclass
class KohnShamSolver:
    """SCF driver for one (divide-and-conquer domain sized) cell.

    Parameters
    ----------
    hamiltonian:
        Local Hamiltonian holding the external potential (ions) of the cell.
    n_electrons:
        Number of electrons to fill.
    n_orbitals:
        Number of Kohn-Sham orbitals to compute; defaults to enough to hold
        the electrons plus two virtual orbitals (needed by surface hopping).
    mixing:
        Damping of the Anderson density-mixing step, in (0, 1] (the linear
        mixing parameter whenever the mixer's history is empty).
    """

    hamiltonian: LocalHamiltonian
    n_electrons: float
    n_orbitals: Optional[int] = None
    mixing: float = 0.4
    max_iterations: int = 60
    tolerance: float = 1e-6
    eigensolver_method: str = "auto"

    def __post_init__(self) -> None:
        if self.n_electrons <= 0:
            raise ValueError("n_electrons must be positive")
        if not (0.0 < self.mixing <= 1.0):
            raise ValueError("mixing must lie in (0, 1]")
        min_orbitals = int(np.ceil(self.n_electrons / 2.0))
        if self.n_orbitals is None:
            self.n_orbitals = min_orbitals + 2
        if self.n_orbitals < min_orbitals:
            raise ValueError("n_orbitals too small to hold the electrons")

    # ------------------------------------------------------------------
    def run(self, initial_density: Optional[np.ndarray] = None) -> SCFResult:
        """Run the SCF loop to convergence (or ``max_iterations``)."""
        t0 = perf_counter()
        grid = self.hamiltonian.grid
        occupations = OccupationState.ground_state(self.n_orbitals, self.n_electrons)
        if initial_density is None:
            # Start from a uniform density carrying the right electron count.
            density = np.full(grid.shape, self.n_electrons / grid.volume)
        else:
            density = np.array(initial_density, dtype=float, copy=True)
        mixer = DensityMixer(grid, self.n_electrons, self.mixing)
        residuals: List[float] = []
        converged = False
        eigenvalues = np.zeros(self.n_orbitals)
        orbitals = np.zeros((self.n_orbitals, *grid.shape), dtype=np.complex128)
        iterations = 0
        for iteration in range(1, self.max_iterations + 1):
            iterations = iteration
            self.hamiltonian.update_potentials(density)
            eigenvalues, orbitals = lowest_eigenstates(
                self.hamiltonian, self.n_orbitals, method=self.eigensolver_method
            )
            wf = WaveFunctions(grid, orbitals)
            new_density = wf.density(occupations.electrons_per_orbital())
            density, residual = mixer.mix(density, new_density)
            residuals.append(residual)
            if residual < self.tolerance:
                converged = True
                break
        self.hamiltonian.update_potentials(density)
        wavefunctions = WaveFunctions(grid, orbitals)
        total_energy = self.hamiltonian.total_energy(
            wavefunctions.psi, occupations.electrons_per_orbital()
        )
        _telemetry.observe("repro_scf_run_seconds", perf_counter() - t0,
                           "one KohnShamSolver.run")
        _telemetry.incr("repro_scf_iterations_total", iterations,
                        "SCF iterations (one eigensolve each)")
        _telemetry.incr("repro_scf_mixer_restarts_total", mixer.restarts,
                        "Anderson histories cleared by the mixer's safeguard")
        return SCFResult(
            wavefunctions=wavefunctions,
            occupations=occupations,
            eigenvalues=np.asarray(eigenvalues),
            density=density,
            total_energy=float(total_energy),
            converged=converged,
            iterations=iterations,
            density_residuals=residuals,
            mixer_restarts=mixer.restarts,
        )
