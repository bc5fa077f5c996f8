"""Global-local self-consistent field loop of DC-DFT (paper Sec. V.A.1).

The algorithm (Yang's divide-and-conquer DFT as implemented in the paper's
QXMD lineage):

1. Start from a global density guess.
2. Compute the *global* Hartree + xc potential on the global grid (the
   globally-sparse part, which the paper solves with multigrid and this
   periodic cell solves spectrally with :func:`~repro.grid.poisson.solve_poisson`).
3. For each domain, restrict the global effective potential to the domain's
   core+buffer region, add the domain's external potential, and solve the
   local Kohn-Sham eigenproblem ("locally dense" work).
4. Fill the local orbitals with a common chemical potential (here: aufbau per
   domain with fixed per-domain electron counts, the common simplification for
   charge-balanced domains), and assemble the new global density from the
   domain cores.
5. Mix densities (the Anderson :class:`~repro.scf.mixing.DensityMixer` the
   monolithic solver uses; ``mixing`` is its damping) and iterate until the
   global density is self-consistent.

Because cores tile the cell exactly and buffers only serve to converge the
local orbitals, the assembled density approaches the monolithic Kohn-Sham
density as the buffer grows — the integration test checks exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.dc.domains import DomainDecomposition
from repro.grid.grid3d import Grid3D
from repro.grid.poisson import solve_poisson
from repro.qd.hamiltonian import LocalHamiltonian
from repro.qd.occupations import OccupationState
from repro.qd.wavefunctions import WaveFunctions
from repro.qd.xc import lda_exchange_correlation
from repro.scf.eigensolver import lowest_eigenstates
from repro.scf.mixing import DensityMixer


@dataclass
class DCSCFResult:
    """Converged global-local SCF data."""

    density: np.ndarray
    domain_wavefunctions: List[WaveFunctions]
    domain_occupations: List[OccupationState]
    domain_eigenvalues: List[np.ndarray]
    converged: bool
    iterations: int
    density_residuals: List[float] = field(default_factory=list)
    mixer_restarts: int = 0

    @property
    def total_electrons(self) -> float:
        return float(sum(o.total_electrons for o in self.domain_occupations))


@dataclass
class DCKohnShamSolver:
    """Divide-and-conquer ground-state solver.

    Parameters
    ----------
    decomposition:
        The spatial domain decomposition of the global grid.
    external_potential:
        Global external (ionic) potential on the global grid.
    electrons_per_domain:
        Electron count assigned to each domain core (list with one entry per
        domain, or a scalar applied to all domains).
    orbitals_per_domain:
        Number of local Kohn-Sham orbitals per domain.
    """

    decomposition: DomainDecomposition
    external_potential: np.ndarray
    electrons_per_domain: float | List[float]
    orbitals_per_domain: int
    mixing: float = 0.4
    max_iterations: int = 30
    tolerance: float = 1e-5
    eigensolver_method: str = "auto"

    def __post_init__(self) -> None:
        grid = self.decomposition.grid
        ext = np.asarray(self.external_potential, dtype=float)
        if ext.shape != grid.shape:
            raise ValueError("external potential must live on the global grid")
        self.external_potential = ext
        n_domains = self.decomposition.num_domains
        if np.isscalar(self.electrons_per_domain):
            self._electrons = [float(self.electrons_per_domain)] * n_domains
        else:
            electrons = [float(x) for x in self.electrons_per_domain]
            if len(electrons) != n_domains:
                raise ValueError("need one electron count per domain")
            self._electrons = electrons
        if self.orbitals_per_domain < 1:
            raise ValueError("orbitals_per_domain must be >= 1")
        min_needed = int(np.ceil(max(self._electrons) / 2.0))
        if self.orbitals_per_domain < min_needed:
            raise ValueError("orbitals_per_domain too small for the electron counts")

    # ------------------------------------------------------------------
    def _global_effective_potential(self, density: np.ndarray) -> np.ndarray:
        grid = self.decomposition.grid
        hartree = solve_poisson(density, grid)
        _, v_xc = lda_exchange_correlation(density)
        return self.external_potential + hartree + v_xc

    def run(self, initial_density: Optional[np.ndarray] = None) -> DCSCFResult:
        """Run the global-local SCF loop."""
        decomposition = self.decomposition
        grid = decomposition.grid
        total_electrons = sum(self._electrons)
        if initial_density is None:
            density = np.full(grid.shape, total_electrons / grid.volume)
        else:
            density = np.array(initial_density, dtype=float, copy=True)

        mixer = DensityMixer(grid, total_electrons, self.mixing)
        residuals: List[float] = []
        converged = False
        wavefunctions: List[WaveFunctions] = []
        occupations: List[OccupationState] = []
        eigenvalues: List[np.ndarray] = []
        iterations = 0
        for iteration in range(1, self.max_iterations + 1):
            iterations = iteration
            v_eff = self._global_effective_potential(density)
            wavefunctions = []
            occupations = []
            eigenvalues = []
            local_densities: List[np.ndarray] = []
            for domain, n_elec in zip(decomposition.domains, self._electrons):
                local_grid = decomposition.local_grid(domain)
                local_v = decomposition.extract_local(domain, v_eff)
                # The local Hamiltonian reuses the globally assembled potential
                # directly (external + Hartree + xc already included), so its
                # own Hartree/xc fields are kept at zero.
                local_ham = LocalHamiltonian(local_grid, local_v)
                eigvals, orbitals = lowest_eigenstates(
                    local_ham, self.orbitals_per_domain,
                    method=self.eigensolver_method,
                )
                occ = OccupationState.ground_state(self.orbitals_per_domain, n_elec)
                wf = WaveFunctions(local_grid, orbitals)
                local_density = wf.density(occ.electrons_per_orbital())
                # Normalise the core charge so each domain contributes exactly
                # its assigned electron count (the buffer holds the tails).
                core = local_density[domain.core_slice()]
                core_charge = float(core.sum() * local_grid.dv)
                if core_charge > 0:
                    local_density = local_density * (n_elec / core_charge)
                wavefunctions.append(wf)
                occupations.append(occ)
                eigenvalues.append(eigvals)
                local_densities.append(local_density)
            new_density = decomposition.assemble_density(local_densities)
            density, residual = mixer.mix(density, new_density)
            residuals.append(residual)
            if residual < self.tolerance:
                converged = True
                break
        return DCSCFResult(
            density=density,
            domain_wavefunctions=wavefunctions,
            domain_occupations=occupations,
            domain_eigenvalues=eigenvalues,
            converged=converged,
            iterations=iterations,
            density_residuals=residuals,
            mixer_restarts=mixer.restarts,
        )
