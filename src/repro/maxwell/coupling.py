"""Maxwell <-> DC-domain coupling (the multiscale "handshake" for light).

Each divide-and-conquer domain alpha is anchored at a macroscopic coordinate
X_alpha along the light propagation axis.  The coupler:

* samples the macroscopic vector potential at each domain anchor, producing
  the A(X_alpha, t) that enters the domain Hamiltonian (paper Eq. 3), and
* deposits the microscopic currents returned by the domains back onto the
  macroscopic grid with inverse-distance weights, producing the J(X, t) source
  of the 1-D wave equation.

The data exchanged per step is one 3-vector per domain in each direction —
this is the "minimal mutual information" property the DCR decomposition is
designed to produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.maxwell.fdtd1d import Maxwell1D


@dataclass
class MaxwellCoupler:
    """Maps DC domains to macroscopic Maxwell grid points and back.

    Parameters
    ----------
    solver:
        The 1-D macroscopic Maxwell solver.
    domain_positions:
        Physical coordinates (Bohr) of each DC domain centre along the
        propagation axis.
    """

    solver: Maxwell1D
    domain_positions: Sequence[float]

    def __post_init__(self) -> None:
        positions = np.asarray(self.domain_positions, dtype=float)
        if positions.ndim != 1 or positions.size == 0:
            raise ValueError("domain_positions must be a non-empty 1-D sequence")
        grid_length = (self.solver.num_points - 1) * self.solver.dx
        if np.any(positions < 0) or np.any(positions > grid_length):
            raise ValueError("domain positions must lie inside the macroscopic window")
        self._positions = positions
        # Precompute linear interpolation weights for sampling and deposition.
        idx = positions / self.solver.dx
        self._lower = np.floor(idx).astype(int)
        self._lower = np.clip(self._lower, 0, self.solver.num_points - 2)
        self._frac = idx - self._lower

    @property
    def num_domains(self) -> int:
        return self._positions.size

    def sample_vector_potential(self) -> np.ndarray:
        """A(X_alpha) for every domain, linear interpolation on the macro grid."""
        a = self.solver.vector_potential()
        return a[self._lower] * (1.0 - self._frac) + a[self._lower + 1] * self._frac

    def deposit_current(self, domain_currents: Sequence[float]) -> np.ndarray:
        """Spread per-domain scalar currents onto the macroscopic grid.

        The deposition is the adjoint of the sampling (linear weights), which
        keeps the coupled system's discrete energy balance consistent.
        Returns the macroscopic current-density array ready to be passed to
        :meth:`Maxwell1D.step`.
        """
        currents = np.asarray(domain_currents, dtype=float)
        if currents.shape != (self.num_domains,):
            raise ValueError(
                f"expected {self.num_domains} domain currents, got shape {currents.shape}"
            )
        macro = np.zeros(self.solver.num_points)
        np.add.at(macro, self._lower, currents * (1.0 - self._frac))
        np.add.at(macro, self._lower + 1, currents * self._frac)
        # Convert a per-domain current into a current density on the macro grid.
        macro /= self.solver.dx
        return macro

    def step(self, domain_currents: Sequence[float], boundary_source=None,
             source_index: int = 0) -> np.ndarray:
        """Deposit currents, advance the Maxwell solver, and resample A.

        Returns the new A(X_alpha) array — the only quantity the electronic
        domains need for their next block of quantum-dynamics steps.
        """
        macro_current = self.deposit_current(domain_currents)
        self.solver.step(macro_current, boundary_source, source_index)
        return self.sample_vector_potential()
