"""Fewest-switches surface hopping (FSSH) occupation dynamics.

The surface-hopping procedure U_SH of the paper's Eq. (2) updates the electron
occupations f_s^(alpha) perturbatively according to the nonadiabatic coupling
arising from slow atomic motions.  This module implements the standard Tully
fewest-switches algorithm on the Kohn-Sham state ladder:

* electronic amplitudes c_i evolve under i dc_i/dt = eps_i c_i - i sum_j d_ij c_j,
* hop probabilities g_{a->j} are computed from the amplitude flux,
* hops are accepted stochastically (and, optionally, rejected when the kinetic
  energy cannot pay for an upward hop — "frustrated" hops),
* accepted hops move occupation between orbitals in the shared
  :class:`~repro.qd.occupations.OccupationState`.

The coupling is frozen over an MD step, so the amplitudes are advanced by
the exact exponential of the (few-state) electronic Hamiltonian over the
whole step: however short the electronic time scale (attoseconds) is against
the MD step (~100 attoseconds), one propagator covers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.qd.occupations import OccupationState


@dataclass
class SurfaceHoppingResult:
    """Bookkeeping of one surface-hopping update."""

    hops: List[tuple]
    frustrated: List[tuple]
    hop_probabilities: np.ndarray
    active_state: int


@dataclass
class SurfaceHopping:
    """Fewest-switches surface hopping on a ladder of Kohn-Sham states.

    Parameters
    ----------
    energies:
        Adiabatic state energies eps_i (Hartree), one per orbital.
    active_state:
        Index of the initially active (occupied frontier) state.
    rng:
        Random generator for the stochastic hop decisions.
    """

    energies: np.ndarray
    active_state: int
    rng: np.random.Generator
    amplitudes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.energies = np.asarray(self.energies, dtype=float)
        if self.energies.ndim != 1 or self.energies.size < 2:
            raise ValueError("need at least two states")
        n = self.energies.size
        if not (0 <= self.active_state < n):
            raise IndexError("active_state out of range")
        self.amplitudes = np.zeros(n, dtype=np.complex128)
        self.amplitudes[self.active_state] = 1.0

    @property
    def n_states(self) -> int:
        return self.energies.size

    def populations(self) -> np.ndarray:
        """Electronic populations |c_i|^2."""
        return np.abs(self.amplitudes) ** 2

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable FSSH state: amplitudes, active surface, RNG stream."""
        return {
            "active_state": int(self.active_state),
            "amplitudes": self.amplitudes.copy(),
            "rng_state": self.rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`; restores the stochastic stream so a
        resumed trajectory draws exactly the hops the uninterrupted one would."""
        amplitudes = np.asarray(state["amplitudes"], dtype=np.complex128)
        if amplitudes.shape != self.amplitudes.shape:
            raise ValueError(
                f"checkpointed amplitudes have shape {amplitudes.shape}, "
                f"expected {self.amplitudes.shape}"
            )
        active = int(state["active_state"])
        if not (0 <= active < self.n_states):
            raise ValueError("checkpointed active_state out of range")
        self.amplitudes = amplitudes
        self.active_state = active
        self.rng.bit_generator.state = state["rng_state"]

    # ------------------------------------------------------------------
    def _propagate_amplitudes(self, coupling: np.ndarray, dt: float) -> None:
        """Evolve amplitudes under H_ij = eps_i delta_ij - i hbar d_ij."""
        n = self.n_states
        coupling = np.asarray(coupling, dtype=np.complex128)
        if coupling.shape != (n, n):
            raise ValueError("coupling matrix has the wrong shape")
        hamiltonian = np.diag(self.energies.astype(np.complex128)) - 1j * coupling
        # Exact exponential of the (small) electronic Hamiltonian over the
        # whole step, V diag(exp(-i lambda dt)) V^-1; the matrix is a few
        # tens of states at most so eig is cheap.
        eigvals, eigvecs = np.linalg.eig(hamiltonian)
        propagator = (eigvecs * np.exp(-1j * eigvals * dt)) @ np.linalg.inv(eigvecs)
        self.amplitudes = propagator @ self.amplitudes
        # Renormalise against the non-unitarity introduced by non-Hermitian
        # coupling asymmetries (finite-difference d_ij is only antisymmetric to
        # leading order).
        norm = np.linalg.norm(self.amplitudes)
        if norm > 0:
            self.amplitudes /= norm

    def _hop_probabilities(self, coupling: np.ndarray, dt: float) -> np.ndarray:
        """Tully fewest-switches probabilities g_{active -> j}."""
        a = self.active_state
        c = self.amplitudes
        rho_aa = float(np.real(c[a] * np.conj(c[a])))
        if rho_aa < 1e-12:
            return np.zeros(self.n_states)
        g = np.zeros(self.n_states)
        for j in range(self.n_states):
            if j == a:
                continue
            rho_aj = c[a] * np.conj(c[j])
            flux = 2.0 * np.real(np.conj(rho_aj) * coupling[a, j])
            g[j] = max(0.0, flux * dt / rho_aa)
        return np.clip(g, 0.0, 1.0)

    # ------------------------------------------------------------------
    def step(
        self,
        coupling: np.ndarray,
        dt: float,
        occupations: Optional[OccupationState] = None,
        kinetic_energy: Optional[float] = None,
        hop_fraction: float = 1.0,
    ) -> SurfaceHoppingResult:
        """Advance the electronic amplitudes by one MD step and attempt hops.

        Parameters
        ----------
        coupling:
            Nonadiabatic coupling matrix d_ij for this MD step.
        dt:
            MD time step (atomic units).
        occupations:
            Optional occupation state to update when a hop is accepted (the
            DC-MESH handshake object); ``hop_fraction`` of an electron is
            moved per accepted hop.
        kinetic_energy:
            Available ionic kinetic energy (Hartree); upward hops that cost
            more than this are rejected as frustrated.  ``None`` disables the
            energy check.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._propagate_amplitudes(coupling, dt)
        probabilities = self._hop_probabilities(coupling, dt)
        hops: List[tuple] = []
        frustrated: List[tuple] = []
        xi = self.rng.random()
        cumulative = 0.0
        for j in range(self.n_states):
            if j == self.active_state:
                continue
            cumulative += probabilities[j]
            if xi < cumulative:
                energy_gap = self.energies[j] - self.energies[self.active_state]
                if (
                    kinetic_energy is not None
                    and energy_gap > 0
                    and energy_gap > kinetic_energy
                ):
                    frustrated.append((self.active_state, j))
                    break
                hops.append((self.active_state, j))
                if occupations is not None:
                    occupations.apply_transition(self.active_state, j, hop_fraction)
                self.active_state = j
                break
        return SurfaceHoppingResult(
            hops=hops,
            frustrated=frustrated,
            hop_probabilities=probabilities,
            active_state=self.active_state,
        )
