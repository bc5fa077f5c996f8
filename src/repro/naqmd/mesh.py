"""MESH integrator: Maxwell-Ehrenfest-surface-hopping time stepping (Eq. 2).

One MD step (Delta_MD ~ 100 attoseconds) of the integrated scheme consists of:

1. the QXMD half-kick + drift of the ions under the current mean-field forces
   (velocity Verlet),
2. the rebuild of the local external potential from the new ion positions —
   the small Delta v_loc that shadow dynamics ships to the LFD proxy,
3. N_QD electronic quantum-dynamics sub-steps (Delta_QD ~ 1 attosecond) of the
   real-time TDDFT driver under the laser field,
4. the surface-hopping occupation update U_SH from the nonadiabatic couplings
   accumulated over the MD step, and
5. the closing half-kick with forces from the updated density.

This is a single-domain integrator; :class:`repro.dc.dcmesh.DCMESHSimulation`
runs one of these per DC domain and adds the Maxwell coupling across domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.naqmd.ehrenfest import EhrenfestForces
from repro.naqmd.nonadiabatic import nonadiabatic_coupling_matrix
from repro.naqmd.surface_hopping import SurfaceHopping
from repro.qd.tddft import RealTimeTDDFT


@dataclass
class MESHIntegrator:
    """Single-domain Maxwell-Ehrenfest-surface-hopping integrator.

    Parameters
    ----------
    tddft:
        The real-time TDDFT engine of the domain (owns orbitals, occupations,
        the laser coupling and the local Hamiltonian).
    forces:
        Hellmann-Feynman force evaluator for the domain's ions.
    positions, velocities:
        Initial ionic positions (Bohr) and velocities (Bohr / a.u. time).
    masses:
        Ionic masses in electron-mass units (atomic units).
    md_dt:
        MD time step in atomic units (~100 attoseconds = 4.13 a.u.).
    qd_substeps:
        Number of electronic QD steps per MD step (N_QD of Eq. 2).
    surface_hopping:
        Optional FSSH engine; ``None`` runs pure Ehrenfest.
    """

    tddft: RealTimeTDDFT
    forces: EhrenfestForces
    positions: np.ndarray
    velocities: np.ndarray
    masses: np.ndarray
    md_dt: float
    qd_substeps: int = 20
    surface_hopping: Optional[SurfaceHopping] = None

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3).copy()
        self.velocities = np.asarray(self.velocities, dtype=float).reshape(-1, 3).copy()
        self.masses = np.asarray(self.masses, dtype=float).reshape(-1).copy()
        n = self.positions.shape[0]
        if self.velocities.shape[0] != n or self.masses.size != n:
            raise ValueError("positions, velocities and masses must agree in length")
        if self.forces.n_ions != n:
            raise ValueError("force model ion count does not match positions")
        if self.md_dt <= 0 or self.qd_substeps < 1:
            raise ValueError("md_dt must be positive and qd_substeps >= 1")
        # Consistency: the electronic sub-step times the sub-step count should
        # equal the MD step (the shadow-dynamics amortisation of Eq. 2).
        expected_qd_dt = self.md_dt / self.qd_substeps
        if abs(self.tddft.dt - expected_qd_dt) > 1e-9:
            raise ValueError(
                "tddft.dt must equal md_dt / qd_substeps "
                f"({expected_qd_dt:.6f}), got {self.tddft.dt:.6f}"
            )
        self._current_forces = self._compute_forces()
        self._time = 0.0

    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        """Current MD time in atomic units."""
        return self._time

    def _density(self) -> np.ndarray:
        return self.tddft.wavefunctions.density(
            self.tddft.occupations.electrons_per_orbital()
        )

    def _compute_forces(self) -> np.ndarray:
        return self.forces.total_forces(self._density(), self.positions)

    def kinetic_energy(self) -> float:
        """Ionic kinetic energy in Hartree."""
        return float(0.5 * np.sum(self.masses[:, None] * self.velocities ** 2))

    def total_energy(self) -> float:
        """Ionic kinetic + ion-ion + electronic total energy."""
        electronic = self.tddft.hamiltonian.total_energy(
            self.tddft.wavefunctions.psi,
            self.tddft.occupations.electrons_per_orbital(),
        )
        return (
            self.kinetic_energy()
            + self.forces.ion_ion_energy(self.positions)
            + float(electronic)
        )

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable MESH state: ions, electronic state, FSSH bookkeeping."""
        state = {
            "time": float(self._time),
            "positions": self.positions.copy(),
            "velocities": self.velocities.copy(),
            "tddft": self.tddft.state_dict(),
            "surface_hopping": None,
        }
        if self.surface_hopping is not None:
            state["surface_hopping"] = self.surface_hopping.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`: restore a snapshot in place.

        The shadow-dynamics external potential and the mean-field forces are
        functions of the restored ions/density, so they are recomputed rather
        than stored.
        """
        positions = np.asarray(state["positions"], dtype=float).reshape(-1, 3)
        velocities = np.asarray(state["velocities"], dtype=float).reshape(-1, 3)
        if positions.shape != self.positions.shape:
            raise ValueError(
                f"checkpointed positions have shape {positions.shape}, "
                f"expected {self.positions.shape}"
            )
        if velocities.shape != self.velocities.shape:
            raise ValueError("checkpointed velocities do not match the ion count")
        self.positions = positions
        self.velocities = velocities
        self.tddft.hamiltonian.external_potential = self.forces.external_potential(
            self.positions
        )
        self.tddft.load_state_dict(state["tddft"])
        sh_state = state.get("surface_hopping")
        if self.surface_hopping is not None:
            if sh_state is None:
                raise ValueError(
                    "checkpoint has no surface-hopping state but the "
                    "integrator runs FSSH"
                )
            self.surface_hopping.load_state_dict(sh_state)
        self._current_forces = self._compute_forces()
        self._time = float(state["time"])

    # ------------------------------------------------------------------
    def advance(self) -> None:
        """Advance the coupled system by one MD step."""
        dt = self.md_dt
        # Velocity Verlet half kick + drift (QXMD side, FP64 chemistry).
        self.velocities += 0.5 * dt * self._current_forces / self.masses[:, None]
        self.positions += dt * self.velocities
        box = np.asarray(self.tddft.hamiltonian.grid.lengths)
        self.positions %= box  # periodic wrap

        # Shadow dynamics: QXMD passes only the updated local potential to LFD.
        new_v_ext = self.forces.external_potential(self.positions)
        self.tddft.hamiltonian.external_potential = new_v_ext

        # Electronic propagation: N_QD sub-steps under the laser field.
        previous_wf = self.tddft.wavefunctions.copy()
        self.tddft.step(self.qd_substeps)

        # Surface-hopping occupation update from the accumulated coupling.
        coupling = nonadiabatic_coupling_matrix(
            previous_wf, self.tddft.wavefunctions, dt
        )
        if self.surface_hopping is not None:
            self.surface_hopping.step(
                coupling,
                dt,
                occupations=self.tddft.occupations,
                kinetic_energy=self.kinetic_energy(),
            )

        # Closing half kick with forces from the updated density.
        self._current_forces = self._compute_forces()
        self.velocities += 0.5 * dt * self._current_forces / self.masses[:, None]
        self._time += dt
