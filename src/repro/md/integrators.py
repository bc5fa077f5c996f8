"""Time integrators for the classical MD engine (metal units).

Velocity Verlet is the workhorse (it is what the paper's Fortran MD engine
uses); the Langevin integrator adds a thermostat for equilibration of the
skyrmion superlattices before the laser pulse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.md.atoms import AtomsSystem
from repro.md.forcefields import ForceField
from repro.md.neighborlist import NeighborList
from repro.units import KB_EV
from repro.utils.validation import validate_run_args

#: acceleration [A/fs^2] = force [eV/A] / mass [amu] * this factor
_FORCE_TO_ACCEL = 9.648533212e-3


def temperature(atoms: AtomsSystem) -> float:
    """Instantaneous kinetic temperature in Kelvin (convenience re-export)."""
    return atoms.temperature()


@dataclass
class MDSnapshot:
    """Observables recorded at one MD step."""

    time: float
    potential_energy: float
    kinetic_energy: float
    temperature: float

    @property
    def total_energy(self) -> float:
        return self.potential_energy + self.kinetic_energy


@dataclass
class VelocityVerlet:
    """Standard velocity-Verlet integrator.

    Parameters
    ----------
    force_field:
        Any object satisfying the :class:`~repro.md.forcefields.ForceField`
        protocol (classical potentials or the Allegro-lite NN calculators).
    dt:
        Time step in femtoseconds.
    """

    force_field: ForceField
    dt: float
    neighbor_list: Optional[NeighborList] = None
    history: List[MDSnapshot] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.neighbor_list is None and getattr(self.force_field, "cutoff", 0.0) > 0:
            self.neighbor_list = NeighborList(self.force_field.cutoff)
        self._forces: np.ndarray | None = None
        self._time = 0.0

    @property
    def time(self) -> float:
        return self._time

    def state_dict(self, atoms: AtomsSystem) -> dict:
        """Mutable NVE state: phase space, clock, cached forces, pair list."""
        return _md_state_dict(self, atoms)

    def load_state_dict(self, atoms: AtomsSystem, state: dict) -> None:
        """Inverse of :meth:`state_dict`."""
        _md_load_state_dict(self, atoms, state)

    def _ensure_forces(self, atoms: AtomsSystem) -> np.ndarray:
        if self._forces is None or self._forces.shape[0] != atoms.n_atoms:
            _, self._forces = self.force_field.compute(atoms, self.neighbor_list)
        return self._forces

    def step(self, atoms: AtomsSystem, num_steps: int = 1) -> MDSnapshot:
        """Advance ``atoms`` in place by ``num_steps`` steps; returns the last snapshot."""
        validate_run_args(num_steps)
        forces = self._ensure_forces(atoms)
        snapshot = None
        for _ in range(num_steps):
            accel = _FORCE_TO_ACCEL * forces / atoms.masses[:, None]
            atoms.velocities += 0.5 * self.dt * accel
            atoms.positions += self.dt * atoms.velocities
            atoms.wrap()
            energy, forces = self.force_field.compute(atoms, self.neighbor_list)
            accel = _FORCE_TO_ACCEL * forces / atoms.masses[:, None]
            atoms.velocities += 0.5 * self.dt * accel
            self._time += self.dt
            snapshot = MDSnapshot(
                time=self._time,
                potential_energy=float(energy),
                kinetic_energy=atoms.kinetic_energy(),
                temperature=atoms.temperature(),
            )
            self.history.append(snapshot)
        self._forces = forces
        assert snapshot is not None
        return snapshot

    def run(self, atoms: AtomsSystem, num_steps: int) -> List[MDSnapshot]:
        """Run ``num_steps`` steps and return the recorded snapshots."""
        start = len(self.history)
        self.step(atoms, num_steps)
        return self.history[start:]


@dataclass
class LangevinIntegrator:
    """Velocity-Verlet with a Langevin thermostat (BAOAB-like splitting).

    Parameters
    ----------
    force_field, dt:
        As for :class:`VelocityVerlet`.
    temperature_k:
        Target temperature in Kelvin.
    friction:
        Friction coefficient in 1/fs.
    rng:
        Random generator for the stochastic kicks.
    """

    force_field: ForceField
    dt: float
    temperature_k: float
    friction: float
    rng: np.random.Generator
    neighbor_list: Optional[NeighborList] = None
    history: List[MDSnapshot] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.friction < 0 or self.temperature_k < 0:
            raise ValueError("dt must be > 0, friction and temperature >= 0")
        if self.neighbor_list is None and getattr(self.force_field, "cutoff", 0.0) > 0:
            self.neighbor_list = NeighborList(self.force_field.cutoff)
        self._forces: np.ndarray | None = None
        self._time = 0.0

    @property
    def time(self) -> float:
        return self._time

    def state_dict(self, atoms: AtomsSystem) -> dict:
        """Mutable thermostatted state: phase space, clock, RNG stream."""
        state = _md_state_dict(self, atoms)
        state["rng_state"] = self.rng.bit_generator.state
        return state

    def load_state_dict(self, atoms: AtomsSystem, state: dict) -> None:
        """Inverse of :meth:`state_dict`; restores the thermostat RNG stream
        so a resumed trajectory draws exactly the kicks the uninterrupted one
        would."""
        _md_load_state_dict(self, atoms, state)
        self.rng.bit_generator.state = state["rng_state"]

    def step(self, atoms: AtomsSystem, num_steps: int = 1) -> MDSnapshot:
        """Advance ``atoms`` by ``num_steps`` Langevin steps."""
        validate_run_args(num_steps)
        if self._forces is None or self._forces.shape[0] != atoms.n_atoms:
            _, self._forces = self.force_field.compute(atoms, self.neighbor_list)
        forces = self._forces
        conversion = 103.642697  # amu (A/fs)^2 per eV
        snapshot = None
        for _ in range(num_steps):
            accel = _FORCE_TO_ACCEL * forces / atoms.masses[:, None]
            atoms.velocities += 0.5 * self.dt * accel
            atoms.positions += 0.5 * self.dt * atoms.velocities
            # O step: exact Ornstein-Uhlenbeck update of the velocities.
            c1 = np.exp(-self.friction * self.dt)
            sigma = np.sqrt(
                (1.0 - c1 ** 2) * KB_EV * self.temperature_k / (atoms.masses * conversion)
            )
            atoms.velocities = (
                c1 * atoms.velocities
                + sigma[:, None] * self.rng.standard_normal((atoms.n_atoms, 3))
            )
            atoms.positions += 0.5 * self.dt * atoms.velocities
            atoms.wrap()
            energy, forces = self.force_field.compute(atoms, self.neighbor_list)
            accel = _FORCE_TO_ACCEL * forces / atoms.masses[:, None]
            atoms.velocities += 0.5 * self.dt * accel
            self._time += self.dt
            snapshot = MDSnapshot(
                time=self._time,
                potential_energy=float(energy),
                kinetic_energy=atoms.kinetic_energy(),
                temperature=atoms.temperature(),
            )
            self.history.append(snapshot)
        self._forces = forces
        assert snapshot is not None
        return snapshot

    def run(self, atoms: AtomsSystem, num_steps: int) -> List[MDSnapshot]:
        """Run ``num_steps`` steps and return the recorded snapshots."""
        start = len(self.history)
        self.step(atoms, num_steps)
        return self.history[start:]


# ----------------------------------------------------------------------
# Shared checkpoint plumbing for both integrators
# ----------------------------------------------------------------------
def _md_state_dict(integrator, atoms: AtomsSystem) -> dict:
    """Phase-space point, clock, and what a resume needs to stay bit-identical:
    the cached forces and the neighbour list's pairs and build positions.

    Forces recomputed from the restored positions are not guaranteed to be
    the bits the uninterrupted run carries, so they are saved, not rebuilt.
    """
    state = {
        "time": float(integrator._time),
        "positions": atoms.positions.copy(),
        "velocities": atoms.velocities.copy(),
    }
    if integrator._forces is not None:
        state["forces"] = integrator._forces.copy()
    if integrator.neighbor_list is not None:
        state["neighbor_list"] = integrator.neighbor_list.state_dict()
    return state


def _md_load_state_dict(integrator, atoms: AtomsSystem, state: dict) -> None:
    positions = np.asarray(state["positions"], dtype=float)
    velocities = np.asarray(state["velocities"], dtype=float)
    if positions.shape != atoms.positions.shape:
        raise ValueError(
            f"checkpointed positions have shape {positions.shape}, "
            f"expected {atoms.positions.shape}"
        )
    if velocities.shape != atoms.velocities.shape:
        raise ValueError("checkpointed velocities do not match the atom count")
    atoms.positions[...] = positions
    atoms.velocities[...] = velocities
    # A checkpoint without cached forces recomputes them lazily.
    integrator._forces = (
        np.asarray(state["forces"], dtype=float).reshape(positions.shape)
        if "forces" in state else None
    )
    if integrator.neighbor_list is not None and "neighbor_list" in state:
        integrator.neighbor_list.load_state_dict(state["neighbor_list"])
    integrator._time = float(state["time"])
    integrator.history.clear()
