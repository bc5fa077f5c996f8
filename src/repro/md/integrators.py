"""Time integrators for the classical MD engine (metal units).

Velocity Verlet is the workhorse (it is what the paper's Fortran MD engine
uses); the Langevin integrator adds a thermostat for equilibration of the
skyrmion superlattices before the laser pulse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.md.atoms import AtomsSystem
from repro.md.forcefields import ForceField
from repro.md.neighborlist import NeighborList
from repro.units import KB_EV
from repro.utils.validation import validate_run_args

#: acceleration [A/fs^2] = force [eV/A] / mass [amu] * this factor
_FORCE_TO_ACCEL = 9.648533212e-3


class _Integrator:
    """What both integrators share: the clock, the force-field cache and the
    checkpoint state.

    ``_forces`` and ``_energy`` hold the forces and the potential energy of
    the current positions: every step refreshes both from the one force-field
    call it makes, so recording the energy between steps costs nothing.
    """

    def _init_cache(self) -> None:
        if self.neighbor_list is None and getattr(self.force_field, "cutoff", 0.0) > 0:
            self.neighbor_list = NeighborList(self.force_field.cutoff)
        self._forces: np.ndarray | None = None
        self._energy: float | None = None
        self._time = 0.0

    @property
    def time(self) -> float:
        return self._time

    def _evaluate(self, atoms: AtomsSystem) -> None:
        """Fill the cache for the current positions.  Forces already held
        (a restored checkpoint's) are kept: recomputed ones need not carry
        the bits the uninterrupted run does."""
        energy, forces = self.force_field.compute(atoms, self.neighbor_list)
        self._energy = float(energy)
        if self._forces is None or self._forces.shape[0] != atoms.n_atoms:
            self._forces = forces

    def _ensure_forces(self, atoms: AtomsSystem) -> np.ndarray:
        if self._forces is None or self._forces.shape[0] != atoms.n_atoms:
            self._evaluate(atoms)
        return self._forces

    def potential_energy(self, atoms: AtomsSystem) -> float:
        """Potential energy of the current positions: evaluated (with the
        forces the next step needs) only before the first step or after a
        restore, read from the last step's cache otherwise."""
        if self._energy is None:
            self._evaluate(atoms)
        return self._energy

    def state_dict(self, atoms: AtomsSystem) -> dict:
        """Phase-space point, clock, and what a resume needs to stay
        bit-identical: the cached forces and the neighbour list's pairs and
        build positions.

        Forces recomputed from the restored positions are not guaranteed to
        be the bits the uninterrupted run carries, so they are saved, not
        rebuilt.
        """
        state = {
            "time": float(self._time),
            "positions": atoms.positions.copy(),
            "velocities": atoms.velocities.copy(),
        }
        if self._forces is not None:
            state["forces"] = self._forces.copy()
        if self.neighbor_list is not None:
            state["neighbor_list"] = self.neighbor_list.state_dict()
        return state

    def load_state_dict(self, atoms: AtomsSystem, state: dict) -> None:
        """Inverse of :meth:`state_dict`."""
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
        # A checkpoint without cached forces recomputes them lazily; the
        # potential energy is recomputed when first read, and never replaces
        # the restored forces.
        self._forces = (
            np.asarray(state["forces"], dtype=float).reshape(positions.shape)
            if "forces" in state else None
        )
        self._energy = None
        if self.neighbor_list is not None and "neighbor_list" in state:
            self.neighbor_list.load_state_dict(state["neighbor_list"])
        self._time = float(state["time"])


@dataclass
class VelocityVerlet(_Integrator):
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

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        self._init_cache()

    def step(self, atoms: AtomsSystem, num_steps: int = 1) -> None:
        """Advance ``atoms`` in place by ``num_steps`` steps."""
        validate_run_args(num_steps)
        forces = self._ensure_forces(atoms)
        for _ in range(num_steps):
            accel = _FORCE_TO_ACCEL * forces / atoms.masses[:, None]
            atoms.velocities += 0.5 * self.dt * accel
            atoms.positions += self.dt * atoms.velocities
            atoms.wrap()
            energy, forces = self.force_field.compute(atoms, self.neighbor_list)
            accel = _FORCE_TO_ACCEL * forces / atoms.masses[:, None]
            atoms.velocities += 0.5 * self.dt * accel
            self._time += self.dt
        self._energy, self._forces = float(energy), forces


@dataclass
class LangevinIntegrator(_Integrator):
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

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.friction < 0 or self.temperature_k < 0:
            raise ValueError("dt must be > 0, friction and temperature >= 0")
        self._init_cache()

    def state_dict(self, atoms: AtomsSystem) -> dict:
        """Mutable thermostatted state: phase space, clock, RNG stream."""
        state = super().state_dict(atoms)
        state["rng_state"] = self.rng.bit_generator.state
        return state

    def load_state_dict(self, atoms: AtomsSystem, state: dict) -> None:
        """Inverse of :meth:`state_dict`; restores the thermostat RNG stream
        so a resumed trajectory draws exactly the kicks the uninterrupted one
        would."""
        super().load_state_dict(atoms, state)
        self.rng.bit_generator.state = state["rng_state"]

    def step(self, atoms: AtomsSystem, num_steps: int = 1) -> None:
        """Advance ``atoms`` by ``num_steps`` Langevin steps."""
        validate_run_args(num_steps)
        forces = self._ensure_forces(atoms)
        conversion = 103.642697  # amu (A/fs)^2 per eV
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
        self._energy, self._forces = float(energy), forces
