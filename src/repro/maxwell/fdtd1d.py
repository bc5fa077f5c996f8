"""One-dimensional multiscale Maxwell solver for the vector potential.

The multiscale Maxwell+TDDFT scheme (SALMON-style, which the paper's DC-MESH
generalises) propagates the transverse vector potential A(X, t) along the
light-propagation axis X on a *macroscopic* grid:

    (1/c^2) d^2A/dt^2 - d^2A/dX^2 = (4 pi / c) J(X, t)

where J(X, t) is the macroscopic current density fed back by the microscopic
electron dynamics of the DC domain located at X.  The solver uses a standard
explicit leapfrog discretisation with Mur absorbing boundaries so pulses leave
the computational window cleanly.  All quantities are in Hartree atomic units;
the solver stores one transverse polarisation component (scalar A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.units import SPEED_OF_LIGHT_AU
from repro.utils.validation import ensure_positive


@dataclass
class Maxwell1D:
    """Leapfrog solver for the 1-D transverse vector potential wave equation.

    Parameters
    ----------
    num_points:
        Number of macroscopic grid points along the propagation axis.
    dx:
        Macroscopic grid spacing in Bohr.
    dt:
        Time step in atomic units.  Must satisfy the CFL condition
        ``c dt / dx <= 1``.
    """

    num_points: int
    dx: float
    dt: float
    a_prev: np.ndarray = field(init=False, repr=False)
    a_curr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_points < 3:
            raise ValueError("need at least 3 macroscopic grid points")
        ensure_positive(self.dx, "dx")
        ensure_positive(self.dt, "dt")
        courant = SPEED_OF_LIGHT_AU * self.dt / self.dx
        if courant > 1.0:
            raise ValueError(
                f"CFL violated: c*dt/dx = {courant:.3f} > 1; reduce dt or increase dx"
            )
        self._courant = courant
        self.a_prev = np.zeros(self.num_points)
        self.a_curr = np.zeros(self.num_points)
        self._time = 0.0

    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        """Current simulation time in atomic units."""
        return self._time

    def vector_potential(self) -> np.ndarray:
        """The current vector potential profile A(X)."""
        return self.a_curr.copy()

    def electric_field(self) -> np.ndarray:
        """E(X) = -(1/c) dA/dt evaluated with a backward difference."""
        return -(self.a_curr - self.a_prev) / (SPEED_OF_LIGHT_AU * self.dt)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The leapfrog state: both field levels and the clock."""
        return {
            "time": float(self._time),
            "a_curr": self.a_curr.copy(),
            "a_prev": self.a_prev.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`: restore a snapshot in place."""
        a_curr = np.asarray(state["a_curr"], dtype=float)
        a_prev = np.asarray(state["a_prev"], dtype=float)
        if a_curr.shape != (self.num_points,) or a_prev.shape != (self.num_points,):
            raise ValueError(
                f"checkpointed fields must have shape ({self.num_points},), "
                f"got {a_curr.shape} and {a_prev.shape}"
            )
        self.a_curr = a_curr
        self.a_prev = a_prev
        self._time = float(state["time"])

    # ------------------------------------------------------------------
    def inject_pulse(self, pulse, entry_index: int = 0) -> Callable[[float], float]:
        """Return a source callback that drives grid point ``entry_index``.

        The returned callable is meant to be passed as ``boundary_source`` to
        :meth:`step`; it evaluates the pulse's scalar vector potential
        amplitude (projection on its own polarisation) at the requested time.
        """
        if not (0 <= entry_index < self.num_points):
            raise ValueError("entry_index outside the macroscopic grid")
        self._source_index = entry_index

        def source(t: float) -> float:
            a_vec = pulse.vector_potential(t)
            return float(np.dot(np.atleast_1d(a_vec.reshape(-1, 3))[0], pulse.polarization))

        return source

    def step(
        self,
        current_density: Optional[np.ndarray] = None,
        boundary_source: Optional[Callable[[float], float]] = None,
        source_index: int = 0,
    ) -> None:
        """Advance A by one time step.

        Parameters
        ----------
        current_density:
            Macroscopic transverse current density J(X) at the current time
            (same length as the grid); ``None`` means vacuum propagation.
        boundary_source:
            Optional callable giving the prescribed A value at ``source_index``
            (hard source used to launch pulses into the window).
        """
        c = SPEED_OF_LIGHT_AU
        r2 = self._courant ** 2
        lap = np.zeros_like(self.a_curr)
        lap[1:-1] = self.a_curr[2:] - 2.0 * self.a_curr[1:-1] + self.a_curr[:-2]
        a_next = 2.0 * self.a_curr - self.a_prev + r2 * lap
        if current_density is not None:
            current_density = np.asarray(current_density, dtype=float)
            if current_density.shape != self.a_curr.shape:
                raise ValueError("current density must match the macroscopic grid")
            a_next += (4.0 * np.pi / c) * (c * self.dt) ** 2 * current_density
        # First-order Mur absorbing boundaries.
        k = (c * self.dt - self.dx) / (c * self.dt + self.dx)
        a_next[0] = self.a_curr[1] + k * (a_next[1] - self.a_curr[0])
        a_next[-1] = self.a_curr[-2] + k * (a_next[-2] - self.a_curr[-1])
        self._time += self.dt
        if boundary_source is not None:
            a_next[source_index] = boundary_source(self._time)
        self.a_prev = self.a_curr
        self.a_curr = a_next

    def field_energy(self) -> float:
        """Electromagnetic field energy of the window, (1/8pi) \\int (E^2 + B^2) dx.

        B is the transverse magnetic field dA/dX (in these 1-D units); the
        quantity is used in tests to check that vacuum propagation conserves
        energy away from the absorbing boundaries.
        """
        e_field = self.electric_field()
        b_field = np.gradient(self.a_curr, self.dx)
        return float(np.sum(e_field ** 2 + b_field ** 2) * self.dx / (8.0 * np.pi))
