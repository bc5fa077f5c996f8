"""Hartree potential solvers.

The production LFD solves the Hartree problem with an iterative dynamical-
simulated-annealing (DSA) solver (paper Sec. V.A.5, following Car-Parrinello):
the potential is treated as a fictitious dynamical variable evolving under
damped second-order dynamics whose fixed point is the Poisson solution.  The
appeal on real hardware is that each iteration is a local stencil sweep
(GPU-friendly) and an excellent initial guess is available from the previous
QD step, so a handful of iterations suffice.  The spectral solver from
:mod:`repro.grid.poisson` is the exact reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.grid3d import Grid3D
from repro.grid.poisson import solve_poisson
from repro.grid.stencil import laplacian
from repro.perf.flops import FlopCounter, stencil_flops


def hartree_potential(density: np.ndarray, grid: Grid3D) -> np.ndarray:
    """Exact (spectral) Hartree potential; thin convenience wrapper."""
    return solve_poisson(density, grid)


@dataclass
class DSAHartreeSolver:
    """Damped-dynamics (dynamical simulated annealing) Poisson solver.

    The potential obeys the fictitious equation of motion

        d^2 V / d tau^2 = c^2 (nabla^2 V + 4 pi rho) - gamma dV/d tau

    discretised with velocity-Verlet-like steps in the fictitious time tau.
    With the critical-damping choice used here the iteration converges
    geometrically; because consecutive QD steps change the density only
    slightly, warm-starting from the previous potential makes the per-step
    cost a few stencil sweeps.

    Parameters
    ----------
    grid:
        The real-space grid.
    step:
        Fictitious time step (stability requires roughly step < h / 2 with
        h the smallest grid spacing; the default is chosen from the grid).
    damping:
        Velocity damping coefficient per unit fictitious time.
    max_iterations, tolerance:
        Convergence controls on the relative residual.
    """

    grid: Grid3D
    step: float | None = None
    damping: float | None = None
    max_iterations: int = 500
    tolerance: float = 1e-6
    flops: FlopCounter = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        h_min = min(self.grid.spacing)
        if self.step is None:
            self.step = 0.4 * h_min
        if self.damping is None:
            # Near-critical damping for the lowest Fourier mode of the cell.
            l_max = max(self.grid.lengths)
            self.damping = 2.0 * np.pi / l_max
        if self.flops is None:
            self.flops = FlopCounter()
        self._velocity = np.zeros(self.grid.shape)
        self.last_iterations = 0
        self.last_residual = np.inf

    def solve(
        self,
        density: np.ndarray,
        initial_guess: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve nabla^2 V = -4 pi (rho - <rho>) iteratively."""
        density = np.asarray(density, dtype=float)
        if density.shape != self.grid.shape:
            raise ValueError("density shape must match the grid")
        rhs = 4.0 * np.pi * (density - density.mean())
        rhs_norm = float(np.linalg.norm(rhs)) or 1.0
        potential = (
            np.zeros(self.grid.shape)
            if initial_guess is None
            else np.array(initial_guess, dtype=float, copy=True)
        )
        velocity = np.zeros_like(potential)
        dt = float(self.step)
        gamma = float(self.damping)
        damp = (1.0 - 0.5 * gamma * dt) / (1.0 + 0.5 * gamma * dt)
        width = 3 * 3  # 2nd-order stencil touches 3 points per axis
        self.last_iterations = 0
        for iteration in range(1, self.max_iterations + 1):
            force = laplacian(potential, self.grid, order=2) + rhs
            self.flops.add("hartree_dsa", stencil_flops(self.grid.num_points, 1, width, complex_valued=False))
            velocity = damp * velocity + dt * force
            potential = potential + dt * velocity
            potential -= potential.mean()
            residual = float(np.linalg.norm(force)) / rhs_norm
            self.last_iterations = iteration
            self.last_residual = residual
            if residual < self.tolerance:
                break
        return potential
