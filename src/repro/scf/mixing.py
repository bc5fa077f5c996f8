"""Anderson (Pulay/DIIS-type) density mixing, shared by both SCF loops.

An SCF iteration maps an input density ``n_in`` to an output density
``n_out = F[n_in]``; the residual is ``r = n_out - n_in``.  Plain linear mixing
feeds back ``n_in + beta * r`` and needs ~20 iterations on the registry cells.
Anderson mixing keeps the last :data:`HISTORY` (input, residual) pairs, finds
the combination of them whose residual is smallest in the least-squares sense
and takes the damped step from *that* point:

    gamma = argmin || r_k - sum_i gamma_i (r_k - r_i) ||
    n_next = n_k + beta r_k - sum_i gamma_i [(n_k - n_i) + beta (r_k - r_i)]

With an empty history the sum is empty and the update *is* the linear step,
which is what makes the safeguard a restart rather than a second algorithm:
whenever the extrapolated density is unusable (non-finite) or the residual
rose by more than :data:`RESTART_FACTOR` since the previous iteration, the
history is cleared and the same formula takes the plain damped step.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.grid.grid3d import Grid3D

#: (input, residual) pairs the extrapolation looks back over.
HISTORY = 5

#: A residual this many times the previous one means the last extrapolation
#: left the region where the secant model holds; forget the history.
RESTART_FACTOR = 2.0


class DensityMixer:
    """Produces the next SCF input density from the latest (input, output) pair.

    Parameters
    ----------
    grid:
        Grid the densities live on (supplies the integration measure).
    n_electrons:
        Electron count every returned density integrates to.
    beta:
        Damping of the step along the (extrapolated) residual, in (0, 1]; the
        linear-mixing parameter when the history is empty.
    """

    def __init__(self, grid: Grid3D, n_electrons: float, beta: float) -> None:
        self.grid = grid
        self.n_electrons = float(n_electrons)
        self.beta = float(beta)
        #: How many times the safeguard cleared the history.
        self.restarts = 0
        self._inputs: List[np.ndarray] = []
        self._residuals: List[np.ndarray] = []
        self._previous_norm = np.inf

    def mix(self, density_in: np.ndarray,
            density_out: np.ndarray) -> Tuple[np.ndarray, float]:
        """``(next input density, residual norm of this iteration)``.

        The norm is the L2 norm of ``density_out - density_in`` per electron —
        the number both SCF loops converge on.  The returned density is
        non-negative and integrates to ``n_electrons``.
        """
        residual = density_out - density_in
        norm = float(np.sqrt(self.grid.integrate(residual ** 2))) / max(
            self.n_electrons, 1.0
        )
        rose = norm > RESTART_FACTOR * self._previous_norm
        self._previous_norm = norm
        self._inputs.append(density_in.reshape(-1))
        self._residuals.append(residual.reshape(-1))
        del self._inputs[:-HISTORY], self._residuals[:-HISTORY]
        mixed = None if rose else self._physical(self._extrapolate())
        if mixed is None or not np.all(np.isfinite(mixed)):
            # Safeguard: forget everything but the current pair, which turns
            # the very same formula into the plain damped (linear) step.
            self.restarts += 1
            del self._inputs[:-1], self._residuals[:-1]
            mixed = self._physical(self._extrapolate())
        return mixed.reshape(density_in.shape), norm

    def _extrapolate(self) -> np.ndarray:
        """The Anderson step from the stored history (linear when it holds
        only the current pair)."""
        current, residual = self._inputs[-1], self._residuals[-1]
        step = current + self.beta * residual
        if len(self._inputs) > 1:
            d_inputs = current[:, None] - np.stack(self._inputs[:-1], axis=1)
            d_residuals = residual[:, None] - np.stack(self._residuals[:-1], axis=1)
            gamma = np.linalg.lstsq(d_residuals, residual, rcond=None)[0]
            step -= (d_inputs + self.beta * d_residuals) @ gamma
        return step

    def _physical(self, density: np.ndarray) -> np.ndarray:
        """Clip at zero (an extrapolation may undershoot where the density is
        tiny) and restore the electron count."""
        density = np.maximum(density, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return density * (self.n_electrons / (density.sum() * self.grid.dv))
