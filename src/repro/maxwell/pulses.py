"""Analytic laser pulses in the velocity gauge (vector potential form).

All quantities are in Hartree atomic units: the electric field is
E(t) = -(1/c) dA/dt, and the dimensionless peak "field strength" parameter is
E0 in atomic units of field (1 a.u. = 51.42 V/Angstrom).  Pulses provide A(t)
analytically, which is all the velocity-gauge propagator samples; the
Gaussian pulse also gives E(t), the field its A(t) is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.units import SPEED_OF_LIGHT_AU
from repro.utils.validation import ensure_positive


def _unit_polarization(polarization) -> np.ndarray:
    """The unit vector along ``polarization`` (default ``z``)."""
    if polarization is None:
        return np.array([0.0, 0.0, 1.0])
    polarization = np.asarray(polarization, dtype=float)
    norm = np.linalg.norm(polarization)
    if norm == 0:
        raise ValueError("polarization vector must be non-zero")
    return polarization / norm


class LaserPulse:
    """Base of the laser pulses: each provides ``vector_potential(t)``, the
    ``(..., 3)`` A(t) along its unit ``polarization``."""

    polarization: np.ndarray


@dataclass
class GaussianPulse(LaserPulse):
    """Gaussian-envelope pulse E(t) = E0 exp(-(t-t0)^2/(2 sigma^2)) cos(w (t-t0)).

    Parameters
    ----------
    e0:
        Peak electric field amplitude in atomic units.
    omega:
        Carrier angular frequency in Hartree (a.u.).
    t0:
        Pulse centre in atomic units of time.
    sigma:
        Gaussian envelope width in atomic units of time.
    polarization:
        Unit vector of the (linear) polarisation direction.
    """

    e0: float
    omega: float
    t0: float
    sigma: float
    polarization: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        ensure_positive(self.omega, "omega")
        ensure_positive(self.sigma, "sigma")
        self.polarization = _unit_polarization(self.polarization)

    def _envelope(self, t: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * ((t - self.t0) / self.sigma) ** 2)

    def electric_field(self, t: float | np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        scalar = self.e0 * self._envelope(t) * np.cos(self.omega * (t - self.t0))
        return np.multiply.outer(scalar, self.polarization)

    def vector_potential(self, t: float | np.ndarray) -> np.ndarray:
        """A(t) = -c * integral E dt', integrated with the slowly-varying-envelope form.

        For a Gaussian envelope whose width spans several carrier cycles the
        integral is dominated by the quadrature term
        A ~ -(c E0 / w) * envelope * sin(w (t - t0)); the correction of order
        1/(w sigma)^2 is negligible for the pulses used here and keeps A(t)
        returning exactly to zero after the pulse (no DC drift).
        """
        t = np.asarray(t, dtype=float)
        scalar = (
            -SPEED_OF_LIGHT_AU
            * self.e0
            / self.omega
            * self._envelope(t)
            * np.sin(self.omega * (t - self.t0))
        )
        return np.multiply.outer(scalar, self.polarization)


@dataclass
class TrapezoidalPulse(LaserPulse):
    """Trapezoidal-envelope pulse with linear ramp-up/ramp-down.

    This is the classic shape used in strong-field TDDFT benchmarks (constant
    intensity plateau bounded by ``ramp``-long linear edges).
    """

    e0: float
    omega: float
    ramp: float
    plateau: float
    t_start: float = 0.0
    polarization: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        ensure_positive(self.omega, "omega")
        ensure_positive(self.ramp, "ramp")
        if self.plateau < 0:
            raise ValueError("plateau must be non-negative")
        self.polarization = _unit_polarization(self.polarization)

    def _envelope(self, t: np.ndarray) -> np.ndarray:
        rel = np.asarray(t, dtype=float) - self.t_start
        total = 2.0 * self.ramp + self.plateau
        env = np.zeros_like(rel)
        rising = (rel >= 0) & (rel < self.ramp)
        flat = (rel >= self.ramp) & (rel < self.ramp + self.plateau)
        falling = (rel >= self.ramp + self.plateau) & (rel <= total)
        env[rising] = rel[rising] / self.ramp
        env[flat] = 1.0
        env[falling] = (total - rel[falling]) / self.ramp
        return env

    def vector_potential(self, t: float | np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        scalar = (
            -SPEED_OF_LIGHT_AU
            * self.e0
            / self.omega
            * self._envelope(t)
            * np.sin(self.omega * (t - self.t_start))
        )
        return np.multiply.outer(scalar, self.polarization)
