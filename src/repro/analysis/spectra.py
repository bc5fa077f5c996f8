"""Optical spectra from real-time TDDFT dipole signals.

The standard delta-kick / short-pulse analysis: after a weak perturbation the
time-dependent dipole moment d(t) is recorded; the absorption cross-section is
proportional to the imaginary part of its Fourier transform divided by the
perturbation strength.  A decaying exponential window suppresses the ringing
caused by the finite simulation time.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def dipole_strength_function(
    times: np.ndarray,
    dipole: np.ndarray,
    kick_strength: float,
    damping: float = 0.05,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dipole strength function S(omega) from a dipole time series.

    Parameters
    ----------
    times:
        Time grid in atomic units (must be uniform).
    dipole:
        Dipole component along the perturbation direction, same length.
    kick_strength:
        Strength of the delta-kick (atomic units) used to excite the system.
    damping:
        Exponential window decay rate (1/a.u. time).

    Returns
    -------
    (omega, strength):
        Angular frequencies (Hartree) and the dipole strength function.
    """
    times = np.asarray(times, dtype=float)
    dipole = np.asarray(dipole, dtype=float)
    if times.ndim != 1 or times.shape != dipole.shape:
        raise ValueError("times and dipole must be 1-D arrays of equal length")
    if times.size < 4:
        raise ValueError("need at least 4 samples")
    if kick_strength == 0:
        raise ValueError("kick_strength must be non-zero")
    dt = float(times[1] - times[0])
    if not np.allclose(np.diff(times), dt, rtol=1e-6, atol=1e-12):
        raise ValueError("times must be uniformly spaced")
    signal = (dipole - dipole[0]) * np.exp(-damping * (times - times[0]))
    # Physics convention d(w) = int d(t) exp(+i w t) dt; numpy's FFT uses the
    # opposite sign, so the imaginary part is negated below.
    spectrum = np.fft.rfft(signal) * dt
    omega = 2.0 * np.pi * np.fft.rfftfreq(times.size, d=dt)
    # S(w) = (2 w / pi) * Im[alpha(w)], alpha = d(w) / kick
    strength = -(2.0 * omega / np.pi) * np.imag(spectrum) / kick_strength
    return omega, strength


def absorption_spectrum(
    times: np.ndarray,
    dipole: np.ndarray,
    kick_strength: float,
    damping: float = 0.05,
) -> Tuple[np.ndarray, np.ndarray]:
    """Absorption spectrum (arbitrary units), non-negative part of S(omega)."""
    omega, strength = dipole_strength_function(times, dipole, kick_strength, damping)
    return omega, np.maximum(strength, 0.0)

