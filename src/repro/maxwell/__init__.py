"""Maxwell solver and laser-pulse machinery (the "M" of DC-MESH).

The multiscale Maxwell+TDDFT approach (paper Sec. III-V, following SALMON's
multiscale method) propagates the macroscopic electromagnetic field on a
coarse grid; each divide-and-conquer domain alpha sees the local vector
potential A(X_alpha, t) in its electronic Hamiltonian (Eq. 3) and returns the
microscopic current density that drives the field back.  This subpackage
provides:

* analytic laser pulse envelopes (:mod:`repro.maxwell.pulses`),
* a 1-D multiscale Maxwell solver for the vector potential with current
  feedback (:mod:`repro.maxwell.fdtd1d`),
* the :class:`~repro.maxwell.coupling.MaxwellCoupler` that maps DC domains to
  macroscopic grid points and exchanges (A, J) pairs with minimal data volume.
"""

from repro.maxwell.pulses import GaussianPulse, LaserPulse, TrapezoidalPulse
from repro.maxwell.fdtd1d import Maxwell1D
from repro.maxwell.coupling import MaxwellCoupler

__all__ = [
    "GaussianPulse",
    "LaserPulse",
    "TrapezoidalPulse",
    "Maxwell1D",
    "MaxwellCoupler",
]
