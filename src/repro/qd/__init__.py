"""Quantum dynamics: the LFD (local field dynamics) module of DC-MESH.

This subpackage implements the real-time TDDFT machinery that the paper runs
on the GPU side of each divide-and-conquer domain:

* :mod:`repro.qd.wavefunctions`   — the stacked Kohn-Sham orbital container.
* :mod:`repro.qd.occupations`     — occupation numbers f_s in [0, 1] and the
  photo-excitation bookkeeping exchanged with XS-NNQMD.
* :mod:`repro.qd.kin_prop`        — local kinetic/potential split-operator
  propagation with the four implementation variants of Table III.
* :mod:`repro.qd.nlp_prop`        — GEMMified nonlocal correction (Eq. 5) with
  parameterized mixed precision.
* :mod:`repro.qd.xc`              — LDA exchange-correlation.
* :mod:`repro.qd.hamiltonian`     — assembly of the local KS potential and the
  velocity-gauge light coupling.
* :mod:`repro.qd.tddft`           — the real-time propagation driver (the
  per-domain LFD engine).
"""

from repro.qd.wavefunctions import WaveFunctions
from repro.qd.occupations import OccupationState
from repro.qd.kin_prop import KineticPropagator
from repro.qd.nlp_prop import NonlocalCorrection
from repro.qd.xc import lda_exchange_correlation
from repro.qd.hamiltonian import LocalHamiltonian
from repro.qd.tddft import RealTimeTDDFT

__all__ = [
    "WaveFunctions",
    "OccupationState",
    "KineticPropagator",
    "NonlocalCorrection",
    "lda_exchange_correlation",
    "LocalHamiltonian",
    "RealTimeTDDFT",
]
