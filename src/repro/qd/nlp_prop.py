"""GEMMified nonlocal correction: the ``nlp_prop`` kernel (paper Sec. V.B.5).

Switching the nonlocal correction from the finite-difference representation to
the space spanned by the Kohn-Sham orbitals turns it into two dense complex
GEMMs (paper Eq. 5):

    Psi(t) <- Psi(t) - delta * Psi(0) [Psi(0)^H Psi(t)]

where Psi is the (N_grid x N_orb) wave-function matrix, Psi(0) holds the
reference (t = 0) orbitals, and delta is a small complex number proportional
to the time step and the scissors-like correction strength.  Physically this
is the real-time scissors correction of Ref. [44]: it shifts the energies of
the subspace spanned by the occupied reference orbitals, repairing the LDA
band-gap underestimate during the real-time dynamics.

The two GEMMs are executed through :class:`repro.precision.MixedPrecisionGemm`
so the BF16 / FP32 / FP64 accuracy-throughput study of Tables IV/V and
Sec. VI.C can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.precision.gemm import MixedPrecisionGemm, gemm_flops
from repro.qd.wavefunctions import WaveFunctions


@dataclass
class NonlocalCorrection:
    """The nonlocal (scissors-like) correction operator in GEMM form.

    Parameters
    ----------
    reference:
        The reference orbital block Psi(0) (typically the ground-state
        orbitals at the start of the laser pulse).
    shift:
        Scissors energy shift (Hartree) applied to the reference-occupied
        subspace.
    dt:
        Quantum-dynamics time step (atomic units); ``delta = -1j * dt * shift``
        is the perturbative first-order factor of Eq. (5).
    mode:
        GEMM compute mode: ``fp64``, ``fp32``, ``bf16``, ``bf16x2``, ``bf16x3``.
    """

    reference: WaveFunctions
    shift: float
    dt: float
    mode: str = "fp64"

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        self._engine = MixedPrecisionGemm(mode=self.mode)
        # Psi(0) as an (N_grid, N_orb) matrix, kept contiguous: this is the
        # GPU-resident array of Sec. V.B.6 (allocated once, reused every step).
        self._psi0 = np.ascontiguousarray(self.reference.as_matrix())
        self._psi0_adjoint = self._psi0.conj().T
        self._dv = self.reference.grid.dv

    @property
    def delta(self) -> complex:
        """The small complex prefactor of Eq. (5)."""
        return -1j * self.dt * self.shift

    @property
    def gemm_engine(self) -> MixedPrecisionGemm:
        return self._engine

    # ------------------------------------------------------------------
    def overlap(self, psi_t: np.ndarray) -> np.ndarray:
        """CGEMM (1): the (N_orb x N_orb) overlap matrix Psi(0)^H Psi(t)."""
        psi_t = np.asarray(psi_t)
        if psi_t.shape != self._psi0.shape:
            raise ValueError(
                f"psi_t must have shape {self._psi0.shape}, got {psi_t.shape}"
            )
        return self._engine(self._psi0_adjoint, psi_t) * self._dv

    def apply_matrix(self, psi_t: np.ndarray) -> np.ndarray:
        """Apply the full correction to an (N_grid x N_orb) matrix, Eq. (5)."""
        overlap = self.overlap(psi_t)
        # CGEMM (2): add the rank-N_orb correction back onto Psi(t).
        correction = self._engine(self._psi0, overlap)
        return psi_t - self.delta * correction

    def apply(self, wavefunctions: WaveFunctions) -> WaveFunctions:
        """Apply the correction to a :class:`WaveFunctions` block in place.

        The corrected orbitals are written into the existing ``psi`` array,
        so views of it (a DC-MESH domain stack) see the update.
        """
        psi_matrix = wavefunctions.as_matrix()
        corrected = self.apply_matrix(np.ascontiguousarray(psi_matrix))
        wavefunctions.psi[...] = corrected.T.reshape(
            wavefunctions.n_orbitals, *wavefunctions.grid.shape
        )
        return wavefunctions

    # ------------------------------------------------------------------
    def flop_count_per_call(self) -> int:
        """Analytic CGEMM flop count of one apply_matrix call (both GEMMs)."""
        n_grid, n_orb = self._psi0.shape
        return gemm_flops(n_orb, n_orb, n_grid, complex_valued=True) + gemm_flops(
            n_grid, n_orb, n_orb, complex_valued=True
        )


