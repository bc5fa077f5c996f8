"""Occupation numbers and photo-excitation bookkeeping.

The occupations f_s in [0, 1] (per spin channel; 2 f_s electrons per orbital)
are the *only* state the shadow-dynamics handshake moves between the GPU-side
LFD and the CPU-side QXMD (Sec. V.A.3), and the per-domain photo-excitation
count n_exc^(alpha) derived from them is the *only* quantity DC-MESH returns to
XS-NNQMD (Sec. V.A.8).  Keeping this state in its own small class makes those
minimal interfaces explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import ensure_array


@dataclass
class OccupationState:
    """Occupation numbers of one DC domain's Kohn-Sham orbitals.

    Attributes
    ----------
    occupations:
        Array of shape ``(n_orbitals,)`` with entries in [0, 1]; the physical
        electron count per orbital is ``spin_degeneracy * occupations``.
    spin_degeneracy:
        2.0 for spin-degenerate calculations (the paper's setting).
    """

    occupations: np.ndarray
    spin_degeneracy: float = 2.0
    _initial: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        occ = ensure_array(self.occupations, dtype=float, ndim=1, name="occupations")
        if np.any(occ < -1e-12) or np.any(occ > 1.0 + 1e-12):
            raise ValueError("occupations must lie in [0, 1]")
        self.occupations = np.clip(occ, 0.0, 1.0)
        if self.spin_degeneracy <= 0:
            raise ValueError("spin_degeneracy must be positive")
        self._initial = self.occupations.copy()

    # ------------------------------------------------------------------
    @classmethod
    def ground_state(cls, n_orbitals: int, n_electrons: float,
                     spin_degeneracy: float = 2.0) -> "OccupationState":
        """Aufbau filling of ``n_electrons`` electrons into ``n_orbitals`` orbitals."""
        if n_orbitals < 1:
            raise ValueError("need at least one orbital")
        if n_electrons < 0 or n_electrons > n_orbitals * spin_degeneracy:
            raise ValueError("electron count incompatible with orbital count")
        occ = np.zeros(n_orbitals)
        remaining = float(n_electrons)
        for i in range(n_orbitals):
            fill = min(spin_degeneracy, remaining)
            occ[i] = fill / spin_degeneracy
            remaining -= fill
            if remaining <= 0:
                break
        return cls(occ, spin_degeneracy)

    # ------------------------------------------------------------------
    @property
    def total_electrons(self) -> float:
        """Total electron count sum_s g f_s."""
        return float(self.spin_degeneracy * self.occupations.sum())

    def electrons_per_orbital(self) -> np.ndarray:
        """Electron count per orbital (the weights used to build the density)."""
        return self.spin_degeneracy * self.occupations

    def excitation_number(self) -> float:
        """Number of photo-excited electrons relative to the reference filling.

        Defined as the number of electrons promoted out of initially occupied
        orbitals: n_exc = sum_s g * max(f_s^0 - f_s, 0).  This is the
        n_exc^(alpha) that DC-MESH gathers across domains and hands to
        XS-NNQMD (Sec. V.A.8).
        """
        depleted = np.maximum(self._initial - self.occupations, 0.0)
        return float(self.spin_degeneracy * depleted.sum())

    # ------------------------------------------------------------------
    def apply_transition(self, source: int, target: int, amount: float) -> None:
        """Move ``amount`` of occupation from orbital ``source`` to ``target``.

        The transfer is clipped so occupations stay within [0, 1]; surface
        hopping uses this to realise stochastic hops, and perturbative
        occupation updates use it with small ``amount`` values.
        """
        n_orbitals = self.occupations.size
        if not (0 <= source < n_orbitals and 0 <= target < n_orbitals):
            raise IndexError("orbital index out of range")
        if amount < 0:
            raise ValueError("amount must be non-negative")
        transferable = min(amount, self.occupations[source], 1.0 - self.occupations[target])
        self.occupations[source] -= transferable
        self.occupations[target] += transferable

    def set_occupations(self, new_occupations: np.ndarray) -> None:
        """Replace the occupation vector (keeping the reference filling).

        Entries may overshoot [0, 1] by 1e-9 (they are clipped back); the
        distance to the clipped vector is the range check, and it also
        rejects NaN and infinities.
        """
        occ = np.asarray(new_occupations, dtype=float)
        if occ.shape != self.occupations.shape:
            raise ValueError("occupation vector size cannot change")
        clipped = occ.clip(0.0, 1.0)
        if not np.abs(occ - clipped).max(initial=0.0) <= 1e-9:
            raise ValueError("occupations must lie in [0, 1]")
        self.occupations = clipped

    def copy(self) -> "OccupationState":
        new = OccupationState(self.occupations.copy(), self.spin_degeneracy)
        new._initial = self._initial.copy()
        return new
