"""The end-to-end MLMD pipeline: GS preparation -> laser pulse -> XS dynamics.

This is the multiscale workflow of paper Sec. VI.A / Fig. 3:

1. **Prepare** a complex polar topology (a skyrmion superlattice) with the
   ground-state model and relax it on the ground-state energy surface.
2. **Excite**: feed representative atomic configurations to DC-MESH, apply the
   femtosecond laser pulse, and collect the per-domain photo-excitation
   numbers n_exc^(alpha) (alternatively, prescribe a uniform excitation
   fraction — the idealised-pump shortcut used for quick studies).
3. **Propagate** the larger-spatiotemporal-scale dynamics with the
   excited-state model: the excitation screens the ferroelectric double well,
   the polar texture destabilises, and the topological charge of the
   superlattice collapses — the light-induced topological switching.

:class:`MLMDPipeline` holds stages 1 and 2.  Stage 3 is the ``mlmd`` engine
kind (:class:`repro.api.adapters.MLMDEngine`), which relaxes the pipeline's
texture, steps it on the effective local-mode lattice (the "second
principles" level) and records the topological charge; an atomistic
XS-NNQMD route through the :class:`~repro.xsnn.mixing.ExcitedStateMixer` is
available for small cells and exercised by the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.md.lattice import skyrmion_displacement_field
from repro.md.localmode import LocalModeLattice, LocalModeModel


@dataclass
class MLMDPipeline:
    """Stages 1 and 2 of the skyrmion-superlattice photo-switching experiment.

    Parameters
    ----------
    supercell_repeats:
        Unit cells along x, y, z of the texture grid.
    skyrmions_per_axis:
        Number of skyrmions along x and y in the superlattice.
    model:
        Effective ferroelectric Hamiltonian parameters.
    rng:
        Random generator for the texture noise.
    """

    supercell_repeats: Tuple[int, int, int] = (20, 20, 1)
    skyrmions_per_axis: Tuple[int, int] = (2, 2)
    model: LocalModeModel = field(default_factory=LocalModeModel)
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = np.random.default_rng(0)

    # ------------------------------------------------------------------
    # Stage 1: ground-state preparation
    # ------------------------------------------------------------------
    def ground_state_texture(self, thermal_noise: float = 0.01) -> LocalModeLattice:
        """The skyrmion superlattice before its relax (noise from ``rng``)."""
        texture = skyrmion_displacement_field(
            self.supercell_repeats, self.skyrmions_per_axis
        )
        texture = texture * self.model.well_minimum(0.0)
        if thermal_noise > 0:
            texture = texture + thermal_noise * self.rng.standard_normal(texture.shape)
        return LocalModeLattice(texture, self.model)

    # ------------------------------------------------------------------
    # Stage 2: excitation
    # ------------------------------------------------------------------
    def excitation_from_dcmesh(self, excitations: np.ndarray,
                               electrons_per_domain: float) -> float:
        """Convert the DC-MESH n_exc gather into a global excitation fraction.

        The skyrmion texture spans regions much larger than the DC domains, so
        the fraction used by the local-mode dynamics is the domain average —
        the same coarse-graining the paper's XN/NN handshake performs.
        """
        excitations = np.asarray(excitations, dtype=float)
        if excitations.size == 0 or electrons_per_domain <= 0:
            raise ValueError("need a non-empty excitation vector and positive electrons")
        return float(np.clip(excitations.mean() / electrons_per_domain, 0.0, 1.0))

    def fluence_to_excitation(self, fluence: float, saturation_fluence: float = 1.0) -> float:
        """Idealised pump: excitation fraction from pulse fluence (saturable)."""
        if fluence < 0 or saturation_fluence <= 0:
            raise ValueError("fluence must be >= 0 and saturation_fluence > 0")
        return float(1.0 - np.exp(-fluence / saturation_fluence))
