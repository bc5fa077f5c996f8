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

The default propagation substrate is the effective local-mode lattice (the
"second principles" level); an atomistic XS-NNQMD route through the
:class:`~repro.xsnn.mixing.ExcitedStateMixer` is available for small cells and
exercised by the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.md.lattice import skyrmion_displacement_field
from repro.md.localmode import LocalModeLattice, LocalModeModel
from repro.topology.analysis import classify_texture, switching_time
from repro.topology.charge import topological_charge
from repro.topology.polarization import in_plane_slice
from repro.utils.validation import validate_run_args


@dataclass
class MLMDPipelineResult:
    """Outcome of one MLMD photo-switching run."""

    times_fs: np.ndarray
    topological_charge: np.ndarray
    mean_polarization: np.ndarray
    excitation_fraction: np.ndarray
    initial_label: str
    final_label: str
    switching_time_fs: float

    @property
    def switched(self) -> bool:
        return np.isfinite(self.switching_time_fs)


@dataclass
class MLMDPipeline:
    """Driver for the skyrmion-superlattice photo-switching experiment.

    Parameters
    ----------
    supercell_repeats:
        Unit cells along x, y, z of the texture grid.
    skyrmions_per_axis:
        Number of skyrmions along x and y in the superlattice.
    model:
        Effective ferroelectric Hamiltonian parameters.
    excitation_lifetime_fs:
        Carrier lifetime governing how fast the excitation (and hence the XS
        weight) decays back to zero after the pulse.
    md_timestep_fs:
        Time step of the local-mode dynamics.
    """

    supercell_repeats: Tuple[int, int, int] = (20, 20, 1)
    skyrmions_per_axis: Tuple[int, int] = (2, 2)
    model: LocalModeModel = field(default_factory=LocalModeModel)
    excitation_lifetime_fs: float = 600.0
    md_timestep_fs: float = 2.0
    damping_per_fs: float = 0.3
    thermal_noise_amplitude: float = 0.001
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.excitation_lifetime_fs <= 0 or self.md_timestep_fs <= 0:
            raise ValueError("lifetime and time step must be positive")
        if self.rng is None:
            self.rng = np.random.default_rng(0)
        self._lattice: Optional[LocalModeLattice] = None
        self._initial_charge: Optional[float] = None

    # ------------------------------------------------------------------
    # Stage 1: ground-state preparation
    # ------------------------------------------------------------------
    def prepare_ground_state(self, relax_steps: int = 200,
                             thermal_noise: float = 0.01) -> LocalModeLattice:
        """Build and relax the skyrmion superlattice on the GS surface."""
        lattice = self.ground_state_texture(thermal_noise)
        lattice.relax(num_steps=relax_steps, dt=0.5 * self.md_timestep_fs)
        return self.adopt_ground_state(lattice)

    def ground_state_texture(self, thermal_noise: float = 0.01) -> LocalModeLattice:
        """The skyrmion superlattice before its relax (noise from ``rng``)."""
        texture = skyrmion_displacement_field(
            self.supercell_repeats, self.skyrmions_per_axis
        )
        texture = texture * self.model.well_minimum(0.0)
        if thermal_noise > 0:
            texture = texture + thermal_noise * self.rng.standard_normal(texture.shape)
        return LocalModeLattice(texture, self.model)

    def adopt_ground_state(self, lattice: LocalModeLattice,
                           charge: Optional[float] = None) -> LocalModeLattice:
        """Take a relaxed ``lattice`` as the ground state the dynamics start
        from (a batch relaxes many pipelines' textures in one call).

        ``charge`` is the texture's middle-layer topological charge when the
        caller has already computed it; otherwise it is computed here.
        """
        self._lattice = lattice
        if charge is None:
            charge = topological_charge(
                in_plane_slice(lattice.modes, lattice.shape[2] // 2)
            )
        self._initial_charge = charge
        return lattice

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

    # ------------------------------------------------------------------
    # Stage 3: excited-state dynamics
    # ------------------------------------------------------------------
    def run_excited_dynamics(
        self,
        excitation_fraction: float,
        num_steps: int = 400,
        record_every: int = 5,
    ) -> MLMDPipelineResult:
        """Propagate the texture with the excitation-screened Hamiltonian."""
        if self._lattice is None or self._initial_charge is None:
            raise RuntimeError("call prepare_ground_state() before running dynamics")
        if not (0.0 <= excitation_fraction <= 1.0):
            raise ValueError("excitation_fraction must lie in [0, 1]")
        validate_run_args(num_steps, record_every)
        lattice = self._lattice
        initial = classify_texture(lattice.modes)
        times: List[float] = []
        charges: List[float] = []
        polarizations: List[np.ndarray] = []
        fractions: List[float] = []
        w = excitation_fraction
        time_fs = 0.0
        mid = lattice.shape[2] // 2

        def record() -> None:
            times.append(time_fs)
            charges.append(topological_charge(in_plane_slice(lattice.modes, mid)))
            polarizations.append(lattice.mean_polarization())
            fractions.append(w)

        record()
        for step in range(num_steps):
            lattice.step(
                self.md_timestep_fs,
                excitation_weight=w,
                damping=self.damping_per_fs,
                noise_amplitude=self.thermal_noise_amplitude,
                rng=self.rng,
            )
            time_fs += self.md_timestep_fs
            w = excitation_fraction * float(
                np.exp(-time_fs / self.excitation_lifetime_fs)
            )
            if (step + 1) % record_every == 0:
                record()
        final = classify_texture(lattice.modes)
        times_arr = np.asarray(times)
        charges_arr = np.asarray(charges)
        return MLMDPipelineResult(
            times_fs=times_arr,
            topological_charge=charges_arr,
            mean_polarization=np.asarray(polarizations),
            excitation_fraction=np.asarray(fractions),
            initial_label=initial.label,
            final_label=final.label,
            switching_time_fs=switching_time(times_arr, charges_arr),
        )

    # ------------------------------------------------------------------
    def run(self, excitation_fraction: float, num_steps: int = 400,
            relax_steps: int = 200) -> MLMDPipelineResult:
        """Convenience end-to-end run: prepare, excite (prescribed), propagate."""
        self.prepare_ground_state(relax_steps=relax_steps)
        return self.run_excited_dynamics(excitation_fraction, num_steps=num_steps)

    @property
    def initial_topological_charge(self) -> Optional[float]:
        return self._initial_charge
