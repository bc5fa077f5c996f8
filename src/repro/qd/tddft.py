"""Real-time TDDFT propagation: the per-domain LFD engine.

One quantum-dynamics (QD) step of the paper's Eq. (2) is realised as a
Suzuki-Trotter split-operator sweep,

    psi <- exp(-i dt/2 v_loc) exp(-i dt T(A)) exp(-i dt/2 v_loc) psi,

followed by the perturbative nonlocal corrections (scissors correction via
``nlp_prop`` and, when present, the separable ionic projectors), and finally a
self-consistent update of the Hartree/xc potentials from the new density.  The
vector potential A is constant across the domain (it is sampled at the domain
anchor X_alpha by the Maxwell coupler) and is refreshed every QD step, while
the atomic positions — and hence v_ext — are refreshed only once per MD step
by the QXMD side (the shadow-dynamics split of Sec. V.A.3-4).

The step is one kernel over a leading domain axis
(:func:`propagate_domains`): a lone :class:`RealTimeTDDFT` calls it with one
domain, and DC-MESH calls it once per exchange for all of its domains, whose
orbitals it holds as one ``(D, n_orb, nx, ny, nz)`` array.  The kinetic step
applies cached per-axis operators (no FFT), and the local half-step phase is
rebuilt only when v_loc changes.  While telemetry is on, each call splits
its time by kernel into the ``repro_qd_<kernel>_seconds`` histograms.

The driver records the time series of dipole moment, cell-averaged current,
occupation-resolved excitation numbers, and total energy, which is everything
the analysis module needs for absorption spectra and everything XS-NNQMD needs
for the excitation feedback.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.perf.workspace import KernelWorkspace
from repro.qd.hamiltonian import LocalHamiltonian, update_potentials_stacked
from repro.qd.kin_prop import KineticPropagator, apply_kinetic_operators
from repro.qd.nlp_prop import NonlocalCorrection
from repro.qd.occupations import OccupationState
from repro.qd.wavefunctions import WaveFunctions
from repro.telemetry import metrics as _telemetry
from repro.utils.validation import validate_run_args

#: The kernels a QD step is split into, each timed into
#: ``repro_qd_<kernel>_seconds`` while telemetry is on.
QD_KERNELS = ("v_loc_prop", "kin_prop", "nlp_prop", "vnl_prop", "hartree_xc")


@dataclass
class TDDFTResult:
    """Time series recorded during a real-time TDDFT run."""

    times: np.ndarray
    dipole: np.ndarray
    current: np.ndarray
    total_energy: np.ndarray
    excitation: np.ndarray
    norms: np.ndarray

    def as_dict(self) -> dict:
        return {
            "times": self.times,
            "dipole": self.dipole,
            "current": self.current,
            "total_energy": self.total_energy,
            "excitation": self.excitation,
            "norms": self.norms,
        }


def _untimed(_name: str):
    return nullcontext()


class _KernelTimer:
    """``with timer(kernel):`` observes the block's wall time into
    ``repro_qd_<kernel>_seconds``; blocks must not nest."""

    __slots__ = ("_histograms", "_current", "_t0")

    def __init__(self) -> None:
        self._histograms = {
            kernel: _telemetry.histogram(f"repro_qd_{kernel}_seconds",
                                         f"one {kernel} block of a QD step")
            for kernel in QD_KERNELS
        }

    def __call__(self, kernel: str) -> "_KernelTimer":
        self._current = self._histograms[kernel]
        return self

    def __enter__(self) -> None:
        self._t0 = perf_counter()

    def __exit__(self, *exc) -> None:
        self._current.observe(perf_counter() - self._t0)


def propagate_domains(engines: Sequence["RealTimeTDDFT"], psi: np.ndarray,
                      steps: int) -> None:
    """Advance D same-shape domains by ``steps`` QD steps as one kernel.

    ``psi`` is the C-contiguous ``(D, n_orb, nx, ny, nz)`` orbital stack whose
    slice ``d`` is ``engines[d].wavefunctions.psi``; it is updated in place.
    The engines must share grid, orbital count, ``dt`` and
    ``update_potentials_every``; their fields, potentials, occupations,
    scissors and projectors stay their own.  Each step:

    1. ``exp(-i dt/2 v_loc)`` per domain (rebuilt only when v_loc changed);
    2. the kinetic step for the whole stack: three matrix products with the
       per-axis operators of each domain's A (one ``(D, 1, n, n)`` stack
       when the domains' A differ);
    3. the second local half step, then each domain's scissors correction
       and nonlocal projectors, applied slice by slice;
    4. every ``update_potentials_every`` steps, the Hartree/xc update of all
       domains in one FFT and one LDA sweep;
    5. each domain's occupation relaxation.

    Every stacked operation acts on each slice independently, so a stacked
    call is bit-identical to one call per domain.  Whether the
    :data:`QD_KERNELS` are timed is decided once per call, by
    :func:`repro.telemetry.enabled`; timing never touches the orbitals.
    """
    dt = engines[0].dt
    every = engines[0].update_potentials_every
    hamiltonians = [engine.hamiltonian for engine in engines]
    measure = _KernelTimer() if _telemetry.enabled() else _untimed
    stacked_from = stacked = None
    for n in range(steps):
        operators = [
            engine._kinetic.operators(engine.vector_potential()) for engine in engines
        ]
        if all(ops is operators[0] for ops in operators):
            step_operators = operators[0]
        else:
            # Rebuilt only when some domain's A moved (once per DC-MESH exchange).
            if stacked_from is None or any(
                    a is not b for a, b in zip(operators, stacked_from)):
                stacked = tuple(np.stack(axis)[:, None] for axis in zip(*operators))
                stacked_from = operators
            step_operators = stacked
        phases = [h.half_step_phase(dt) for h in hamiltonians]
        with measure("v_loc_prop"):
            for block, phase in zip(psi, phases):
                block *= phase
        with measure("kin_prop"):
            apply_kinetic_operators(psi, step_operators, psi)
        with measure("v_loc_prop"):
            for block, phase in zip(psi, phases):
                block *= phase
        for block, engine in zip(psi, engines):
            if engine.scissors is not None:
                with measure("nlp_prop"):
                    engine.scissors.apply(engine.wavefunctions)
            projectors = engine.hamiltonian.nonlocal_pseudopotential
            if projectors is not None:
                with measure("vnl_prop"):
                    block[...] = projectors.propagate(block, dt)
            engine._time += dt
        if (n + 1) % every == 0:
            with measure("hartree_xc"):
                weights = np.stack([
                    engine.occupations.electrons_per_orbital() for engine in engines
                ])
                density = np.einsum("ds,dsxyz->dxyz", weights, np.abs(psi) ** 2)
                update_potentials_stacked(hamiltonians, density)
        for engine in engines:
            if engine.occupation_decoherence_rate > 0.0:
                engine._update_occupations()


@dataclass
class RealTimeTDDFT:
    """Real-time propagation driver for one DC domain.

    Parameters
    ----------
    hamiltonian:
        The local Hamiltonian assembly (owns v_ext, v_H, v_xc and the optional
        nonlocal pseudopotential).
    wavefunctions:
        The orbital block to propagate (modified in place).
    occupations:
        Occupation-number state of the domain.
    dt:
        QD time step in atomic units (~1 attosecond).
    scissors:
        Optional :class:`NonlocalCorrection`; when given it is applied
        perturbatively every QD step (the GEMMified hotspot).
    field_callback:
        ``field_callback(time) -> (3,) vector potential`` sampled at the
        domain anchor; ``None`` means field-free propagation.
    update_potentials_every:
        Recompute Hartree/xc from the propagated density every this many
        steps (1 = fully self-consistent; larger values model the shadow-
        dynamics amortisation of expensive updates).
    occupation_decoherence_rate:
        Optional rate (1/a.u. time) at which orbital populations relax toward
        their instantaneous projection on the reference orbitals; this is the
        lightweight proxy for the perturbative surface-hopping occupation
        update U_SH of Eq. (2) during the Ehrenfest segment.
    workspace:
        Optional :class:`~repro.perf.workspace.KernelWorkspace` forwarded to
        the kinetic propagator, letting a batch of engines share one cache of
        per-axis kinetic operators; ``None`` uses the process-wide default
        workspace.
    """

    hamiltonian: LocalHamiltonian
    wavefunctions: WaveFunctions
    occupations: OccupationState
    dt: float
    scissors: Optional[NonlocalCorrection] = None
    field_callback: Optional[Callable[[float], np.ndarray]] = None
    update_potentials_every: int = 1
    occupation_decoherence_rate: float = 0.0
    workspace: Optional[KernelWorkspace] = None

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.update_potentials_every < 1:
            raise ValueError("update_potentials_every must be >= 1")
        self._time = 0.0
        self._kinetic = KineticPropagator(
            self.wavefunctions.grid, self.dt, workspace=self.workspace
        )
        # Conjugated once: the occupation update projects on it every step.
        self._reference_conj = self.wavefunctions.as_matrix().conj()
        # Make sure the potentials are consistent with the initial density.
        self.hamiltonian.update_potentials(
            self.wavefunctions.density(self.occupations.electrons_per_orbital())
        )

    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        return self._time

    def vector_potential(self) -> Optional[np.ndarray]:
        """The vector potential sampled at the current time (None = field-free)."""
        if self.field_callback is None:
            return None
        return np.asarray(self.field_callback(self._time), dtype=float).reshape(3)

    # ------------------------------------------------------------------
    def step(self, steps: int = 1) -> None:
        """Advance the electronic state by ``steps`` QD steps."""
        propagate_domains([self], self.wavefunctions.psi[None], steps)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the mutable electronic state (JSON-able via
        :func:`repro.api.result._plain`).

        Covers everything :meth:`step` mutates: the propagated orbitals, the
        occupations, the density-dependent potentials and the clock.  The
        reference orbitals, the kinetic propagator and the occupation baseline
        are reconstructed deterministically by the owning builder, so they are
        deliberately not part of the snapshot.
        """
        return {
            "time": float(self._time),
            "psi": self.wavefunctions.psi.copy(),
            "occupations": self.occupations.occupations.copy(),
            "potentials": self.hamiltonian.potentials_state(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`: restore a snapshot in place."""
        psi = np.asarray(state["psi"], dtype=np.complex128)
        if psi.shape != self.wavefunctions.psi.shape:
            raise ValueError(
                f"checkpointed psi has shape {psi.shape}, "
                f"expected {self.wavefunctions.psi.shape}"
            )
        self.wavefunctions.psi[...] = psi
        self.occupations.set_occupations(
            np.asarray(state["occupations"], dtype=float)
        )
        self.hamiltonian.load_potentials_state(state["potentials"])
        self._time = float(state["time"])

    def _update_occupations(self) -> None:
        """Perturbative occupation update from projections on the reference.

        The population that has left the initially-occupied reference subspace
        is interpreted as photo-excited charge; occupations relax toward those
        projections at the configured rate, mimicking the U_SH occupation
        update of Eq. (2) without the stochastic hop (the stochastic FSSH
        machinery lives in :mod:`repro.naqmd.surface_hopping`).
        """
        overlap = np.einsum(
            "gi,gi->i", self._reference_conj, self.wavefunctions.as_matrix()
        ) * self.wavefunctions.grid.dv
        survival = (np.abs(overlap) ** 2).clip(0.0, 1.0)
        target = self.occupations._initial * survival
        rate = min(1.0, self.occupation_decoherence_rate * self.dt)
        new_occ = (1.0 - rate) * self.occupations.occupations + rate * target
        self.occupations.set_occupations(new_occ.clip(0.0, 1.0))

    # ------------------------------------------------------------------
    def run(self, num_steps: int, record_every: int = 1) -> TDDFTResult:
        """Propagate ``num_steps`` QD steps, recording observables."""
        validate_run_args(num_steps, record_every)
        times: List[float] = []
        dipoles: List[np.ndarray] = []
        currents: List[np.ndarray] = []
        energies: List[float] = []
        excitations: List[float] = []
        norms: List[np.ndarray] = []

        def record() -> None:
            weights = self.occupations.electrons_per_orbital()
            density = self.wavefunctions.density(weights)
            a_vec = self.vector_potential()
            times.append(self._time)
            dipoles.append(self.hamiltonian.dipole_moment(density))
            currents.append(
                self.hamiltonian.current_density_average(
                    self.wavefunctions.psi, weights, a_vec
                )
            )
            energies.append(
                self.hamiltonian.total_energy(self.wavefunctions.psi, weights, a_vec)
            )
            excitations.append(self.occupations.excitation_number())
            norms.append(self.wavefunctions.norms())

        record()
        for n in range(num_steps):
            self.step(1)
            if (n + 1) % record_every == 0:
                record()
        return TDDFTResult(
            times=np.asarray(times),
            dipole=np.asarray(dipoles),
            current=np.asarray(currents),
            total_energy=np.asarray(energies),
            excitation=np.asarray(excitations),
            norms=np.asarray(norms),
        )
