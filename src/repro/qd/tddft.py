"""Real-time TDDFT propagation: the per-domain LFD engine.

One quantum-dynamics (QD) step of the paper's Eq. (2) is realised as a
Suzuki-Trotter split-operator sweep,

    psi <- exp(-i dt/2 v_loc) exp(-i dt T(A)) exp(-i dt/2 v_loc) psi,

followed by the perturbative nonlocal correction (the scissors correction of
``nlp_prop``), and finally a self-consistent update of the Hartree/xc
potentials from the new density.  The vector potential A is constant across
the domain (it is sampled at the domain anchor X_alpha by the Maxwell
coupler) and is refreshed every QD step, while the atomic positions — and
hence v_ext — are refreshed only once per MD step by the QXMD side (the
shadow-dynamics split of Sec. V.A.3-4).

The step is one kernel over a leading domain axis
(:func:`propagate_domains`): a lone :class:`RealTimeTDDFT` calls it with one
domain, and DC-MESH calls it once per exchange for all of its domains, whose
orbitals it holds as one ``(D, n_orb, nx, ny, nz)`` array.  No kernel of the
step runs an FFT or loops over domains unless a domain carries its own
correction: the kinetic step applies cached per-axis operators, the Hartree
solve per-axis Hartley matrices, the local half-step phase is rebuilt only
when v_loc changes, and the occupations of all domains relax in one update.
While telemetry is on, each call splits its time by kernel into the
``repro_qd_<kernel>_seconds`` histograms.

The engine steps and exposes its state; what a run records (dipole moment,
cell-averaged current, excitation number, total energy, orbital norms) is
defined once, by the ``tddft`` adapter's ``observe()`` in
:mod:`repro.api.adapters`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional, Sequence

import numpy as np

from repro.grid.grid3d import apply_separable
from repro.perf.workspace import KernelWorkspace
from repro.qd.hamiltonian import LocalHamiltonian, update_potentials_stacked
from repro.qd.kin_prop import KineticPropagator
from repro.qd.nlp_prop import NonlocalCorrection
from repro.qd.occupations import OccupationState
from repro.qd.wavefunctions import WaveFunctions
from repro.telemetry import metrics as _telemetry

#: The kernels a QD step is split into, each timed into
#: ``repro_qd_<kernel>_seconds`` while telemetry is on.
QD_KERNELS = ("v_loc_prop", "kin_prop", "nlp_prop", "hartree_xc",
              "occupations")


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


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """One array shared by every domain as is, else their ``(D, 1, ...)``
    stack (one slice per domain, broadcast over its orbitals)."""
    first = arrays[0]
    if all(array is first for array in arrays):
        return first
    return np.stack(arrays)[:, None]


def relax_occupations(occupations: np.ndarray, reference: np.ndarray,
                      orbitals: np.ndarray, initial: np.ndarray,
                      rates: np.ndarray, dv: float) -> np.ndarray:
    """One perturbative occupation update of D domains, as one kernel.

    The population that has left the initially occupied reference subspace
    is photo-excited charge: each domain's ``(n_orb,)`` occupations relax
    toward ``initial * |<reference_s|psi_s>|^2`` at its rate (the U_SH
    update of Eq. 2 without the stochastic hop, which lives in
    :mod:`repro.naqmd.surface_hopping`).  ``occupations`` and ``initial``
    are ``(D, n_orb)``, ``reference`` (conjugated) and ``orbitals`` are
    ``(D, n_orb, n_grid)`` and ``rates`` is ``(D, 1)``.  Returns the new
    occupations, clipped to [0, 1]; an update that leaves that range by more
    than 1e-9 (or is not finite) raises ``ValueError``.  Every operation acts
    per row, so each domain's update is bit-identical to its update alone.
    """
    survival = np.abs(np.einsum("dsg,dsg->ds", reference, orbitals) * dv)
    survival *= survival
    np.minimum(survival, 1.0, out=survival)  # a squared modulus: never < 0
    relaxed = (1.0 - rates) * occupations + rates * (initial * survival)
    if not (relaxed.min() >= -1e-9 and relaxed.max() <= 1.0 + 1e-9):
        raise ValueError("occupations must lie in [0, 1]")
    return relaxed.clip(0.0, 1.0)


def propagate_domains(engines: Sequence["RealTimeTDDFT"], psi: np.ndarray,
                      steps: int) -> None:
    """Advance D same-shape domains by ``steps`` QD steps as one kernel.

    ``psi`` is the C-contiguous ``(D, n_orb, nx, ny, nz)`` orbital stack whose
    slice ``d`` is ``engines[d].wavefunctions.psi``; it is updated in place.
    The engines must share grid, orbital count, ``dt`` and
    ``update_potentials_every``; their fields, potentials, occupations and
    scissors stay their own.  Each step:

    1. ``exp(-i dt/2 v_loc)`` for the whole stack: one multiply by the
       ``(D, 1, nx, ny, nz)`` stack of the domains' cached phases, restacked
       only after v_loc changed;
    2. the kinetic step for the whole stack: three matrix products with the
       per-axis operators of each domain's A (a ``(D, 1, n, n)`` stack on the
       axes where the domains' A differ), looked up only when some domain's
       A moved;
    3. the second local half step, then each domain's scissors correction,
       applied domain by domain;
    4. every ``update_potentials_every`` steps, the Hartree/xc update of all
       domains in one spectral solve and one LDA sweep;
    5. the occupation relaxation of all domains: one overlap with the
       reference orbitals and one clip over the ``(D, n_orb)`` occupations.

    Every stacked operation acts on each slice independently, so a stacked
    call is bit-identical to one call per domain.  Whether the
    :data:`QD_KERNELS` are timed is decided once per call, by
    :func:`repro.telemetry.enabled`; timing never touches the orbitals.
    """
    dt = engines[0].dt
    every = engines[0].update_potentials_every
    hamiltonians = [engine.hamiltonian for engine in engines]
    measure = _KernelTimer() if _telemetry.enabled() else _untimed
    corrected = [engine for engine in engines if engine.scissors is not None]
    states = [engine.occupations for engine in engines]
    occupations = np.stack([state.occupations for state in states])
    spin = np.array([state.spin_degeneracy for state in states])[:, None]
    relaxing = [d for d, engine in enumerate(engines)
                if engine.occupation_decoherence_rate > 0.0]
    if relaxing:
        reference = np.stack([engine._reference_conj for engine in engines])
        initial = np.stack([state._initial for state in states])
        rates = np.array([
            min(1.0, engine.occupation_decoherence_rate * dt) for engine in engines
        ])[:, None]
        orbitals = psi.reshape(*reference.shape)
        dv = engines[0].wavefunctions.grid.dv
    operators_from = step_operators = phase = None
    for n in range(steps):
        operators = [engine._kinetic_operators() for engine in engines]
        if operators_from is None or any(
                a is not b for a, b in zip(operators, operators_from)):
            step_operators = tuple(_stack(axis) for axis in zip(*operators))
            operators_from = operators
        if phase is None:
            phase = _stack([h.half_step_phase(dt) for h in hamiltonians])
        with measure("v_loc_prop"):
            psi *= phase
        with measure("kin_prop"):
            apply_separable(psi, step_operators, psi)
        with measure("v_loc_prop"):
            psi *= phase
        for engine in corrected:
            with measure("nlp_prop"):
                engine.scissors.apply(engine.wavefunctions)
        for engine in engines:
            engine._time += dt
        if (n + 1) % every == 0:
            with measure("hartree_xc"):
                density = np.einsum("ds,dsxyz->dxyz", spin * occupations,
                                    np.abs(psi) ** 2)
                update_potentials_stacked(hamiltonians, density)
            phase = None
        if relaxing:
            with measure("occupations"):
                occupations = relax_occupations(
                    occupations, reference, orbitals, initial, rates, dv)
    for d in relaxing:
        states[d].occupations = occupations[d]


@dataclass
class RealTimeTDDFT:
    """Real-time propagation driver for one DC domain.

    Parameters
    ----------
    hamiltonian:
        The local Hamiltonian assembly (owns v_ext, v_H and v_xc).
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
        # Conjugated once, as ``(n_orb, n_grid)``: the occupation update
        # projects on it every step.
        self._reference_conj = self.wavefunctions.psi.reshape(
            self.wavefunctions.n_orbitals, -1).conj()
        self._operators = self._operators_field = None
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

    def _kinetic_operators(self):
        """The per-axis kinetic operators of the current A; the workspace is
        asked only when A moved since the last call, and the same tuple is
        returned while it has not."""
        a_vec = self.vector_potential()
        field = None if a_vec is None else tuple(a_vec.tolist())
        if self._operators is None or field != self._operators_field:
            self._operators = self._kinetic.operators(a_vec)
            self._operators_field = field
        return self._operators

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
