"""DC-MESH: the divide-and-conquer Maxwell-Ehrenfest-surface-hopping driver.

This is the paper's headline module (Fig. 1 and Fig. 2b): a set of per-domain
LFD engines (real-time TDDFT, GPU side in the paper), coupled

* *upward* to the macroscopic Maxwell solver — each domain samples the vector
  potential at its anchor X_alpha and returns its cell-averaged current, and
* *downward* to XS-NNQMD — at the end of the run the per-domain photo-
  excitation numbers n_exc^(alpha) are gathered once (the paper stresses this
  single MPI gather) and handed to the excited-state force mixer.

The electronic sub-cycling is organised exactly like Eq. (2): the Maxwell
field and the atomic positions are frozen over N_QD electronic steps, then the
field is advanced with the accumulated current and the surface-hopping /
occupation bookkeeping runs at the boundary.

The domains do not interact between exchanges, so they are advanced together:
their orbitals live in one ``(D, n_orb, nx, ny, nz)`` array (each engine's
``wavefunctions.psi`` is a view of its slice) and every exchange makes one
:func:`~repro.qd.tddft.propagate_domains` call for all D domains — one set of
kinetic matrix products with per-domain ``(D, 1, n, n)`` operators, one
spectral Hartree/xc solve, one occupation update per QD step, and one current
evaluation per exchange, none of them with an FFT.  The result is
bit-identical to stepping the domains one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.maxwell.coupling import MaxwellCoupler
from repro.maxwell.pulses import LaserPulse
from repro.qd.tddft import RealTimeTDDFT, propagate_domains


@dataclass
class DCMESHSimulation:
    """Coupled multi-domain Maxwell + TDDFT (+ occupation dynamics) simulation.

    Parameters
    ----------
    domain_engines:
        One :class:`RealTimeTDDFT` per DC domain (each owns its orbitals,
        occupations and local Hamiltonian).
    coupler:
        Maps domains onto the macroscopic Maxwell grid.
    pulse:
        The incident laser pulse, injected at the entry of the macroscopic
        window; its polarisation direction defines the transverse axis the
        scalar macroscopic A refers to.
    qd_steps_per_exchange:
        Number of electronic QD steps between Maxwell field exchanges (the
        N_QD amortisation of Eq. 2).
    """

    domain_engines: List[RealTimeTDDFT]
    coupler: MaxwellCoupler
    pulse: LaserPulse
    qd_steps_per_exchange: int = 10

    def __post_init__(self) -> None:
        if not self.domain_engines:
            raise ValueError("need at least one domain engine")
        if self.coupler.num_domains != len(self.domain_engines):
            raise ValueError(
                "coupler domain count does not match the number of engines"
            )
        if self.qd_steps_per_exchange < 1:
            raise ValueError("qd_steps_per_exchange must be >= 1")
        dts = {engine.dt for engine in self.domain_engines}
        if len(dts) != 1:
            raise ValueError("all domain engines must share the same QD time step")
        self._qd_dt = dts.pop()
        first = self.domain_engines[0]
        for engine in self.domain_engines[1:]:
            if (engine.wavefunctions.grid != first.wavefunctions.grid
                    or engine.wavefunctions.psi.shape != first.wavefunctions.psi.shape
                    or engine.update_potentials_every
                    != first.update_potentials_every):
                raise ValueError(
                    "all domain engines must share one grid, orbital count "
                    "and update_potentials_every"
                )
        # The Maxwell step spans one exchange period.
        expected_maxwell_dt = self._qd_dt * self.qd_steps_per_exchange
        if abs(self.coupler.solver.dt - expected_maxwell_dt) > 1e-9:
            raise ValueError(
                "Maxwell solver dt must equal qd_dt * qd_steps_per_exchange "
                f"({expected_maxwell_dt:.6f}), got {self.coupler.solver.dt:.6f}"
            )
        self._source = self.coupler.solver.inject_pulse(self.pulse)
        self._polarization = np.asarray(self.pulse.polarization, dtype=float)
        self._sampled_a = np.zeros(self.coupler.num_domains)
        self._stack: Optional[np.ndarray] = None
        self._stack_views: tuple = ()
        # Wire each engine's field callback to its sampled macroscopic A value.
        for i, engine in enumerate(self.domain_engines):
            engine.field_callback = self._make_field_callback(i)

    def _make_field_callback(self, domain_index: int):
        def callback(_time: float) -> np.ndarray:
            return self._sampled_a[domain_index] * self._polarization

        return callback

    # ------------------------------------------------------------------
    @property
    def num_domains(self) -> int:
        return len(self.domain_engines)

    @property
    def sampled_vector_potential(self) -> np.ndarray:
        """The most recently sampled A(X_alpha) per domain."""
        return self._sampled_a.copy()

    def gather_excitations(self) -> np.ndarray:
        """The per-domain photo-excitation numbers n_exc^(alpha).

        In the production code this is the single MPI gather executed at the
        end of DC-MESH; here it is a plain array copy with the same semantics.
        """
        return np.array(
            [engine.occupations.excitation_number() for engine in self.domain_engines]
        )

    def _orbital_stack(self) -> np.ndarray:
        """The ``(D, n_orb, nx, ny, nz)`` array holding every domain's orbitals.

        Built on first use and rebuilt whenever some engine's ``psi`` is no
        longer its view (another simulation stacked the same engines, or a
        caller rebound it); each engine's ``wavefunctions.psi`` is then
        rebound to its slice.
        """
        engines = self.domain_engines
        if len(self._stack_views) != len(engines) or any(
                engine.wavefunctions.psi is not view
                for engine, view in zip(engines, self._stack_views)):
            self._stack = np.stack([engine.wavefunctions.psi for engine in engines])
            self._stack_views = tuple(self._stack)
            for engine, view in zip(engines, self._stack_views):
                engine.wavefunctions.psi = view
        return self._stack

    def domain_currents(self) -> np.ndarray:
        """Polarisation-projected cell-averaged current per domain."""
        engines = self.domain_engines
        j_vecs = engines[0].hamiltonian.current_density_average(
            self._orbital_stack(),
            np.stack([engine.occupations.electrons_per_orbital() for engine in engines]),
            self._sampled_a[:, None] * self._polarization,
        )
        return np.array([np.dot(j_vec, self._polarization) for j_vec in j_vecs])

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable multi-domain state: Maxwell fields, sampled A, all domains."""
        return {
            "solver": self.coupler.solver.state_dict(),
            "sampled_a": self._sampled_a.copy(),
            "domains": [engine.state_dict() for engine in self.domain_engines],
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`: restore a snapshot in place."""
        domains = state["domains"]
        if len(domains) != self.num_domains:
            raise ValueError(
                f"checkpoint has {len(domains)} domain states, "
                f"expected {self.num_domains}"
            )
        sampled_a = np.asarray(state["sampled_a"], dtype=float)
        if sampled_a.shape != (self.num_domains,):
            raise ValueError("checkpointed sampled_a does not match the domain count")
        self.coupler.solver.load_state_dict(state["solver"])
        self._sampled_a = sampled_a
        for engine, domain_state in zip(self.domain_engines, domains):
            engine.load_state_dict(domain_state)

    def step_exchange(self) -> np.ndarray:
        """Advance one Maxwell<->TDDFT exchange cycle (Eq. 2 outer step).

        Runs ``qd_steps_per_exchange`` electronic QD steps in every domain
        under the frozen field, deposits the resulting currents on the
        macroscopic grid, advances the Maxwell solver, and resamples the
        vector potential at the domain anchors.  Returns the new per-domain
        A(X_alpha) values.
        """
        propagate_domains(self.domain_engines, self._orbital_stack(),
                          self.qd_steps_per_exchange)
        self._sampled_a = self.coupler.step(
            self.domain_currents(), boundary_source=self._source
        )
        return self._sampled_a
