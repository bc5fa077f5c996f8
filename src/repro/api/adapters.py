"""Engine adapters: one :class:`~repro.api.engine.EngineAdapter` per subsystem.

Each adapter knows how to *construct* its simulation engine from a
:class:`~repro.api.spec.ScenarioSpec` and how to *drive* it through the
unified ``prepare / step / observe / checkpoint / restore / result``
protocol.  Engines step; adapters record.  An engine exposes only its step
(``step`` / ``advance`` / ``step_exchange``), its ``state_dict()`` /
``load_state_dict()`` pair and the quantities an observation reads; the
adapter's :meth:`observe` is the one definition of what a run of its kind
records, and the checkpoint state round-trip delegates to the engine's
state pair.  State that a fresh
``_build`` reconstructs deterministically from the spec (SCF ground states,
reference orbitals, occupation baselines, couplers) is deliberately *not*
checkpointed — only what stepping mutates, including every RNG stream, so a
restored session continues bit-identically.

Seeding convention: every adapter draws its RNGs from ``spec.rngs(4)``
(:func:`repro.utils.rng.spawn_rngs` under the hood) with fixed stream roles —

    stream 0   initial-condition noise (thermal velocities, texture noise)
    stream 1   dynamical noise (thermostats, Langevin kicks, mode noise)
    stream 2   stochastic algorithms (surface hopping)
    stream 3   reserved

so two runs of the same spec are bit-identical and adding a consumer never
perturbs the streams of existing ones.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Type

import numpy as np

from repro.api.engine import EngineAdapter
from repro.api.spec import ENGINE_KINDS, ScenarioSpec
from repro.perf.workspace import KernelWorkspace


def _ground_state(spec: ScenarioSpec, grid, v_ext, metadata: Dict[str, Any],
                  workspace: KernelWorkspace):
    """Shared SCF preparation for the quantum-dynamics adapters; records how
    the SCF went (``scf_*``) in the run's ``metadata``.

    The converged ground state is cached in ``workspace``, keyed on what the
    solve reads: the grid, ``v_ext`` (so MESH's force-field potential and the
    Gaussian wells of TDDFT/DC-MESH need no per-engine canonical form) and
    the solver settings.  ``seed`` and ``pulse`` are not read, so a sweep
    over them solves once.  Hit and miss both hand out copies of the cached
    entry, which makes them bit-identical by construction.
    """
    from repro.qd import LocalHamiltonian
    from repro.scf import KohnShamSolver

    material = spec.material
    hamiltonian = LocalHamiltonian(grid, v_ext)
    solver = KohnShamSolver(
        hamiltonian,
        n_electrons=material.n_electrons,
        n_orbitals=material.n_orbitals,
        max_iterations=material.scf_max_iterations,
        tolerance=material.scf_tolerance,
    )

    def solve():
        # Electrons pile up where the wells are deep: a density shaped like
        # v_ext^2 starts the SCF 2-3 iterations closer than a uniform one.
        # (A flat potential has no shape to offer; the solver then starts
        # uniform.)  The LOBPCG path seeds its own RNG.
        guess = v_ext ** 2
        weight = grid.integrate(guess)
        scf = solver.run(
            guess * (material.n_electrons / weight) if weight > 0.0 else None)
        potentials = hamiltonian.potentials_state()
        for array in potentials.values():
            array.setflags(write=False)
        return scf.copy(writeable=False), potentials

    key = (grid.shape, grid.lengths, hamiltonian.external_potential.tobytes(),
           solver.n_electrons, solver.n_orbitals, solver.max_iterations,
           solver.tolerance, solver.mixing, solver.eigensolver_method)
    (cached, potentials), hit = workspace.ground_state(key, solve)
    # load_potentials_state keeps what it is given: copy, or the engine's
    # potential updates would write into the cache.
    hamiltonian.load_potentials_state(
        {name: array.copy() for name, array in potentials.items()})
    scf = cached.copy()
    metadata["scf_cache"] = "hit" if hit else "miss"
    metadata["scf_converged"] = bool(scf.converged)
    metadata["scf_iterations"] = int(scf.iterations)
    metadata["scf_residual"] = (
        float(scf.density_residuals[-1]) if scf.density_residuals else None
    )
    metadata["scf_mixer_restarts"] = int(scf.mixer_restarts)
    return hamiltonian, scf


def _field_callback(pulse):
    if pulse is None:
        return None
    return lambda t: pulse.vector_potential(t).reshape(3)


class TDDFTEngine(EngineAdapter):
    """Real-time TDDFT on one DC domain (:class:`repro.qd.tddft.RealTimeTDDFT`)."""

    kind = "tddft"

    def _build(self) -> None:
        from repro.qd import NonlocalCorrection, OccupationState, RealTimeTDDFT
        from repro.qd.hamiltonian import gaussian_external_potential

        spec = self.spec
        material = spec.material
        prop = spec.propagator
        grid = spec.grid.build()
        v_ext = gaussian_external_potential(
            grid, material.centers, material.depths, material.widths
        )
        hamiltonian, scf = _ground_state(
            spec, grid, v_ext, self._metadata, self.workspace)
        scissors = None
        if prop.scissors_shift > 0.0:
            scissors = NonlocalCorrection(
                scf.wavefunctions.copy(), shift=prop.scissors_shift, dt=prop.dt
            )
        self.engine = RealTimeTDDFT(
            hamiltonian,
            scf.wavefunctions.copy(),
            OccupationState.ground_state(material.n_orbitals, material.n_electrons),
            dt=prop.dt,
            scissors=scissors,
            field_callback=_field_callback(spec.pulse.build()),
            update_potentials_every=prop.update_potentials_every,
            occupation_decoherence_rate=prop.occupation_decoherence_rate,
            workspace=self.workspace,
        )
        self._metadata["homo_lumo_gap"] = float(scf.homo_lumo_gap)

    def _advance(self, num_steps: int) -> None:
        self.engine.step(num_steps)

    @property
    def time(self) -> float:
        return self.engine.time

    def observe(self) -> Dict[str, Any]:
        self.prepare()
        engine = self.engine
        weights = engine.occupations.electrons_per_orbital()
        density = engine.wavefunctions.density(weights)
        a_vec = engine.vector_potential()
        return {
            "dipole": engine.hamiltonian.dipole_moment(density),
            "current": engine.hamiltonian.current_density_average(
                engine.wavefunctions.psi, weights, a_vec
            ),
            "total_energy": engine.hamiltonian.total_energy(
                engine.wavefunctions.psi, weights, a_vec
            ),
            "excitation": engine.occupations.excitation_number(),
            "norms": engine.wavefunctions.norms(),
        }

    def _state(self) -> Dict[str, Any]:
        return self.engine.state_dict()

    def _load_state(self, state: Dict[str, Any]) -> None:
        self.engine.load_state_dict(state)


class DCMESHEngine(EngineAdapter):
    """Multi-domain Maxwell+TDDFT (:class:`repro.dc.dcmesh.DCMESHSimulation`).

    One protocol step is one Maxwell<->TDDFT exchange cycle
    (``qd_steps_per_exchange`` electronic steps per domain plus one Maxwell
    step).
    """

    kind = "dcmesh"

    def _build(self) -> None:
        from repro.dc import DCMESHSimulation
        from repro.maxwell import Maxwell1D, MaxwellCoupler
        from repro.qd import OccupationState, RealTimeTDDFT
        from repro.qd.hamiltonian import gaussian_external_potential
        from repro.units import SPEED_OF_LIGHT_AU

        spec = self.spec
        prop = spec.propagator
        material = spec.material
        pulse = spec.pulse.build()
        if pulse is None:
            raise ValueError("the dcmesh engine requires pulse.kind != 'none'")
        maxwell_dt = prop.dt * prop.qd_steps_per_exchange
        dx = SPEED_OF_LIGHT_AU * maxwell_dt / prop.maxwell_courant
        solver = Maxwell1D(num_points=prop.maxwell_points, dx=dx, dt=maxwell_dt)
        window = (prop.maxwell_points - 1) * dx
        positions = [
            (i + 1) * window / (prop.num_domains + 1)
            for i in range(prop.num_domains)
        ]
        coupler = MaxwellCoupler(solver, positions)

        # All domains share the same model material: solve the ground state
        # once and give every domain its own copy of the orbitals/potentials.
        grid = spec.grid.build()
        v_ext = gaussian_external_potential(
            grid, material.centers, material.depths, material.widths
        )
        _, scf = _ground_state(
            spec, grid, v_ext, self._metadata, self.workspace)
        from repro.qd import LocalHamiltonian

        engines = []
        for _ in range(prop.num_domains):
            engines.append(
                RealTimeTDDFT(
                    LocalHamiltonian(grid, v_ext),
                    scf.wavefunctions.copy(),
                    OccupationState.ground_state(
                        material.n_orbitals, material.n_electrons
                    ),
                    dt=prop.dt,
                    update_potentials_every=prop.update_potentials_every,
                    occupation_decoherence_rate=prop.occupation_decoherence_rate,
                    workspace=self.workspace,
                )
            )
        self.simulation = DCMESHSimulation(
            engines, coupler, pulse,
            qd_steps_per_exchange=prop.qd_steps_per_exchange,
        )
        self._metadata["num_domains"] = prop.num_domains
        self._metadata["maxwell_dt"] = float(maxwell_dt)

    def _advance(self, num_steps: int) -> None:
        for _ in range(num_steps):
            self.simulation.step_exchange()

    @property
    def time(self) -> float:
        return self.simulation.coupler.solver.time

    def observe(self) -> Dict[str, Any]:
        self.prepare()
        sim = self.simulation
        return {
            "vector_potential": sim.sampled_vector_potential,
            "domain_currents": sim.domain_currents(),
            "domain_excitations": sim.gather_excitations(),
        }

    def _state(self) -> Dict[str, Any]:
        return self.simulation.state_dict()

    def _load_state(self, state: Dict[str, Any]) -> None:
        self.simulation.load_state_dict(state)


class MESHEngine(EngineAdapter):
    """Single-domain Maxwell-Ehrenfest-surface-hopping MD
    (:class:`repro.naqmd.mesh.MESHIntegrator`); one protocol step is one MD
    step of ``qd_substeps`` electronic sub-steps."""

    kind = "mesh"

    def _build(self) -> None:
        from repro.naqmd.ehrenfest import EhrenfestForces
        from repro.naqmd.surface_hopping import SurfaceHopping
        from repro.naqmd.mesh import MESHIntegrator
        from repro.qd import OccupationState, RealTimeTDDFT

        spec = self.spec
        material = spec.material
        prop = spec.propagator
        _, _, rng_hop, _ = spec.rngs(4)
        grid = spec.grid.build()
        forces = EhrenfestForces(
            grid,
            depths=material.depths,
            widths=material.widths,
            charges=material.ion_charges,
        )
        positions = np.asarray(material.centers, dtype=float)
        v_ext = forces.external_potential(positions)
        hamiltonian, scf = _ground_state(
            spec, grid, v_ext, self._metadata, self.workspace)
        tddft = RealTimeTDDFT(
            hamiltonian,
            scf.wavefunctions.copy(),
            OccupationState.ground_state(material.n_orbitals, material.n_electrons),
            dt=prop.dt,
            field_callback=_field_callback(spec.pulse.build()),
            update_potentials_every=prop.update_potentials_every,
            occupation_decoherence_rate=prop.occupation_decoherence_rate,
            workspace=self.workspace,
        )
        hopping = None
        if prop.surface_hopping:
            active = max(int(np.ceil(material.n_electrons / 2.0)) - 1, 0)
            hopping = SurfaceHopping(
                energies=scf.eigenvalues, active_state=active, rng=rng_hop
            )
        self.integrator = MESHIntegrator(
            tddft=tddft,
            forces=forces,
            positions=positions,
            velocities=np.zeros_like(positions),
            masses=np.asarray(material.ion_masses, dtype=float),
            md_dt=prop.dt * prop.qd_substeps,
            qd_substeps=prop.qd_substeps,
            surface_hopping=hopping,
        )
        self._metadata["surface_hopping"] = bool(prop.surface_hopping)

    def _advance(self, num_steps: int) -> None:
        for _ in range(num_steps):
            self.integrator.advance()

    @property
    def time(self) -> float:
        return self.integrator.time

    def observe(self) -> Dict[str, Any]:
        self.prepare()
        integrator = self.integrator
        return {
            "positions": integrator.positions,
            "kinetic_energy": integrator.kinetic_energy(),
            "total_energy": integrator.total_energy(),
            "excitation": integrator.tddft.occupations.excitation_number(),
        }

    def _state(self) -> Dict[str, Any]:
        return self.integrator.state_dict()

    def _load_state(self, state: Dict[str, Any]) -> None:
        self.integrator.load_state_dict(state)


class MDEngine(EngineAdapter):
    """Classical MD on an FCC crystal (:class:`repro.md.integrators`).

    ``propagator.thermostat`` selects velocity Verlet (``'none'``) or the
    Langevin integrator (``'langevin'``); time is in femtoseconds.
    """

    kind = "md"

    def _build(self) -> None:
        from repro.md.atoms import AtomsSystem
        from repro.md.forcefields import LennardJones
        from repro.md.integrators import LangevinIntegrator, VelocityVerlet

        spec = self.spec
        material = spec.material
        prop = spec.propagator
        rng_init, rng_dyn, _, _ = spec.rngs(4)
        a = material.lattice_constant
        base = np.array(
            [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
        ) * a
        unit = AtomsSystem(
            base, np.array([material.species] * 4, dtype=object), np.array([a] * 3)
        )
        self.atoms = unit.replicate(material.repeats)
        if prop.temperature_k > 0:
            self.atoms.set_temperature(prop.temperature_k, rng_init)
        force_field = LennardJones()
        if prop.thermostat == "langevin":
            self.integrator = LangevinIntegrator(
                force_field, prop.dt,
                temperature_k=prop.temperature_k,
                friction=prop.friction,
                rng=rng_dyn,
            )
        else:
            self.integrator = VelocityVerlet(force_field, prop.dt)
        self._metadata["n_atoms"] = int(self.atoms.n_atoms)
        self._metadata["thermostat"] = prop.thermostat

    def _advance(self, num_steps: int) -> None:
        self.integrator.step(self.atoms, num_steps)

    @property
    def time(self) -> float:
        return self.integrator.time

    def observe(self) -> Dict[str, Any]:
        self.prepare()
        # The step's own force-field call left this energy behind; before
        # the first step, evaluating it also caches the forces that step uses.
        energy = self.integrator.potential_energy(self.atoms)
        kinetic = self.atoms.kinetic_energy()
        return {
            "potential_energy": energy,
            "kinetic_energy": kinetic,
            "total_energy": energy + kinetic,
            "temperature": self.atoms.temperature(),
        }

    def _state(self) -> Dict[str, Any]:
        return self.integrator.state_dict(self.atoms)

    def _load_state(self, state: Dict[str, Any]) -> None:
        self.integrator.load_state_dict(self.atoms, state)


class _LatticeAdapter(EngineAdapter):
    """What the two :class:`~repro.md.localmode.LocalModeLattice` adapters
    share (time in femtoseconds): preparation, stepping and observation.

    ``_build`` is :meth:`_build_texture` (sets ``lattice`` and ``_rng``), the
    ground-state relax and :meth:`_finish_build` (sets ``_time_fs`` and
    ``_weight``, the next step's excitation weight).  The lockstep batch
    runs the same pieces with the relax stacked, steps the lattices stacked
    calling the same :meth:`_tick`, and observes them through the same
    :meth:`observe_stacked` — so batched and serial runs are one code.
    """

    def _build(self) -> None:
        self._build_texture()
        self.lattice.relax(**self.relaxation())
        self._finish_build()

    @abc.abstractmethod
    def _build_texture(self) -> None:
        """Build the unrelaxed texture: set ``lattice`` and ``_rng``."""

    def _finish_build(self) -> None:
        """Bookkeeping once the texture is relaxed: start the clock."""
        self._time_fs = 0.0
        self._weight = self.spec.propagator.excitation_fraction
        # The current texture's middle-layer topological charge once some
        # caller has computed it; every step and every restore forget it.
        self._charge = None

    def relaxation(self) -> Dict[str, Any]:
        """The ground-state relax of ``prepare``: its steps and time step."""
        prop = self.spec.propagator
        return {"num_steps": prop.relax_steps, "dt": 0.5 * prop.dt}

    def _advance(self, num_steps: int) -> None:
        prop = self.spec.propagator
        for _ in range(num_steps):
            self.lattice.step(
                prop.dt,
                excitation_weight=self._weight,
                damping=prop.damping,
                noise_amplitude=prop.noise_amplitude,
                rng=self._rng,
            )
            self._tick()

    def _tick(self) -> None:
        """Bookkeeping after one lattice step: advance the clock."""
        self._time_fs += self.spec.propagator.dt
        self._charge = None

    @property
    def time(self) -> float:
        return self._time_fs

    def observe(self) -> Dict[str, Any]:
        self.prepare()
        return self.observe_stacked([self])[0]

    @classmethod
    @abc.abstractmethod
    def observe_stacked(cls, engines: Sequence["_LatticeAdapter"],
                        ) -> List[Dict[str, Any]]:
        """The observation of each of ``engines`` — prepared adapters of this
        kind whose lattices share one model and shape — with every
        observable computed in one stacked call.  A single run's
        :meth:`observe` is the stack of one."""

    @staticmethod
    def _texture_observables(engines: Sequence["_LatticeAdapter"]):
        """The ``(M, nx, ny, nz, 3)`` stack of the engines' modes, and each
        lattice's topological charge (middle z layer) and mean polarization.

        Only charges not yet known for the current textures are computed
        (in one stacked call), and they are remembered until the next step.
        """
        from repro.topology.charge import topological_charge

        modes = np.stack([engine.lattice.modes for engine in engines])
        pending = [i for i, engine in enumerate(engines) if engine._charge is None]
        if pending:
            layers = modes[:, :, :, modes.shape[3] // 2]
            if len(pending) < len(engines):
                layers = layers[pending]
            for i, charge in zip(pending, topological_charge(layers)):
                engines[i]._charge = float(charge)
        charges = [engine._charge for engine in engines]
        polarizations = modes.reshape(modes.shape[0], -1, 3).mean(axis=1)
        return modes, charges, polarizations


class LocalModeEngine(_LatticeAdapter):
    """Ferroelectric local-mode lattice dynamics
    (:class:`repro.md.localmode.LocalModeLattice`) on a skyrmion texture;
    ``propagator.excitation_fraction`` applies a constant excitation
    screening (the idealised-pump shortcut)."""

    kind = "localmode"

    def _build_texture(self) -> None:
        from repro.md.lattice import skyrmion_displacement_field
        from repro.md.localmode import LocalModeLattice, LocalModeModel

        spec = self.spec
        material = spec.material
        rng_init, rng_dyn, _, _ = spec.rngs(4)
        self._rng = rng_dyn
        model = LocalModeModel()
        texture = skyrmion_displacement_field(
            material.repeats, material.skyrmions_per_axis
        ) * model.well_minimum(0.0)
        texture = texture + 0.01 * rng_init.standard_normal(texture.shape)
        self.lattice = LocalModeLattice(texture, model)

    @classmethod
    def observe_stacked(cls, engines):
        from repro.md.localmode import stacked_energy

        modes, charges, polarizations = cls._texture_observables(engines)
        weights = [engine.spec.propagator.excitation_fraction
                   for engine in engines]
        model = engines[0].lattice.model
        quadratic_eff = np.array(
            [model.effective_quadratic(w) for w in weights],
        ).reshape(-1, 1, 1, 1, 1)
        energies = stacked_energy(modes, model, quadratic_eff)
        return [
            {"energy": float(energy), "topological_charge": float(charge),
             "mean_polarization": polarization}
            for energy, charge, polarization
            in zip(energies, charges, polarizations)
        ]

    def _state(self) -> Dict[str, Any]:
        return {
            "time": float(self._time_fs),
            "lattice": self.lattice.state_dict(),
            "rng_state": self._rng.bit_generator.state,
        }

    def _load_state(self, state: Dict[str, Any]) -> None:
        self.lattice.load_state_dict(state["lattice"])
        self._rng.bit_generator.state = state["rng_state"]
        self._time_fs = float(state["time"])
        self._charge = None


class MaxwellEngine(EngineAdapter):
    """The 1-D macroscopic Maxwell solver (:class:`repro.maxwell.fdtd1d.Maxwell1D`)
    driven by the configured pulse (or vacuum when ``pulse.kind == 'none'``)."""

    kind = "maxwell"

    def _build(self) -> None:
        from repro.maxwell import Maxwell1D
        from repro.units import SPEED_OF_LIGHT_AU

        prop = self.spec.propagator
        dx = SPEED_OF_LIGHT_AU * prop.dt / prop.maxwell_courant
        self.solver = Maxwell1D(num_points=prop.maxwell_points, dx=dx, dt=prop.dt)
        pulse = self.spec.pulse.build()
        self._source = self.solver.inject_pulse(pulse) if pulse is not None else None

    def _advance(self, num_steps: int) -> None:
        for _ in range(num_steps):
            self.solver.step(None, boundary_source=self._source)

    @property
    def time(self) -> float:
        return self.solver.time

    def observe(self) -> Dict[str, Any]:
        self.prepare()
        return {
            "field_energy": self.solver.field_energy(),
            "vector_potential": self.solver.vector_potential(),
        }

    def _state(self) -> Dict[str, Any]:
        return self.solver.state_dict()

    def _load_state(self, state: Dict[str, Any]) -> None:
        self.solver.load_state_dict(state)


class MLMDEngine(_LatticeAdapter):
    """The end-to-end photo-switching pipeline: stage 3 of
    :class:`repro.core.mlmd.MLMDPipeline`.

    ``prepare()`` relaxes the pipeline's skyrmion superlattice on the
    ground-state surface; each protocol step advances the excited-state
    local-mode dynamics with an exponentially decaying excitation weight.
    """

    kind = "mlmd"

    def _build_texture(self) -> None:
        from repro.core import MLMDPipeline

        spec = self.spec
        if spec.propagator.excitation_lifetime_fs <= 0:
            raise ValueError("propagator.excitation_lifetime_fs must be positive")
        rng_init, rng_dyn, _, _ = spec.rngs(4)
        self._rng = rng_dyn
        # Stream 0 covers the ground-state preparation (texture noise);
        # stream 1 drives the excited-state dynamics noise in _advance.
        self.lattice = MLMDPipeline(
            supercell_repeats=spec.material.repeats,
            skyrmions_per_axis=spec.material.skyrmions_per_axis,
            rng=rng_init,
        ).ground_state_texture()

    def _finish_build(self) -> None:
        from repro.topology.analysis import classify_texture

        initial = classify_texture(self.lattice.modes)
        super()._finish_build()
        self._charge = initial.topological_charge
        self._metadata["initial_label"] = initial.label
        self._metadata["initial_topological_charge"] = float(
            initial.topological_charge)

    def _tick(self) -> None:
        """Advance the clock and decay the excitation weight."""
        super()._tick()
        prop = self.spec.propagator
        self._weight = prop.excitation_fraction * float(
            np.exp(-self._time_fs / prop.excitation_lifetime_fs)
        )

    @classmethod
    def observe_stacked(cls, engines):
        _, charges, polarizations = cls._texture_observables(engines)
        return [
            {"topological_charge": float(charge),
             "mean_polarization": polarization,
             "excitation_fraction": engine._weight}
            for engine, charge, polarization
            in zip(engines, charges, polarizations)
        ]

    def result(self):
        from repro.topology.analysis import classify_texture, switching_time

        run_result = super().result()
        run_result.metadata["final_label"] = classify_texture(
            self.lattice.modes, charge=self._charge).label
        charges = run_result.observables.get("topological_charge")
        if charges is not None and run_result.times.size:
            t_switch = switching_time(run_result.times, charges)
            run_result.metadata["switching_time_fs"] = (
                float(t_switch) if np.isfinite(t_switch) else None
            )
        return run_result

    def _state(self) -> Dict[str, Any]:
        return {
            "time": float(self._time_fs),
            "lattice": self.lattice.state_dict(),
            "excitation_weight": float(self._weight),
            "rng_state": self._rng.bit_generator.state,
        }

    def _load_state(self, state: Dict[str, Any]) -> None:
        self.lattice.load_state_dict(state["lattice"])
        self._rng.bit_generator.state = state["rng_state"]
        self._weight = float(state["excitation_weight"])
        self._time_fs = float(state["time"])
        self._charge = None


#: Engine kind -> adapter class.
ADAPTERS: Dict[str, Type[EngineAdapter]] = {
    cls.kind: cls
    for cls in (
        TDDFTEngine, DCMESHEngine, MESHEngine, MDEngine,
        LocalModeEngine, MaxwellEngine, MLMDEngine,
    )
}

assert set(ADAPTERS) == set(ENGINE_KINDS)


def build_engine(spec: ScenarioSpec,
                 workspace: Optional[KernelWorkspace] = None) -> EngineAdapter:
    """Instantiate (but do not prepare) the adapter for ``spec.engine``."""
    return ADAPTERS[spec.engine](spec, workspace=workspace)
