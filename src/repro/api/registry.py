"""Named scenarios and the shared-workspace batch runner.

The default registry ships one (or two) laptop-scale scenarios per simulation
subsystem, so every engine in the library is reachable by name from
``python -m repro run <scenario>`` and from the :class:`BatchRunner`.  Specs
returned by :meth:`ScenarioRegistry.get` are copies: callers can mutate or
override them without affecting the registry.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.adapters import build_engine
from repro.api.result import RunFailure, RunResult
from repro.api.spec import (
    GridSpec, MaterialSpec, PropagatorSpec, PulseSpec, RuntimeSpec, ScenarioSpec,
)
from repro.perf.workspace import KernelWorkspace


class ScenarioRegistry:
    """A name -> :class:`ScenarioSpec` mapping with copy-on-read semantics."""

    def __init__(self) -> None:
        self._specs: Dict[str, ScenarioSpec] = {}

    def register(self, spec: ScenarioSpec, overwrite: bool = False) -> ScenarioSpec:
        if spec.name in self._specs and not overwrite:
            raise ValueError(f"scenario {spec.name!r} is already registered")
        self._specs[spec.name] = spec.copy()
        return spec

    def get(self, name: str) -> ScenarioSpec:
        if name not in self._specs:
            known = ", ".join(sorted(self._specs))
            raise KeyError(f"unknown scenario {name!r}; registered: {known}")
        return self._specs[name].copy()

    def names(self) -> List[str]:
        return sorted(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[ScenarioSpec]:
        for name in self.names():
            yield self._specs[name].copy()


def _builtin_specs() -> Tuple[ScenarioSpec, ...]:
    return (
        ScenarioSpec(
            name="quickstart-tddft",
            engine="tddft",
            description="One DC domain: two Gaussian-well atoms driven by a "
                        "femtosecond pulse (real-time TDDFT)",
            grid=GridSpec(shape=(8, 8, 8), lengths=(8.0, 8.0, 8.0)),
            material=MaterialSpec(
                centers=[[2.8, 4.0, 4.0], [5.2, 4.0, 4.0]],
                depths=[3.0, 3.0], widths=[1.2, 1.2],
                n_electrons=4.0, n_orbitals=4,
                scf_max_iterations=40, scf_tolerance=1e-5,
            ),
            pulse=PulseSpec(kind="gaussian", e0=0.08, omega=0.41, t0=8.0, sigma=3.0),
            propagator=PropagatorSpec(
                dt=0.1, update_potentials_every=2,
                occupation_decoherence_rate=1.0, scissors_shift=0.05,
            ),
            runtime=RuntimeSpec(num_steps=60, record_every=2),
        ),
        ScenarioSpec(
            name="dcmesh-pulse",
            engine="dcmesh",
            description="Two DC domains coupled through the 1-D Maxwell window "
                        "(DC-MESH laser excitation)",
            grid=GridSpec(shape=(6, 6, 6), lengths=(8.0, 8.0, 8.0)),
            material=MaterialSpec(
                centers=[[4.0, 4.0, 4.0]], depths=[3.0], widths=[1.2],
                n_electrons=2.0, n_orbitals=3,
                scf_max_iterations=20, scf_tolerance=1e-4,
            ),
            pulse=PulseSpec(kind="gaussian", e0=0.08, omega=0.4, t0=3.0, sigma=1.5),
            propagator=PropagatorSpec(
                dt=0.1, qd_steps_per_exchange=5, num_domains=2,
                maxwell_points=60, update_potentials_every=5,
                occupation_decoherence_rate=2.0,
            ),
            runtime=RuntimeSpec(num_steps=20, record_every=1),
        ),
        ScenarioSpec(
            name="mesh-hopping",
            engine="mesh",
            description="Single-domain MESH integrator: Ehrenfest ions + "
                        "surface-hopping occupations",
            grid=GridSpec(shape=(6, 6, 6), lengths=(8.0, 8.0, 8.0)),
            material=MaterialSpec(
                centers=[[3.0, 4.0, 4.0], [5.0, 4.0, 4.0]],
                depths=[3.0, 3.0], widths=[1.1, 1.1],
                charges=[1.0, 1.0], masses=[3672.0, 3672.0],
                n_electrons=2.0, n_orbitals=3,
                scf_max_iterations=20, scf_tolerance=1e-4,
            ),
            pulse=PulseSpec(kind="gaussian", e0=0.05, omega=0.4, t0=2.0, sigma=1.0),
            propagator=PropagatorSpec(
                dt=0.05, qd_substeps=10, surface_hopping=True,
                update_potentials_every=2, occupation_decoherence_rate=1.0,
            ),
            runtime=RuntimeSpec(num_steps=5, record_every=1),
        ),
        ScenarioSpec(
            name="md-nve",
            engine="md",
            description="Classical NVE argon: velocity-Verlet on a 2x2x2 FCC "
                        "Lennard-Jones crystal",
            material=MaterialSpec(species="Ar", lattice_constant=5.26,
                                  repeats=(2, 2, 2)),
            pulse=PulseSpec(kind="none"),
            propagator=PropagatorSpec(dt=2.0, thermostat="none", temperature_k=30.0),
            runtime=RuntimeSpec(num_steps=40, record_every=2),
            seed=7,
        ),
        ScenarioSpec(
            name="md-langevin",
            engine="md",
            description="Langevin-thermostatted argon equilibration "
                        "(stochastic kicks from the scenario seed)",
            material=MaterialSpec(species="Ar", lattice_constant=5.26,
                                  repeats=(2, 2, 2)),
            pulse=PulseSpec(kind="none"),
            propagator=PropagatorSpec(
                dt=2.0, thermostat="langevin", temperature_k=60.0, friction=0.02,
            ),
            runtime=RuntimeSpec(num_steps=40, record_every=2),
            seed=11,
        ),
        ScenarioSpec(
            name="localmode-switch",
            engine="localmode",
            description="Skyrmion texture on the local-mode lattice under a "
                        "prescribed excitation (idealised pump)",
            material=MaterialSpec(repeats=(16, 16, 1), skyrmions_per_axis=(2, 2)),
            pulse=PulseSpec(kind="none"),
            propagator=PropagatorSpec(
                dt=2.0, damping=0.3, excitation_fraction=0.6,
                noise_amplitude=0.001, relax_steps=60,
            ),
            runtime=RuntimeSpec(num_steps=100, record_every=5),
            seed=3,
        ),
        ScenarioSpec(
            name="maxwell-vacuum",
            engine="maxwell",
            description="A femtosecond pulse crossing the 1-D macroscopic "
                        "Maxwell window (vacuum propagation)",
            pulse=PulseSpec(kind="gaussian", e0=0.05, omega=0.3, t0=20.0, sigma=6.0),
            propagator=PropagatorSpec(dt=1.0, maxwell_points=80,
                                      maxwell_courant=0.95),
            runtime=RuntimeSpec(num_steps=60, record_every=2),
        ),
        ScenarioSpec(
            name="mlmd-photoswitch",
            engine="mlmd",
            description="End-to-end MLMD pipeline: GS skyrmion preparation + "
                        "excited-state switching dynamics (paper Fig. 3)",
            material=MaterialSpec(repeats=(16, 16, 1), skyrmions_per_axis=(2, 2)),
            pulse=PulseSpec(kind="none"),
            propagator=PropagatorSpec(
                dt=2.0, damping=0.3, excitation_fraction=0.7,
                excitation_lifetime_fs=600.0, noise_amplitude=0.001,
                relax_steps=80,
            ),
            runtime=RuntimeSpec(num_steps=150, record_every=5),
        ),
    )


_DEFAULT_REGISTRY: Optional[ScenarioRegistry] = None


def default_registry() -> ScenarioRegistry:
    """The process-wide registry pre-populated with the built-in scenarios."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        registry = ScenarioRegistry()
        for spec in _builtin_specs():
            registry.register(spec)
        _DEFAULT_REGISTRY = registry
    return _DEFAULT_REGISTRY


def run_scenario(spec: ScenarioSpec,
                 workspace: Optional[KernelWorkspace] = None,
                 num_steps: Optional[int] = None,
                 record_every: Optional[int] = None,
                 checkpoint_every: Optional[int] = None,
                 on_checkpoint: Optional[Callable[[Dict[str, Any]], Any]] = None,
                 resume_from: Optional[Dict[str, Any]] = None) -> RunResult:
    """Build the adapter for ``spec`` and drive it through a full run.

    ``resume_from`` accepts an :meth:`~repro.api.engine.EngineAdapter.checkpoint`
    payload (for example :meth:`repro.store.RunStore.latest`) and
    finishes the interrupted run instead of starting over; ``on_checkpoint``
    receives periodic snapshots every ``checkpoint_every`` steps either way.
    """
    engine = build_engine(spec, workspace=workspace)
    if resume_from is not None:
        return engine.resume(
            resume_from, num_steps=num_steps, record_every=record_every,
            checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint,
        )
    return engine.run(
        num_steps=num_steps, record_every=record_every,
        checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint,
    )


class BatchRunner:
    """Execute N scenario specs against one shared :class:`KernelWorkspace`.

    The point of batching is amortisation: every engine built by the runner
    shares the same workspace, so step-invariant data (the cached kinetic
    operators, spectral matrices, ground states) computed by the first run is
    replayed by every later run that touches the same grid/time step.  Each
    result's metadata records the cumulative workspace statistics at the time
    the run finished, so tests and benchmarks can verify cross-run cache hits.

    Failures are isolated per run: a scenario that raises fills its own slot
    with a :class:`~repro.api.result.RunFailure` (``slot.ok`` discriminates)
    and the remaining scenarios still execute.  Pass ``raise_on_error=True``
    to re-raise the first failure instead.

    ``batched=True`` goes one step further than cache amortisation: specs
    sharing a :func:`~repro.batch.grouping.batch_key` (same engine, grid,
    propagator, cadence — differing seeds/params) are driven in lockstep by
    one :class:`~repro.batch.engine.BatchedEngine`, whose stacked kernels
    advance all members per step in single vectorized calls.  Results are
    bit-identical to the serial path and still come back in input order;
    ``max_batch`` bounds the group size.

    For multi-process sharding of the same batch — plus checkpoint-based
    crash recovery — see :class:`repro.api.executor.ExecutionService`.
    """

    def __init__(self, workspace: Optional[KernelWorkspace] = None,
                 batched: bool = False,
                 max_batch: Optional[int] = None) -> None:
        self.workspace = workspace if workspace is not None else KernelWorkspace()
        self.batched = bool(batched)
        self.max_batch = max_batch if max_batch is None else int(max_batch)

    def run(self, specs: Sequence[ScenarioSpec],
            raise_on_error: bool = False) -> List[Union[RunResult, RunFailure]]:
        if self.batched:
            return self._run_batched(list(specs), raise_on_error)
        results: List[Union[RunResult, RunFailure]] = []
        for spec in specs:
            try:
                result = run_scenario(spec, workspace=self.workspace)
            except Exception as exc:  # noqa: BLE001 - recorded in the slot
                if raise_on_error:
                    raise
                results.append(
                    RunFailure.from_exception(spec.name, spec.engine, exc)
                )
                continue
            result.metadata["workspace_stats"] = dict(self.workspace.stats)
            results.append(result)
        return results

    def _run_batched(self, specs: List[ScenarioSpec], raise_on_error: bool,
                     ) -> List[Union[RunResult, RunFailure]]:
        # Imported lazily: repro.batch imports this module (run_scenario).
        from repro.batch.engine import BatchedEngine
        from repro.batch.grouping import group_specs

        slots: List[Optional[Union[RunResult, RunFailure]]] = [None] * len(specs)
        for group in group_specs(specs, max_batch=self.max_batch):
            engine = BatchedEngine(
                [specs[index] for index in group], workspace=self.workspace
            )
            outcomes = engine.run(raise_on_error=raise_on_error)
            for index, outcome in zip(group, outcomes):
                if outcome.ok:
                    outcome.metadata["workspace_stats"] = dict(
                        self.workspace.stats
                    )
                slots[index] = outcome
        assert all(slot is not None for slot in slots)
        return slots  # type: ignore[return-value]
