"""Declarative scenario specifications: the single front door to every engine.

A :class:`ScenarioSpec` is a nested, JSON/dict-round-trippable description of
one simulation run — which engine to use, the real-space grid, the model
material, the laser pulse, the propagator knobs, the runtime (step counts) and
a single top-level ``seed`` that deterministically feeds every stochastic
component via :func:`repro.utils.rng.spawn_rngs`.  Because a spec is plain
data, runs can be registered by name (:mod:`repro.api.registry`), queued and
batched (:class:`repro.api.registry.BatchRunner`), launched from the command
line (``python -m repro run <scenario> --set key=value``) and reconstructed
from a stored :class:`repro.api.result.RunResult`.

Every section validates on construction, so ``ScenarioSpec.from_dict`` rejects
unknown keys and out-of-range values with a clear message instead of failing
deep inside an engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.api.result import _plain as _jsonify
from repro.utils.validation import validate_run_args

#: Engine kinds the adapter layer knows how to build (see repro.api.adapters).
ENGINE_KINDS = ("tddft", "dcmesh", "mesh", "md", "localmode", "maxwell", "mlmd")


@dataclass
class _SpecSection:
    """Base class giving every spec section dict round-tripping."""

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: _jsonify(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]):
        if data is None:
            return cls()
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} keys: {unknown}; known keys: {sorted(known)}"
            )
        try:
            return cls(**dict(data))
        except TypeError as exc:
            # e.g. a scalar where a sequence is required ('--set grid.shape=8');
            # surface it as the same clean ValueError every other bad value gets.
            raise ValueError(f"invalid {cls.__name__}: {exc}") from exc


def _int_tuple(value: Sequence, length: int, name: str) -> Tuple[int, ...]:
    out = tuple(int(v) for v in value)
    if len(out) != length:
        raise ValueError(f"{name} must have {length} entries, got {len(out)}")
    return out


def _float_tuple(value: Sequence, length: int, name: str) -> Tuple[float, ...]:
    out = tuple(float(v) for v in value)
    if len(out) != length:
        raise ValueError(f"{name} must have {length} entries, got {len(out)}")
    return out


@dataclass
class GridSpec(_SpecSection):
    """The real-space grid a quantum-dynamics domain lives on."""

    shape: Tuple[int, int, int] = (8, 8, 8)
    lengths: Tuple[float, float, float] = (8.0, 8.0, 8.0)

    def __post_init__(self) -> None:
        self.shape = _int_tuple(self.shape, 3, "grid.shape")
        self.lengths = _float_tuple(self.lengths, 3, "grid.lengths")
        if any(n < 2 for n in self.shape):
            raise ValueError("grid.shape entries must be >= 2")
        if any(length <= 0 for length in self.lengths):
            raise ValueError("grid.lengths entries must be positive")

    def build(self):
        from repro.grid import Grid3D

        return Grid3D(self.shape, self.lengths)


@dataclass
class MaterialSpec(_SpecSection):
    """The model material: Gaussian-well ions for the quantum engines, a
    crystal lattice for classical MD, and a texture grid for the local-mode /
    MLMD engines."""

    # Gaussian-well "atoms" of the quantum-dynamics engines (Bohr, Hartree).
    centers: List[List[float]] = field(default_factory=lambda: [[4.0, 4.0, 4.0]])
    depths: List[float] = field(default_factory=lambda: [3.0])
    widths: List[float] = field(default_factory=lambda: [1.2])
    charges: Optional[List[float]] = None   # defaults to depths (MESH ions)
    masses: Optional[List[float]] = None    # defaults to 1836 a.u. per ion
    n_electrons: float = 2.0
    n_orbitals: int = 3
    scf_max_iterations: int = 30
    scf_tolerance: float = 1e-5
    # Classical-MD crystal (Angstrom, amu).
    species: str = "Ar"
    lattice_constant: float = 5.26
    repeats: Tuple[int, int, int] = (2, 2, 2)
    # Polar texture of the local-mode / MLMD engines.
    skyrmions_per_axis: Tuple[int, int] = (2, 2)

    def __post_init__(self) -> None:
        self.centers = [[float(x) for x in c] for c in self.centers]
        self.depths = [float(v) for v in self.depths]
        self.widths = [float(v) for v in self.widths]
        if self.charges is not None:
            self.charges = [float(v) for v in self.charges]
        if self.masses is not None:
            self.masses = [float(v) for v in self.masses]
        self.n_electrons = float(self.n_electrons)
        self.n_orbitals = int(self.n_orbitals)
        self.scf_max_iterations = int(self.scf_max_iterations)
        self.scf_tolerance = float(self.scf_tolerance)
        self.lattice_constant = float(self.lattice_constant)
        self.repeats = _int_tuple(self.repeats, 3, "material.repeats")
        self.skyrmions_per_axis = _int_tuple(
            self.skyrmions_per_axis, 2, "material.skyrmions_per_axis"
        )
        n = len(self.centers)
        if len(self.depths) != n or len(self.widths) != n:
            raise ValueError("material centers, depths and widths must agree in length")
        for name in ("charges", "masses"):
            values = getattr(self, name)
            if values is not None and len(values) != n:
                raise ValueError(f"material.{name} must have one entry per center")
        if any(len(c) != 3 for c in self.centers):
            raise ValueError("material.centers entries must be 3-vectors")
        if self.n_electrons <= 0:
            raise ValueError("material.n_electrons must be positive")
        if self.n_orbitals < 1:
            raise ValueError("material.n_orbitals must be >= 1")

    @property
    def ion_charges(self) -> List[float]:
        return self.charges if self.charges is not None else list(self.depths)

    @property
    def ion_masses(self) -> List[float]:
        if self.masses is not None:
            return self.masses
        return [1836.0] * len(self.centers)


@dataclass
class PulseSpec(_SpecSection):
    """The incident laser pulse (velocity gauge), or ``kind='none'``."""

    kind: str = "gaussian"  # 'gaussian' | 'trapezoidal' | 'none'
    e0: float = 0.03
    omega: float = 0.35
    t0: float = 8.0
    sigma: float = 3.0
    ramp: float = 2.0
    plateau: float = 4.0
    polarization: Tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        self.kind = str(self.kind)
        if self.kind not in ("gaussian", "trapezoidal", "none"):
            raise ValueError(
                f"pulse.kind must be 'gaussian', 'trapezoidal' or 'none', got {self.kind!r}"
            )
        for name in ("e0", "omega", "t0", "sigma", "ramp", "plateau"):
            setattr(self, name, float(getattr(self, name)))
        self.polarization = _float_tuple(self.polarization, 3, "pulse.polarization")

    def build(self):
        """Instantiate the configured :class:`repro.maxwell.pulses.LaserPulse`."""
        if self.kind == "none":
            return None
        pol = np.asarray(self.polarization)
        if self.kind == "gaussian":
            from repro.maxwell.pulses import GaussianPulse

            return GaussianPulse(
                e0=self.e0, omega=self.omega, t0=self.t0, sigma=self.sigma,
                polarization=pol,
            )
        from repro.maxwell.pulses import TrapezoidalPulse

        return TrapezoidalPulse(
            e0=self.e0, omega=self.omega, ramp=self.ramp, plateau=self.plateau,
            t_start=self.t0, polarization=pol,
        )


@dataclass
class PropagatorSpec(_SpecSection):
    """Time-stepping parameters shared by (and specific to) the engines.

    ``dt`` is the innermost time step in the engine's native unit — atomic
    units for the quantum/Maxwell engines, femtoseconds for the classical MD,
    local-mode and MLMD engines.
    """

    dt: float = 0.1
    # TDDFT-family knobs.
    update_potentials_every: int = 1
    occupation_decoherence_rate: float = 0.0
    scissors_shift: float = 0.0
    # DC-MESH / Maxwell coupling.
    qd_steps_per_exchange: int = 5
    num_domains: int = 2
    maxwell_points: int = 60
    maxwell_courant: float = 0.95
    # MESH (single-domain NAQMD).
    qd_substeps: int = 10
    surface_hopping: bool = False
    # Classical MD.
    thermostat: str = "none"  # 'none' | 'langevin'
    temperature_k: float = 30.0
    friction: float = 0.02
    # Local-mode / MLMD dynamics.
    damping: float = 0.3
    noise_amplitude: float = 0.001
    excitation_fraction: float = 0.0
    excitation_lifetime_fs: float = 600.0
    relax_steps: int = 80

    def __post_init__(self) -> None:
        self.dt = float(self.dt)
        self.update_potentials_every = int(self.update_potentials_every)
        self.occupation_decoherence_rate = float(self.occupation_decoherence_rate)
        self.scissors_shift = float(self.scissors_shift)
        self.qd_steps_per_exchange = int(self.qd_steps_per_exchange)
        self.num_domains = int(self.num_domains)
        self.maxwell_points = int(self.maxwell_points)
        self.maxwell_courant = float(self.maxwell_courant)
        self.qd_substeps = int(self.qd_substeps)
        self.surface_hopping = bool(self.surface_hopping)
        self.thermostat = str(self.thermostat)
        self.temperature_k = float(self.temperature_k)
        self.friction = float(self.friction)
        self.damping = float(self.damping)
        self.noise_amplitude = float(self.noise_amplitude)
        self.excitation_fraction = float(self.excitation_fraction)
        self.excitation_lifetime_fs = float(self.excitation_lifetime_fs)
        self.relax_steps = int(self.relax_steps)
        if self.dt <= 0:
            raise ValueError("propagator.dt must be positive")
        if self.update_potentials_every < 1:
            raise ValueError("propagator.update_potentials_every must be >= 1")
        if self.qd_steps_per_exchange < 1 or self.qd_substeps < 1:
            raise ValueError("propagator QD sub-step counts must be >= 1")
        if self.num_domains < 1:
            raise ValueError("propagator.num_domains must be >= 1")
        if self.maxwell_points < 3:
            raise ValueError("propagator.maxwell_points must be >= 3")
        if not (0.0 < self.maxwell_courant <= 1.0):
            raise ValueError("propagator.maxwell_courant must lie in (0, 1]")
        if self.thermostat not in ("none", "langevin"):
            raise ValueError("propagator.thermostat must be 'none' or 'langevin'")
        if not (0.0 <= self.excitation_fraction <= 1.0):
            raise ValueError("propagator.excitation_fraction must lie in [0, 1]")
        if self.relax_steps < 0:
            raise ValueError("propagator.relax_steps must be >= 0")


@dataclass
class RuntimeSpec(_SpecSection):
    """How long to run, how often to record, and how often to checkpoint.

    ``checkpoint_every = None`` disables periodic snapshots; any positive
    value makes :meth:`repro.api.engine.EngineAdapter.run` emit a checkpoint
    every that many steps (plus one at the final step) whenever the caller
    provides an ``on_checkpoint`` sink such as
    :meth:`repro.store.RunStore.save`.
    """

    num_steps: int = 10
    record_every: int = 1
    checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        self.num_steps = int(self.num_steps)
        self.record_every = int(self.record_every)
        validate_run_args(self.num_steps, self.record_every)
        if self.checkpoint_every is not None:
            self.checkpoint_every = int(self.checkpoint_every)
            if self.checkpoint_every < 1:
                raise ValueError("runtime.checkpoint_every must be >= 1 (or null)")


_SECTION_TYPES = {
    "grid": GridSpec,
    "material": MaterialSpec,
    "pulse": PulseSpec,
    "propagator": PropagatorSpec,
    "runtime": RuntimeSpec,
}


@dataclass
class ScenarioSpec:
    """One fully-specified simulation scenario.

    Parameters
    ----------
    name:
        Scenario identifier (the registry key and CLI argument).
    engine:
        One of :data:`ENGINE_KINDS`; selects the adapter that builds and
        drives the underlying simulation engine.
    seed:
        Single top-level seed; every stochastic component receives its own
        deterministic stream via :func:`repro.utils.rng.spawn_rngs`, so two
        runs of the same spec are bit-identical.
    """

    name: str
    engine: str
    description: str = ""
    seed: int = 0
    grid: GridSpec = field(default_factory=GridSpec)
    material: MaterialSpec = field(default_factory=MaterialSpec)
    pulse: PulseSpec = field(default_factory=PulseSpec)
    propagator: PropagatorSpec = field(default_factory=PropagatorSpec)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)

    def __post_init__(self) -> None:
        self.name = str(self.name)
        self.engine = str(self.engine)
        self.description = str(self.description)
        self.seed = int(self.seed)
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.engine not in ENGINE_KINDS:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose one of {list(ENGINE_KINDS)}"
            )
        for key, section_cls in _SECTION_TYPES.items():
            value = getattr(self, key)
            if isinstance(value, Mapping):
                setattr(self, key, section_cls.from_dict(value))
            elif not isinstance(value, section_cls):
                raise ValueError(f"spec.{key} must be a {section_cls.__name__} or dict")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "engine": self.engine,
            "description": self.description,
            "seed": self.seed,
        }
        for key in _SECTION_TYPES:
            data[key] = getattr(self, key).to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        known = {"name", "engine", "description", "seed", *_SECTION_TYPES}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown ScenarioSpec keys: {unknown}; known keys: {sorted(known)}"
            )
        if "name" not in data or "engine" not in data:
            raise ValueError("ScenarioSpec requires 'name' and 'engine'")
        kwargs: Dict[str, Any] = {
            "name": data["name"],
            "engine": data["engine"],
            "description": data.get("description", ""),
            "seed": data.get("seed", 0),
        }
        for key, section_cls in _SECTION_TYPES.items():
            kwargs[key] = section_cls.from_dict(data.get(key))
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def copy(self) -> "ScenarioSpec":
        return ScenarioSpec.from_dict(self.to_dict())

    # ------------------------------------------------------------------
    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """Return a new validated spec with dotted-path overrides applied.

        ``overrides`` maps dotted paths (``"runtime.num_steps"``,
        ``"pulse.e0"``, ``"seed"``) to new values.  String values are parsed
        as JSON when possible (so ``"5"`` becomes 5 and ``"[1,2,3]"`` a list)
        and kept verbatim otherwise; the rebuilt spec re-validates every
        section.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            _set_by_path(data, path, _coerce_override(value))
        return ScenarioSpec.from_dict(data)

    def rngs(self, count: int) -> List[np.random.Generator]:
        """Deterministic per-component RNG streams derived from ``seed``."""
        from repro.utils.rng import spawn_rngs

        return spawn_rngs(self.seed, count)


def _coerce_override(value: Any) -> Any:
    if not isinstance(value, str):
        return value
    try:
        return json.loads(value)
    except (json.JSONDecodeError, ValueError):
        return value


def _set_by_path(data: Dict[str, Any], path: str, value: Any) -> None:
    parts = path.split(".")
    node = data
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ValueError(f"unknown spec path {path!r}")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ValueError(f"unknown spec path {path!r}")
    node[leaf] = value


def parse_assignments(pairs: Iterable[str]) -> Dict[str, Any]:
    """Parse CLI ``key=value`` strings into an override mapping."""
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"override {pair!r} has an empty key")
        overrides[key] = value.strip()
    return overrides
