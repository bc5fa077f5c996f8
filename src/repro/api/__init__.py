"""repro.api: the declarative front door over every simulation subsystem.

* :mod:`repro.api.spec`     — :class:`ScenarioSpec` and its nested sections
  (grid, material, pulse, propagator, runtime, seed); JSON round-trippable.
* :mod:`repro.api.engine`   — the unified :class:`Engine` protocol
  (``prepare / step / observe / checkpoint / restore / result``) and the
  adapter base with the resumable ``run`` / ``resume`` session loop.
* :mod:`repro.api.adapters` — adapters retrofitting the protocol onto the
  TDDFT, DC-MESH, MESH, MD, local-mode, Maxwell and MLMD engines.
* :mod:`repro.api.result`   — the unified :class:`RunResult` container and
  the :class:`RunFailure` batch error slot.
* :mod:`repro.api.registry` — named scenarios, :func:`run_scenario` and the
  shared-workspace :class:`BatchRunner`.
* :mod:`repro.api.executor` — the process-parallel :class:`ExecutionService`
  work-queue executor with checkpoint-based crash recovery, built on the
  persistent :class:`WorkerPool` lifecycle object.
* :mod:`repro.api.server`   — the long-lived :class:`ScenarioServer` daemon
  (``repro serve``): warm worker pool across requests, durable submission
  journal, NDJSON checkpoint streaming, crash-resume on restart.
* :mod:`repro.api.http`     — the one ``/v1`` HTTP layer (route table,
  request handler, socket lifecycle) serving the daemon and the fleet router.
* :mod:`repro.api.client`   — :class:`ServeClient`, the stdlib-HTTP client
  of the daemon.
* :mod:`repro.api.cli`      — the ``python -m repro`` command-line runner.

Checkpoint persistence is the :mod:`repro.store` subsystem; its one store
class, :class:`repro.store.RunStore`, is exported here under its historical
name :class:`CheckpointStore`.
"""

from repro.api.adapters import ADAPTERS, build_engine
from repro.api.client import ServeClient, ServeError, ServeUnavailable
from repro.api.engine import (
    CHECKPOINT_FORMAT, CheckpointError, Engine, EngineAdapter,
)
from repro.api.executor import ExecutionService, WorkerPool
from repro.api.server import ScenarioServer
from repro.api.registry import (
    BatchRunner, ScenarioRegistry, default_registry, run_scenario,
)
from repro.api.result import RunFailure, RunResult
from repro.api.spec import (
    ENGINE_KINDS, GridSpec, MaterialSpec, PropagatorSpec, PulseSpec,
    RuntimeSpec, ScenarioSpec, parse_assignments,
)
from repro.store import RunStore

CheckpointStore = RunStore

__all__ = [
    "ADAPTERS",
    "BatchRunner",
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "CheckpointStore",
    "ENGINE_KINDS",
    "Engine",
    "EngineAdapter",
    "ExecutionService",
    "GridSpec",
    "MaterialSpec",
    "PropagatorSpec",
    "PulseSpec",
    "RunFailure",
    "RunResult",
    "RuntimeSpec",
    "ScenarioRegistry",
    "ScenarioServer",
    "ScenarioSpec",
    "ServeClient",
    "ServeError",
    "ServeUnavailable",
    "WorkerPool",
    "build_engine",
    "default_registry",
    "parse_assignments",
    "run_scenario",
]
