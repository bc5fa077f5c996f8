"""The unified Engine protocol and the adapter base class.

Every simulation subsystem — real-time TDDFT, DC-MESH, the single-domain MESH
integrator, classical MD, the local-mode lattice, the 1-D Maxwell solver and
the end-to-end MLMD pipeline — is exposed through the same resumable-session
life cycle:

    prepare()         build the underlying engine from the ScenarioSpec
    step(n)           advance by n native steps
    observe()         current observables as a {name: scalar/array} dict
    checkpoint()      JSON-able snapshot of the full session state
    restore(ckpt)     inverse of checkpoint(): load a snapshot into a
                      prepared engine (validated against spec/engine/time)
    result()          everything recorded so far as a RunResult

Engines step and adapters record: each engine only advances its state,
and its adapter (:mod:`repro.api.adapters`) defines what a run of that kind
observes.  The shared :meth:`EngineAdapter.run` loop is the one recording
loop and gives every engine identical argument
validation (:func:`repro.utils.validation.validate_run_args`), identical
recording semantics (record the initial state, then every ``record_every``-th
step) and identical checkpointing semantics (emit a snapshot every
``checkpoint_every``-th step plus one at the final step whenever an
``on_checkpoint`` sink is given).  Those session semantics are stated once,
in two methods every driver calls — :meth:`EngineAdapter.run`/``resume``
here and the lockstep :class:`~repro.batch.engine.BatchedEngine` alike:

    _open(ckpt=None)  start the session: restore ``ckpt``, or prepare, zero
                      the series and record the initial sample
    _close_step(...)  after each native step: count it, record and snapshot
                      on cadence (always the final step); True at the horizon

Both take an optional ``observe`` callable through which a batch supplies
each record's observation from one stacked call; the cadence stays theirs.

Checkpoints are *complete sessions*: besides the engine's mutable state they
carry the spec, the step counter and the observable series recorded so far,
so :meth:`EngineAdapter.resume` on a freshly built adapter finishes an
interrupted run with a :class:`RunResult` bit-identical (times and all
observables) to the uninterrupted one.  All floats survive the JSON cycle
bit-exactly (shortest-round-trip literals), and every stochastic component's
RNG stream is part of the state, so resumed Langevin/FSSH trajectories draw
exactly the numbers the uninterrupted ones would.
"""

from __future__ import annotations

import abc
from time import perf_counter as _perf_counter
from typing import Any, Callable, Dict, List, Optional, Protocol, runtime_checkable

import numpy as np

from repro import telemetry
from repro.api.result import RunResult, _plain, revive
from repro.api.spec import ScenarioSpec
from repro.perf.workspace import KernelWorkspace, get_workspace
# CheckpointError is defined with the storage subsystem (which must raise it
# without importing the API layer) and re-exported here, its historical home.
from repro.store.errors import CheckpointError
from repro.utils.validation import validate_run_args

#: Version stamp written into every checkpoint payload.
CHECKPOINT_FORMAT = 1

#: Absolute tolerance when validating the restored clock against the snapshot.
_TIME_ATOL = 1e-9

#: Supplies an adapter's observation for one record (see ``_close_step``).
Observer = Callable[["EngineAdapter"], Dict[str, Any]]


#: The engine layers timed into ``repro_engine_<layer>_seconds`` histograms.
TIMED_LAYERS = {
    "prepare": "building one engine (the SCF ground state on quantum kinds), "
               "or one stacked prepare of a lattice batch",
    "step": "one step-kernel call",
    "record": "observing one record's state, or one stacked call observing "
              "a lattice batch",
}


def timed(layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn``, observed into ``repro_engine_<layer>_seconds`` per call.

    Resolved once, before a loop: with telemetry enabled each call costs two
    ``perf_counter`` reads and one bucket add; with it disabled the caller
    gets ``fn`` itself back and pays nothing.  A stacked call is one
    observation however many members it covers.
    """
    if not telemetry.enabled():
        return fn
    hist = telemetry.histogram(f"repro_engine_{layer}_seconds",
                               TIMED_LAYERS[layer])

    def timed_fn(*args):
        t0 = _perf_counter()
        out = fn(*args)
        hist.observe(_perf_counter() - t0)
        return out
    return timed_fn


@runtime_checkable
class Engine(Protocol):
    """Structural protocol every scenario engine satisfies."""

    spec: ScenarioSpec

    def prepare(self) -> None: ...

    def step(self, num_steps: int = 1) -> None: ...

    def observe(self) -> Dict[str, Any]: ...

    def checkpoint(self) -> Dict[str, Any]: ...

    def restore(self, checkpoint: Dict[str, Any]) -> None: ...

    def result(self) -> RunResult: ...


class EngineAdapter(abc.ABC):
    """Base class implementing the protocol's shared driving loop.

    Subclasses implement :meth:`_build` (construct the wrapped engine),
    :meth:`_advance` (advance it by N native steps), :meth:`observe` and the
    :attr:`time` property; everything else — lazy preparation, argument
    validation, recording, result assembly, checkpointing — lives here.
    """

    #: Engine kind string; matches ScenarioSpec.engine.
    kind: str = "abstract"

    def __init__(self, spec: ScenarioSpec,
                 workspace: Optional[KernelWorkspace] = None) -> None:
        if spec.engine != self.kind:
            raise ValueError(
                f"spec engine {spec.engine!r} does not match adapter kind {self.kind!r}"
            )
        self.spec = spec.copy()
        self.workspace = workspace if workspace is not None else get_workspace()
        self._prepared = False
        self._step = 0
        self._times: List[float] = []
        self._records: Dict[str, List[Any]] = {}
        self._metadata: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build(self) -> None:
        """Construct the wrapped engine(s) from ``self.spec``."""

    @abc.abstractmethod
    def _advance(self, num_steps: int) -> None:
        """Advance the wrapped engine by ``num_steps`` native steps."""

    @abc.abstractmethod
    def observe(self) -> Dict[str, Any]:
        """Current observables; values must be floats or float arrays."""

    @property
    @abc.abstractmethod
    def time(self) -> float:
        """Current simulation time in the engine's native unit."""

    @abc.abstractmethod
    def _state(self) -> Dict[str, Any]:
        """Mutable state snapshot for :meth:`checkpoint`."""

    @abc.abstractmethod
    def _load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`_state`: load a (revived) snapshot in place."""

    # ------------------------------------------------------------------
    # Protocol implementation
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Build the wrapped engine once; later calls are no-ops."""
        if not self._prepared:
            timed("prepare", self._build)()
            self._prepared = True

    def step(self, num_steps: int = 1) -> None:
        validate_run_args(num_steps)
        self.prepare()
        self._advance(num_steps)
        self._step += num_steps

    def checkpoint(self) -> Dict[str, Any]:
        """A complete JSON-able session snapshot.

        The payload is self-contained: it carries the spec (so a scheduler
        can rebuild the adapter from the checkpoint alone), the engine's
        mutable state, the step counter and everything recorded so far.
        """
        self.prepare()
        return {
            "format": CHECKPOINT_FORMAT,
            "scenario": self.spec.name,
            "engine": self.kind,
            "time": float(self.time),
            "step": int(self._step),
            "spec": self.spec.to_dict(),
            "state": _plain(self._state()),
            "times": [float(t) for t in self._times],
            "records": _plain(self._records),
        }

    def restore(self, checkpoint: Dict[str, Any]) -> None:
        """Load a :meth:`checkpoint` payload into this (fresh) adapter.

        The payload is validated against the adapter: engine kind, scenario
        name and — when the checkpoint carries one — the full spec must
        match, and after the state is loaded the engine clock must agree with
        the snapshot's ``time``.  On success the recording session (times,
        records, step counter) continues exactly where the snapshot left off.
        """
        if not isinstance(checkpoint, dict):
            raise CheckpointError("checkpoint must be a dict payload")
        fmt = checkpoint.get("format", CHECKPOINT_FORMAT)
        if fmt != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint format {fmt!r} "
                f"(this build writes format {CHECKPOINT_FORMAT})"
            )
        if checkpoint.get("engine") != self.kind:
            raise CheckpointError(
                f"checkpoint was written by engine {checkpoint.get('engine')!r}, "
                f"this adapter is {self.kind!r}"
            )
        if checkpoint.get("scenario") != self.spec.name:
            raise CheckpointError(
                f"checkpoint belongs to scenario {checkpoint.get('scenario')!r}, "
                f"this adapter runs {self.spec.name!r}"
            )
        spec_dict = checkpoint.get("spec")
        if spec_dict is not None:
            # The runtime section (num_steps/record_every/checkpoint_every)
            # and the description are driver knobs, not physics: resuming an
            # interrupted run with a longer horizon is the whole point.
            # Everything else (grid, material, pulse, propagator, seed)
            # defines the state being restored and must match exactly.
            driver_keys = ("runtime", "description")
            stored = {k: v for k, v in spec_dict.items() if k not in driver_keys}
            ours = {
                k: v for k, v in self.spec.to_dict().items()
                if k not in driver_keys
            }
            if stored != ours:
                mismatched = sorted(
                    k for k in set(stored) | set(ours)
                    if stored.get(k) != ours.get(k)
                )
                raise CheckpointError(
                    f"checkpoint spec does not match this adapter's spec "
                    f"(sections {mismatched}); restoring into a different "
                    "configuration would not reproduce the interrupted run"
                )
        if "state" not in checkpoint or "time" not in checkpoint:
            raise CheckpointError("checkpoint is missing 'state' or 'time'")
        self.prepare()
        self._load_state(revive(checkpoint["state"]))
        restored_time = float(self.time)
        expected_time = float(checkpoint["time"])
        if abs(restored_time - expected_time) > _TIME_ATOL:
            raise CheckpointError(
                f"restored engine clock is {restored_time!r}, checkpoint says "
                f"{expected_time!r}; the state snapshot is inconsistent"
            )
        self._step = int(checkpoint.get("step", 0))
        self._times = [float(t) for t in checkpoint.get("times", [])]
        self._records = {
            str(name): [np.asarray(value, dtype=float) for value in series]
            for name, series in revive(checkpoint.get("records", {})).items()
        }

    def record(self, observation: Optional[Dict[str, Any]] = None) -> None:
        """Append the current observables to the recorded time series.

        ``observation`` is one already computed for the current state (a
        batch observes the members due together in one stacked call); by
        default the adapter observes itself.  Values are *copied*: engines
        that mutate their state arrays in place (for example the MESH
        integrator's ion positions) would otherwise leave every recorded
        sample aliasing the final state.
        """
        self.prepare()
        if observation is None:
            observation = timed("record", self.observe)()
        self._times.append(float(self.time))
        for name, value in observation.items():
            self._records.setdefault(name, []).append(
                np.array(value, dtype=float, copy=True)
            )

    def _resolve_run_args(self, num_steps, record_every, checkpoint_every):
        if num_steps is None:
            num_steps = self.spec.runtime.num_steps
        if record_every is None:
            record_every = self.spec.runtime.record_every
        if checkpoint_every is None:
            checkpoint_every = self.spec.runtime.checkpoint_every
        validate_run_args(num_steps, record_every)
        if checkpoint_every is not None and int(checkpoint_every) < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        return int(num_steps), int(record_every), (
            int(checkpoint_every) if checkpoint_every is not None else None
        )

    def _open(self, checkpoint: Optional[Dict[str, Any]] = None,
              observe: Optional[Observer] = None) -> None:
        """Start a recording session: fresh, or continued from ``checkpoint``.

        A fresh session drops previously recorded samples and records the
        initial state; a restored one carries on from the snapshot's step
        counter and series.  ``observe``, when given, supplies this
        adapter's observation for a record (see :meth:`_close_step`).
        """
        if checkpoint is not None:
            self.restore(checkpoint)
            return
        self.prepare()
        self._step = 0
        self._times = []
        self._records = {}
        self.record(None if observe is None else observe(self))

    def _close_step(self, num_steps: int, record_every: int,
                    checkpoint_every: Optional[int],
                    on_checkpoint: Optional[Callable[[Dict[str, Any]], Any]],
                    observe: Optional[Observer] = None) -> bool:
        """Account for the native step just advanced; ``True`` at the horizon.

        Counts the step, records every ``record_every``-th one and emits a
        snapshot to ``on_checkpoint`` every ``checkpoint_every``-th; when a
        sink is given, the final step is always snapshotted so a completed
        run's store ends on a resumable (and already-complete) checkpoint.
        ``observe(self)``, when given, supplies the observation a record
        appends — a batch hands every member one shared stacked observer,
        which only the members recording here ever call.
        """
        self._step += 1
        if self._step % record_every == 0:
            self.record(None if observe is None else observe(self))
        if on_checkpoint is not None and (
            self._step == num_steps
            or (checkpoint_every is not None
                and self._step % checkpoint_every == 0)
        ):
            on_checkpoint(self.checkpoint())
        return self._step >= num_steps

    def _drive(self, num_steps: int, record_every: int,
               checkpoint_every: Optional[int],
               on_checkpoint: Optional[Callable[[Dict[str, Any]], Any]]) -> RunResult:
        """Advance from the current step counter to ``num_steps``."""
        advance = timed("step", self._advance)
        steps_driven = 0
        done = self._step >= num_steps
        while not done:
            advance(1)
            steps_driven += 1
            done = self._close_step(
                num_steps, record_every, checkpoint_every, on_checkpoint)
        if steps_driven:
            telemetry.incr("repro_engine_steps_total", steps_driven,
                           "native engine steps driven")
        return self.result()

    def run(self, num_steps: Optional[int] = None,
            record_every: Optional[int] = None,
            checkpoint_every: Optional[int] = None,
            on_checkpoint: Optional[Callable[[Dict[str, Any]], Any]] = None,
            ) -> RunResult:
        """Drive the engine through the standard record/step loop.

        Each call starts a fresh recording session (previously recorded
        samples are dropped), so the returned :class:`RunResult` always
        describes exactly this run even when the engine was stepped or run
        before.

        ``on_checkpoint`` (for example
        :meth:`repro.store.RunStore.save` bound to a run id)
        receives a session snapshot every ``checkpoint_every``-th step — the
        default cadence comes from ``spec.runtime.checkpoint_every`` — plus
        one at the final step.
        """
        cadence = self._resolve_run_args(
            num_steps, record_every, checkpoint_every)
        self._open()
        return self._drive(*cadence, on_checkpoint)

    def resume(self, checkpoint: Dict[str, Any],
               num_steps: Optional[int] = None,
               record_every: Optional[int] = None,
               checkpoint_every: Optional[int] = None,
               on_checkpoint: Optional[Callable[[Dict[str, Any]], Any]] = None,
               ) -> RunResult:
        """Restore a snapshot and finish the interrupted run.

        The record/checkpoint cadence continues from the snapshot's step
        counter, so the returned :class:`RunResult` is bit-identical (times
        and all observables) to the one an uninterrupted
        ``run(num_steps, record_every)`` would have produced.  Resuming a
        checkpoint that is already at (or past) ``num_steps`` returns the
        completed result without stepping.
        """
        cadence = self._resolve_run_args(
            num_steps, record_every, checkpoint_every)
        self._open(checkpoint)
        return self._drive(*cadence, on_checkpoint)

    def result(self) -> RunResult:
        observables = {
            name: np.asarray(series) for name, series in self._records.items()
        }
        metadata: Dict[str, Any] = {"spec": self.spec.to_dict()}
        metadata.update(_plain(self._metadata))
        return RunResult(
            scenario=self.spec.name,
            engine=self.kind,
            times=np.asarray(self._times, dtype=float),
            observables=observables,
            metadata=metadata,
        )
