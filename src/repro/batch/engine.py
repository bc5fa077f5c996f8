"""The lockstep batched engine: M same-shape runs, one kernel call per step.

:class:`BatchedEngine` drives M member adapters (one per spec, built by the
normal :func:`~repro.api.adapters.build_engine`) through the session
:meth:`EngineAdapter.run`/:meth:`~repro.api.engine.EngineAdapter.resume`
drive — it calls the same ``_open``/``_close_step`` pair, so recording and
snapshot cadence are decided in one place — but advances all members
together, one native step per iteration:

* For the local-mode engines (``localmode`` and ``mlmd``, which share the
  :class:`~repro.md.localmode.LocalModeLattice` substrate) the member
  lattices are **stacked** along a leading axis and run through the same
  stacked kernels a single lattice uses with a leading axis of one: the
  fresh members' ground-state relax of ``prepare`` is one
  :func:`repro.md.localmode.relax_stacked` call, every step one
  :func:`repro.md.localmode.step_stacked` call, and the members recording
  on an iteration are observed by one
  :meth:`~repro.api.adapters._LatticeAdapter.observe_stacked` call (energy,
  topological charge, polarization), whose rows each member's
  ``_close_step`` appends.  Each member's ``modes`` / ``velocities`` become
  views into the ``(M, nx, ny, nz, 3)`` stack, so ``checkpoint()`` keeps
  working unchanged.  Every stacked operation is elementwise, a
  periodic-neighbour gather, an explicit sum of the 3 components or a
  per-member row sum — all value-identical under a leading batch axis —
  and per-member noise is drawn member by member from each member's own
  generator, so the batched trajectory and records are **bit-identical**
  to running the members serially.  The kernel reuses the end-of-step
  force as the next step's start force when it can prove, by value, that
  nothing changed; a peel-off or restack simply misses that memo.  Members
  resumed from a snapshot prepare on their own, as serially.
* Every other engine kind falls back to per-member ``_advance(1)`` in
  lockstep — the identical code path serial execution takes, so parity is
  trivial; the batch still amortises at the scheduling layer.

**Peel-off** unifies completion and failure: a member that finishes its own
``num_steps``, raises mid-step, or whose checkpoint sink raises, is sliced
out of the stack (its lattice gets private copies of its slice back, the
stack is rebuilt from the survivors) and its slot settles as a
:class:`RunResult` or :class:`RunFailure`; the remaining members keep
stepping.  Members resumed from different checkpoints simply start at
different step counters — lockstep only requires equal shapes, not equal
progress — and complete (peel off) at different iterations.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import telemetry
from repro.api.adapters import build_engine
from repro.api.engine import EngineAdapter, timed
from repro.api.result import RunFailure, RunResult
from repro.api.spec import ScenarioSpec
from repro.batch.grouping import batch_key
from repro.md.localmode import relax_stacked, step_stacked
from repro.perf.workspace import KernelWorkspace

__all__ = ["BatchedEngine"]

#: One settled member slot.
MemberOutcome = Union[RunResult, RunFailure]

#: Engine kinds whose members can be stacked into one vectorized step call
#: (both drive a LocalModeLattice).
STACKED_KINDS = ("localmode", "mlmd")


class _LatticeStack:
    """M member lattices stacked along a leading axis, relaxed and stepped
    as one.

    Each member's ``lattice.modes`` / ``lattice.velocities`` are rebound to
    views into the stack, so member-level reads (observe, checkpoint) see
    every vectorized step immediately.  :meth:`remove` peels one member off:
    it gets private copies of its slice back and the stack is rebuilt from
    the survivors.
    """

    def __init__(self, engines: Sequence[EngineAdapter]) -> None:
        self.engines: List[EngineAdapter] = list(engines)
        first = self.engines[0].lattice
        self.model = first.model
        self.mode_mass = first.mode_mass
        self._restack()

    @staticmethod
    def try_build(engines: Sequence[EngineAdapter]) -> Optional["_LatticeStack"]:
        """A stack over ``engines``, or ``None`` when stacking is unsafe.

        Refuses mixed models/masses/shapes (such runs fall back to
        per-member lockstep, which is always correct).
        """
        if len(engines) < 2:
            return None
        if any(e.kind not in STACKED_KINDS for e in engines):
            return None
        first = engines[0].lattice
        for engine in engines:
            lattice = engine.lattice
            if (lattice.model != first.model
                    or lattice.mode_mass != first.mode_mass
                    or lattice.modes.shape != first.modes.shape):
                return None
        return _LatticeStack(engines)

    def _restack(self) -> None:
        self.modes = np.stack([e.lattice.modes for e in self.engines])
        self.velocities = np.stack(
            [e.lattice.velocities for e in self.engines])
        for i, engine in enumerate(self.engines):
            engine.lattice.modes = self.modes[i]
            engine.lattice.velocities = self.velocities[i]

    def remove(self, engine: EngineAdapter) -> None:
        """Peel one member off the stack (give it private arrays back)."""
        if engine not in self.engines:
            return
        engine.lattice.modes = engine.lattice.modes.copy()
        engine.lattice.velocities = engine.lattice.velocities.copy()
        self.engines.remove(engine)
        if self.engines:
            self._restack()

    def relax(self) -> None:
        """Every member's ground-state relax of ``prepare``, as one call."""
        relax_stacked(self.modes, self.velocities, self.model,
                      mode_mass=self.mode_mass,
                      **self.engines[0].relaxation())

    def step(self) -> None:
        """Advance every stacked member by one native step (one kernel call).

        Each member's excitation weight and post-step ``_tick`` are its
        adapter's own, the ones its serial ``_advance`` uses.
        """
        prop = self.engines[0].spec.propagator
        weights = [e._weight for e in self.engines]
        rngs = [e._rng for e in self.engines]
        step_stacked(
            self.modes, self.velocities, self.model, prop.dt,
            weights, damping=prop.damping,
            noise_amplitude=prop.noise_amplitude, rngs=rngs,
            mode_mass=self.mode_mass,
        )
        for engine in self.engines:
            engine._tick()


class _StackedObservation:
    """The observation of every member of one stack state, made by one
    :meth:`~repro.api.adapters._LatticeAdapter.observe_stacked` call on the
    first request and handed out member by member.

    Members' ``_close_step`` decide, as serially, whether they record; the
    first that does pays for the whole stack.  Members of a lockstep batch
    record on the same iterations, so no row is wasted; members resumed at
    staggered steps may leave rows unread.
    """

    def __init__(self, engines: Sequence[EngineAdapter]) -> None:
        self.engines = list(engines)
        self._rows: Optional[Dict[EngineAdapter, Dict[str, Any]]] = None

    def __call__(self, engine: EngineAdapter) -> Dict[str, Any]:
        if self._rows is None:
            observe = timed("record", type(engine).observe_stacked)
            self._rows = dict(zip(self.engines, observe(self.engines)))
        return self._rows[engine]


class BatchedEngine:
    """Drive M same-shape scenario specs in lockstep, results bit-identical
    to running each spec serially through
    :meth:`~repro.api.engine.EngineAdapter.run`.

    All specs must share one :func:`~repro.batch.grouping.batch_key`.  Each
    member gets its own adapter (own copy of its spec, own RNG streams, own
    recording session); for the local-mode kinds the relax of ``prepare``,
    the steps and the records run stacked.
    """

    def __init__(self, specs: Sequence[ScenarioSpec],
                 workspace: Optional[KernelWorkspace] = None) -> None:
        if not specs:
            raise ValueError("a batch needs at least one spec")
        keys = {batch_key(spec) for spec in specs}
        if len(keys) != 1:
            raise ValueError(
                f"specs are not same-shape batchable ({len(keys)} distinct "
                "batch keys); group with repro.batch.group_specs first"
            )
        self.workspace = workspace if workspace is not None else KernelWorkspace()
        self.members = [
            build_engine(spec, workspace=self.workspace) for spec in specs
        ]

    # ------------------------------------------------------------------
    def _normalize_per_member(self, value, name: str) -> List[Any]:
        """``None`` | single value | per-member sequence -> per-member list."""
        if value is None:
            return [None] * len(self.members)
        if callable(value):
            return [value] * len(self.members)
        value = list(value)
        if len(value) != len(self.members):
            raise ValueError(
                f"{name} must have one entry per member "
                f"({len(value)} != {len(self.members)})"
            )
        return value

    @staticmethod
    def _prepare_stacked(engines: List[EngineAdapter],
                         fail) -> Optional[_StackedObservation]:
        """Prepare fresh lattice members as one: each builds its texture,
        then one stacked relax (one by one when the lattices cannot stack).
        Returns the observer of their initial state, ``None`` if unstacked.

        ``fail(engines, exc)`` settles members whose preparation raised; a
        stacked relax cannot attribute its failure, so it settles them all.
        """
        built = []
        for engine in engines:
            try:
                engine._build_texture()
                built.append(engine)
            except Exception as exc:  # noqa: BLE001 - slot records it
                fail([engine], exc)
        stack = _LatticeStack.try_build(built)
        if stack is not None:
            try:
                stack.relax()
            except Exception as exc:  # noqa: BLE001 - whole-stack failure
                fail(built, exc)
                return None
        prepared = []
        for engine in built:
            try:
                if stack is None:
                    engine.lattice.relax(**engine.relaxation())
                engine._finish_build()
                engine._prepared = True
                prepared.append(engine)
            except Exception as exc:  # noqa: BLE001 - slot records it
                fail([engine], exc)
        return _StackedObservation(prepared) if stack is not None else None

    def run(self, checkpoint_every: Optional[int] = None,
            on_checkpoint=None,
            resume_from: Optional[Sequence[Optional[Dict[str, Any]]]] = None,
            raise_on_error: bool = False) -> List[MemberOutcome]:
        """Execute every member to completion; returns per-member outcomes.

        ``on_checkpoint`` is a single sink shared by every member or a
        per-member sequence (``None`` entries disable that member's
        snapshots).  ``resume_from`` is a per-member sequence of
        :meth:`~repro.api.engine.EngineAdapter.checkpoint` payloads;
        ``None`` entries start fresh.  A member whose preparation, stepping,
        recording or checkpointing raises settles as a
        :class:`RunFailure` slot while the rest continue — unless
        ``raise_on_error``, which re-raises the first member exception.
        """
        sinks = self._normalize_per_member(on_checkpoint, "on_checkpoint")
        resumes = self._normalize_per_member(resume_from, "resume_from")
        index = {engine: i for i, engine in enumerate(self.members)}
        outcomes: List[Optional[MemberOutcome]] = [None] * len(self.members)
        cadence: List[Optional[tuple]] = [None] * len(self.members)

        def fail(engines: Sequence[EngineAdapter], exc: Exception) -> None:
            if raise_on_error:
                raise exc
            for engine in engines:
                outcomes[index[engine]] = RunFailure.from_exception(
                    engine.spec.name, engine.spec.engine, exc)

        pending: List[int] = []
        for i, engine in enumerate(self.members):
            try:
                cadence[i] = engine._resolve_run_args(
                    None, None, checkpoint_every)
                pending.append(i)
            except Exception as exc:  # noqa: BLE001 - slot records it
                fail([engine], exc)

        # Fresh stackable members prepare as one (one stacked relax, one
        # prepare_seconds observation) and record their initial state
        # through one stacked observation; resumed members restore alone.
        observe = None
        stacked = self.members[0].kind in STACKED_KINDS
        fresh = [self.members[i] for i in pending if resumes[i] is None]
        if stacked and len(fresh) > 1:
            observe = timed("prepare", self._prepare_stacked)(fresh, fail)
        active: List[int] = []
        for i in pending:
            if outcomes[i] is not None:
                continue
            engine = self.members[i]
            try:
                engine._open(resumes[i], observe)
                if engine._step >= cadence[i][0]:
                    # Restored at (or past) its horizon: complete already,
                    # no stepping and no snapshot — as serial resume().
                    outcomes[i] = engine.result()
                else:
                    active.append(i)
            except Exception as exc:  # noqa: BLE001 - slot records it
                fail([engine], exc)

        # One native step per iteration for every active member: a single
        # vectorized call when stacked (one step_seconds observation however
        # many members it advances, and one stacked observation for the
        # members that record), per-member _advance(1) otherwise.
        stack = None
        if active and stacked:
            stack = _LatticeStack.try_build([self.members[i] for i in active])
        stack_step = timed("step", stack.step) if stack is not None else None
        advance = [timed("step", engine._advance) for engine in self.members]
        steps_driven = 0
        while active:
            observe = None
            if stack is not None:
                try:
                    stack_step()
                except Exception as exc:  # noqa: BLE001 - whole-stack failure
                    # A stacked step cannot attribute its failure to one
                    # member; every active member settles with it.
                    fail([self.members[i] for i in active], exc)
                    break
                observe = _StackedObservation(stack.engines)
            for i in list(active):
                engine = self.members[i]
                try:
                    if stack is None:
                        advance[i](1)
                    steps_driven += 1
                    if not engine._close_step(*cadence[i], sinks[i], observe):
                        continue
                    outcomes[i] = engine.result()
                except Exception as exc:  # noqa: BLE001 - peel this member
                    fail([engine], exc)
                # Settled either way: peel the member off.
                active.remove(i)
                if stack is not None:
                    stack.remove(engine)
        if steps_driven:
            telemetry.incr("repro_engine_steps_total", steps_driven,
                           "native engine steps driven")

        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]
