"""Process-parallel batch execution with automatic crash-resume.

:class:`ExecutionService` is the work-queue executor the ROADMAP's
serving/batching item asks for: it shards a batch of scenario specs across
``multiprocessing`` workers, gives every worker its own
:class:`~repro.perf.workspace.KernelWorkspace` (the workspace is deliberately
not shared across processes — each worker amortises its own phase/stencil
caches over the runs it executes), streams periodic checkpoints to a
:class:`~repro.store.RunStore`, and merges the per-run outcomes —
shipped between processes as ``RunResult`` JSON dicts — back into input
order.

Pool lifecycle is a first-class object: :class:`WorkerPool` owns the worker
processes (lazy start, reset-after-breakage, shutdown) and *persists across
submissions*, so the per-worker kernel caches stay warm between batches.
:meth:`ExecutionService.run` reuses its own pool round after round and batch
after batch; the long-lived :class:`~repro.api.server.ScenarioServer` daemon
keeps a pool of its own warm across client requests.  The pool is also the
one owner of the process boundary: every future it returns resolves to an
outcome dict, and each worker's metrics delta is folded into this process's
registry on the way back, so neither caller handles either.

Failure handling is one policy, the pool's, for both callers: an exception
inside a run is captured in the worker and reported as a
:class:`~repro.api.result.RunFailure` for that slot only, and a worker
process that dies outright (OOM kill, segfault) makes the pool re-run every
payload its death cut off alone (:meth:`WorkerPool._isolate`), so a run is
charged only for its own failures.

A failed run is retried by its caller up to ``max_retries`` times with
``resume=True``: when checkpointing is enabled the retry picks up from the
run's last stored snapshot instead of starting over, so a crash costs at most
``checkpoint_every`` steps of work and the final result is bit-identical to
an uninterrupted run.

``workers=0`` executes the same code path inline (no subprocesses) — handy
for debugging and for platforms without ``fork``.

Inside a worker there is one run path: :func:`execute_payload` hands every
payload — a coalesced ``{"batch": [...]}`` one or a single run, the batch of
one — to :func:`_run_members`; :func:`worker_payload` writes the format.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import faults, telemetry
from repro.api.result import RunFailure, RunResult
from repro.api.spec import ScenarioSpec
from repro.perf.workspace import KernelWorkspace
from repro.store import DEFAULT_LEASE_TTL_S, RunStore
from repro.store.retention import describe_retention, parse_retention

FAULT_WORKER_PRE_RUN = faults.register(
    "executor.worker.pre_run",
    "in the worker, after the store/engine are built, before the first "
    "step executes (a crash here must not mark the run failed twice)",
)
FAULT_RETRY_PRE_REQUEUE = faults.register(
    "executor.retry.pre_requeue",
    "in the parent, before a failed run's retry payload is requeued "
    "(retry accounting must not double-charge)",
)
FAULT_SPAWN_PRE_SUBMIT = faults.register(
    "executor.spawn.pre_submit",
    "in the parent, before a payload is submitted to the worker pool "
    "(a raising submit must re-run the payload in isolation, not escape "
    "WorkerPool.submit)",
)

#: Per-process workspace, created once per worker by :func:`_worker_init` so
#: every run a worker executes shares the same kernel caches.
_WORKER_WORKSPACE: Optional[KernelWorkspace] = None

#: Metrics snapshot as of this process-pool worker's previous report; None
#: outside one.  Only process workers report: inline runs count straight into
#: the caller's own registry.
_TELEMETRY_BASELINE: Optional[Dict[str, Any]] = None

#: One batch slot: a completed run or the failure that exhausted its retries.
BatchOutcome = Union[RunResult, RunFailure]


def _worker_init() -> None:
    global _WORKER_WORKSPACE, _TELEMETRY_BASELINE
    _WORKER_WORKSPACE = KernelWorkspace()
    # A forked worker inherits the parent's registry: everything counted
    # before the pool started is the parent's to report, not this worker's,
    # so the first delta starts from here.
    _TELEMETRY_BASELINE = telemetry.snapshot()


def _ensure_worker_workspace() -> KernelWorkspace:
    """The process-local worker workspace, created on first use.

    Unlike :func:`_worker_init` (which unconditionally installs a fresh
    workspace in a brand-new worker process), this keeps an existing one —
    the idempotent form inline execution needs, since every inline pool in
    this process shares the module global (the workspace itself is
    thread-safe; see :mod:`repro.perf.workspace`).
    """
    global _WORKER_WORKSPACE
    if _WORKER_WORKSPACE is None:
        _WORKER_WORKSPACE = KernelWorkspace()
    return _WORKER_WORKSPACE


def _telemetry_report() -> Optional[Dict[str, Any]]:
    """The metrics this process-pool worker changed since its last report,
    as a snapshot delta for the parent's :class:`WorkerPool` to merge (None
    in any other process, or when telemetry is disabled)."""
    global _TELEMETRY_BASELINE
    if _TELEMETRY_BASELINE is None or not telemetry.enabled():
        return None
    snap = telemetry.snapshot()
    delta = telemetry.subtract_snapshot(snap, _TELEMETRY_BASELINE)
    _TELEMETRY_BASELINE = snap
    return delta


def worker_payload(index: int, spec: Dict[str, Any], run_id: str, *,
                   checkpoint_dir: Optional[str],
                   checkpoint_every: Optional[int], keep: int,
                   retention: Optional[str], resume: bool, attempt: int,
                   owner: Optional[str] = None, owner_pid: Optional[int] = None,
                   lease_ttl: Optional[float] = None,
                   fault_plan: Optional[Dict[str, Any]] = None,
                   trace: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The JSON-able dict one run travels to a worker as: the format
    :func:`_run_members` reads, written here and nowhere else.

    ``owner``/``owner_pid``/``lease_ttl`` are the lease identity of the
    *service/daemon* that owns the run, not of the worker: every worker of
    one daemon shares it, so a retry landing on a different worker renews
    the same lease instead of colliding with it, and ``owner_pid`` is the
    process whose death should make the lease breakable.
    """
    payload = {
        "index": index,
        "spec": spec,
        "run_id": run_id,
        "checkpoint_dir": checkpoint_dir,
        "checkpoint_every": checkpoint_every,
        "keep": keep,
        "retention": retention,
        "resume": bool(resume),
        "attempt": int(attempt),
    }
    if owner is not None:
        payload.update(owner=owner, owner_pid=owner_pid, lease_ttl=lease_ttl)
    if fault_plan:
        payload["faults"] = fault_plan
    if trace:
        payload["trace"] = trace
    return payload


def _failure_outcome(payload: Dict[str, Any],
                     exc: BaseException) -> Dict[str, Any]:
    """The ``{"index", "failure"}`` outcome of a payload that raised ``exc``."""
    spec = payload.get("spec", {})
    failure = RunFailure.from_exception(
        str(spec.get("name", "?")), str(spec.get("engine", "?")), exc,
        attempts=int(payload.get("attempt", 1)),
    )
    return {"index": int(payload["index"]), "failure": failure.to_dict()}


def _fold_telemetry(outcome: Dict[str, Any]) -> None:
    """Merge each completed run's worker metrics delta into this process's
    registry and drop it from the outcome (a merge fault is swallowed:
    telemetry must not fail the run)."""
    for member in outcome.get("batch", [outcome]):
        metadata = member.get("ok", {}).get("metadata", {})
        report = metadata.pop("telemetry", None)
        if report is None:
            continue
        try:
            telemetry.merge_snapshot(report)
        except Exception:  # noqa: BLE001 - telemetry must not fail the run
            pass


def _save_snapshot(store: RunStore, scenario: str, run_id: str,
                   traced: Optional[tuple], ckpt: Dict[str, Any]):
    """One member's ``on_checkpoint`` sink: save under ``run_id``, inside a
    ``store.save`` span when the attempt is ``traced`` (writer, context)."""
    if traced is None:
        return store.save(ckpt, run_id=run_id)
    writer, context = traced
    with telemetry.span("store.save", context, writer=writer,
                        scenario=scenario, run_id=run_id,
                        attrs={"step": ckpt.get("step")}):
        return store.save(ckpt, run_id=run_id)


def _run_members(members: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Run 1..M same-shape member payloads in lockstep on this worker.

    Every member keeps its own contracts — snapshot stream into the store,
    resume-from-latest-snapshot, ``worker.run``/``store.save`` spans, the
    pre-run fault point, executor metadata stamps and the best-effort lease
    release — and settles as its own ``{"index", "ok" | "failure"}`` dict
    (a member that fails mid-run is peeled off; the rest complete).
    Raises only for trouble outside any one member's run.
    """
    # Imported lazily: repro.batch builds its engines through repro.api.
    from repro.batch.engine import BatchedEngine

    size = len(members)
    specs = [ScenarioSpec.from_dict(p["spec"]) for p in members]
    run_ids = [str(p.get("run_id", "default")) for p in members]
    workspace = _ensure_worker_workspace()
    engine = BatchedEngine(specs, workspace=workspace)
    # Members of one batch come from one submitter, so they share its store
    # config (checkpoint_dir/keep/retention/lease identity) and snapshot
    # cadence: one store instance serves every member.
    head = members[0]
    store = None
    if head.get("checkpoint_dir"):
        store = RunStore(
            head["checkpoint_dir"],
            keep=int(head.get("keep", 0)),
            retention=head.get("retention") or None,
            owner=head.get("owner"),
            owner_pid=head.get("owner_pid"),
            owner_host=head.get("owner_host"),
            lease_ttl=float(head.get("lease_ttl") or DEFAULT_LEASE_TTL_S),
        )

    sinks: List[Optional[Any]] = [None] * size
    resumes: List[Optional[Dict[str, Any]]] = [None] * size
    run_spans: List[Optional[Dict[str, Any]]] = [None] * size
    # Every member's "worker.run" span closes (and is written) when this
    # block exits — marked failed if it exits by exception.
    with contextlib.ExitStack() as attempts:
        for i, (payload, spec, run_id) in enumerate(
                zip(members, specs, run_ids)):
            # Trace context rides the payload (same vehicle as the lease
            # identity): when present, this attempt appends its spans — one
            # per attempt, one per checkpoint save — to the run's
            # crash-tolerant span log, continuing the trace_id the submitter
            # (or the previous owner) started.
            trace_ctx = payload.get("trace")
            traced = None
            if isinstance(trace_ctx, dict) and trace_ctx.get("trace_id") \
                    and store is not None:
                attrs = {"pid": os.getpid(),
                         "attempt": int(payload.get("attempt", 1)),
                         "resume": bool(payload.get("resume"))}
                if size > 1:
                    attrs["batch_size"] = size
                writer = telemetry.SpanWriter(
                    store.run_dir(spec.name, run_id) / telemetry.SPAN_LOG_NAME)
                run_spans[i] = attempts.enter_context(telemetry.span(
                    "worker.run", trace_ctx, writer=writer,
                    scenario=spec.name, run_id=run_id, attrs=attrs))
                traced = (writer,
                          telemetry.child_context(trace_ctx, run_spans[i]))
            if store is not None:
                sinks[i] = functools.partial(
                    _save_snapshot, store, spec.name, run_id, traced)
            faults.point(FAULT_WORKER_PRE_RUN)
            if store is not None and payload.get("resume"):
                resumes[i] = store.latest(spec.name, run_id)
        outcomes = engine.run(
            checkpoint_every=head.get("checkpoint_every"),
            on_checkpoint=sinks, resume_from=resumes,
        )
        resumed_from = [None if snapshot is None
                        else int(snapshot.get("step", 0))
                        for snapshot in resumes]
        for run_span, outcome, step in zip(run_spans, outcomes, resumed_from):
            if run_span is not None:
                run_span["attrs"].update(ok=outcome.ok, resumed_from_step=step)

    results: List[Dict[str, Any]] = []
    for i, (payload, outcome) in enumerate(zip(members, outcomes)):
        index = int(payload["index"])
        attempt = int(payload.get("attempt", 1))
        if not outcome.ok:
            outcome.attempts = attempt
            results.append({"index": index, "failure": outcome.to_dict()})
            continue
        telemetry.incr("repro_worker_runs_total", 1,
                       "payloads executed to a result")
        outcome.metadata["executor"] = {
            "worker_pid": os.getpid(),
            "run_id": run_ids[i],
            "attempt": attempt,
            "resumed_from_step": resumed_from[i],
        }
        if size > 1:
            outcome.metadata["executor"]["batch_size"] = size
        outcome.metadata["workspace_stats"] = dict(workspace.stats)
        report = _telemetry_report()
        if report is not None:
            outcome.metadata["telemetry"] = report
        if store is not None:
            # The run is complete: drop the ownership lease so the run id is
            # immediately claimable (best-effort — an unreleased lease merely
            # ages out via TTL).
            try:
                store.release(specs[i].name, run_ids[i])
            except Exception:  # noqa: BLE001 - the result already exists
                pass
        results.append({"index": index, "ok": outcome.to_dict()})
    return results


def execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one payload, never raise.

    A single-run payload returns ``{"index", "ok": RunResult dict}`` on
    success and ``{"index", "failure": RunFailure dict}`` when the run
    raises, so the parent can do per-slot bookkeeping regardless of what
    went wrong.  A coalesced payload (a ``"batch"`` key holding member
    payloads, each shaped like a single-run one) returns ``{"index",
    "batch": [per-member outcome dicts]}``.  Both run through
    :func:`_run_members`; if a batch fails *as a batch* — anything outside
    a member's own run: a grouping mismatch, store trouble, a stacking bug —
    every member is re-run on its own, so a coalesced submission can never
    fail where the uncoalesced ones would have succeeded.
    """
    if "batch" in payload:
        members = list(payload["batch"])
        try:
            results = _run_members(members)
        except Exception:  # noqa: BLE001 - batch machinery failed, not a member
            telemetry.incr("repro_worker_batch_fallbacks_total", 1,
                           "coalesced payloads re-run member by member")
            results = [execute_payload(dict(p)) for p in members]
        return {"index": int(payload["index"]), "batch": results}
    # A per-payload fault plan (the daemon's per-submission "faults" field)
    # arms only around this one run and is disarmed afterwards, so a pool
    # worker that survives a "raise" action executes its next payload clean.
    plan = payload.get("faults")
    if plan:
        faults.configure(plan)
    try:
        return _run_members([payload])[0]
    except Exception as exc:  # noqa: BLE001 - the slot records the failure
        return _failure_outcome(payload, exc)
    finally:
        if plan:
            faults.reset()


def _start_context():
    methods = multiprocessing.get_all_start_methods()
    # fork is cheapest (no re-import) and inherits monkeypatched test state;
    # fall back to the platform default elsewhere (macOS/Windows -> spawn).
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerPool:
    """First-class lifecycle of a persistent worker pool.

    The pool wraps a ``ProcessPoolExecutor`` whose workers outlive individual
    submissions: each worker initialises one
    :class:`~repro.perf.workspace.KernelWorkspace` (via :func:`_worker_init`)
    and keeps it warm for every payload it ever executes, so repeated
    submissions of similar scenarios skip kinetic-operator and ground-state
    rebuilds.

    ``workers=0`` executes inline: payloads run synchronously in the calling
    process and ``submit`` returns an already-completed future.

    Lifecycle:

    * workers start lazily on the first :meth:`submit`;
    * a worker death breaks the executor generation it ran on; the pool
      discards that generation (and only that one), so the next submit
      starts fresh workers, and re-runs every payload the break cut off in
      isolation (see :meth:`_isolate`);
    * :meth:`shutdown` ends the pool for good (also via ``with``).

    Thread-safe.
    """

    def __init__(self, workers: int) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = inline execution)")
        self.workers = int(workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Isolated re-runs queue on its one thread: one extra process at most.
        self._isolator: Optional[ThreadPoolExecutor] = None
        self._generations = 0
        self._shutdowns = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def inline(self) -> bool:
        return self.workers == 0

    @property
    def started(self) -> bool:
        return self._executor is not None

    @property
    def generations(self) -> int:
        """How many times the shared worker processes were (re)started; a
        pool that is reused across submissions keeps this at 1."""
        return self._generations

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                # (max_workers, start-method context, initializer)
                self._executor = ProcessPoolExecutor(
                    self.workers, _start_context(), _worker_init)
                self._generations += 1
            return self._executor

    def _discard(self, executor: Optional[ProcessPoolExecutor]) -> None:
        """Drop ``executor`` if it is still the current generation.

        A ``ProcessPoolExecutor`` whose worker died is permanently broken;
        every future of that generation reports the break, but only the first
        report tears it down (without waiting) — a later one must not discard
        the fresh generation a newer submit already started.
        """
        with self._lock:
            if executor is None or self._executor is not executor:
                return
            self._executor = None
        executor.shutdown(wait=False, cancel_futures=True)

    def submit(self, payload: Dict[str, Any]) -> "Future[Dict[str, Any]]":
        """Schedule one payload; returns a future of its outcome dict.

        The future never raises.  In-run exceptions come back as ``failure``
        outcomes from :func:`execute_payload`.  A payload the shared executor
        never answered (its worker died, or the submit raised) is re-run
        alone by :meth:`_isolate`, so its outcome is the one it earns alone.
        A completed run's worker metrics delta is merged into this process's
        registry and removed from the outcome.
        """
        future: "Future[Dict[str, Any]]" = Future()
        shutdowns = self._shutdowns
        executor = None
        try:
            faults.point(FAULT_SPAWN_PRE_SUBMIT)
            if self.inline:
                future.set_result(execute_payload(payload))
                return future
            executor = self._ensure()
            running = executor.submit(execute_payload, payload)
        except Exception as exc:  # noqa: BLE001 - a faulted or broken submit
            running = Future()
            running.set_exception(exc)
        running.add_done_callback(functools.partial(
            self._resolve, executor, payload, future, shutdowns))
        return future

    def _resolve(self, executor: Optional[ProcessPoolExecutor],
                 payload: Dict[str, Any], future: "Future[Dict[str, Any]]",
                 shutdowns: int, running: "Future[Dict[str, Any]]") -> None:
        try:
            outcome = running.result()
        except Exception as exc:  # a dead worker, a teardown, a raising submit
            self._discard(executor)
            with self._lock:
                if not self.inline and shutdowns == self._shutdowns:
                    self._isolator = self._isolator or ThreadPoolExecutor(1)
                    # Off this thread: it may be the broken executor's own.
                    self._isolator.submit(
                        self._isolate, payload, future, shutdowns, exc)
                    return
            self._isolate(payload, future, shutdowns, exc)
            return
        _fold_telemetry(outcome)
        future.set_result(outcome)

    def _isolate(self, payload: Dict[str, Any],
                 future: "Future[Dict[str, Any]]", shutdowns: int,
                 exc: BaseException) -> None:
        """Resolve ``future`` by re-running each member of ``payload`` alone.

        Each member runs on a fresh single-worker executor (inline for an
        inline pool), keeping its ``attempt``, with ``resume=True``: a
        collateral run continues from its last snapshot, bit-identical, and
        a death there is the member's own, an ordinary failure.  A payload
        the owner's own :meth:`shutdown` cut off is not re-run: it resolves
        to one ``failure`` marked ``"pool_broken": True`` (a coalesced one
        too), and the owner decides what it becomes.
        """
        if shutdowns != self._shutdowns:
            future.set_result(
                {**_failure_outcome(payload, exc), "pool_broken": True})
            return
        outcomes = []
        for member in payload.get("batch", [payload]):
            member = {**member, "resume": True}
            telemetry.incr("repro_pool_isolated_runs_total", 1,
                           "payload members re-run alone after a worker "
                           "death broke their shared executor")
            if self.inline:
                outcomes.append(execute_payload(member))
                continue
            with ProcessPoolExecutor(1, _start_context(), _worker_init) as solo:
                try:
                    outcome = solo.submit(execute_payload, member).result()
                except Exception as death:  # noqa: BLE001 - its own failure
                    outcome = _failure_outcome(member, death)
            _fold_telemetry(outcome)
            outcomes.append(outcome)
        future.set_result({"index": int(payload["index"]), "batch": outcomes}
                          if "batch" in payload else outcomes[0])

    def shutdown(self, wait: bool = True) -> None:
        """Tear the workers down; the pool may be restarted by a later submit."""
        with self._lock:
            executor, self._executor = self._executor, None
            isolator, self._isolator = self._isolator, None
            self._shutdowns += 1
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)
        if isolator is not None:
            isolator.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self) -> None:  # best-effort: don't leak worker processes
        try:
            self.shutdown(wait=False)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


class ExecutionService:
    """Shard scenario batches across worker processes, resuming crashed runs.

    Parameters
    ----------
    workers:
        Worker process count; ``0`` runs inline in the calling process and
        ``None`` uses the machine's CPU count.
    checkpoint_dir:
        Root of the :class:`RunStore` the workers write to (and
        resume from).  ``None`` disables snapshots — retries then restart
        failed runs from scratch.
    checkpoint_every:
        Snapshot cadence in steps, overriding each spec's
        ``runtime.checkpoint_every`` when given.
    max_retries:
        How many times a failed run is re-queued (with ``resume=True``)
        before its slot becomes a :class:`RunFailure`.  Only a run's own
        failures count: the pool re-runs the collateral of a neighbour's
        worker death alone before it answers (see :class:`WorkerPool`).
    keep:
        Per-run snapshot retention forwarded to :class:`RunStore`
        (0 keeps every snapshot).
    retention:
        Optional richer retention policy (a
        ``"keep=3,max-age=7d,max-bytes=1G"`` spec string or a
        :class:`~repro.store.retention.RetentionPolicy`), forwarded to each
        worker's store alongside ``keep``.

    The service owns one :class:`WorkerPool`, keeps it warm across
    :meth:`run` calls, and releases it in :meth:`close` (or on ``with``
    exit).  Its runs take no run-ownership lease; the daemon's do.
    """

    def __init__(self, workers: Optional[int] = None,
                 checkpoint_dir=None,
                 checkpoint_every: Optional[int] = None,
                 max_retries: int = 1,
                 keep: int = 0,
                 retention=None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if checkpoint_every is not None and int(checkpoint_every) < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        #: The persistent pool submissions execute on (it starts lazily).
        self.pool = WorkerPool(workers)
        self.workers = self.pool.workers
        self.checkpoint_dir = str(checkpoint_dir) if checkpoint_dir else None
        self.checkpoint_every = (
            int(checkpoint_every) if checkpoint_every is not None else None
        )
        self.max_retries = int(max_retries)
        self.keep = int(keep)
        # Normalised to the round-trippable spec string so payloads stay
        # JSON-able across process (and daemon-journal) boundaries; also
        # validates the spec before any worker ever sees it.
        try:
            self.retention = describe_retention(
                parse_retention(retention)
            ) or None
        except ValueError as exc:
            raise ValueError(
                "executor retention must be expressible as a spec string "
                "(keep=/every=/max-age=/max-bytes= terms) because it is "
                f"shipped to worker processes as JSON: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool; a later :meth:`run` starts a new one."""
        self.pool.shutdown()

    def __enter__(self) -> "ExecutionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _payload(self, index: int, spec: ScenarioSpec, run_id: str,
                 resume: bool, attempt: int) -> Dict[str, Any]:
        return worker_payload(
            index, spec.to_dict(), run_id,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
            keep=self.keep, retention=self.retention,
            resume=resume, attempt=attempt,
        )

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[ScenarioSpec],
            run_ids: Optional[Sequence[str]] = None,
            resume: bool = False) -> List[BatchOutcome]:
        """Execute every spec, merging outcomes back into input order.

        ``run_ids`` names each run inside the checkpoint store (defaults to
        the stable ``run-<index>``); pass the same ids across invocations to
        resume a previous batch with ``resume=True``.
        """
        specs = [spec.copy() for spec in specs]
        if run_ids is None:
            run_ids = [f"run-{i:04d}" for i in range(len(specs))]
        run_ids = [str(run_id) for run_id in run_ids]
        if len(run_ids) != len(specs):
            raise ValueError("run_ids must have one entry per spec")
        if len(set(run_ids)) != len(run_ids):
            duplicated = sorted(
                {run_id for run_id in run_ids if run_ids.count(run_id) > 1}
            )
            raise ValueError(f"duplicate run_ids: {duplicated}")

        slots: List[Optional[BatchOutcome]] = [None] * len(specs)
        pending = [
            self._payload(i, spec, run_ids[i], resume=resume, attempt=1)
            for i, spec in enumerate(specs)
        ]
        while pending:
            retry: List[Dict[str, Any]] = []
            futures = [self.pool.submit(payload) for payload in pending]
            for payload, future in zip(pending, futures):
                index, attempt = int(payload["index"]), int(payload["attempt"])
                outcome = future.result()
                if "ok" in outcome:
                    slots[index] = RunResult.from_dict(outcome["ok"])
                    continue
                if attempt <= self.max_retries:
                    # Retry with resume: with checkpointing enabled the rerun
                    # continues from the last stored snapshot.  An injected
                    # fault here abandons the retry: the slot keeps its typed
                    # failure with the attempts it was actually charged —
                    # run() still never raises.
                    try:
                        faults.point(FAULT_RETRY_PRE_REQUEUE)
                    except faults.InjectedFault:
                        pass
                    else:
                        retry.append(self._payload(
                            index, specs[index], run_ids[index],
                            resume=True, attempt=attempt + 1))
                        continue
                # The failure carries its payload's attempt: the attempts
                # this run was charged.
                slots[index] = RunFailure.from_dict(outcome["failure"])
            pending = retry
        assert all(slot is not None for slot in slots)
        return slots  # type: ignore[return-value]
