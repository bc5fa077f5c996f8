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
keeps a pool of its own warm across client requests.

Failure handling is two-layered:

* an exception inside a run is captured in the worker and reported as a
  :class:`~repro.api.result.RunFailure` payload for that slot only;
* a worker process that dies outright (OOM kill, segfault) breaks the pool —
  every payload of that round is requeued into *quarantine* (one private
  single-worker pool each) without charging anyone's retry budget, so the
  next round pins the crash on the run that actually caused it while the
  healthy collateral runs complete undisturbed.

Either way, a failed run is retried up to ``max_retries`` times with
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
from concurrent.futures import (
    Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor, as_completed,
)
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
    "(a raising submit must become a failed slot, not escape run())",
)

#: Per-process workspace, created once per worker by :func:`_worker_init` so
#: every run a worker executes shares the same kernel caches.
_WORKER_WORKSPACE: Optional[KernelWorkspace] = None

#: Metrics snapshot as of this process-pool worker's previous report; None
#: outside one.  Only process workers report: thread and inline workers count
#: straight into the daemon's own registry.
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
    the idempotent form thread-backend workers and inline execution need,
    since they all share this process's module global (the workspace itself
    is thread-safe; see :mod:`repro.perf.workspace`).
    """
    global _WORKER_WORKSPACE
    if _WORKER_WORKSPACE is None:
        _WORKER_WORKSPACE = KernelWorkspace()
    return _WORKER_WORKSPACE


def _telemetry_report() -> Optional[Dict[str, Any]]:
    """The metrics this process-pool worker changed since its last report,
    as a snapshot delta for the daemon to merge (None in any other process,
    or when telemetry is disabled)."""
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


#: Valid WorkerPool execution backends.
POOL_BACKENDS = ("process", "thread")


class WorkerPool:
    """First-class lifecycle of a persistent worker pool.

    The default (``backend="process"``) pool wraps a ``ProcessPoolExecutor``
    whose workers outlive individual submissions: each worker initialises one
    :class:`~repro.perf.workspace.KernelWorkspace` (via :func:`_worker_init`)
    and keeps it warm for every payload it ever executes, so repeated
    submissions of similar scenarios skip kinetic-operator and ground-state
    rebuilds.

    ``backend="thread"`` runs the same payloads on a ``ThreadPoolExecutor``
    instead: every thread shares this process's single (thread-safe)
    workspace, so its caches are amortised across *all*
    workers, and there is no process spawn/fork cost — the right trade for
    small numpy-bound runs whose kernels release the GIL, and the only
    parallel option on platforms without usable ``fork``.  A dying thread
    cannot break the pool the way a dying process can, but neither does it
    isolate a crashing native extension.

    ``workers=0`` (on either backend) executes inline: payloads run
    synchronously in the calling process and ``submit`` returns an
    already-completed future.

    Lifecycle:

    * workers start lazily on the first :meth:`submit`;
    * :meth:`reset` tears a (typically broken) pool down so the next submit
      starts fresh workers — the recovery step after a worker death;
    * :meth:`shutdown` ends the pool for good (also via ``with``).

    Thread-safe.
    """

    def __init__(self, workers: int, backend: str = "process") -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = inline execution)")
        if backend not in POOL_BACKENDS:
            raise ValueError(
                f"backend must be one of {POOL_BACKENDS}, got {backend!r}"
            )
        self.workers = int(workers)
        self.backend = str(backend)
        self._executor: Optional[Executor] = None
        self._generations = 0
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
        """How many times worker processes were (re)started; a pool that is
        reused across submissions keeps this at 1."""
        return self._generations

    def _ensure(self) -> Executor:
        with self._lock:
            if self._executor is None:
                if self.backend == "thread":
                    # No initializer: threads share the process-local
                    # workspace, which the run path creates on first use.
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="repro-worker",
                    )
                else:
                    # (max_workers, start-method context, initializer)
                    self._executor = ProcessPoolExecutor(
                        self.workers, _start_context(), _worker_init)
                self._generations += 1
            return self._executor

    def submit(self, payload: Dict[str, Any]) -> "Future[Dict[str, Any]]":
        """Schedule one payload; returns a future of its outcome dict.

        The future raises (``BrokenProcessPool``) only when the worker
        process died outright — in-run exceptions come back as ``failure``
        outcomes from :func:`execute_payload`.
        """
        if self.inline:
            future: "Future[Dict[str, Any]]" = Future()
            try:
                future.set_result(execute_payload(payload))
            except BaseException as exc:  # pragma: no cover - defensive
                future.set_exception(exc)
            return future
        return self._ensure().submit(execute_payload, payload)

    def reset(self) -> None:
        """Discard the current workers; the next submit starts a fresh set.

        The recovery step after a pool break: a ``ProcessPoolExecutor`` whose
        worker died is permanently broken, so the executor is dropped (without
        waiting) and lazily recreated on demand.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        """Tear the workers down; the pool may be restarted by a later submit."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

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
        before its slot becomes a :class:`RunFailure`.
    keep:
        Per-run snapshot retention forwarded to :class:`RunStore`
        (0 keeps every snapshot).
    retention:
        Optional richer retention policy (a
        ``"keep=3,max-age=7d,max-bytes=1G"`` spec string or a
        :class:`~repro.store.retention.RetentionPolicy`), forwarded to each
        worker's store alongside ``keep``.
    backend:
        Worker backend: ``"process"`` (default, isolated worker processes)
        or ``"thread"`` (threads sharing one thread-safe in-process
        workspace); ``workers=0`` runs inline on either.

    The service lazily creates its own :class:`WorkerPool`, keeps it warm
    across :meth:`run` calls, and releases it in :meth:`close` (or on
    ``with`` exit).  Its runs take no run-ownership lease; the daemon's do.
    """

    def __init__(self, workers: Optional[int] = None,
                 checkpoint_dir=None,
                 checkpoint_every: Optional[int] = None,
                 max_retries: int = 1,
                 keep: int = 0,
                 retention=None,
                 backend: str = "process") -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = inline execution)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if checkpoint_every is not None and int(checkpoint_every) < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        if backend not in POOL_BACKENDS:
            raise ValueError(
                f"backend must be one of {POOL_BACKENDS}, got {backend!r}"
            )
        self.backend = str(backend)
        self.workers = int(workers)
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
        self._pool: Optional[WorkerPool] = None

    # ------------------------------------------------------------------
    @property
    def pool(self) -> WorkerPool:
        """The persistent pool submissions execute on."""
        if self._pool is None:
            self._pool = WorkerPool(self.workers, backend=self.backend)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool; a later :meth:`run` starts a new one."""
        if self._pool is not None:
            self._pool.shutdown()

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

    def _run_pool(self, pool: WorkerPool, payloads: List[Dict[str, Any]],
                  ) -> Dict[int, Dict[str, Any]]:
        """Execute ``payloads`` on ``pool``; never raises.

        A worker process that dies outright breaks the whole pool, so every
        unfinished future of the pool raises — those outcomes are tagged
        ``pool_broken`` so the caller can tell collateral damage (a healthy
        run whose pool was broken by a neighbour) from a run's own failure.
        A broken pool is reset so the next submission restarts fresh workers.
        ``submit`` itself can raise on an already-broken pool; that too must
        become a failed (pool_broken) slot instead of escaping ``run()``.
        """
        outcomes: Dict[int, Dict[str, Any]] = {}
        broken = False
        futures: Dict["Future[Dict[str, Any]]", Dict[str, Any]] = {}
        for payload in payloads:
            try:
                faults.point(FAULT_SPAWN_PRE_SUBMIT)
                future = pool.submit(payload)
            except Exception as exc:  # noqa: BLE001 - broken-pool submit
                future = Future()
                future.set_exception(exc)
            futures[future] = payload
        for future in as_completed(futures):
            payload = futures[future]
            index = int(payload["index"])
            try:
                outcomes[index] = future.result()
            except Exception as exc:  # worker died (BrokenProcessPool, ...)
                broken = True
                outcomes[index] = {**_failure_outcome(payload, exc),
                                   "pool_broken": True}
        if broken:
            pool.reset()
        return outcomes

    def _execute_round(self, pending: List[Dict[str, Any]],
                       ) -> List[Dict[str, Any]]:
        outcomes: Dict[int, Dict[str, Any]] = {}
        shared = [p for p in pending if not p.get("isolated")]
        if shared:
            outcomes.update(self._run_pool(self.pool, shared))
        # Quarantined payloads (their previous shared pool broke) each get a
        # private single-worker pool: a dying worker then only takes down the
        # run that killed it, and the failure is unambiguously its own.
        for payload in pending:
            if payload.get("isolated"):
                with WorkerPool(1, backend=self.backend) as solo:
                    outcomes.update(self._run_pool(solo, [payload]))
        return [outcomes[int(payload["index"])] for payload in pending]

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
        attempts = [0] * len(specs)
        pending = [
            self._payload(i, spec, run_ids[i], resume=resume, attempt=1)
            for i, spec in enumerate(specs)
        ]
        while pending:
            retry: List[Dict[str, Any]] = []
            for payload, outcome in zip(pending, self._execute_round(pending)):
                index = int(payload["index"])
                if "ok" in outcome:
                    slots[index] = RunResult.from_dict(outcome["ok"])
                    continue
                if outcome.get("pool_broken") and not payload.get("isolated"):
                    # Collateral damage: some run in the shared pool killed
                    # its worker and broke the pool for everyone.  Requeue
                    # into quarantine WITHOUT charging this run's retry
                    # budget — only a failure in its own (isolated) pool, or
                    # an in-run exception, counts against it.
                    retry.append({**payload, "isolated": True})
                    continue
                attempts[index] += 1
                if attempts[index] <= self.max_retries:
                    # Retry with resume: with checkpointing enabled the rerun
                    # continues from the last stored snapshot.  An injected
                    # fault here abandons the retry: the slot keeps its typed
                    # failure with the attempts it was actually charged —
                    # run() still never raises.
                    try:
                        faults.point(FAULT_RETRY_PRE_REQUEUE)
                    except faults.InjectedFault:
                        failure = RunFailure.from_dict(outcome["failure"])
                        failure.attempts = attempts[index]
                        slots[index] = failure
                        continue
                    retry.append(
                        self._payload(
                            index, specs[index], run_ids[index],
                            resume=True, attempt=attempts[index] + 1,
                        )
                    )
                else:
                    failure = RunFailure.from_dict(outcome["failure"])
                    failure.attempts = attempts[index]
                    slots[index] = failure
            pending = retry
        assert all(slot is not None for slot in slots)
        return slots  # type: ignore[return-value]
