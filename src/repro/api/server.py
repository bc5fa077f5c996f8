"""``repro serve``: a long-lived scenario daemon with a warm worker pool.

The :class:`ScenarioServer` is the serving layer the ROADMAP asks for on top
of the batch :class:`~repro.api.executor.ExecutionService`: a daemon that
accepts :class:`~repro.api.spec.ScenarioSpec` submissions over HTTP, assigns
run ids, keeps a bounded FIFO queue, and executes on one **persistent**
:class:`~repro.api.executor.WorkerPool` that survives across requests — each
worker process initialises its :class:`~repro.perf.workspace.KernelWorkspace`
once, so repeated submissions skip the kinetic-operator and ground-state
rebuilds that a pool-per-request executor pays every time.

Durability is filesystem-first, sharing the existing checkpoint machinery:

* every accepted submission is journalled to ``<root>/queue/<run_id>.json``
  *before* it is acknowledged;
* workers stream periodic session snapshots into the shared
  :class:`~repro.store.RunStore` under ``<root>/checkpoints``;
* finished outcomes are persisted to ``<root>/results/<run_id>.json`` and the
  journal entry is removed;
* with a ``retention`` policy the startup replay also *house-keeps* the root:
  dead journal entries (result already persisted) are dropped instead of
  re-run, and persisted results outside the policy are pruned together with
  their checkpoint runs, so a long-lived state directory stays bounded.

A daemon that is killed (crash, OOM, ``kill -9``) therefore loses at most
``checkpoint_every`` steps of work: on restart it rescans the journal and
re-enqueues every unfinished run with ``resume=True``, which picks each one
up from its latest snapshot and — because checkpoints are complete sessions —
produces results bit-identical to an uninterrupted run.  Graceful shutdown
(``SIGTERM``/``SIGINT`` or ``POST /v1/shutdown``) drains the same way: new
submissions are refused, in-flight runs finish (their snapshots are already
on disk), queued runs stay journalled for the next daemon.

The wire protocol is documented once, in :mod:`repro.api.wire` — the one
``/v1`` HTTP layer this daemon is an *application* of.  The matching Python
client lives in :mod:`repro.api.client`; the CLI front ends are
``python -m repro serve / submit / status / fetch / shutdown``.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Set, Tuple, Union,
)

import repro
from repro import faults, telemetry
from repro.api.executor import WorkerPool, worker_payload
from repro.api.wire import (  # noqa: F401 - API_PREFIX is re-exported
    API_PREFIX, FINISHED, HttpService, ServerError, recovered_record,
    result_pending, run_trace,
)
from repro.api.spec import ScenarioSpec
from repro.fleet.membership import (
    DEFAULT_MEMBER_TTL_S, FleetRegistry, member_id_for,
)
from repro.fleet.scheduler import (
    FAULT_STEAL_PRE_CLAIM, FleetClaimLost, FleetScheduler,
)
from repro.store import (
    DEFAULT_LEASE_TTL_S, RunStore, atomic_write_json, validate_key,
)
from repro.store.errors import StoreLockTimeout
from repro.store.locks import RunLock, owner_alive
from repro.store.manifest import read_lease
from repro.store.retention import (
    CompositePolicy, KeepEvery, RetentionPolicy, StoredItem,
    describe_retention, parse_retention,
)
from repro.store.util import exclusive_create_json

FAULT_JOURNAL_PRE_WRITE = faults.register(
    "server.journal.pre_write",
    "before an accepted submission's journal entry is created (nothing "
    "durable yet — the client never got an ack, the run never existed)",
)
FAULT_JOURNAL_POST_WRITE = faults.register(
    "server.journal.post_write",
    "after the journal entry is durable, before the ack (recovery must "
    "re-run the journalled-but-unacked submission)",
)
FAULT_RESULT_PRE_PERSIST = faults.register(
    "server.result.pre_persist",
    "after a run finished, before its result file is written (journal "
    "still present — recovery must re-run and reproduce the result)",
)
FAULT_RESULT_POST_PERSIST = faults.register(
    "server.result.post_persist",
    "after the result file is durable, before the journal entry is "
    "removed (a dead journal entry recovery must drop, not re-run)",
)
FAULT_SERVE_RETRY_PRE_REQUEUE = faults.register(
    "server.retry.pre_requeue",
    "before a failed run is requeued for its resume-retry (a crash here "
    "must leave the run journalled for the next daemon)",
)

#: Default TCP port (ascii "sc" — the paper's venue — is taken; this is free).
DEFAULT_PORT = 8642

#: Poll cadence of the event stream and of drain waits, seconds.
_POLL_S = 0.05

#: Keepalive cadence of a quiet event stream, and the longest hold of a
#: ``GET /v1/runs/<id>?wait=S``, seconds — must stay well under any sane
#: client socket timeout so silent runs don't look like dead daemons.
KEEPALIVE_S = 10.0


def _without_keep_every(policy: Optional[RetentionPolicy],
                        ) -> Optional[RetentionPolicy]:
    """The policy with its ``every=K`` terms stripped (step-based rules have
    no meaning for chronological artefacts like persisted results)."""
    if policy is None or isinstance(policy, KeepEvery):
        return None
    if isinstance(policy, CompositePolicy):
        rules = [rule for rule in policy.rules
                 if not isinstance(rule, KeepEvery)]
        if not rules:
            return None
        return rules[0] if len(rules) == 1 else CompositePolicy(rules)
    return policy


#: ``RunRecord.batch_signature`` before the scheduler has computed it.
_UNSIGNED = object()


@dataclass
class RunRecord:
    """In-memory bookkeeping of one submitted run."""

    run_id: str
    seq: int
    spec: Dict[str, Any]
    checkpoint_every: Optional[int] = None
    status: str = "queued"
    attempts: int = 0
    resume: bool = False
    recovered: bool = False
    #: Per-submission fault plan (chaos testing); rides the worker payload
    #: but is never journalled, so a recovered run replays clean.
    faults: Optional[Union[str, Dict[str, str]]] = None
    #: Trace context (``{"trace_id": ..., "parent": ...}``).  Unlike the
    #: fault plan this IS journalled: a daemon restart, a retry, or a fleet
    #: steal keeps appending spans under the same trace.
    trace: Optional[Dict[str, Any]] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    worker_pid: Optional[int] = None
    resumed_from_step: Optional[int] = None
    error: Optional[str] = None
    #: Batch signature (see ``ScenarioServer._batch_signature``), computed
    #: once, when the scheduler first needs it.
    batch_signature: Any = field(default=_UNSIGNED, init=False, repr=False,
                                 compare=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "scenario": str(self.spec.get("name", "?")),
            "engine": str(self.spec.get("engine", "?")),
            "status": self.status,
            "attempts": self.attempts,
            "recovered": self.recovered,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "worker_pid": self.worker_pid,
            "resumed_from_step": self.resumed_from_step,
            "error": self.error,
        }


class ScenarioServer:
    """The long-lived scenario daemon (see the module docstring).

    Parameters
    ----------
    root:
        State directory: checkpoint store, submission journal and persisted
        results all live under it, which is what makes the daemon restartable.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    workers:
        Worker process count of the persistent pool; ``0`` executes inline in
        the scheduler thread (single-slot, no subprocesses).
    queue_size:
        Bound of the FIFO submission queue; further submissions are refused
        with HTTP 429 until slots drain.
    checkpoint_every:
        Default snapshot cadence for submissions that do not name one
        (``None`` falls back to each spec's ``runtime.checkpoint_every``).
    max_retries:
        Per-run retry budget (resume-from-snapshot) after an in-run exception
        or a worker death that the pool pins on the run itself (see
        :class:`~repro.api.executor.WorkerPool`).
    keep:
        Snapshot retention per run forwarded to the checkpoint store.
    retention:
        Optional retention policy (``"keep=3,max-age=7d,max-bytes=1G"`` spec
        string or a :class:`~repro.store.retention.RetentionPolicy`).  It is
        forwarded to the workers' checkpoint stores alongside ``keep`` *and*
        governs the daemon's own housekeeping: on startup replay, persisted
        results that fall outside the policy are pruned together with their
        checkpoint runs, so the state directory stops growing without bound.
    owner:
        This daemon's run-ownership identity (defaults to
        ``serve:<hostname>:<pid>``).  Stamped into journal entries and into
        each run's manifest lease, it is what lets several daemons share one
        state root: a contested run id answers 409 naming the owner, and a
        dead owner's runs become claimable (journal-owner pid provably dead,
        or manifest lease past its TTL).
    lease_ttl:
        Seconds a run's manifest lease stays live past its last checkpoint
        (forwarded to the workers' stores).  Must comfortably exceed the
        checkpoint cadence; cross-host takeover waits this long after the
        owner's last save, same-host takeover is immediate on owner death.
    batch_max:
        Upper bound on same-shape coalescing.  With ``batch_max > 1`` the
        scheduler scans the queue each time a slot frees up and groups up to
        this many queued submissions sharing one
        :func:`~repro.batch.grouping.batch_key` (and checkpoint cadence)
        into a single worker payload, executed by one
        :class:`~repro.batch.engine.BatchedEngine` — results stay
        bit-identical to serial execution, throughput goes up by the
        vectorization factor.  ``1`` (default) disables coalescing.
    backend:
        Only ``"process"`` is accepted: the pool's workers are processes
        (see :class:`~repro.api.executor.WorkerPool`).
    """

    def __init__(self, root, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 workers: int = 1, queue_size: int = 64,
                 checkpoint_every: Optional[int] = None,
                 max_retries: int = 1, keep: int = 0,
                 retention=None,
                 owner: Optional[str] = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL_S,
                 fleet_ttl: float = DEFAULT_MEMBER_TTL_S,
                 steal_interval: Optional[float] = None,
                 batch_max: int = 1,
                 backend: str = "process") -> None:
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if checkpoint_every is not None and int(checkpoint_every) < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        if int(batch_max) < 1:
            raise ValueError("batch_max must be >= 1")
        if backend != "process":
            raise ValueError(f"backend must be 'process', got {backend!r}")
        self.root = Path(root)
        self.host = str(host)
        self.port = int(port)
        self.queue_size = int(queue_size)
        self.checkpoint_every = (
            int(checkpoint_every) if checkpoint_every is not None else None
        )
        self.max_retries = int(max_retries)
        self.retention = parse_retention(retention)
        try:
            self.retention_spec = describe_retention(self.retention) or None
        except ValueError as exc:
            raise ValueError(
                "daemon retention must be expressible as a spec string "
                "(keep=/every=/max-age=/max-bytes= terms) because it is "
                f"shipped to worker processes as JSON: {exc}"
            ) from exc
        self.owner = str(owner) if owner is not None \
            else f"serve:{socket.gethostname()}:{os.getpid()}"
        self.lease_ttl = float(lease_ttl)
        #: Fleet identity + membership registry (shared `<root>/fleet/`).
        self.daemon_id = member_id_for(self.owner)
        self.registry = FleetRegistry(self.root, ttl=fleet_ttl)
        self.steal_interval = (
            None if steal_interval is None else float(steal_interval)
        )
        self._fleet: Optional[FleetScheduler] = None
        self._member_id: Optional[str] = None
        #: Runs this daemon's steal ticks have adopted (``stats()``).
        self._stolen = 0
        self.store = RunStore(
            self.root / "checkpoints", keep=keep, retention=self.retention
        )
        self.batch_max = int(batch_max)
        self.pool = WorkerPool(workers)
        self.started_at = time.time()
        #: EWMA of finished-run wall time, the basis of Retry-After hints.
        self._avg_run_s: Optional[float] = None

        #: Warm-pool accounting: a submission into an already-started pool
        #: is a warm hit; a cold one pays worker spawn + import cost.
        self._pool_submissions = 0
        self._pool_cold = 0
        #: How many runs executed as members of a coalesced (>1) batch.
        self._batched_runs = 0
        #: Outstanding pool submissions (a coalesced batch is ONE submission
        #: occupying one worker slot, however many runs it carries).
        self._inflight_groups = 0

        self._queue_dir = self.root / "queue"
        self._results_dir = self.root / "results"
        self._records: "OrderedDict[str, RunRecord]" = OrderedDict()
        self._queue: "deque[str]" = deque()
        self._inflight: Set[str] = set()
        self._wake = threading.Condition()
        self._seq = 0
        self._stopping = False
        self._scheduler: Optional[threading.Thread] = None
        self._http = HttpService(self, "repro-serve/1")
        #: Set once :meth:`stop` has run to its end (closing the socket).
        self._stopped = self._http.stopped

    # ------------------------------------------------------------------
    # Durability: journal + persisted results
    # ------------------------------------------------------------------
    def _journal_path(self, run_id: str) -> Path:
        return self._queue_dir / f"{run_id}.json"

    def _result_path(self, run_id: str) -> Path:
        return self._results_dir / f"{run_id}.json"

    def _journal_entry(self, record: RunRecord) -> Dict[str, Any]:
        return {
            "run_id": record.run_id,
            "seq": record.seq,
            "spec": record.spec,
            "checkpoint_every": record.checkpoint_every,
            "submitted_at": record.submitted_at,
            "trace": record.trace,
            # Ownership: which daemon is responsible for this run.  The pid/
            # host pair is what makes a dead daemon's claims provably stale.
            "owner": self.owner,
            "owner_pid": os.getpid(),
            "owner_host": socket.gethostname(),
        }

    def _journal(self, record: RunRecord, exclusive: bool = False) -> bool:
        """(Re)write a journal entry under this daemon's ownership.

        With ``exclusive`` the entry is only created if no other daemon
        holds one: the cross-process claim point for a run id — when two
        daemons race the same id on one shared root, exactly one journal
        file appears and the loser sees False.
        """
        faults.point(FAULT_JOURNAL_PRE_WRITE)
        path = self._journal_path(record.run_id)
        entry = self._journal_entry(record)
        if not exclusive:
            atomic_write_json(path, entry)
        elif not exclusive_create_json(path, entry):
            return False
        faults.point(FAULT_JOURNAL_POST_WRITE)
        return True

    def _read_journal(self, run_id: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._journal_path(run_id), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return entry if isinstance(entry, dict) else None

    def _foreign_owner_alive(self, entry: Dict[str, Any], run_id: str) -> bool:
        """Best evidence on whether a foreign journal entry's owner is alive.

        Delegates to the shared claim-scan predicate
        (:func:`repro.store.locks.owner_alive`): same-host owners are probed
        directly by pid — a SIGKILLed daemon's runs become claimable
        immediately — otherwise the run's manifest lease decides.  No probe
        and no lease reads as dead; the save-time lease check is the final
        arbiter of an actual race.
        """
        lease = None
        scenario = str(entry.get("spec", {}).get("name", ""))
        if scenario:
            try:
                lease = read_lease(self.store.run_dir(scenario, run_id))
            except ValueError:
                lease = None
        return owner_alive(
            entry.get("owner_host"), entry.get("owner_pid"), lease=lease
        )

    def _persist_outcome(self, record: RunRecord,
                         outcome: Dict[str, Any]) -> None:
        # "spec" makes finished runs idempotency-checkable: a retried submit
        # (or the router's failover retry) of the same id can prove it is the
        # same submission and answer success instead of 409.
        payload = {"run_id": record.run_id, "finished_at": record.finished_at,
                   "spec": record.spec}
        payload.update(outcome)
        faults.point(FAULT_RESULT_PRE_PERSIST)
        atomic_write_json(self._result_path(record.run_id), payload)
        faults.point(FAULT_RESULT_POST_PERSIST)
        try:
            self._journal_path(record.run_id).unlink()
        except OSError:
            pass

    def _housekeep(self) -> None:
        """Bound the state directory on startup replay.

        Persisted results grow without bound on a long-lived root; when the
        daemon has a retention policy, results falling outside it are pruned
        together with their checkpoint run directories.  Results are ordered
        chronologically (mtime), so ``keep=N`` reads "the newest N results",
        ``max-age``/``max-bytes`` behave as for snapshots, and — as with
        snapshots — the newest result always survives.  ``every=K`` terms
        apply to snapshot *steps* only and are ignored here: a result has no
        step, and "mtime divisible by K" would delete ~everything.
        """
        policy = _without_keep_every(self.retention)
        if policy is None or not self._results_dir.is_dir():
            return
        entries = []
        for path in self._results_dir.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((path, stat))
        entries.sort(key=lambda pair: (pair[1].st_mtime, pair[0].name))
        now = time.time()
        # order = mtime seconds, not the list index: an index would be
        # re-numbered after every pruning pass, so an `every=K` term would
        # keep different survivors on each restart and erode the result set.
        # mtimes are stable, so repeated housekeeping is idempotent.
        items = [
            StoredItem(key=path.name, order=int(stat.st_mtime),
                       bytes=stat.st_size,
                       age_s=max(0.0, now - stat.st_mtime))
            for path, stat in entries
        ]
        doomed = policy.prunable(items)
        for path, _ in entries:
            if path.name not in doomed or path.stem in self._records:
                continue
            self._prune_result(path)

    def _prune_result(self, path: Path) -> None:
        """Delete one persisted result and its checkpoint run directory."""
        run_id = path.stem
        outcome = self._load_outcome(run_id) or {}
        summary = outcome.get("ok") or outcome.get("failure") or {}
        scenario = summary.get("scenario")
        try:
            path.unlink()
        except OSError:
            pass
        if scenario:
            import shutil

            try:
                shutil.rmtree(self.store.run_dir(str(scenario), run_id))
            except (OSError, ValueError):
                pass

    # ------------------------------------------------------------------
    # Telemetry: span persistence
    # ------------------------------------------------------------------
    def _span_writer(self, record: RunRecord
                     ) -> Optional[telemetry.SpanWriter]:
        """A writer for ``record``'s span log, or None when the run has no
        trace context (telemetry off at submit time) or a bogus scenario."""
        if not isinstance(record.trace, dict) \
                or not record.trace.get("trace_id"):
            return None
        scenario = str(record.spec.get("name", ""))
        if not scenario:
            return None
        try:
            validate_key(scenario, "scenario")
        except ValueError:
            return None
        return telemetry.SpanWriter(
            telemetry.span_log_path(self.store.root, scenario, record.run_id)
        )

    def _write_run_span(self, record: RunRecord, name: str, *, ts: float,
                        dur: float,
                        attrs: Optional[Dict[str, Any]] = None) -> None:
        """Append one externally measured span to ``record``'s span log.

        Best effort, like all telemetry: a full disk or an injected fault
        must never fail the run being observed.
        """
        writer = self._span_writer(record)
        if writer is None:
            return
        span_record = telemetry.completed_span(
            name, record.trace, ts=ts, dur=dur,
            scenario=str(record.spec.get("name", "")),
            run_id=record.run_id, attrs=attrs,
        )
        try:
            writer.write(span_record)
        except faults.InjectedFault:
            pass

    def _write_carried_span(self, record: RunRecord,
                            span_record: Dict[str, Any]) -> None:
        """Flush a span a previous hop (the router) finished before the run
        directory existed; its identity fields are already stamped."""
        writer = self._span_writer(record)
        if writer is None:
            return
        flushed = dict(span_record)
        if not flushed.get("scenario"):
            flushed["scenario"] = str(record.spec.get("name", ""))
        if not flushed.get("run_id"):
            flushed["run_id"] = record.run_id
        try:
            writer.write(flushed)
        except faults.InjectedFault:
            pass

    # ------------------------------------------------------------------
    # Submission + scheduling
    # ------------------------------------------------------------------
    def submit(self, spec: Dict[str, Any], run_id: Optional[str] = None,
               checkpoint_every: Optional[int] = None,
               fault_plan: Optional[Union[str, Dict[str, str]]] = None,
               trace: Optional[Dict[str, Any]] = None,
               ) -> Dict[str, Any]:
        """Queue one spec dict; returns the acknowledged record + position.

        The spec is validated (round-tripped through :class:`ScenarioSpec`)
        and the journal entry is flushed to disk before the ack, so an
        accepted submission survives a daemon crash.  The journal write is
        an *exclusive create* — on a root shared by several daemons it is
        the claim point for the run id: a second daemon's submission of the
        same id answers 409 naming the owner while that owner lives, and
        takes the same spec's run over (resuming from its snapshots) once
        the owner is provably dead or its lease expired.
        """
        try:
            validated = ScenarioSpec.from_dict(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise ServerError(400, f"invalid spec: {exc}") from exc
        if checkpoint_every is None:
            checkpoint_every = self.checkpoint_every
        else:
            try:
                checkpoint_every = int(checkpoint_every)
            except (TypeError, ValueError) as exc:
                raise ServerError(
                    400, f"checkpoint_every must be an integer: {exc}"
                ) from exc
            if checkpoint_every < 1:
                raise ServerError(400, "checkpoint_every must be >= 1")
        if fault_plan:
            try:
                faults.parse_plan(fault_plan)
            except faults.FaultPlanError as exc:
                raise ServerError(400, f"invalid fault plan: {exc}") from exc
        # Trace context: a caller-supplied one (the router's, typically) is
        # continued; otherwise a root context is minted when telemetry is on.
        # Spans a previous hop already finished ride in under "spans" and are
        # flushed into the run's span log once the submission is claimed.
        carried_spans: List[Dict[str, Any]] = []
        trace_ctx: Optional[Dict[str, Any]] = None
        if trace is not None:
            if not isinstance(trace, dict) or not trace.get("trace_id"):
                raise ServerError(
                    400, "'trace' must be an object with a 'trace_id'"
                )
            trace_ctx = {"trace_id": str(trace["trace_id"]),
                         "parent": trace.get("parent")}
            carried_spans = [
                span for span in (trace.get("spans") or [])
                if isinstance(span, dict)
            ]
        elif telemetry.enabled():
            trace_ctx = telemetry.new_context()
        auto_id = run_id is None
        if run_id is not None:
            # The run id becomes journal/result/checkpoint file names — the
            # same path-component rules as the checkpoint store apply.
            try:
                run_id = validate_key(str(run_id), "run_id")
            except ValueError as exc:
                raise ServerError(400, str(exc)) from exc
            # Idempotent retry: a caller-supplied id that already names this
            # exact submission (dropped ack + retry, router failover) is
            # acknowledged again instead of 409ing.
            ack = self._dedup_ack(run_id, validated.to_dict(),
                                  checkpoint_every)
            if ack is not None:
                return ack
        with self._wake:
            if self._stopping:
                raise ServerError(
                    503, "daemon is draining; resubmit later",
                    retry_after=5.0,
                )
            if len(self._queue) >= self.queue_size:
                raise ServerError(
                    429,
                    f"queue is full ({self.queue_size} pending submissions)",
                    retry_after=self._backpressure_hint(),
                )
            if run_id is None:
                run_id = self._fresh_run_id()
            elif (run_id in self._records
                  or self._result_path(run_id).exists()):
                # Locally known or already finished.  A bare journal entry is
                # NOT checked here: it may be another daemon's claim, which
                # _claim_run arbitrates (409 naming the owner, or takeover).
                raise ServerError(409, f"run id {run_id!r} already exists")
            record = RunRecord(
                run_id=run_id,
                seq=self._seq,
                spec=validated.to_dict(),
                checkpoint_every=checkpoint_every,
                faults=fault_plan,
                trace=trace_ctx,
            )
            self._seq += 1
            # Inserting the record reserves the run id; the journal fsync
            # then happens OUTSIDE the lock so disk latency never serialises
            # the scheduler and every other request behind one submission.
            self._records[run_id] = record
        try:
            claimed = self._claim_run(record, auto_id=auto_id)
        except BaseException:
            with self._wake:
                self._records.pop(record.run_id, None)
            raise
        for span_record in carried_spans:
            self._write_carried_span(claimed, span_record)
        telemetry.incr("repro_serve_submissions_total", 1,
                       "accepted run submissions")
        with self._wake:
            if claimed is record:  # an adopted run is already queued
                self._queue.append(record.run_id)
            position = len(self._queue)
            self._wake.notify_all()
        ack = claimed.to_dict()
        ack["position"] = position
        return ack

    def _dedup_ack(self, run_id: str, spec: Dict[str, Any],
                   checkpoint_every: Optional[int],
                   ) -> Optional[Dict[str, Any]]:
        """An ack for a resubmission that provably duplicates ``run_id``.

        Returns None when the id is unknown here *or* names a different
        submission — the caller's normal conflict path (409) then applies.
        A record with a different ``checkpoint_every`` still conflicts: the
        cadence changes the snapshot trail, so it is not the same run.
        """
        with self._wake:
            record = self._records.get(run_id)
            if record is not None:
                if (record.spec == spec
                        and record.checkpoint_every == checkpoint_every):
                    ack = record.to_dict()
                    ack["position"] = None
                    ack["deduplicated"] = True
                    return ack
                return None
        outcome = self._load_outcome(run_id)
        if outcome is not None and outcome.get("spec") == spec:
            # Finished by this or a previous daemon incarnation; results
            # persisted before the spec stamp existed stay conservative (409).
            ack = self.status(run_id)
            ack["position"] = None
            ack["deduplicated"] = True
            return ack
        return None

    def _claim_run(self, record: RunRecord, auto_id: bool) -> RunRecord:
        """Make ``record``'s run id this daemon's, durably, or raise 409.

        The exclusive journal create claims a fresh id without any lock.  An
        existing entry whose foreign owner is alive, or that journals a
        different spec, is a conflict; any other entry (a dead peer's, an
        ownerless one, our own unacked one) is taken over through
        :meth:`_adopt` and the adopted record is returned — the run resumes
        from its snapshots.  Auto-assigned ids never conflict: losing the
        exclusive-create race just moves on to the next candidate.
        """
        while True:
            if self._journal(record, exclusive=True):
                return record
            if auto_id:
                # Another daemon on the same root claimed this candidate
                # first; _fresh_run_id skips it now that its journal exists.
                with self._wake:
                    self._records.pop(record.run_id, None)
                    record.run_id = self._fresh_run_id()
                    record.seq = self._seq
                    self._seq += 1
                    self._records[record.run_id] = record
                continue
            entry = self._read_journal(record.run_id)
            if entry is None:
                continue  # the competing entry just vanished: claim again
            owner = entry.get("owner")
            if (owner != self.owner
                    and self._foreign_owner_alive(entry, record.run_id)):
                raise ServerError(
                    409, f"run id {record.run_id!r} is owned by {owner!r}",
                )
            if entry.get("spec") != record.spec:  # not the journalled run
                raise ServerError(
                    409, f"run id {record.run_id!r} already exists"
                )
            try:
                return self._adopt(entry, submission=record)
            except FleetClaimLost as exc:
                raise ServerError(409, str(exc)) from None

    # ------------------------------------------------------------------
    # Adoption: startup replay and work stealing over the shared journal
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Re-enqueue every journalled-but-unfinished run left on the root.

        Entries are replayed in submission order with ``resume=True``: runs
        with stored snapshots continue from their latest one, runs that died
        before the first snapshot start over — either way the eventual result
        is bit-identical to an uninterrupted run.  A live foreign owner's
        entries are left alone; the rest are claimed through :meth:`_adopt`.
        """
        for entry in self._adoptable_entries(include_own=True):
            try:
                self._adopt(entry)
            except FleetClaimLost:
                continue  # a peer won the race — exactly what should happen

    def steal_once(self) -> List[str]:
        """Adopt orphaned journal entries while idle slots exist.

        One pass of the :class:`~repro.fleet.scheduler.FleetScheduler`'s
        steal tick; this daemon's own entries (a submission that failed
        before its ack) are left to its next startup replay.  Returns the
        adopted run ids.
        """
        adopted: List[str] = []
        if self._has_idle_slot():
            for entry in self._adoptable_entries(include_own=False):
                try:
                    adopted.append(self._adopt(entry).run_id)
                except FleetClaimLost:
                    continue
                if not self._has_idle_slot():
                    break  # leave the rest for the next tick
        with self._wake:
            self._stolen += len(adopted)
        return adopted

    def _has_idle_slot(self) -> bool:
        with self._wake:
            return (not self._stopping
                    and len(self._queue) + len(self._inflight) < self._slots())

    def _adoptable_entries(self, include_own: bool) -> List[Dict[str, Any]]:
        """The one journal scan: adoptable entries, in ``seq`` order.

        Skips entries held here, names this daemon never writes (temp files
        included), torn writes and a live foreign owner's entries.  Dead
        entries (the owner crashed between persisting the result and
        unlinking the journal) are swept: replaying would re-run the run.
        """
        entries: List[Dict[str, Any]] = []
        for path in self._queue_dir.glob("*.json"):
            run_id = path.stem
            try:
                validate_key(run_id, "run_id")
            except ValueError:
                continue
            with self._wake:
                if run_id in self._records:
                    continue
            entry = self._read_journal(run_id)
            if entry is None or entry.get("run_id") != run_id:
                continue  # a half-written journal entry was never acked
            if self._result_path(run_id).exists():
                try:
                    path.unlink()
                except OSError:
                    pass
            elif (include_own if entry.get("owner") == self.owner
                  else not self._foreign_owner_alive(entry, run_id)):
                entries.append(entry)
        return sorted(entries, key=lambda entry: int(entry.get("seq", 0)))

    def _adopt(self, entry: Dict[str, Any],
               submission: Optional[RunRecord] = None) -> RunRecord:
        """Claim one journalled run for this daemon and enqueue it, or raise
        :class:`FleetClaimLost`.

        Every adoption ends here: startup replay, steal tick, resubmission
        over a dead owner's entry.  The arbiter is a per-run flock in the
        shared queue dir (the kernel releases it when a claimant crashes);
        the entry is only rewritten in place, so a crash mid-claim (the
        ``fleet.steal.pre_claim`` point) leaves it for the next claimant.
        Under the lock the entry is re-verified and the record rebuilt from
        it with ``resume=True``.  ``submission``, the resubmitted record
        reserving the id here, lends its fault plan and, for an untraced
        entry, its trace.
        """
        run_id = str(entry["run_id"])
        previous_owner = entry.get("owner")
        claim = RunLock(self._queue_dir, timeout=0.25,
                        name=f".claim-{run_id}.lock")
        try:
            claim.acquire()
        except StoreLockTimeout:
            raise FleetClaimLost(run_id, "claim lock is contended") from None
        try:
            faults.point(FAULT_STEAL_PRE_CLAIM)
            current = self._read_journal(run_id)
            if current is None:
                raise FleetClaimLost(run_id, "journal entry vanished")
            if current.get("owner") != previous_owner:
                raise FleetClaimLost(run_id, "another daemon adopted it")
            if self._result_path(run_id).exists():
                raise FleetClaimLost(run_id, "the run already finished")
            if (previous_owner != self.owner
                    and self._foreign_owner_alive(current, run_id)):
                raise FleetClaimLost(run_id, "its owner came back to life")
            trace = current.get("trace")
            if not (isinstance(trace, dict) and trace.get("trace_id")):
                trace = submission.trace if submission else None
            with self._wake:
                held = self._records.get(run_id)
                if self._stopping or (held is not None
                                      and held is not submission):
                    raise FleetClaimLost(run_id, "no longer claimable here")
                # A local seq, not the journalled one: seq keys a coalesced
                # batch's outcomes, and each dead peer numbered its own runs.
                record = RunRecord(
                    run_id=run_id, seq=self._seq,
                    spec=dict(current.get("spec", {})),
                    checkpoint_every=current.get("checkpoint_every"),
                    resume=True, recovered=True,
                    faults=submission.faults if submission else None,
                    trace=trace, submitted_at=float(
                        current.get("submitted_at", time.time())),
                )
                self._seq += 1
                self._records[run_id] = record
            if previous_owner != self.owner:
                try:
                    # The durable ownership transfer: peers' scans skip the
                    # entry while this daemon lives.
                    self._journal(record)
                except (OSError, faults.InjectedFault):
                    with self._wake:
                        self._records.pop(run_id, None)
                    raise FleetClaimLost(run_id, "could not stamp ownership")
                telemetry.incr("repro_fleet_adoptions_total", 1,
                               "orphaned runs adopted from dead fleet peers")
                self._write_run_span(
                    record, "fleet.adopt", ts=time.time(), dur=0.0,
                    attrs={"owner": self.owner,
                           "previous_owner": previous_owner},
                )
            with self._wake:
                self._queue.append(run_id)
                self._wake.notify_all()
            # Only the winner unlinks the claim file: a loser unlinking it
            # while the entry is still claimable would let two late racers
            # flock different inodes of the same path.
            try:
                claim.path.unlink()
            except OSError:
                pass
            return record
        finally:
            claim.release()

    def member_entry(self) -> Dict[str, Any]:
        """This daemon's membership record (heartbeat payload)."""
        return {
            "owner": self.owner,
            "daemon_id": self.daemon_id,
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "machine": socket.gethostname(),
            "started_at": self.started_at,
            "version": repro.__version__,
            "workers": self.pool.workers,
        }

    def _backpressure_hint(self) -> float:
        """Seconds until a queue slot should free up (caller holds _wake).

        Honest backpressure from observed behaviour: pending work divided by
        execution slots, scaled by the EWMA of finished-run wall time.  The
        clamp keeps pathological estimates (a first run still warming up its
        caches, a long-idle daemon) inside a sane retry window.
        """
        pending = len(self._queue) + len(self._inflight)
        per_run = self._avg_run_s if self._avg_run_s is not None else 1.0
        return min(60.0, max(1.0, per_run * pending / self._slots()))

    def _run_id_taken(self, run_id: str) -> bool:
        """A run id is taken by a live record, a journal entry, or a result
        persisted by any (possibly previous) daemon incarnation."""
        return (
            run_id in self._records
            or self._journal_path(run_id).exists()
            or self._result_path(run_id).exists()
        )

    def _fresh_run_id(self) -> str:
        """Next auto id; skips ids already used by this *or a previous*
        daemon (the journal of a finished run is gone, so the sequence
        counter alone restarts at 0 after a restart)."""
        while True:
            candidate = f"r{self._seq:06d}"
            if not self._run_id_taken(candidate):
                return candidate
            self._seq += 1

    def _payload(self, record: RunRecord) -> Dict[str, Any]:
        # The worker claims/renews the run's manifest lease on the daemon's
        # behalf: owner_pid is *this* daemon's pid, not the worker's.
        return worker_payload(
            record.seq, record.spec, record.run_id,
            checkpoint_dir=str(self.store.root),
            checkpoint_every=record.checkpoint_every,
            keep=self.store.keep, retention=self.retention_spec,
            resume=record.resume, attempt=record.attempts,
            owner=self.owner, owner_pid=os.getpid(),
            lease_ttl=self.lease_ttl,
            fault_plan=record.faults, trace=record.trace,
        )

    def _slots(self) -> int:
        return max(1, self.pool.workers)

    def _batch_signature(self, record: RunRecord) -> Optional[tuple]:
        """What must match for two queued records to share one batch.

        The same-shape :func:`~repro.batch.grouping.batch_key` plus the
        snapshot cadence (members of one batch share the worker's
        ``checkpoint_every``).  ``None`` marks a record that must run solo:
        an unparseable spec, or a per-submission fault plan (fault arming is
        per-payload in the worker and must not leak onto batch neighbours).
        Computed once per record and kept on it: every dispatch rescans
        the queue under ``_wake``.
        """
        if record.batch_signature is _UNSIGNED:
            from repro.batch.grouping import batch_key

            record.batch_signature = None
            if not record.faults:
                try:
                    record.batch_signature = (
                        batch_key(ScenarioSpec.from_dict(record.spec)),
                        record.checkpoint_every)
                except Exception:  # noqa: BLE001 - the worker reports it
                    pass
        return record.batch_signature

    def _coalesce(self, record: RunRecord) -> List[RunRecord]:
        """Queued records to run alongside ``record`` (caller holds _wake).

        Scans the queue in order for records sharing ``record``'s batch
        signature, removes the matches, and returns the members (head
        first, queue order preserved) — at most ``batch_max`` in total.
        """
        members = [record]
        if self.batch_max <= 1:
            return members
        signature = self._batch_signature(record)
        if signature is None:
            return members
        for rid in list(self._queue):
            if len(members) >= self.batch_max:
                break
            candidate = self._records[rid]
            if self._batch_signature(candidate) != signature:
                continue
            self._queue.remove(rid)
            members.append(candidate)
        return members

    def _scheduler_loop(self) -> None:
        while True:
            with self._wake:
                while not (
                    self._stopping
                    or (self._queue
                        and self._inflight_groups < self._slots())
                ):
                    self._wake.wait(timeout=1.0)
                if self._stopping:
                    return
                run_id = self._queue.popleft()
                members = self._coalesce(self._records[run_id])
                payloads = []
                for record in members:
                    record.status = "running"
                    record.started_at = time.time()
                    record.attempts += 1
                    payloads.append(self._payload(record))
                    self._inflight.add(record.run_id)
                if len(payloads) == 1:
                    payload = payloads[0]
                else:
                    payload = {"index": members[0].seq, "batch": payloads}
                run_ids = tuple(record.run_id for record in members)
                self._inflight_groups += 1
            # Queue-wait observability, outside the lock (span writes are
            # I/O): ack-to-dispatch latency per member.
            for record in members:
                wait = max(0.0, record.started_at - record.submitted_at)
                telemetry.observe("repro_serve_queue_wait_seconds", wait,
                                  "submission ack to pool dispatch")
                self._write_run_span(record, "serve.queue",
                                     ts=record.submitted_at, dur=wait,
                                     attrs={"attempt": record.attempts})
            # Submit outside the lock: the inline pool executes synchronously.
            # The future never raises: the pool settles a worker death itself
            # (see WorkerPool), so every outcome is the run's own.
            was_warm = self.pool.started
            future = self.pool.submit(payload)
            with self._wake:
                self._pool_submissions += 1
                if not was_warm:
                    self._pool_cold += 1
            future.add_done_callback(
                lambda fut, run_ids=run_ids: self._on_batch_done(run_ids, fut)
            )

    def _on_batch_done(self, run_ids, future) -> None:
        """Completion callback of one pool submission (1..batch_max runs)."""
        with self._wake:
            records = [self._records[rid] for rid in run_ids]
            for rid in run_ids:
                self._inflight.discard(rid)
            self._inflight_groups = max(0, self._inflight_groups - 1)
            if len(records) > 1:
                self._batched_runs += len(records)
        result = future.result()
        # A batch's member outcomes come back in member (= records) order; a
        # payload this daemon's own stop cut off comes back as one outcome.
        for record, outcome in zip(
                records, result.get("batch", [result] * len(records))):
            self._settle(record, outcome)

    def _settle(self, record: RunRecord, outcome: Dict[str, Any]) -> None:
        # The run is neither queued nor in flight now, so the record is ours;
        # result/failure files are written OUTSIDE the lock (they can be MBs
        # of observable series — health/status polls must not block on them).
        if outcome.get("pool_broken"):
            # This daemon's own stop cut the run off before it could answer:
            # it is not charged, and the retry below requeues it, journalled
            # for the next daemon on this root.
            record.attempts -= 1
        if "ok" in outcome:
            executor_meta = outcome["ok"].get("metadata", {}).get(
                "executor", {}
            )
            record.finished_at = time.time()
            self._persist_outcome(record, {"ok": outcome["ok"]})
            self._observe_settled(record, "done")
            with self._wake:
                record.status = "done"
                record.error = None
                record.worker_pid = executor_meta.get("worker_pid")
                record.resumed_from_step = executor_meta.get(
                    "resumed_from_step"
                )
                self._observe_run_time(record)
                self._wake.notify_all()
        elif record.attempts <= self.max_retries:
            try:
                faults.point(FAULT_SERVE_RETRY_PRE_REQUEUE)
            except faults.InjectedFault as exc:
                # An injected requeue fault abandons the retry: the run fails
                # typed, with its attempts charged — _on_done never raises
                # into the future's callback machinery.
                record.finished_at = time.time()
                failure = dict(outcome["failure"])
                failure["error"] = f"{type(exc).__name__}: {exc}"
                failure["attempts"] = record.attempts
                self._persist_outcome(record, {"failure": failure})
                with self._wake:
                    record.status = "failed"
                    record.error = str(failure["error"])
                    self._wake.notify_all()
                return
            with self._wake:
                # Retry from the last snapshot: requeue at the *front* so an
                # interrupted run keeps its place in line.
                record.status = "queued"
                record.resume = True
                record.error = str(outcome["failure"].get("error", ""))
                self._queue.appendleft(record.run_id)
                self._wake.notify_all()
        else:
            record.finished_at = time.time()
            failure = dict(outcome["failure"])
            failure["attempts"] = record.attempts
            self._persist_outcome(record, {"failure": failure})
            self._observe_settled(record, "failed")
            with self._wake:
                record.status = "failed"
                record.error = str(failure.get("error", ""))
                self._observe_run_time(record)
                self._wake.notify_all()

    def _observe_settled(self, record: RunRecord, status: str) -> None:
        """Fold one terminal outcome into metrics + the run's span log."""
        if record.started_at is None or record.finished_at is None:
            return
        elapsed = max(0.0, record.finished_at - record.started_at)
        telemetry.observe("repro_serve_run_seconds", elapsed,
                          "pool dispatch to settled outcome")
        self._write_run_span(record, "serve.run", ts=record.started_at,
                             dur=elapsed,
                             attrs={"status": status,
                                    "attempts": record.attempts})

    def _observe_run_time(self, record: RunRecord) -> None:
        """Fold one finished run's wall time into the EWMA (holding _wake)."""
        if record.started_at is None or record.finished_at is None:
            return
        elapsed = max(0.0, record.finished_at - record.started_at)
        if self._avg_run_s is None:
            self._avg_run_s = elapsed
        else:
            self._avg_run_s = 0.7 * self._avg_run_s + 0.3 * elapsed

    # ------------------------------------------------------------------
    # Introspection (thread-safe snapshots)
    # ------------------------------------------------------------------
    def status(self, run_id: str,
               wait: Optional[float] = None) -> Dict[str, Any]:
        """One run record; ``wait`` (``GET /v1/runs/<id>?wait=S``) holds the
        answer until the run settles, the hold (clamped to
        :data:`KEEPALIVE_S`) expires, or the daemon stops — so a waiting
        client learns of the settle at once.  Unknown ids and runs known
        only from disk answer at once."""
        held_since = time.monotonic()
        deadline = held_since + min(max(float(wait or 0.0), 0.0), KEEPALIVE_S)
        with self._wake:
            while True:
                record = self._records.get(run_id)
                remaining = deadline - time.monotonic()
                if (record is None or record.status in FINISHED
                        or self._stopping or remaining <= 0.0):
                    break
                # Every settle, requeue and stop() notifies this condition.
                self._wake.wait(timeout=remaining)
            snapshot = None if record is None else record.to_dict()
        if snapshot is not None:
            if wait is not None:
                telemetry.observe("repro_serve_status_hold_seconds",
                                  time.monotonic() - held_since,
                                  "GET /v1/runs/<id>?wait: time the request "
                                  "was held")
            return snapshot
        # A run finished by a previous daemon incarnation: serve it from disk.
        outcome = self._load_outcome(run_id)
        if outcome is None:
            raise ServerError(404, f"unknown run id {run_id!r}")
        return recovered_record(run_id, outcome)

    def list_runs(self) -> List[Dict[str, Any]]:
        with self._wake:
            return [record.to_dict() for record in self._records.values()]

    def _load_outcome(self, run_id: str) -> Optional[Dict[str, Any]]:
        try:
            validate_key(run_id, "run_id")  # never read outside results/
        except ValueError:
            return None
        try:
            with open(self._result_path(run_id), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def result(self, run_id: str) -> Dict[str, Any]:
        record = self.status(run_id)
        if record["status"] not in FINISHED:
            raise result_pending(run_id, record["status"])
        outcome = self._load_outcome(run_id)
        if outcome is None:
            raise ServerError(500, f"result of run {run_id!r} is missing on disk")
        return outcome

    def fleet_overview(self) -> Dict[str, Any]:
        """The shared-root membership registry as this daemon sees it."""
        return {"members": self.registry.members(include_stale=True)}

    def health(self) -> Dict[str, Any]:
        with self._wake:
            statuses = [record.status for record in self._records.values()]
            return {
                "ok": True,
                "pid": os.getpid(),
                "owner": self.owner,
                # Fleet identity: peers and the router discover each other
                # through these plus the membership registry.
                "daemon_id": self.daemon_id,
                "host": self.host,
                "port": self.port,
                "started_at": self.started_at,
                "version": repro.__version__,
                "uptime_s": time.time() - self.started_at,
                "workers": self.pool.workers,
                "pool_started": self.pool.started,
                "pool_generations": self.pool.generations,
                "queued": statuses.count("queued"),
                "running": statuses.count("running"),
                "done": statuses.count("done"),
                "failed": statuses.count("failed"),
                "queue_size": self.queue_size,
                "draining": self._stopping,
            }

    def stats(self) -> Dict[str, Any]:
        """Deep observability snapshot (the ``/v1/stats`` endpoint).

        ``health()`` answers "is the daemon up"; this answers "how is it
        doing": queue depth, EWMA run time, warm-pool hit rate, the state
        root's on-disk footprint (journal, results, checkpoint bytes, lease
        states).  The disk scan runs outside _wake — it is I/O, and health
        polls must not queue behind it.
        """
        from repro.analytics.stats import store_stats

        with self._wake:
            statuses = [record.status for record in self._records.values()]
            submissions = self._pool_submissions
            hit_rate = (
                1.0 - self._pool_cold / submissions if submissions else None
            )
            daemon = {
                "ok": True,
                "pid": os.getpid(),
                "owner": self.owner,
                "daemon_id": self.daemon_id,
                "stolen": self._stolen,
                "uptime_s": time.time() - self.started_at,
                "queued": statuses.count("queued"),
                "running": statuses.count("running"),
                "done": statuses.count("done"),
                "failed": statuses.count("failed"),
                "queue_depth": len(self._queue),
                "inflight": len(self._inflight),
                "queue_size": self.queue_size,
                "avg_run_s": self._avg_run_s,
                "retention": self.retention_spec,
                "lease_ttl": self.lease_ttl,
                "draining": self._stopping,
                "batch_max": self.batch_max,
                "batched_runs": self._batched_runs,
                "pool": {
                    "workers": self.pool.workers,
                    "started": self.pool.started,
                    "generations": self.pool.generations,
                    "submissions": submissions,
                    "cold": self._pool_cold,
                    "warm_hit_rate": hit_rate,
                },
            }
        snapshot: Dict[str, Any] = {
            "daemon": daemon,
            "store": store_stats(self.root),
        }
        tsnap = telemetry.snapshot()
        written = tsnap["counters"].get(
            "repro_spans_written_total", {}
        ).get("value", 0.0)
        snapshot["telemetry"] = {
            "enabled": telemetry.enabled(),
            "metrics": tsnap,
            "spans": {"written": written},
        }
        return snapshot

    def trace_payload(self, run_id: str) -> Dict[str, Any]:
        """One run's span records (the ``/v1/runs/<id>/trace`` endpoint).

        Spans live in the run's store directory, so traces of runs finished
        by a previous daemon incarnation — or written by fleet peers sharing
        the root — are served too.  404 only for an entirely unknown id.
        """
        scenario: Optional[str] = None
        with self._wake:
            record = self._records.get(run_id)
            if record is not None:
                scenario = str(record.spec.get("name", ""))
        if not scenario:
            outcome = self._load_outcome(run_id)
            if outcome is not None:
                summary = outcome.get("ok") or outcome.get("failure") or {}
                scenario = summary.get("scenario") \
                    or (outcome.get("spec") or {}).get("name")
            else:
                entry = self._read_journal(run_id)
                if entry is not None:
                    scenario = (entry.get("spec") or {}).get("name")
        if not scenario:
            raise ServerError(404, f"unknown run id {run_id!r}")
        return run_trace(self.store.root, run_id, str(scenario))

    def iter_events(self, run_id: str, from_step: int = 0,
                    poll: float = _POLL_S) -> Iterator[Dict[str, Any]]:
        """Yield status + checkpoint events until the run finishes.

        Checkpoint events surface from the store (the workers write snapshots
        straight to disk) every ``poll`` seconds; status changes, and the
        final event, land as soon as the run settles.  The final event
        embeds the persisted outcome, so a streaming client needs no second
        round-trip.  Quiet stretches (a run queued behind others, or
        stepping between checkpoints) emit periodic ``ping`` events so
        client socket timeouts don't mistake a silent healthy stream for a
        dead daemon.
        """
        record = self.status(run_id)  # 404s early for unknown ids
        scenario = record["scenario"]
        last_status: Optional[str] = None
        seen_step = int(from_step)
        last_emit = time.monotonic()
        while True:
            record = self.status(run_id)
            if record["status"] != last_status:
                last_status = record["status"]
                last_emit = time.monotonic()
                yield {"event": "status", "run_id": run_id,
                       "status": last_status,
                       "attempts": record.get("attempts")}
            for step in self.store.steps(scenario, run_id):
                if step > seen_step:
                    seen_step = step
                    last_emit = time.monotonic()
                    yield {"event": "checkpoint", "run_id": run_id,
                           "step": step}
            if record["status"] in FINISHED:
                yield {"event": record["status"], "run_id": run_id,
                       "outcome": self.result(run_id)}
                return
            if time.monotonic() - last_emit > KEEPALIVE_S:
                last_emit = time.monotonic()
                yield {"event": "ping", "run_id": run_id}
            # Checkpoints surface at the poll cadence, a settle at once: the
            # wait is skipped when the status moved since it was read.
            with self._wake:
                live = self._records.get(run_id)
                if live is not None and live.status == last_status:
                    self._wake.wait(timeout=poll)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ScenarioServer":
        """Bind the socket, recover the journal and start serving (non-blocking)."""
        if self._scheduler is not None:
            raise RuntimeError("server is already started")
        self.root.mkdir(parents=True, exist_ok=True)
        self._queue_dir.mkdir(parents=True, exist_ok=True)
        self._results_dir.mkdir(parents=True, exist_ok=True)
        self._recover()
        self._housekeep()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="repro-serve-scheduler",
            daemon=True,
        )
        self._scheduler.start()
        # Join the fleet only once the port is final (port=0 is rewritten
        # here) so the membership record advertises a reachable address.
        self.port = self._http.start(self.host, self.port)
        try:
            self._member_id = self.registry.join(self.member_entry())
        except (OSError, faults.InjectedFault):
            self.stop(drain=False)
            raise
        self._fleet = FleetScheduler(
            self,
            heartbeat_interval=min(5.0, self.registry.ttl / 3.0),
            steal_interval=self.steal_interval,
        ).start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the daemon; with ``drain`` the in-flight runs finish first.

        Queued runs are *not* executed either way — their journal entries
        stay on disk, so the next daemon started on the same root resumes
        them.  Without ``drain`` the worker pool is torn down immediately;
        interrupted runs lose at most ``checkpoint_every`` steps.
        """
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
        # Leave the fleet first: the router must stop routing submissions
        # here before the queue starts refusing them.
        if self._fleet is not None:
            self._fleet.stop()
            self._fleet = None
        if self._member_id is not None:
            self.registry.leave(self._member_id)
            self._member_id = None
        if drain:
            deadline = None if timeout is None else time.time() + timeout
            with self._wake:
                while self._inflight:
                    remaining = None if deadline is None \
                        else max(0.0, deadline - time.time())
                    if remaining == 0.0:
                        break
                    self._wake.wait(timeout=remaining if remaining else 0.5)
        self.pool.shutdown(wait=drain)
        if self._scheduler is not None:
            self._scheduler.join(timeout=5.0)
            self._scheduler = None
        # Last: closing the socket is what releases serve_forever().
        self._http.close()

    def shutdown(self, drain: bool = True,
                 ) -> Tuple[Dict[str, Any], Callable[[], None]]:
        """``POST /v1/shutdown``: the ack, and the stop to run once it is
        sent (queued runs stay journalled either way, see :meth:`stop`)."""
        with self._wake:  # refuse from the ack on: no 202 may follow it
            self._stopping = True
        return ({"ok": True, "draining": drain},
                lambda: self.stop(drain=drain))

    def serve_forever(self) -> None:
        """Blocking run loop with SIGINT/SIGTERM-triggered graceful drain."""
        self._http.serve_forever()

    def __enter__(self) -> "ScenarioServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        if not self._stopped.is_set():
            self.stop(drain=True)
