"""The v2 run store: incremental binary checkpoints under one root.

Layout (one directory per ``(scenario, run_id)``)::

    <root>/<scenario>/<run_id>/
        MANIFEST.json          the run index (commit point of every mutation)
        state-00000040.npz     one binary blob per snapshot (engine state only)
        series-000000.seg      append-only recorded-series segments

A snapshot never re-embeds the observable history: the series log records
every sample exactly once and the snapshot references it by frame count, so
the write cost of snapshot N is O(state) + O(frames since snapshot N-1) —
independent of how long the run has been recording — and ``latest()`` /
``steps()`` are manifest lookups instead of directory scans.

Consistency model: segment appends and blob writes happen first, the atomic
``MANIFEST.json`` rewrite commits them.  A crash in between leaves only
unaccounted bytes/files that the next append truncates or :meth:`compact`
sweeps.  Because every incoming checkpoint payload is a *complete session*,
the store can also self-heal from any divergence between the payload and the
log (a run id restarted from scratch, a foreign writer): it resets the run
and rebuilds it from the payload alone — the self-containedness of a
one-file-per-snapshot layout without its O(n^2) total serialization.

This is the only layout the store reads or writes.  A run directory holding
the retired format 1 (``step-NNNNNNNN.json`` files, no manifest) is refused
with a typed :class:`~repro.store.errors.StoreFormatError` — by reads and by
``save`` alike, so a new manifest is never started beside files the store
cannot account for.

Concurrency model: any number of readers against any number of writers.
Same-process writers are serialised by a per-run ``threading.Lock``; writers
in *different* processes are serialised by a per-run advisory file lock
(``<run_dir>/.lock``, see :mod:`repro.store.locks`) taken around every
manifest read-modify-commit cycle, so interleaved saves can never build a
manifest from a stale read.  Run *ownership* is a separate, longer-lived
concern: a store constructed with an ``owner`` identity claims a lease
inside the manifest on every save (the heartbeat rides the atomic manifest
rewrite) and a second owner's save raises a typed
:class:`~repro.store.errors.RunLeaseHeld` instead of silently clobbering —
until the lease goes stale (TTL expiry, or a provably dead owner pid on the
same host), at which point the run becomes claimable: the missing half of
the journal-replay resume path.  Readers take no locks and tolerate
concurrent pruning (manifest re-read fallback in :meth:`latest`).
"""

from __future__ import annotations

import re
import threading
import time as _time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import faults
from repro.telemetry import metrics as _telemetry
from repro.store.codec import decode_state, encode_state, read_blob, write_blob
from repro.store.errors import CheckpointError, StoreFormatError
from repro.store.locks import (
    DEFAULT_LEASE_TTL_S, RunLock, claim_lease, release_lease,
)
from repro.store.manifest import (
    MANIFEST_NAME, STORE_FORMAT, find_snapshot, new_manifest, read_manifest,
    snapshot_steps, upsert_snapshot, write_manifest,
)
from repro.store.retention import (
    CompositePolicy, KeepLast, RetentionLike, RetentionPolicy, StoredItem,
    parse_retention,
)
from repro.store.series import SEGMENT_BYTE_LIMIT, SeriesLog, new_series_state
from repro.store.util import file_size, validate_key

FAULT_RESET_POST_MANIFEST = faults.register(
    "store.reset.post_manifest",
    "after a run reset's empty manifest committed, before the old blobs "
    "and segments are deleted (orphans the next compaction sweeps)",
)

#: How many manifest re-reads ``latest()`` tolerates when concurrent pruning
#: keeps deleting the blobs it found before giving up.
_LATEST_RETRY_LIMIT = 8

#: Seconds a save waits for a run's cross-process file lock before raising
#: :class:`~repro.store.errors.StoreLockTimeout`.
_LOCK_TIMEOUT_S = 10.0

_BLOB_TEMPLATE = "state-{step:08d}.npz"

#: Snapshot files of the retired store format 1 (one JSON file per snapshot).
_FORMAT_1_FILE = re.compile(r"^step-\d{8,}\.json$")


def blob_filename(step: int) -> str:
    return _BLOB_TEMPLATE.format(step=int(step))


def _read_manifest_or_refuse(directory: Path) -> Optional[Dict[str, Any]]:
    """The run's manifest, or None for a directory with no run in it.

    A manifest-less directory that holds format-1 snapshot files is a run
    this build cannot read: raise instead of reporting it empty (a save
    would start a new manifest beside files no index accounts for).  The
    directory scan happens only when there is no manifest, so saves into an
    established run pay nothing for it.
    """
    manifest = read_manifest(directory)
    if manifest is None and directory.is_dir():
        for path in directory.iterdir():
            if _FORMAT_1_FILE.match(path.name):
                message = (
                    f"store format 1 run directory {directory} "
                    f"({path.name}, no {MANIFEST_NAME}) is no longer read; "
                    "migrate it with a release that still ships "
                    "`repro store migrate`"
                )
                raise StoreFormatError(message, 1)
    return manifest


class RunStore:
    """Incremental checkpoint storage rooted at one directory.

    Parameters
    ----------
    root:
        Directory the store lives in; created lazily on first save.
    keep:
        When positive, retain only the newest ``keep`` snapshots of each run
        (sugar for a ``keep=N`` retention rule; 0 keeps everything).
    retention:
        Snapshot retention policy (a :class:`RetentionPolicy`, a spec string
        such as ``"keep=3,max-bytes=1G"``, or None to keep everything),
        applied to each run after every save; composes with ``keep``.  The
        newest snapshot is never pruned; the series log is never pruned
        (resume needs the full recorded history — that is the bit-identical
        contract).
    owner:
        Lease identity for run ownership, or None (the default) to write
        without claiming leases — existing single-writer callers keep their
        exact behaviour.  ``owner_pid``/``owner_host`` default to this
        process; a daemon passes its own so every worker of one daemon
        shares the daemon's identity.
    lease_ttl:
        Seconds a lease stays live past its last renewal (each save renews).
    """

    def __init__(self, root, keep: int = 0,
                 retention: RetentionLike = None,
                 segment_limit: int = SEGMENT_BYTE_LIMIT,
                 owner: Optional[str] = None,
                 owner_pid: Optional[int] = None,
                 owner_host: Optional[str] = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL_S) -> None:
        self.root = Path(root)
        if keep < 0:
            raise ValueError("keep must be >= 0")
        self.keep = int(keep)
        self.retention = parse_retention(retention)
        if self.keep:
            keep_rule = KeepLast(self.keep)
            self.retention = keep_rule if self.retention is None \
                else CompositePolicy([keep_rule, self.retention])
        self.segment_limit = int(segment_limit)
        self.owner = str(owner) if owner is not None else None
        self.owner_pid = owner_pid
        self.owner_host = owner_host
        self.lease_ttl = float(lease_ttl)
        self._locks: Dict[Tuple[str, str], threading.Lock] = {}
        self._master_lock = threading.Lock()

    # ------------------------------------------------------------------
    def run_dir(self, scenario: str, run_id: str = "default") -> Path:
        return (self.root / validate_key(scenario, "scenario")
                / validate_key(run_id, "run_id"))

    def _lock(self, scenario: str, run_id: str) -> threading.Lock:
        key = (str(scenario), str(run_id))
        with self._master_lock:
            if key not in self._locks:
                self._locks[key] = threading.Lock()
            return self._locks[key]

    def _run_lock(self, directory: Path) -> RunLock:
        """The cross-process lock of one run dir."""
        return RunLock(directory, timeout=_LOCK_TIMEOUT_S)

    def _claim(self, manifest: Dict[str, Any]) -> None:
        """Claim/renew this store's lease inside ``manifest`` (if owned)."""
        if self.owner is not None:
            claim_lease(manifest, self.owner, pid=self.owner_pid,
                        host=self.owner_host, ttl=self.lease_ttl)

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(self, checkpoint: Dict[str, Any], run_id: str = "default") -> Path:
        """Persist one complete-session checkpoint payload; returns the blob path.

        The scenario key and the step number are read from the payload
        itself, so ``functools.partial(store.save, run_id=...)`` (or a
        lambda) is directly usable as an ``on_checkpoint`` sink.
        """
        if "scenario" not in checkpoint or "step" not in checkpoint:
            raise CheckpointError(
                "checkpoint payload is missing 'scenario' or 'step'"
            )
        step = int(checkpoint["step"])
        if step < 0:
            raise CheckpointError("checkpoint step must be >= 0")
        scenario = str(checkpoint["scenario"])
        directory = self.run_dir(scenario, run_id)
        t0 = _time.perf_counter() if _telemetry.enabled() else None
        with self._lock(scenario, run_id), self._run_lock(directory):
            directory.mkdir(parents=True, exist_ok=True)
            manifest = _read_manifest_or_refuse(directory)
            if manifest is None:
                manifest = new_manifest(scenario, run_id)
            # Ownership check first, before any bytes move: a second live
            # writer gets RunLeaseHeld with nothing written.  The lease
            # (claim or heartbeat renewal) rides the manifest commit below.
            self._claim(manifest)
            if checkpoint.get("engine") is not None:
                manifest["engine"] = str(checkpoint["engine"])

            times = checkpoint.get("times")
            records = checkpoint.get("records") or {}
            has_series = isinstance(times, list)
            aligned = has_series and all(
                len(series) == len(times) for series in records.values()
            )
            log = SeriesLog(directory, manifest["series"], self.segment_limit)
            inline_series: Optional[Dict[str, Any]] = None
            series_count: Optional[int] = None
            if has_series and aligned:
                series_count = len(times)
                existing = log.frames
                diverged = series_count < existing
                if not diverged and existing > 0:
                    # Content check at the overlap point: the time stamp is a
                    # fast guard, the frame crc catches a run restarted with
                    # the same time grid but different physics (same dt, new
                    # seed/parameters) — frame encoding is deterministic, so
                    # re-encoding the overlapping record reproduces the crc
                    # stored at append time iff the values are identical.
                    head = existing - 1
                    diverged = float(times[head]) != log.last_time or (
                        log.last_crc is not None
                        and SeriesLog.frame_crc(
                            times[head],
                            {name: series[head]
                             for name, series in records.items()},
                        ) != log.last_crc
                    )
                if diverged:
                    # The payload describes a different history than the log
                    # (typically: the run id was restarted from scratch).
                    # The payload is complete, so rebuild the run from it.
                    self._reset_run(directory, manifest)
                    existing = 0
                try:
                    log.append(times, records, start=existing)
                except CheckpointError:
                    # The log is damaged (a segment shorter than the
                    # manifest accounts for, or missing outright).  Again:
                    # the payload is complete — rebuild the run from it
                    # instead of appending after garbage.
                    self._reset_run(directory, manifest)
                    log.append(times, records, start=0)
            elif has_series:
                # Ragged series (an observable that appeared mid-run) cannot
                # be frame-aligned; store them verbatim inside the blob.
                inline_series = {"times": times, "records": records}

            arrays: List[Any] = []
            # Only strip times/records when the series machinery re-persists
            # them; a payload carrying records without a times list keeps
            # them verbatim.
            stripped = ("state", "times", "records") if has_series \
                else ("state",)
            meta: Dict[str, Any] = {
                "blob_format": STORE_FORMAT,
                "payload": {
                    key: value for key, value in checkpoint.items()
                    if key not in stripped
                },
                "has_state": "state" in checkpoint,
                "state": (
                    encode_state(checkpoint["state"], arrays)
                    if "state" in checkpoint else None
                ),
                "has_series": has_series,
                "series_count": series_count,
                "inline_series": inline_series,
            }
            blob_name = blob_filename(step)
            path = write_blob(directory / blob_name, meta, arrays)
            upsert_snapshot(manifest, {
                "step": step,
                "file": blob_name,
                "bytes": file_size(path),
                "time": checkpoint.get("time"),
                "series_count": series_count,
                "saved_at": _time.time(),
            })
            doomed = self._select_prunable(manifest, self.retention)
            self._remove_snapshot_entries(manifest, doomed)
            write_manifest(directory, manifest)
            self._unlink_blobs(directory, doomed)
        if t0 is not None:
            _telemetry.observe("repro_store_save_seconds",
                               _time.perf_counter() - t0,
                               "one checkpoint save (lock to manifest commit)")
            _telemetry.incr("repro_store_saves_total", 1,
                            "checkpoint saves committed")
        return path

    @staticmethod
    def _reset_run(directory: Path, manifest: Dict[str, Any]) -> None:
        """Empty a run: commit the reset manifest FIRST, then delete files.

        The ordering is the store's one crash-consistency rule: a crash
        mid-reset must leave either the old run intact (manifest untouched)
        or a readable empty run — never a manifest naming deleted blobs or
        segments.  ``manifest["series"]`` is cleared *in place* so a
        :class:`SeriesLog` holding the same dict sees the reset too.
        """
        doomed = [directory / str(entry["file"])
                  for entry in manifest["snapshots"]]
        doomed += [directory / str(entry["file"])
                   for entry in manifest["series"]["segments"]]
        manifest["snapshots"] = []
        manifest["series"].clear()
        manifest["series"].update(new_series_state())
        write_manifest(directory, manifest)
        faults.point(FAULT_RESET_POST_MANIFEST)
        for path in doomed:
            try:
                path.unlink()
            except OSError:
                pass

    @staticmethod
    def _select_prunable(manifest: Dict[str, Any],
                         policy: Optional[RetentionPolicy],
                         ) -> List[Dict[str, Any]]:
        if policy is None:
            return []
        now = _time.time()
        items = [
            StoredItem(
                key=str(entry["step"]),
                order=int(entry["step"]),
                bytes=int(entry.get("bytes", 0)),
                age_s=max(0.0, now - float(entry.get("saved_at", now))),
            )
            for entry in manifest["snapshots"]
        ]
        doomed_keys = policy.prunable(items)
        return [entry for entry in manifest["snapshots"]
                if str(entry["step"]) in doomed_keys]

    @staticmethod
    def _remove_snapshot_entries(manifest: Dict[str, Any],
                                 doomed: List[Dict[str, Any]]) -> None:
        gone = {int(entry["step"]) for entry in doomed}
        manifest["snapshots"] = [
            entry for entry in manifest["snapshots"]
            if int(entry["step"]) not in gone
        ]

    @staticmethod
    def _unlink_blobs(directory: Path, doomed: List[Dict[str, Any]]) -> None:
        for entry in doomed:
            try:
                (directory / str(entry["file"])).unlink()
            except OSError:
                pass  # concurrent pruning by another worker is benign

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def steps(self, scenario: str, run_id: str = "default") -> List[int]:
        """Step numbers with stored snapshots, ascending."""
        directory = self.run_dir(scenario, run_id)
        manifest = _read_manifest_or_refuse(directory)
        return [] if manifest is None else snapshot_steps(manifest)

    def load(self, scenario: str, run_id: str = "default",
             step: Optional[int] = None) -> Dict[str, Any]:
        """Load one snapshot (the latest when ``step`` is None)."""
        directory = self.run_dir(scenario, run_id)
        manifest = _read_manifest_or_refuse(directory)
        available = [] if manifest is None else snapshot_steps(manifest)
        if manifest is None or (step is None and not available):
            raise CheckpointError(
                f"no checkpoints stored for scenario {scenario!r} "
                f"run {run_id!r} under {self.root}"
            )
        if step is None:
            step = available[-1]
        entry = find_snapshot(manifest, step)
        if entry is None:
            raise CheckpointError(
                f"no checkpoint at step {step} for scenario {scenario!r} "
                f"run {run_id!r} under {self.root}"
            )
        try:
            return self._load_entry(directory, manifest, entry)
        except FileNotFoundError as exc:
            # Name the file that is actually gone: the blob, or a series
            # segment the snapshot references — misreporting a lost segment
            # as a missing snapshot would send the operator to a blob that
            # exists.
            missing = exc.filename or str(directory / str(entry["file"]))
            raise CheckpointError(
                f"checkpoint at step {step} of scenario {scenario!r} run "
                f"{run_id!r} is missing data on disk: {missing}"
            ) from None

    def _load_entry(self, directory: Path, manifest: Dict[str, Any],
                    entry: Dict[str, Any]) -> Dict[str, Any]:
        meta, arrays = read_blob(directory / str(entry["file"]))
        payload = dict(meta["payload"])
        if meta.get("has_state"):
            payload["state"] = decode_state(meta["state"], arrays)
        if meta.get("has_series"):
            inline = meta.get("inline_series")
            if inline is not None:
                payload["times"] = inline["times"]
                payload["records"] = inline["records"]
            else:
                log = SeriesLog(directory, manifest["series"],
                                self.segment_limit)
                times, records = log.read(int(meta["series_count"]))
                payload["times"] = times
                payload["records"] = records
        return payload

    def latest(self, scenario: str, run_id: str = "default",
               ) -> Optional[Dict[str, Any]]:
        """The highest-step snapshot of a run, or ``None`` when there is none.

        Safe against concurrent writers on the same run id: a blob named by
        the manifest can be pruned between the manifest read and the blob
        open.  A vanished blob only ever means a newer manifest exists: fall
        back through the listed steps in descending order and re-read the
        manifest when the whole listing went stale.  Only a *missing* file is
        tolerated — a corrupt blob or series segment is a real store fault
        and raises immediately.
        """
        directory = self.run_dir(scenario, run_id)
        for _ in range(_LATEST_RETRY_LIMIT):
            manifest = _read_manifest_or_refuse(directory)
            if manifest is None:
                return None
            available = snapshot_steps(manifest)
            if not available:
                return None
            for step in reversed(available):
                entry = find_snapshot(manifest, step)
                try:
                    return self._load_entry(directory, manifest, entry)
                except FileNotFoundError:
                    continue  # pruned since the manifest read — try older
        raise CheckpointError(
            f"snapshots of scenario {scenario!r} run {run_id!r} under "
            f"{self.root} kept vanishing across {_LATEST_RETRY_LIMIT} "
            "manifest reads; the store is being pruned faster than it can "
            "be read"
        )

    # ------------------------------------------------------------------
    # Enumeration / maintenance
    # ------------------------------------------------------------------
    def scenarios(self) -> List[str]:
        """Scenario names with at least one stored run directory."""
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def run_ids(self, scenario: str) -> List[str]:
        """Run ids stored for one scenario."""
        directory = self.root / validate_key(scenario, "scenario")
        if not directory.is_dir():
            return []
        return sorted(p.name for p in directory.iterdir() if p.is_dir())

    def describe(self, scenario: str, run_id: str = "default",
                 ) -> Dict[str, Any]:
        """Inspection summary of one run (for ``repro store inspect``)."""
        directory = self.run_dir(scenario, run_id)
        manifest = _read_manifest_or_refuse(directory)
        if manifest is None:
            return {
                "scenario": scenario,
                "run_id": run_id,
                "store_format": None,
                "snapshots": 0,
                "steps": [],
                "bytes": 0,
                "series_frames": None,
                "segments": None,
                "lease": None,
            }
        return {
            "scenario": scenario,
            "run_id": run_id,
            "store_format": STORE_FORMAT,
            "engine": manifest.get("engine"),
            "snapshots": len(manifest["snapshots"]),
            "steps": snapshot_steps(manifest),
            "bytes": sum(
                int(entry.get("bytes", 0)) for entry in manifest["snapshots"]
            ) + sum(
                int(entry.get("bytes", 0))
                for entry in manifest["series"]["segments"]
            ),
            "series_frames": int(manifest["series"]["frames"]),
            "segments": len(manifest["series"]["segments"]),
            "lease": manifest.get("lease"),
        }

    def release(self, scenario: str, run_id: str = "default") -> bool:
        """Drop this store's lease on a run (end-of-run cleanup).

        Returns True when a lease was actually released.  A store with no
        ``owner``, a lease already taken over, or a run with no manifest
        all release nothing — silently, because release runs in best-effort
        cleanup paths.
        """
        if self.owner is None:
            return False
        directory = self.run_dir(scenario, run_id)
        with self._lock(scenario, run_id), self._run_lock(directory):
            manifest = read_manifest(directory)
            if manifest is None or not release_lease(manifest, self.owner):
                return False
            write_manifest(directory, manifest)
        return True

    def prune(self, scenario: str, run_id: str = "default",
              retention: RetentionLike = None) -> List[int]:
        """Apply a retention policy now; returns the pruned step numbers."""
        policy = parse_retention(retention) if retention is not None \
            else self.retention
        if policy is None:
            return []
        directory = self.run_dir(scenario, run_id)
        with self._lock(scenario, run_id), self._run_lock(directory):
            manifest = read_manifest(directory)
            if manifest is None:
                return []
            doomed = self._select_prunable(manifest, policy)
            if not doomed:
                return []
            self._remove_snapshot_entries(manifest, doomed)
            write_manifest(directory, manifest)
            self._unlink_blobs(directory, doomed)
        return sorted(int(entry["step"]) for entry in doomed)

    def compact(self, scenario: str, run_id: str = "default") -> Dict[str, Any]:
        """Merge series segments and sweep unreferenced files of one run.

        Returns a small report (segments merged, orphans removed, bytes
        reclaimed).  A directory without a manifest is left untouched.
        """
        directory = self.run_dir(scenario, run_id)
        report = {"scenario": scenario, "run_id": run_id,
                  "merged_segments": 0, "removed_files": 0,
                  "reclaimed_bytes": 0}
        with self._lock(scenario, run_id), self._run_lock(directory):
            manifest = read_manifest(directory)
            if manifest is None:
                return report
            log = SeriesLog(directory, manifest["series"], self.segment_limit)
            segments_before = len(manifest["series"]["segments"])
            obsolete = log.compact()
            referenced = {MANIFEST_NAME}
            referenced |= {str(entry["file"]) for entry in manifest["snapshots"]}
            referenced |= {
                str(entry["file"]) for entry in manifest["series"]["segments"]
            }
            write_manifest(directory, manifest)
            report["merged_segments"] = max(
                0, segments_before - len(manifest["series"]["segments"])
            )
            for path in obsolete:
                report["reclaimed_bytes"] += file_size(path)
                report["removed_files"] += 1
                try:
                    path.unlink()
                except OSError:
                    pass
            # Sweep orphans: blobs and segments whose manifest commit never
            # happened, tmp files.
            for path in directory.iterdir():
                if path.name in referenced or not path.is_file():
                    continue
                if (path.name.startswith(("state-", "series-", ".tmp-"))
                        and path not in obsolete):
                    report["reclaimed_bytes"] += file_size(path)
                    report["removed_files"] += 1
                    try:
                        path.unlink()
                    except OSError:
                        pass
        return report
