"""repro.store: incremental checkpoint storage.

One on-disk format, one store class — :class:`RunStore`, which the API layer
re-exports under its historical name ``repro.api.CheckpointStore``:

* :mod:`repro.store.runstore`  — :class:`RunStore`: one binary npz blob per
  engine-state snapshot, an append-only segmented series log that records
  observables exactly once, and a per-run ``MANIFEST.json`` index making
  ``latest()``/``steps()``/resume O(1) lookups.  Run directories in any
  other format are refused with a typed :class:`StoreFormatError`.
* :mod:`repro.store.codec`     — the state-blob codec (plain JSON-able
  payloads <-> npz skeleton + arrays, bit-exact including ``-0.0``/0-d/
  complex leaves).
* :mod:`repro.store.series`    — the binary frame format and segment log.
* :mod:`repro.store.manifest`  — the format-versioned run index.
* :mod:`repro.store.retention` — pluggable pruning policies
  (``keep=N``, ``every=K``, ``max-age``, ``max-bytes``) and
  :func:`parse_retention` for spec strings.
* :mod:`repro.store.locks`     — the cross-process per-run file lock and the
  run-ownership lease records inside the manifest (TTL + heartbeat +
  stale-lease takeover).
* :mod:`repro.store.cli`       — ``repro store ls/inspect/compact``.

This package deliberately never imports :mod:`repro.api`: it operates on the
plain checkpoint payload dicts the engine layer emits, which is what lets
:mod:`repro.api.engine` re-export :class:`CheckpointError` from here without
an import cycle.
"""

from repro.store.errors import (
    CheckpointError, RunLeaseHeld, StoreFormatError, StoreLockTimeout,
)
from repro.store.locks import (
    DEFAULT_LEASE_TTL_S, RunLock, claim_lease, default_owner, lease_remaining,
    lease_stale, release_lease,
)
from repro.store.manifest import STORE_FORMAT
from repro.store.retention import (
    CompositePolicy, KeepEvery, KeepLast, MaxAge, MaxBytes, RetentionPolicy,
    StoredItem, describe_retention, parse_retention,
)
from repro.store.runstore import RunStore
from repro.store.util import atomic_write_bytes, atomic_write_json, validate_key

__all__ = [
    "CheckpointError",
    "CompositePolicy",
    "DEFAULT_LEASE_TTL_S",
    "KeepEvery",
    "KeepLast",
    "MaxAge",
    "MaxBytes",
    "RetentionPolicy",
    "RunLeaseHeld",
    "RunLock",
    "RunStore",
    "STORE_FORMAT",
    "StoreFormatError",
    "StoreLockTimeout",
    "StoredItem",
    "atomic_write_bytes",
    "atomic_write_json",
    "claim_lease",
    "default_owner",
    "describe_retention",
    "lease_remaining",
    "lease_stale",
    "parse_retention",
    "release_lease",
    "validate_key",
]
