"""The per-run ``MANIFEST.json`` index.

One manifest per ``<root>/<scenario>/<run_id>/`` directory records every live
snapshot blob (step, file, byte size, the series frame count it references)
and the series log's segment accounting.  It is the run's single source of
truth: ``latest()``, ``steps()`` and resume are manifest lookups instead of
directory scans, and the atomic manifest rewrite is the commit point of every
mutation (blob and segment writes happen first; a crash in between leaves an
orphan file the next compaction sweeps, never a manifest naming missing data).

``store_format`` gates compatibility: readers reject manifests written by
any other format instead of guessing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import faults
from repro.store.errors import CheckpointError, StoreFormatError
from repro.store.series import new_series_state
from repro.store.util import atomic_write_json

#: The on-disk store format this build reads and writes.
STORE_FORMAT = 2

FAULT_COMMIT_PRE = faults.register(
    "manifest.commit.pre_write",
    "before the manifest temp file is written (blobs/segments on disk, "
    "old manifest still the commit point)",
)
FAULT_COMMIT_PRE_RENAME = faults.register(
    "manifest.commit.pre_rename",
    "after the manifest temp file is fsynced, before os.replace makes it "
    "the manifest (the instant either side of the commit point)",
)
FAULT_COMMIT_POST = faults.register(
    "manifest.commit.post_commit",
    "immediately after the manifest rename lands (commit durable, caller "
    "has not yet observed success)",
)

MANIFEST_NAME = "MANIFEST.json"


def manifest_path(run_dir) -> Path:
    return Path(run_dir) / MANIFEST_NAME


def new_manifest(scenario: str, run_id: str) -> Dict[str, Any]:
    return {
        "store_format": STORE_FORMAT,
        "scenario": str(scenario),
        "run_id": str(run_id),
        "engine": None,
        "snapshots": [],
        "series": new_series_state(),
    }


def read_manifest(run_dir) -> Optional[Dict[str, Any]]:
    """The run's manifest dict, or None when the directory has none.

    A manifest from another store format raises :class:`StoreFormatError`
    (reading it as v2 would silently mangle the run); an unparsable manifest
    raises :class:`CheckpointError` — atomic rewrites make torn manifests
    impossible in normal operation, so that is a real store fault.
    """
    path = manifest_path(run_dir)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt run manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(
            f"corrupt run manifest {path}: expected a JSON object, "
            f"got {type(manifest).__name__}"
        )
    fmt = manifest.get("store_format")
    if fmt != STORE_FORMAT:
        raise StoreFormatError(
            f"run manifest {path} has store_format {fmt!r}; this build "
            f"reads format {STORE_FORMAT} only (use the repro release that "
            "wrote it)", fmt,
        )
    if not isinstance(manifest.get("snapshots"), list) or not isinstance(
        manifest.get("series"), dict
    ):
        raise CheckpointError(
            f"corrupt run manifest {path}: missing or malformed "
            "'snapshots'/'series' sections"
        )
    return manifest


def read_lease(run_dir) -> Optional[Dict[str, Any]]:
    """The run's ownership lease record, or None — deliberately lenient.

    Claim scans (journal recovery, fleet work stealing) walk many run
    directories looking for evidence of a live owner; an absent, corrupt or
    foreign-format manifest must read as "no lease" there, not abort the
    whole scan the way :func:`read_manifest`'s typed errors would.
    """
    try:
        manifest = read_manifest(run_dir)
    except (CheckpointError, ValueError):
        return None
    if manifest is None:
        return None
    lease = manifest.get("lease")
    return lease if isinstance(lease, dict) else None


def write_manifest(run_dir, manifest: Dict[str, Any]) -> Path:
    faults.point(FAULT_COMMIT_PRE)
    path = atomic_write_json(
        manifest_path(run_dir), manifest,
        pre_rename=lambda: faults.point(FAULT_COMMIT_PRE_RENAME),
    )
    faults.point(FAULT_COMMIT_POST)
    return path


# ----------------------------------------------------------------------
# Snapshot bookkeeping helpers
# ----------------------------------------------------------------------
def snapshot_steps(manifest: Dict[str, Any]) -> List[int]:
    return sorted(int(entry["step"]) for entry in manifest["snapshots"])


def find_snapshot(manifest: Dict[str, Any], step: int,
                  ) -> Optional[Dict[str, Any]]:
    for entry in manifest["snapshots"]:
        if int(entry["step"]) == int(step):
            return entry
    return None


def upsert_snapshot(manifest: Dict[str, Any], entry: Dict[str, Any]) -> None:
    manifest["snapshots"] = [
        existing for existing in manifest["snapshots"]
        if int(existing["step"]) != int(entry["step"])
    ]
    manifest["snapshots"].append(entry)
    manifest["snapshots"].sort(key=lambda e: int(e["step"]))
