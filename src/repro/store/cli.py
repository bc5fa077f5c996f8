"""Implementation of the ``repro store`` CLI subcommands.

Argument wiring lives in :mod:`repro.api.cli` (so ``python -m repro store ls``
shares the one front door); the behaviour lives here with the subsystem it
operates on.

Subcommands::

    repro store ls DIR [scenario]             runs, snapshot counts, sizes
    repro store inspect DIR scenario run_id   one run's manifest summary
    repro store compact DIR [--scenario S] [--retention SPEC]

Every subcommand exits 2 with a one-line ``error:`` diagnostic on a corrupt
or unreadable store (a manifest that is not valid JSON, not an object, or
missing its required sections) — an operator pointing ``ls`` at a damaged
tree gets told which manifest is bad, never a traceback.  A run in a store
format this build does not read is not damage: ``ls`` lists it as
``v<N> (unsupported)`` and carries on; ``inspect`` of it exits 2 with the
reason.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.store.errors import CheckpointError, StoreFormatError
from repro.store.retention import parse_retention
from repro.store.runstore import RunStore
from repro.store.cliutil import subcommand_errors

#: Storage faults become one-line stderr diagnostics and exit 2 — the same
#: error path the analytics CLI uses (repro.store.cliutil).
_store_errors = subcommand_errors(CheckpointError, ValueError)


def _human_bytes(count) -> str:
    count = float(count or 0)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return f"{count:.0f} {unit}" if unit == "B" else f"{count:.1f} {unit}"
        count /= 1024
    return f"{count:.1f} GiB"  # pragma: no cover - unreachable


def _run_keys(store: RunStore, scenario: Optional[str]):
    """``(scenario, run_id)`` of every run under the root (or one scenario)."""
    scenarios = [scenario] if scenario is not None else store.scenarios()
    for name in scenarios:
        for run_id in store.run_ids(name):
            yield name, run_id


@_store_errors
def cmd_ls(root, scenario: Optional[str] = None, as_json: bool = False) -> int:
    store = RunStore(root)
    rows = []
    for name, run_id in _run_keys(store, scenario):
        try:
            rows.append(store.describe(name, run_id))
        except StoreFormatError as exc:
            rows.append({"scenario": name, "run_id": run_id,
                         "store_format": exc.store_format,
                         "unsupported": str(exc)})
    if as_json:
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        print(f"no runs under {root}")
        return 0
    width_s = max(len(str(r["scenario"])) for r in rows)
    width_r = max(len(str(r["run_id"])) for r in rows)
    print(f"{len(rows)} run(s) under {root}:")
    for row in rows:
        head = f"  {row['scenario']:<{width_s}}  {row['run_id']:<{width_r}}  "
        fmt = row["store_format"]
        if "unsupported" in row:
            print(f"{head}v{fmt} (unsupported)")
            continue
        version = f"v{fmt}" if fmt else "empty"
        latest = row["steps"][-1] if row["steps"] else "-"
        frames = row["series_frames"]
        frames_text = "-" if frames is None else str(frames)
        print(f"{head}{version:<5} {row['snapshots']:>4} snapshots  "
              f"latest step {latest!s:>8}  {frames_text:>6} frames  "
              f"{_human_bytes(row['bytes']):>10}")
    return 0


def _verify_run(store: RunStore, scenario: str, run_id: str) -> Dict[str, Any]:
    """Light integrity check: the latest snapshot must load completely."""
    try:
        payload = store.latest(scenario, run_id)
    except CheckpointError as exc:
        return {"scenario": scenario, "run_id": run_id,
                "ok": False, "error": str(exc)}
    if payload is None:
        return {"scenario": scenario, "run_id": run_id,
                "ok": False, "error": "no snapshots"}
    return {"scenario": scenario, "run_id": run_id, "ok": True,
            "latest_step": int(payload.get("step", -1)),
            "records": len(payload.get("times", []))}


@_store_errors
def cmd_inspect(root, scenario: str, run_id: str) -> int:
    store = RunStore(root)
    summary = store.describe(scenario, run_id)
    if summary["store_format"] is None:
        print(f"error: no run {scenario!r}/{run_id!r} under {root}")
        return 2
    summary["verify"] = _verify_run(store, scenario, run_id)
    print(json.dumps(summary, indent=2))
    return 0


@_store_errors
def cmd_compact(root, scenario: Optional[str] = None,
                retention: Optional[str] = None) -> int:
    policy = parse_retention(retention)
    store = RunStore(root)
    runs = removed = reclaimed = pruned = 0
    for name, run_id in _run_keys(store, scenario):
        report = store.compact(name, run_id)
        runs += 1
        removed += report["removed_files"]
        reclaimed += report["reclaimed_bytes"]
        if policy is not None:
            pruned += len(store.prune(name, run_id, retention=policy))
    print(f"compacted {runs} run(s): removed {removed} file(s), "
          f"pruned {pruned} snapshot(s), reclaimed {_human_bytes(reclaimed)}")
    return 0
