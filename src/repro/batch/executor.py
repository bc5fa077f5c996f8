"""Worker-side execution of a coalesced ``{"batch": [...]}`` payload.

The daemon scheduler (and :class:`~repro.api.registry.BatchRunner` in
batched mode) groups same-shape submissions into one payload whose
``"batch"`` key holds the member payloads — each shaped exactly like the
single-run payloads :func:`repro.api.executor.execute_payload` takes.  This
module runs the whole group through one :class:`~repro.batch.engine.
BatchedEngine` on the worker's warm workspace, preserving every per-member
contract of the serial path: checkpoint streaming into the shared store,
resume-from-latest-snapshot, executor metadata stamps and best-effort lease
release.  A member that fails settles as its own ``failure`` slot; the rest
of the batch completes (peel-off).  If the *batch machinery itself* fails —
anything outside a member's own run — every member falls back to the serial
single-run path, so a batched submission can never fail where serial would
have succeeded.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.api.result import RunFailure
from repro.api.spec import ScenarioSpec
from repro.batch.engine import BatchedEngine
from repro.store import DEFAULT_LEASE_TTL_S, RunStore

__all__ = ["execute_batch_payload"]


def _member_store(payload: Dict[str, Any]) -> Optional[RunStore]:
    if not payload.get("checkpoint_dir"):
        return None
    return RunStore(
        payload["checkpoint_dir"],
        keep=int(payload.get("keep", 0)),
        retention=payload.get("retention") or None,
        owner=payload.get("owner"),
        owner_pid=payload.get("owner_pid"),
        owner_host=payload.get("owner_host"),
        lease_ttl=float(payload.get("lease_ttl") or DEFAULT_LEASE_TTL_S),
    )


def _run_batch(members: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    import os

    from repro.api import executor as _executor

    specs = [ScenarioSpec.from_dict(p["spec"]) for p in members]
    run_ids = [str(p.get("run_id", "default")) for p in members]
    workspace = _executor._ensure_worker_workspace()
    engine = BatchedEngine(specs, workspace=workspace)

    # All members of one coalesced batch share the daemon's store config
    # (checkpoint_dir/keep/retention/lease identity), so one store instance
    # serves every member's snapshot stream and resume lookup.
    store = _member_store(members[0])
    sinks: List[Optional[Any]] = [None] * len(members)
    resumes: List[Optional[Dict[str, Any]]] = [None] * len(members)
    resumed_from: List[Optional[int]] = [None] * len(members)
    if store is not None:
        for i, payload in enumerate(members):
            sinks[i] = (
                lambda ckpt, rid=run_ids[i]: store.save(ckpt, run_id=rid)
            )
            if payload.get("resume"):
                snapshot = store.latest(specs[i].name, run_ids[i])
                if snapshot is not None:
                    resumes[i] = snapshot
                    resumed_from[i] = int(snapshot.get("step", 0))

    checkpoint_every = members[0].get("checkpoint_every")
    outcomes = engine.run(
        checkpoint_every=checkpoint_every,
        on_checkpoint=sinks,
        resume_from=resumes,
    )

    results: List[Dict[str, Any]] = []
    for i, (payload, outcome) in enumerate(zip(members, outcomes)):
        index = int(payload["index"])
        if isinstance(outcome, RunFailure):
            outcome.attempts = int(payload.get("attempt", 1))
            results.append({"index": index, "failure": outcome.to_dict()})
            continue
        outcome.metadata["executor"] = {
            "worker_pid": os.getpid(),
            "run_id": run_ids[i],
            "attempt": int(payload.get("attempt", 1)),
            "resumed_from_step": resumed_from[i],
            "batch_size": len(members),
        }
        outcome.metadata["workspace_stats"] = dict(workspace.stats)
        if store is not None:
            try:
                store.release(specs[i].name, run_ids[i])
            except Exception:  # noqa: BLE001 - the result already exists
                pass
        results.append({"index": index, "ok": outcome.to_dict()})
    return results


def execute_batch_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point for a coalesced batch; never raises.

    Returns ``{"index", "batch": [per-member outcome dicts]}`` where each
    member outcome is the ``{"index", "ok"/"failure"}`` dict the serial
    :func:`~repro.api.executor.execute_payload` would have produced for that
    member's payload.
    """
    from repro.api import executor as _executor

    members = list(payload["batch"])
    try:
        results = _run_batch(members)
    except Exception:  # noqa: BLE001 - batch machinery failed, not a member
        # Whatever broke (grouping mismatch, store trouble, a stacking bug)
        # was batch-level: re-run every member through the serial path so the
        # coalesced submission is never worse than the uncoalesced ones.
        results = [_executor.execute_payload(dict(p)) for p in members]
    return {"index": int(payload["index"]), "batch": results}
