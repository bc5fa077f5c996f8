"""Which scenario specs may share one lockstep batch.

Two specs are *same-shape* when everything that determines the array shapes
and the per-step schedule matches: the engine kind, the grid section, the
propagator section, the runtime cadence (num_steps / record_every /
checkpoint_every) and the material's lattice ``repeats``.  Seeds, remaining
material parameters, pulse settings, names and descriptions may differ —
those vary per member without breaking lockstep.

The key is deliberately a canonical JSON string: hashable, order-stable and
cheap to compare across processes (the daemon scheduler computes it once per
queued record).
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Sequence

from repro.api.spec import ScenarioSpec

__all__ = ["batch_key", "group_specs"]


def batch_key(spec: ScenarioSpec) -> str:
    """Canonical same-shape signature of ``spec``.

    Specs with equal keys run the same engine on the same grid with the same
    step schedule, so a :class:`~repro.batch.engine.BatchedEngine` can drive
    them in lockstep (one step for every member per iteration).
    """
    data = spec.to_dict()
    material = data.get("material") or {}
    key = {
        "engine": data.get("engine"),
        "grid": data.get("grid"),
        "propagator": data.get("propagator"),
        "runtime": data.get("runtime"),
        "repeats": material.get("repeats"),
    }
    return json.dumps(key, sort_keys=True, separators=(",", ":"), default=str)


def group_specs(specs: Sequence[ScenarioSpec],
                max_batch: Optional[int] = None) -> List[List[int]]:
    """Partition ``specs`` into batchable index groups.

    Groups preserve first-occurrence order and each group preserves input
    order; ``max_batch`` splits oversized groups into chunks.  Singleton
    groups are returned too — a lone spec is a batch of one.
    """
    if max_batch is not None and int(max_batch) < 1:
        raise ValueError("max_batch must be >= 1 (or None)")
    order: List[str] = []
    by_key = {}
    for index, spec in enumerate(specs):
        key = batch_key(spec)
        if key not in by_key:
            by_key[key] = []
            order.append(key)
        by_key[key].append(index)
    groups: List[List[int]] = []
    for key in order:
        members = by_key[key]
        if max_batch is None:
            groups.append(members)
            continue
        step = int(max_batch)
        groups.extend(members[i:i + step] for i in range(0, len(members), step))
    return groups
