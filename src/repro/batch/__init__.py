"""Same-shape scenario batching: M runs per vectorized kernel call.

The throughput lever the ROADMAP's "Raw speed" item names: group M
same-shape :class:`~repro.api.spec.ScenarioSpec` submissions (same
grid/propagator/runtime, differing params and seeds) and advance them
through ONE leading-axis numpy call per step instead of M serial calls.
Results are bit-identical to serial execution — see
:class:`~repro.batch.engine.BatchedEngine` for the argument — and a member
that errors or checkpoints out is peeled off without stopping the batch.

Layers:

* :mod:`repro.batch.grouping` — which specs may share a batch
  (:func:`batch_key` / :func:`group_specs`);
* :mod:`repro.batch.engine` — :class:`BatchedEngine`, the lockstep driver
  with stacked stepping for the local-mode engines and per-run peel-off.

Workers have no batch-specific entry point: :func:`repro.api.executor.
execute_payload` runs every payload — a coalesced ``{"batch": [...]}`` one
or a single run, the batch of one — on a :class:`BatchedEngine`.
"""

from repro.batch.engine import BatchedEngine
from repro.batch.grouping import batch_key, group_specs

__all__ = ["BatchedEngine", "batch_key", "group_specs"]
