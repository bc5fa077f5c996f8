"""Same-shape scenario batching (:mod:`repro.batch`) and its riders.

Four layers under test:

* **grouping** — :func:`~repro.batch.grouping.batch_key` admits exactly the
  spec differences that keep lockstep safe (seeds, material params, pulses,
  names) and rejects everything that changes shapes or schedules;
  :func:`~repro.batch.grouping.group_specs` partitions in first-occurrence
  order with ``max_batch`` chunking.
* **the BatchedEngine** — for every registry scenario, a batch of seed
  variants produces results bit-identical to running each spec serially;
  peel-off (a member failing mid-batch) leaves the survivors bit-identical
  and the peeled member resumable from its last snapshot; per-member
  ``resume_from`` matches serial resume exactly.
* **thread-safe workspaces + pool backends** — one
  :class:`~repro.perf.workspace.KernelWorkspace` shared by concurrent
  threads hands out per-thread scratch buffers (and the pinned
  ``per_thread_scratch=False`` mode raises the typed
  :class:`~repro.perf.workspace.WorkspaceThreadError` cross-thread);
  ``backend="thread"``/``"serial"`` pools produce results bit-identical to
  the process pool's.
* **the daemon** — a ``batch_max > 1`` :class:`~repro.api.ScenarioServer`
  coalesces queued same-shape submissions into one worker dispatch, counts
  them in ``stats()``, and returns bit-identical results.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import (
    BatchRunner, ScenarioServer, ServeClient, WorkerPool, default_registry,
)
from repro.api.adapters import build_engine
from repro.api.executor import POOL_BACKENDS, ExecutionService
from repro.api.result import RunFailure
from repro.batch import BatchedEngine, batch_key, group_specs
from repro.perf import KernelWorkspace, WorkspaceThreadError

from test_api import smoke_spec
from test_checkpoint import assert_results_bit_identical, json_cycle

ALL_NAMES = default_registry().names()


# ----------------------------------------------------------------------
# Grouping: which specs may share a batch
# ----------------------------------------------------------------------
class TestGrouping:
    def test_seed_and_material_variants_share_a_key(self):
        base = smoke_spec("localmode-switch")
        assert batch_key(base) == batch_key(base.with_overrides({"seed": 99}))
        assert batch_key(base) == batch_key(
            base.with_overrides({"name": "renamed", "description": "x"}))

    def test_schedule_and_shape_changes_split_keys(self):
        base = smoke_spec("localmode-switch")
        assert batch_key(base) != batch_key(
            base.with_overrides({"runtime.num_steps": 7}))
        assert batch_key(base) != batch_key(
            base.with_overrides({"propagator.dt": 1.5}))
        assert batch_key(base) != batch_key(
            base.with_overrides({"material.repeats": [4, 4, 1]}))

    def test_groups_preserve_first_occurrence_order(self):
        a1 = smoke_spec("localmode-switch", seed=1)
        a2 = smoke_spec("localmode-switch", seed=2)
        b = smoke_spec("maxwell-vacuum")
        groups = group_specs([a1, b, a2])
        assert groups == [[0, 2], [1]]

    def test_max_batch_chunks_oversized_groups(self):
        specs = [smoke_spec("localmode-switch", seed=s) for s in range(5)]
        assert group_specs(specs, max_batch=2) == [[0, 1], [2, 3], [4]]
        with pytest.raises(ValueError):
            group_specs(specs, max_batch=0)

    def test_engine_rejects_mixed_keys_and_empty_batches(self):
        with pytest.raises(ValueError):
            BatchedEngine([])
        with pytest.raises(ValueError):
            BatchedEngine([smoke_spec("localmode-switch"),
                           smoke_spec("maxwell-vacuum")])


# ----------------------------------------------------------------------
# Bit-identical parity: batched vs serial, every registry scenario
# ----------------------------------------------------------------------
class TestBatchedParity:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_seed_pairs_match_serial_exactly(self, name):
        specs = [smoke_spec(name, seed=101), smoke_spec(name, seed=202)]
        serial = [build_engine(spec.copy()).run() for spec in specs]
        batched = BatchedEngine(specs).run()
        for expected, actual in zip(serial, batched):
            assert actual.ok, getattr(actual, "error", None)
            assert_results_bit_identical(expected, actual)

    def test_mlmd_triple_exercises_the_stacked_kernel(self):
        # Three members through the decaying-weight path: the stack must
        # track each member's own excitation weight, not a shared one.
        specs = [smoke_spec("mlmd-photoswitch", num_steps=6, seed=s)
                 for s in (3, 5, 8)]
        serial = [build_engine(spec.copy()).run() for spec in specs]
        batched = BatchedEngine(specs).run()
        for expected, actual in zip(serial, batched):
            assert_results_bit_identical(expected, actual)

    def test_batch_runner_batched_mode_matches_serial(self):
        specs = [smoke_spec("localmode-switch", seed=1),
                 smoke_spec("maxwell-vacuum"),
                 smoke_spec("localmode-switch", seed=2)]
        serial = BatchRunner().run([spec.copy() for spec in specs])
        batched = BatchRunner(batched=True).run([spec.copy() for spec in specs])
        for expected, actual in zip(serial, batched):
            assert expected.ok and actual.ok
            assert_results_bit_identical(expected, actual)
            assert "workspace_stats" in actual.metadata


# ----------------------------------------------------------------------
# Peel-off and resume
# ----------------------------------------------------------------------
class TestPeelOff:
    def test_checkpoint_killed_member_peels_and_resumes(self):
        specs = [smoke_spec("localmode-switch", num_steps=6, seed=s)
                 for s in (1, 2, 3)]
        serial = [build_engine(spec.copy()).run() for spec in specs]

        # The middle member's snapshot sink saves, then dies at step 3 —
        # the save-then-crash shape a full disk or lost store produces.
        victim_saves = []

        def victim_sink(checkpoint):
            victim_saves.append(json_cycle(checkpoint))
            raise OSError("store died")

        outcomes = BatchedEngine([spec.copy() for spec in specs]).run(
            checkpoint_every=3,
            on_checkpoint=[None, victim_sink, None],
        )
        assert outcomes[0].ok and outcomes[2].ok
        assert isinstance(outcomes[1], RunFailure)
        assert "store died" in outcomes[1].error
        assert_results_bit_identical(serial[0], outcomes[0])
        assert_results_bit_identical(serial[2], outcomes[2])

        # The snapshot taken before the sink raised is a valid resume point:
        # finishing from it reproduces the uninterrupted serial run exactly.
        assert victim_saves and victim_saves[0]["step"] == 3
        resumed = build_engine(specs[1].copy()).resume(victim_saves[0])
        assert_results_bit_identical(serial[1], resumed)

    def test_per_member_resume_from_matches_serial(self):
        specs = [smoke_spec("mlmd-photoswitch", num_steps=6, seed=s)
                 for s in (5, 6, 7)]
        serial = [build_engine(spec.copy()).run() for spec in specs]
        checkpoints = []
        for spec, cut in zip(specs, (2, 4, 6)):
            engine = build_engine(spec.copy())
            engine.run(num_steps=cut)
            checkpoints.append(json_cycle(engine.checkpoint()))
        # Members resumed at different steps peel off at different
        # iterations (the step-6 member completes before stepping at all).
        outcomes = BatchedEngine([spec.copy() for spec in specs]).run(
            resume_from=checkpoints)
        for expected, actual in zip(serial, outcomes):
            assert actual.ok, getattr(actual, "error", None)
            assert_results_bit_identical(expected, actual)


# ----------------------------------------------------------------------
# Thread-safe workspace
# ----------------------------------------------------------------------
class TestWorkspaceThreads:
    def test_scratch_buffers_are_per_thread(self):
        workspace = KernelWorkspace()
        grabbed = {}
        # Pools are keyed on threading.get_ident(), which the OS reuses once
        # a thread exits: hold both threads alive until each has grabbed.
        both_grabbed = threading.Barrier(2)

        def grab(slot):
            grabbed[slot] = workspace.scratch("shared-tag", (32,), np.float64)

        def grab_alongside(slot):
            grab(slot)
            both_grabbed.wait(timeout=30)

        threads = [threading.Thread(target=grab_alongside, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        grab("main")
        assert grabbed[0] is not grabbed[1]
        assert grabbed["main"] is not grabbed[0]
        # Within one thread the reuse guarantee is unchanged.
        assert workspace.scratch("shared-tag", (32,), np.float64) \
            is grabbed["main"]
        assert workspace.stats["scratch_pools"] == 3

    def test_pinned_mode_raises_typed_cross_thread(self):
        workspace = KernelWorkspace(per_thread_scratch=False)
        first = workspace.scratch("tag", (4,))
        assert workspace.scratch("tag", (4,)) is first  # owner reuses
        failures = []

        def cross_thread():
            try:
                workspace.scratch("tag", (4,))
            except WorkspaceThreadError as exc:
                failures.append(exc)

        thread = threading.Thread(target=cross_thread)
        thread.start()
        thread.join()
        assert len(failures) == 1

    def test_concurrent_phase_reads_share_one_entry(self):
        from repro.grid import Grid3D

        workspace = KernelWorkspace()
        grid = Grid3D((8, 8, 8), (4.0, 4.0, 4.0))
        phases = []
        lock = threading.Lock()

        def reader():
            for _ in range(20):
                phase = workspace.kinetic_phase(grid, 0.05)
                with lock:
                    phases.append(phase)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert workspace.stats["phase_entries"] == 1
        reference = workspace.kinetic_phase(grid, 0.05)
        assert not reference.flags.writeable
        for phase in phases:
            np.testing.assert_array_equal(phase, reference)


# ----------------------------------------------------------------------
# Pool backends
# ----------------------------------------------------------------------
class TestPoolBackends:
    def test_backend_validation(self):
        assert POOL_BACKENDS == ("process", "thread", "serial")
        with pytest.raises(ValueError):
            WorkerPool(1, backend="bogus")
        with pytest.raises(ValueError):
            ExecutionService(workers=1, backend="bogus")

    def test_serial_backend_runs_inline(self):
        pool = WorkerPool(4, backend="serial")
        assert pool.inline
        payload = {"index": 0,
                   "spec": smoke_spec("maxwell-vacuum").to_dict(),
                   "run_id": "r", "checkpoint_dir": None,
                   "checkpoint_every": None, "keep": 0, "resume": False,
                   "attempt": 1}
        assert "ok" in pool.submit(payload).result()

    def test_borrowed_pool_backend_must_match(self):
        with WorkerPool(1, backend="thread") as pool:
            service = ExecutionService(pool=pool)
            assert service.backend == "thread"
            with pytest.raises(ValueError):
                ExecutionService(pool=pool, backend="process")

    def test_thread_and_serial_backends_match_inline_results(self):
        specs = [smoke_spec("localmode-switch", seed=s) for s in (11, 12)]
        reference = ExecutionService(workers=0).run(
            [spec.copy() for spec in specs])
        for backend in ("thread", "serial"):
            outcomes = ExecutionService(workers=2, backend=backend).run(
                [spec.copy() for spec in specs])
            for expected, actual in zip(reference, outcomes):
                assert actual.ok, getattr(actual, "error", None)
                assert_results_bit_identical(expected, actual)


# ----------------------------------------------------------------------
# Daemon coalescing
# ----------------------------------------------------------------------
class TestDaemonCoalescing:
    def test_batch_max_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ScenarioServer(tmp_path, port=0, batch_max=0)

    def test_queued_same_shape_runs_coalesce_bit_identically(self, tmp_path):
        specs = [smoke_spec("localmode-switch", num_steps=4, seed=s)
                 for s in range(4)]
        serial = BatchRunner().run([spec.copy() for spec in specs])
        # A gate, not a race: the scheduler thread parks inside its first
        # dispatch (the plug's, on the single inline worker slot) until the
        # four same-shape submissions are queued behind it, so it sees the
        # whole group in the queue at once however slow the box is.
        plug = smoke_spec("maxwell-vacuum", num_steps=2)
        parked, release = threading.Event(), threading.Event()
        with ScenarioServer(tmp_path, port=0, workers=0,
                            batch_max=4) as server:
            pool_submit = server.pool.submit

            def gated_submit(payload):
                parked.set()
                assert release.wait(60.0)
                return pool_submit(payload)

            server.pool.submit = gated_submit
            client = ServeClient(port=server.port, timeout=60.0)
            try:
                client.submit(plug, run_id="plug")
                assert parked.wait(60.0)
                run_ids = [client.submit(spec)["run_id"] for spec in specs]
            finally:
                release.set()
            outcomes = [client.wait(run_id, timeout=120)
                        for run_id in run_ids]
            stats = server.stats()["daemon"]
        assert stats["batch_max"] == 4
        assert stats["batched_runs"] == 4
        for expected, actual in zip(serial, outcomes):
            assert actual.ok, getattr(actual, "error", None)
            assert_results_bit_identical(expected, actual)
            assert actual.metadata["executor"]["batch_size"] == 4
