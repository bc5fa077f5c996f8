"""Same-shape scenario batching (:mod:`repro.batch`) and its riders.

Four layers under test:

* **grouping** — :func:`~repro.batch.grouping.batch_key` admits exactly the
  spec differences that keep lockstep safe (seeds, material params, pulses,
  names) and rejects everything that changes shapes or schedules;
  :func:`~repro.batch.grouping.group_specs` partitions in first-occurrence
  order with ``max_batch`` chunking.
* **the BatchedEngine** — for every registry scenario, a batch of seed
  variants produces results bit-identical to running each spec serially,
  and so does the worker's one run path (a solo payload, a batch of one
  and a member of a four-batch, with and without a store, fresh or
  resumed); peel-off (a member failing mid-batch) leaves the survivors bit-identical
  and the peeled member resumable from its last snapshot; per-member
  ``resume_from`` matches serial resume exactly.
* **thread-safe workspaces + the inline pool** — concurrent readers of one
  :class:`~repro.perf.workspace.KernelWorkspace` share one read-only
  operator entry; a ``workers=0`` pool runs its payloads inline.
* **the worker path** — every member of a payload, solo or coalesced,
  gets its spans, counters and metadata stamps; a member failure stays its
  own and a batch-level failure falls back to per-member runs.
* **the daemon** — a ``batch_max > 1`` :class:`~repro.api.ScenarioServer`
  coalesces queued same-shape submissions into one worker dispatch, counts
  them in ``stats()``, and returns bit-identical results.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

import numpy as np
import pytest

from repro import telemetry
from repro.api import (
    BatchRunner, ScenarioServer, ServeClient, WorkerPool, default_registry,
    run_scenario,
)
from repro.api.adapters import build_engine
from repro.api.executor import execute_payload, worker_payload
from repro.api.result import RunFailure, RunResult
from repro.batch import BatchedEngine, batch_key, group_specs
from repro.batch.engine import STACKED_KINDS
from repro.perf import KernelWorkspace
from repro.store import RunStore

from test_api import smoke_spec
from test_checkpoint import assert_results_bit_identical, json_cycle

ALL_NAMES = default_registry().names()


def member_payload(index, spec, run_id, checkpoint_dir=None,
                   **fields) -> Dict[str, Any]:
    """One worker payload for ``spec`` (a daemon's, minus the lease)."""
    fields = {"checkpoint_every": None, "keep": 0, "retention": None,
              "resume": False, "attempt": 1, **fields}
    return worker_payload(
        index, spec.to_dict(), run_id,
        checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
        **fields)


def batch_of(payloads) -> Dict[str, Any]:
    return {"index": payloads[0]["index"], "batch": list(payloads)}


def settled(outcome: Dict[str, Any]) -> RunResult:
    assert "ok" in outcome, outcome.get("failure")
    return RunResult.from_dict(outcome["ok"])


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
    def test_seed_pairs_match_serial_exactly(self, name, tmp_path):
        specs = [smoke_spec(name, seed=seed) for seed in (101, 202, 303, 404)]
        serial = [run_scenario(spec.copy()) for spec in specs]
        batched = BatchedEngine(specs[:2]).run()
        for expected, actual in zip(serial, batched):
            assert actual.ok, getattr(actual, "error", None)
            assert_results_bit_identical(expected, actual)

        # The worker's run path: a solo payload, a batch of one and every
        # member of a four-batch reproduce run_scenario, storeless and
        # streaming snapshots into a store alike.
        for root in (None, tmp_path):
            def payloads(tag, count):
                return [member_payload(i, spec, f"{tag}-{i}", root)
                        for i, spec in enumerate(specs[:count])]

            solo = settled(execute_payload(payloads("solo", 1)[0]))
            one = settled(
                execute_payload(batch_of(payloads("one", 1)))["batch"][0])
            four = payloads("four", 4)
            if root is not None:
                # One member resumes a mid-run snapshot beside fresh ones.
                interrupted = build_engine(specs[1].copy())
                interrupted.run(num_steps=1)
                snapshot = json_cycle(interrupted.checkpoint())
                RunStore(root).save(snapshot, run_id=four[1]["run_id"])
                four[1]["resume"] = True
            members = [settled(outcome) for outcome
                       in execute_payload(batch_of(four))["batch"]]
            for expected, actual in zip([serial[0]] * 2 + serial,
                                        [solo, one] + members):
                assert_results_bit_identical(expected, actual)
            # Only members of a batch > 1 carry batch_size: a solo result's
            # JSON is what it was before coalescing existed.
            assert "batch_size" not in solo.metadata["executor"]
            assert "batch_size" not in one.metadata["executor"]
            assert [m.metadata["executor"]["batch_size"] for m in members] \
                == [4] * 4
            assert [m.metadata["executor"]["resumed_from_step"]
                    for m in members] \
                == [None, None if root is None else 1, None, None]

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
# The worker's run path: per-member observability and failure isolation
# ----------------------------------------------------------------------
def _counter(name: str) -> float:
    return telemetry.snapshot()["counters"].get(name, {}).get("value", 0.0)


class TestWorkerRunPath:
    # A stacked kind and an un-stacked one; solo and coalesced.
    @pytest.mark.parametrize("name", ("localmode-switch", "maxwell-vacuum"))
    @pytest.mark.parametrize("size", (1, 3))
    def test_every_member_is_traced_and_counted(self, name, size, tmp_path,
                                                live_telemetry, monkeypatch):
        from repro.api import executor

        # Run as a process-pool worker after _worker_init: only such a
        # worker attaches a metrics report to its results.
        monkeypatch.setattr(executor, "_TELEMETRY_BASELINE",
                            telemetry.snapshot())
        num_steps = 4
        payloads = [
            member_payload(
                i, smoke_spec(name, num_steps=num_steps, seed=i), f"r{i}",
                tmp_path, checkpoint_every=2, trace=telemetry.new_context())
            for i in range(size)
        ]
        if size == 1:
            outcomes = [execute_payload(payloads[0])]
        else:
            outcomes = execute_payload(batch_of(payloads))["batch"]

        for payload, outcome in zip(payloads, outcomes):
            assert "telemetry" in settled(outcome).metadata
            spans = telemetry.read_spans(telemetry.span_log_path(
                tmp_path, name, payload["run_id"]))
            (run_span,) = [s for s in spans if s["name"] == "worker.run"]
            assert run_span["trace_id"] == payload["trace"]["trace_id"]
            assert run_span["attrs"]["ok"] is True
            assert run_span["attrs"].get("batch_size") \
                == (size if size > 1 else None)
            saves = [s for s in spans if s["name"] == "store.save"]
            assert [s["attrs"]["step"] for s in saves] == [2, 4]
            assert {s["parent"] for s in saves} == {run_span["span_id"]}
        assert _counter("repro_worker_runs_total") == size
        assert _counter("repro_engine_steps_total") == size * num_steps
        # A stacked call advances every member in one timed observation.
        stacked = size > 1 and payloads[0]["spec"]["engine"] in STACKED_KINDS
        timed = telemetry.snapshot()["histograms"]["repro_engine_step_seconds"]
        assert timed["count"] == (num_steps if stacked
                                  else size * num_steps)

    def test_a_failing_sink_fails_only_its_own_member(self, tmp_path,
                                                      monkeypatch):
        specs = [smoke_spec("localmode-switch", seed=s) for s in range(3)]
        serial = [run_scenario(spec.copy()) for spec in specs]
        payloads = [member_payload(i, spec, f"r{i}", tmp_path,
                                   attempt=1 + 2 * (i == 1))
                    for i, spec in enumerate(specs)]
        save = RunStore.save

        def flaky_save(self, checkpoint, run_id="default"):
            if run_id == "r1":
                raise OSError("store died")
            return save(self, checkpoint, run_id=run_id)

        monkeypatch.setattr(RunStore, "save", flaky_save)
        outcomes = execute_payload(batch_of(payloads))["batch"]
        assert [o["index"] for o in outcomes] == [0, 1, 2]
        assert "store died" in outcomes[1]["failure"]["error"]
        assert outcomes[1]["failure"]["attempts"] == 3
        for i in (0, 2):
            assert_results_bit_identical(serial[i], settled(outcomes[i]))

    def test_batch_level_failure_falls_back_to_per_member_runs(
            self, monkeypatch, live_telemetry):
        specs = [smoke_spec("localmode-switch", seed=s) for s in range(3)]
        serial = [run_scenario(spec.copy()) for spec in specs]
        init = BatchedEngine.__init__

        def no_real_batches(self, specs, workspace=None):
            if len(specs) > 1:
                raise RuntimeError("stacking bug")
            init(self, specs, workspace=workspace)

        monkeypatch.setattr(BatchedEngine, "__init__", no_real_batches)
        outcomes = execute_payload(batch_of(
            [member_payload(i, spec, f"r{i}")
             for i, spec in enumerate(specs)]))["batch"]
        for expected, outcome in zip(serial, outcomes):
            actual = settled(outcome)
            assert_results_bit_identical(expected, actual)
            assert "batch_size" not in actual.metadata["executor"]
        assert _counter("repro_worker_batch_fallbacks_total") == 1
        assert _counter("repro_worker_runs_total") == 3


# ----------------------------------------------------------------------
# Thread-safe workspace
# ----------------------------------------------------------------------
class TestWorkspaceThreads:
    def test_concurrent_operator_reads_share_one_entry(self):
        from repro.grid import Grid3D

        workspace = KernelWorkspace()
        grid = Grid3D((8, 8, 8), (4.0, 4.0, 4.0))
        seen = []
        lock = threading.Lock()

        def reader():
            for _ in range(20):
                operators = workspace.kinetic_operators(grid, 0.05)
                with lock:
                    seen.append(operators)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert workspace.stats["phase_entries"] == 1
        reference = workspace.kinetic_operators(grid, 0.05)
        for operator in reference:
            assert not operator.flags.writeable
        for operators in seen:
            for operator, expected in zip(operators, reference):
                np.testing.assert_array_equal(operator, expected)


# ----------------------------------------------------------------------
# The inline pool
# ----------------------------------------------------------------------
class TestInlinePool:
    def test_zero_workers_run_inline(self):
        pool = WorkerPool(0)
        assert pool.inline
        payload = {"index": 0,
                   "spec": smoke_spec("maxwell-vacuum").to_dict(),
                   "run_id": "r", "checkpoint_dir": None,
                   "checkpoint_every": None, "keep": 0, "resume": False,
                   "attempt": 1}
        assert "ok" in pool.submit(payload).result()
        assert not pool.started


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


# ----------------------------------------------------------------------
# Stacked relax and record for coalesced lattice members
# ----------------------------------------------------------------------
def _staggered(name, cuts, num_steps=10, record_every=3):
    """Specs plus per-member checkpoints cut at ``cuts`` (``None`` fresh):
    resumed at different steps, the members record on different
    iterations of one batch."""
    specs = [smoke_spec(name, num_steps=num_steps, seed=31 + i,
                        **{"runtime.record_every": record_every})
             for i in range(len(cuts))]
    checkpoints = []
    for spec, cut in zip(specs, cuts):
        if cut is None:
            checkpoints.append(None)
            continue
        engine = build_engine(spec.copy())
        engine.run(num_steps=cut)
        checkpoints.append(json_cycle(engine.checkpoint()))
    return specs, checkpoints


class TestStackedRelaxAndRecord:
    @pytest.mark.parametrize("name, cuts", (
        ("localmode-switch", (None, 1, 2, None, 4, 5, None, 7)),
        ("mlmd-photoswitch", (None, 1, None, 5)),
    ))
    def test_staggered_members_match_serial_exactly(self, name, cuts):
        specs, checkpoints = _staggered(name, cuts)
        serial = [build_engine(spec.copy()).run() for spec in specs]
        outcomes = BatchedEngine([spec.copy() for spec in specs]).run(
            resume_from=checkpoints, raise_on_error=True)
        for expected, actual in zip(serial, outcomes):
            assert_results_bit_identical(expected, actual)
            assert expected.metadata == actual.metadata

    def test_fresh_members_relax_as_one_stack(self):
        # One stacked relax for the batch: relax_steps + 1 short-range force
        # evaluations, where M serial relaxes make M x (relax_steps + 1).
        from repro.md.localmode import force_evaluations

        specs = [smoke_spec("localmode-switch", seed=s) for s in range(4)]
        relax_steps = specs[0].propagator.relax_steps
        batch = BatchedEngine(specs)
        before = force_evaluations()
        batch._prepare_stacked(batch.members, None)
        assert force_evaluations() - before == relax_steps + 1
        for member, spec in zip(batch.members, specs):
            alone = build_engine(spec.copy())
            alone.prepare()
            assert member._prepared
            assert member.lattice.modes.tobytes() \
                == alone.lattice.modes.tobytes()
            assert not member.lattice.velocities.any()

    @pytest.mark.parametrize("name, step_forces", (
        # Constant excitation weight: the memo carries each end-of-step
        # force into the next step, so N steps cost N + 1 evaluations.
        ("localmode-switch", lambda n: n + 1),
        # The MLMD weight decays every step: two evaluations per step.
        ("mlmd-photoswitch", lambda n: 2 * n),
    ))
    def test_stacked_steps_are_one_kernel_call_each(self, monkeypatch, name,
                                                    step_forces):
        # The batching perf gate, counted: N stacked steps of M members
        # are N step_stacked calls and as many force evaluations as ONE
        # lattice needs; M serial step loops would make no stacked call
        # and about M times the evaluations.
        from repro.batch import engine as batch_engine
        from repro.md.localmode import force_evaluations

        calls = []
        real = batch_engine.step_stacked
        monkeypatch.setattr(batch_engine, "step_stacked",
                            lambda *a, **k: (calls.append(1), real(*a, **k))[1])
        num_steps, members = 6, 4
        specs = [smoke_spec(name, num_steps=num_steps, seed=s)
                 for s in range(members)]
        relax_steps = specs[0].propagator.relax_steps
        before = force_evaluations()
        BatchedEngine(specs).run(raise_on_error=True)
        assert len(calls) == num_steps
        assert force_evaluations() - before \
            == relax_steps + 1 + step_forces(num_steps)

    def test_stacked_observation_equals_each_member_alone(self):
        from repro.api.adapters import LocalModeEngine

        engines = [build_engine(smoke_spec("localmode-switch", num_steps=6,
                                           seed=s))
                   for s in range(3)]
        for engine in engines:
            engine.prepare()
        for engine, row in zip(engines,
                               LocalModeEngine.observe_stacked(engines)):
            alone = engine.observe()
            assert set(row) == set(alone)
            for key in row:
                assert np.asarray(row[key]).tobytes() \
                    == np.asarray(alone[key]).tobytes()

    def test_stacked_calls_are_one_observation_each(self, live_telemetry):
        size, num_steps, every = 4, 6, 2
        specs = [smoke_spec("localmode-switch", num_steps=num_steps, seed=s,
                            **{"runtime.record_every": every})
                 for s in range(size)]
        outcomes = BatchedEngine(specs).run(raise_on_error=True)
        records = 1 + num_steps // every
        assert all(o.times.size == records for o in outcomes)
        histograms = telemetry.snapshot()["histograms"]
        assert histograms["repro_engine_record_seconds"]["count"] == records
        assert histograms["repro_engine_prepare_seconds"]["count"] == 1
        assert histograms["repro_engine_step_seconds"]["count"] == num_steps

        # Serially every run observes each of its own records.
        telemetry.reset()
        for spec in specs:
            build_engine(spec.copy()).run()
        histograms = telemetry.snapshot()["histograms"]
        assert histograms["repro_engine_record_seconds"]["count"] \
            == size * records
        assert histograms["repro_engine_prepare_seconds"]["count"] == size

    def test_disabled_telemetry_records_nothing(self):
        was_enabled = telemetry.enabled()
        telemetry.disable()
        telemetry.reset()
        try:
            specs = [smoke_spec("mlmd-photoswitch", seed=s) for s in (1, 2)]
            BatchedEngine(specs).run(raise_on_error=True)
            build_engine(specs[0].copy()).run()
            assert not telemetry.snapshot()["histograms"]
        finally:
            if was_enabled:
                telemetry.enable()
            telemetry.reset()


class TestBatchSignature:
    def test_each_record_is_signed_once(self, tmp_path, monkeypatch):
        from repro.api.server import RunRecord
        from repro.batch import grouping

        calls = []

        def counting_key(spec):
            calls.append(spec.name)
            return batch_key(spec)

        monkeypatch.setattr(grouping, "batch_key", counting_key)
        server = ScenarioServer(tmp_path, port=0, workers=0, batch_max=2)
        specs = [smoke_spec("localmode-switch", seed=s) for s in range(5)]
        for i, spec in enumerate(specs):
            run_id = f"r{i}"
            server._records[run_id] = RunRecord(run_id, i, spec.to_dict())
            server._queue.append(run_id)
        solo = RunRecord("solo", 9, specs[0].to_dict(), faults="crash")
        server._records["solo"] = solo
        server._queue.append("solo")
        groups = []
        with server._wake:
            while server._queue:
                head = server._records[server._queue.popleft()]
                groups.append([r.run_id for r in server._coalesce(head)])
        assert groups == [["r0", "r1"], ["r2", "r3"], ["r4"], ["solo"]]
        # Five parseable records, each parsed once however often the
        # queue was rescanned; the fault-armed one is never parsed.
        assert len(calls) == 5
        assert solo.batch_signature is None
