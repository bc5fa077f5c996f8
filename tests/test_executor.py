"""ExecutionService: sharded batches, failure isolation, crash-resume."""

from __future__ import annotations

import json
import multiprocessing

import numpy as np
import pytest

from repro import faults
from repro.api import (
    BatchRunner,
    ExecutionService,
    RunFailure,
    RunResult,
    WorkerPool,
    default_registry,
)
from repro.api.adapters import MaxwellEngine
from repro.api.executor import worker_payload

from test_api import smoke_spec
from test_checkpoint import assert_results_bit_identical

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Cheap scenarios that exercise deterministic and stochastic engines.
BATCH_NAMES = ("maxwell-vacuum", "md-nve", "md-langevin", "localmode-switch")


def batch_specs(num_steps: int = 3):
    return [smoke_spec(name, num_steps=num_steps) for name in BATCH_NAMES]


def failing_spec():
    """A spec that validates but raises during prepare(): DC-MESH needs a pulse."""
    return smoke_spec("dcmesh-pulse", num_steps=2, **{"pulse.kind": "none"})


# ----------------------------------------------------------------------
# BatchRunner failure isolation (serial path)
# ----------------------------------------------------------------------
class TestBatchRunnerIsolation:
    def test_one_failure_does_not_abort_the_batch(self):
        specs = [smoke_spec("maxwell-vacuum"), failing_spec(), smoke_spec("md-nve")]
        slots = BatchRunner().run(specs)
        assert [slot.ok for slot in slots] == [True, False, True]
        failure = slots[1]
        assert isinstance(failure, RunFailure)
        assert failure.scenario == "dcmesh-pulse"
        assert "pulse" in failure.error
        assert failure.traceback

    def test_raise_on_error_restores_old_behaviour(self):
        with pytest.raises(ValueError, match="pulse"):
            BatchRunner().run([failing_spec()], raise_on_error=True)


# ----------------------------------------------------------------------
# ExecutionService parity with the serial BatchRunner
# ----------------------------------------------------------------------
class TestExecutionServiceParity:
    def assert_parity(self, workers, **service_kwargs):
        specs = batch_specs()
        serial = BatchRunner().run(specs)
        service = ExecutionService(workers=workers, max_retries=0,
                                  **service_kwargs)
        sharded = service.run(specs)
        assert len(sharded) == len(serial)
        for serial_slot, sharded_slot in zip(serial, sharded):
            assert serial_slot.ok and sharded_slot.ok
            assert sharded_slot.scenario == serial_slot.scenario
            assert_results_bit_identical(serial_slot, sharded_slot)

    def test_inline_matches_serial(self):
        self.assert_parity(workers=0)

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_four_workers_match_serial(self):
        self.assert_parity(workers=4)

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_workers_with_checkpointing_match_serial(self, tmp_path):
        self.assert_parity(workers=2, checkpoint_dir=tmp_path,
                           checkpoint_every=1)

    def test_outcomes_return_in_input_order(self):
        specs = batch_specs()[::-1]
        outcomes = ExecutionService(workers=0).run(specs)
        assert [o.scenario for o in outcomes] == [s.name for s in specs]

    def test_executor_metadata_attached(self):
        outcome = ExecutionService(workers=0).run([smoke_spec("md-nve")])[0]
        assert outcome.metadata["executor"]["attempt"] == 1
        assert outcome.metadata["executor"]["resumed_from_step"] is None
        assert "workspace_stats" in outcome.metadata

    def test_retention_rides_the_payload_into_worker_stores(self, tmp_path):
        from repro.api import CheckpointStore

        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        service = ExecutionService(
            workers=0, checkpoint_dir=tmp_path, checkpoint_every=1,
            retention="keep=1",
        )
        outcome = service.run([spec], run_ids=["r"])[0]
        assert outcome.ok
        assert CheckpointStore(tmp_path).steps(spec.name, "r") == [4]

    def test_invalid_retention_spec_fails_fast(self, tmp_path):
        with pytest.raises(ValueError, match="retention"):
            ExecutionService(workers=0, checkpoint_dir=tmp_path,
                             retention="bogus=1")


# ----------------------------------------------------------------------
# Failure handling and retries
# ----------------------------------------------------------------------
class TestExecutionServiceFailures:
    def test_failed_run_fills_its_slot_only(self):
        specs = [smoke_spec("maxwell-vacuum"), failing_spec()]
        outcomes = ExecutionService(workers=0, max_retries=0).run(specs)
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].attempts == 1

    def test_retries_are_counted(self):
        outcomes = ExecutionService(workers=0, max_retries=2).run([failing_spec()])
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 3  # initial + 2 retries

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_worker_death_does_not_charge_healthy_runs(self, monkeypatch):
        # One run hard-kills its worker (breaking the shared pool for every
        # in-flight neighbour); the healthy runs must be quarantined and
        # complete without burning their own retry budget.
        import os as _os

        def kill_worker(self, num_steps):
            _os._exit(3)

        monkeypatch.setattr(MaxwellEngine, "_advance", kill_worker)
        specs = [smoke_spec("maxwell-vacuum"), smoke_spec("md-nve"),
                 smoke_spec("md-langevin")]
        outcomes = ExecutionService(workers=2, max_retries=0).run(specs)
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 1
        assert outcomes[1].ok and outcomes[2].ok

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_worker_processes_isolate_failures(self):
        specs = [smoke_spec("maxwell-vacuum"), failing_spec(), smoke_spec("md-nve")]
        outcomes = ExecutionService(workers=2, max_retries=0).run(specs)
        assert [o.ok for o in outcomes] == [True, False, True]

    def test_duplicate_run_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate run_ids"):
            ExecutionService(workers=0).run(
                batch_specs()[:2], run_ids=["same", "same"]
            )

    def test_bad_constructor_args(self):
        with pytest.raises(ValueError):
            ExecutionService(workers=-1)
        with pytest.raises(ValueError):
            ExecutionService(checkpoint_every=0)
        with pytest.raises(ValueError):
            ExecutionService(max_retries=-1)


# ----------------------------------------------------------------------
# WorkerPool: the process boundary resolves to outcomes, never raises
# ----------------------------------------------------------------------
#: A per-payload fault plan that kills the worker process before its run.
CRASH_PLAN = {"executor.worker.pre_run": "crash"}


def pool_payload(index: int, **fields):
    return worker_payload(
        index, smoke_spec("maxwell-vacuum", num_steps=2).to_dict(),
        f"run-{index}", checkpoint_dir=None, checkpoint_every=None, keep=0,
        retention=None, resume=False, attempt=1, **fields)


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
class TestWorkerPoolBoundary:
    def test_dead_worker_resolves_to_a_pool_broken_failure(self):
        with WorkerPool(1) as pool:
            outcome = pool.submit(pool_payload(3, fault_plan=CRASH_PLAN))
            outcome = outcome.result()
        assert outcome["index"] == 3
        assert outcome["pool_broken"] is True
        assert "BrokenProcessPool" in outcome["failure"]["error"]
        assert outcome["failure"]["scenario"] == "maxwell-vacuum"

    def test_every_member_of_a_dead_batch_comes_back_pool_broken(self):
        payload = {"index": 5, "batch": [pool_payload(5), pool_payload(6)]}
        # A batch payload arms no per-member plan, so the worker inherits an
        # armed one at fork time (the submit forks it); the parent disarms.
        faults.configure("executor.worker.pre_run=crash")
        try:
            with WorkerPool(1) as pool:
                future = pool.submit(payload)
                faults.reset()
                outcome = future.result()
        finally:
            faults.reset()
        assert outcome["index"] == 5
        assert [member["index"] for member in outcome["batch"]] == [5, 6]
        for member in outcome["batch"]:
            assert member["pool_broken"] is True
            assert "BrokenProcessPool" in member["failure"]["error"]

    def test_next_submit_after_a_break_starts_a_fresh_generation(self):
        with WorkerPool(1) as pool:
            broken = pool.submit(pool_payload(0, fault_plan=CRASH_PLAN))
            assert broken.result()["pool_broken"] is True
            outcome = pool.submit(pool_payload(1)).result()
            assert "ok" in outcome, outcome.get("failure")
            assert pool.generations == 2


# ----------------------------------------------------------------------
# Crash-resume: a run that dies mid-flight restarts from its snapshot
# ----------------------------------------------------------------------
def _install_crash_once(monkeypatch, marker_path, crash_at_step):
    """Patch MaxwellEngine to raise once at ``crash_at_step`` (marker-guarded,
    so the retry — possibly in a forked worker — survives)."""
    original = MaxwellEngine._advance

    def flaky(self, num_steps):
        if self._step + num_steps >= crash_at_step and not marker_path.exists():
            marker_path.touch()
            raise RuntimeError("injected crash")
        original(self, num_steps)

    monkeypatch.setattr(MaxwellEngine, "_advance", flaky)


class TestCrashResume:
    @pytest.mark.parametrize(
        "workers",
        [0, pytest.param(1, marks=pytest.mark.skipif(
            not HAS_FORK, reason="needs the fork start method"))],
    )
    def test_crashed_run_resumes_from_snapshot(self, tmp_path, monkeypatch, workers):
        spec = smoke_spec("maxwell-vacuum", num_steps=6)
        uninterrupted = BatchRunner().run([spec])[0]

        _install_crash_once(monkeypatch, tmp_path / "crashed", crash_at_step=4)
        service = ExecutionService(
            workers=workers,
            checkpoint_dir=tmp_path / "store",
            checkpoint_every=2,
            max_retries=1,
        )
        outcome = service.run([spec], run_ids=["r1"])[0]
        assert outcome.ok, getattr(outcome, "error", None)
        # The retry resumed from the last snapshot before the crash...
        assert outcome.metadata["executor"]["attempt"] == 2
        assert outcome.metadata["executor"]["resumed_from_step"] == 2
        # ...and still reproduced the uninterrupted run bit-exactly.
        assert_results_bit_identical(uninterrupted, outcome)

    def test_without_checkpoints_retry_restarts_from_scratch(
            self, tmp_path, monkeypatch):
        spec = smoke_spec("maxwell-vacuum", num_steps=6)
        uninterrupted = BatchRunner().run([spec])[0]
        _install_crash_once(monkeypatch, tmp_path / "crashed", crash_at_step=4)
        outcome = ExecutionService(workers=0, max_retries=1).run([spec])[0]
        assert outcome.ok
        assert outcome.metadata["executor"]["resumed_from_step"] is None
        assert_results_bit_identical(uninterrupted, outcome)

    def test_exhausted_retries_surface_the_failure(self, tmp_path, monkeypatch):
        spec = smoke_spec("maxwell-vacuum", num_steps=6)

        def always_crash(self, num_steps):
            raise RuntimeError("hard failure")

        monkeypatch.setattr(MaxwellEngine, "_advance", always_crash)
        outcome = ExecutionService(workers=0, max_retries=1).run([spec])[0]
        assert not outcome.ok
        assert "hard failure" in outcome.error
        assert outcome.attempts == 2


# ----------------------------------------------------------------------
# Batch resume across service invocations (the --resume CLI path)
# ----------------------------------------------------------------------
class TestBatchResume:
    def test_second_invocation_picks_up_finished_runs(self, tmp_path):
        spec = smoke_spec("md-langevin", num_steps=4)
        service = ExecutionService(workers=0, checkpoint_dir=tmp_path,
                                   checkpoint_every=2)
        first = service.run([spec], run_ids=["r"])[0]
        assert first.ok

        # Re-running with resume=True replays from the final snapshot without
        # re-stepping and returns the identical result.
        second = service.run([spec], run_ids=["r"], resume=True)[0]
        assert second.metadata["executor"]["resumed_from_step"] == 4
        assert_results_bit_identical(first, second)

    def test_json_round_trip_of_outcomes(self, tmp_path):
        outcomes = ExecutionService(workers=0).run([smoke_spec("md-nve")])
        payload = json.dumps([o.to_dict() for o in outcomes])
        revived = RunResult.from_dict(json.loads(payload)[0])
        assert_results_bit_identical(outcomes[0], revived)
