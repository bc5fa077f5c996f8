"""ExecutionService: sharded batches, failure isolation, crash-resume."""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro import faults, telemetry
from repro.api import (
    BatchRunner,
    ExecutionService,
    RunFailure,
    RunResult,
    WorkerPool,
    default_registry,
    run_scenario,
)
from repro.api import executor
from repro.api.adapters import MaxwellEngine
from repro.api.executor import worker_payload
from repro.perf import KernelWorkspace

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


def isolated_runs() -> float:
    counter = telemetry.snapshot()["counters"].get(
        "repro_pool_isolated_runs_total")
    return counter["value"] if counter else 0.0


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
@pytest.mark.usefixtures("live_telemetry")
class TestWorkerPoolBoundary:
    def test_a_worker_that_dies_alone_resolves_to_its_own_failure(self):
        # The payload's own plan kills its worker in the shared executor and
        # again when the pool re-runs it alone: the second death is its own.
        with WorkerPool(1) as pool:
            outcome = pool.submit(pool_payload(3, fault_plan=CRASH_PLAN))
            outcome = outcome.result()
            assert pool.generations == 1
        assert outcome["index"] == 3
        assert "pool_broken" not in outcome
        assert "BrokenProcessPool" in outcome["failure"]["error"]
        assert outcome["failure"]["scenario"] == "maxwell-vacuum"
        assert outcome["failure"]["attempts"] == 1
        assert isolated_runs() == 1

    def test_healthy_members_of_a_dead_batch_come_back_ok(self):
        payload = {"index": 5, "batch": [pool_payload(5), pool_payload(6)]}
        # A batch payload arms no per-member plan, so the worker inherits an
        # armed one at fork time (the submit forks it); the parent disarms
        # before the isolated re-runs fork theirs.
        faults.configure("executor.worker.pre_run=crash")
        try:
            with WorkerPool(1) as pool:
                future = pool.submit(payload)
                faults.reset()
                outcome = future.result()
                assert pool.generations == 1
        finally:
            faults.reset()
        assert outcome["index"] == 5
        assert [member["index"] for member in outcome["batch"]] == [5, 6]
        expected = run_scenario(smoke_spec("maxwell-vacuum", num_steps=2),
                                workspace=KernelWorkspace())
        for member in outcome["batch"]:
            assert "ok" in member, member.get("failure")
            result = RunResult.from_dict(member["ok"])
            assert result.metadata["executor"]["attempt"] == 1
            assert_results_bit_identical(expected, result)
        assert isolated_runs() == 2

    def test_next_submit_after_a_break_starts_a_fresh_generation(self):
        with WorkerPool(1) as pool:
            broken = pool.submit(pool_payload(0, fault_plan=CRASH_PLAN))
            assert "failure" in broken.result()
            outcome = pool.submit(pool_payload(1)).result()
            assert "ok" in outcome, outcome.get("failure")
            assert pool.generations == 2

    def test_a_payload_cut_off_by_shutdown_is_neither_isolated_nor_charged(
            self, monkeypatch):
        # The worker dies only once the owner has shut the pool down.
        shut_down = multiprocessing.get_context("fork").Event()

        def die_after_shutdown(self, num_steps):
            shut_down.wait(60)
            os._exit(3)

        monkeypatch.setattr(MaxwellEngine, "_advance", die_after_shutdown)
        pool = WorkerPool(1)
        future = pool.submit(pool_payload(7))
        pool.shutdown(wait=False)
        shut_down.set()
        outcome = future.result(timeout=60)
        assert outcome["index"] == 7
        assert outcome["pool_broken"] is True
        assert outcome["failure"]["attempts"] == 1
        assert isolated_runs() == 0
        assert pool.generations == 1


# ----------------------------------------------------------------------
# WorkerPool retries: a failed member is resubmitted alone, resumed
# ----------------------------------------------------------------------
@pytest.fixture()
def dispatched(monkeypatch):
    """Every payload the inline pool executes, in order."""
    seen = []
    run = executor.execute_payload
    monkeypatch.setattr(executor, "execute_payload",
                        lambda payload: seen.append(payload) or run(payload))
    return seen


@pytest.mark.usefixtures("live_telemetry")
class TestWorkerPoolRetries:
    def test_a_failed_coalesced_member_is_retried_alone(
            self, tmp_path, monkeypatch, dispatched):
        steady = smoke_spec("maxwell-vacuum", num_steps=6)
        flaky = steady.with_overrides({"name": "flaky"})
        expected = [run_scenario(spec, workspace=KernelWorkspace())
                    for spec in (steady, flaky)]
        # Member 2 raises once, past its step-2 snapshot.
        original, crashed = MaxwellEngine._advance, []

        def fail_flaky_once(self, num_steps):
            if (self.spec.name == "flaky" and not crashed
                    and self._step + num_steps >= 4):
                crashed.append(self._step)
                raise RuntimeError("injected crash")
            original(self, num_steps)

        monkeypatch.setattr(MaxwellEngine, "_advance", fail_flaky_once)
        members = [
            worker_payload(i, spec.to_dict(), f"run-{i}",
                           checkpoint_dir=str(tmp_path), checkpoint_every=2,
                           keep=0, retention=None, resume=False, attempt=1)
            for i, spec in enumerate((steady, flaky), start=1)
        ]
        with WorkerPool(0, max_retries=1) as pool:
            outcome = pool.submit({"index": 1, "batch": members}).result()
        first, second = (RunResult.from_dict(member["ok"])
                         for member in outcome["batch"])
        assert outcome["index"] == 1
        assert first.metadata["executor"]["attempt"] == 1
        assert first.metadata["executor"]["resumed_from_step"] is None
        assert_results_bit_identical(expected[0], first)
        assert second.metadata["executor"]["attempt"] == 2
        assert second.metadata["executor"]["resumed_from_step"] == 2
        assert_results_bit_identical(expected[1], second)
        # Only member 2 went back, alone, as its own payload.
        assert len(dispatched) == 2
        assert dispatched[1] == {**members[1], "attempt": 2, "resume": True}
        assert isolated_runs() == 0

    def test_a_retry_after_shutdown_is_cut_off_not_run(self, monkeypatch,
                                                       dispatched):
        pool = WorkerPool(0, max_retries=3)

        def fail_and_shut_down(self, num_steps):
            pool.shutdown()
            raise RuntimeError("injected crash")

        monkeypatch.setattr(MaxwellEngine, "_advance", fail_and_shut_down)
        outcome = pool.submit(pool_payload(4)).result()
        # The retry (attempt 2) never ran: the owner gets it back uncharged.
        assert outcome["pool_broken"] is True
        assert outcome["failure"]["attempts"] == 2
        assert len(dispatched) == 1


# ----------------------------------------------------------------------
# Crash-resume: a run that dies mid-flight restarts from its snapshot
# ----------------------------------------------------------------------
def _install_crash_once(monkeypatch, marker_path, crash_at_step,
                        kill_worker=False):
    """Patch MaxwellEngine to raise once at ``crash_at_step`` (marker-guarded,
    so the retry — possibly in a forked worker — survives); with
    ``kill_worker`` its process dies there instead."""
    original = MaxwellEngine._advance

    def flaky(self, num_steps):
        if self._step + num_steps >= crash_at_step and not marker_path.exists():
            marker_path.touch()
            if kill_worker:
                os._exit(3)
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

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_worker_death_resumes_alone_uncharged(
            self, tmp_path, monkeypatch, live_telemetry):
        spec = smoke_spec("maxwell-vacuum", num_steps=6)
        uninterrupted = BatchRunner().run([spec])[0]

        _install_crash_once(monkeypatch, tmp_path / "killed", crash_at_step=4,
                            kill_worker=True)
        with ExecutionService(workers=1, checkpoint_dir=tmp_path / "store",
                              checkpoint_every=2, max_retries=0) as service:
            outcome = service.run([spec], run_ids=["r1"])[0]
            assert service.pool.generations == 1
        assert outcome.ok, getattr(outcome, "error", None)
        # The pool re-ran it alone: same attempt, resumed from its snapshot.
        assert outcome.metadata["executor"]["attempt"] == 1
        assert outcome.metadata["executor"]["resumed_from_step"] == 2
        assert_results_bit_identical(uninterrupted, outcome)
        assert isolated_runs() == 1

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
