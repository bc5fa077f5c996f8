"""The fault-injection kill matrix: every registered point, crashed or faulted.

The coverage test (tier-1) asserts the matrix below names every fault point
the store/serving stack registers, so a new ``faults.register`` call without
a driver here fails CI immediately.  The drivers themselves are ``chaos``-
marked (``pytest -m chaos``): each one arms a ``crash`` plan (``os._exit`` at
the exact line — no ``finally``, no flushes) or a ``raise`` plan in a real
subprocess, then proves the documented recovery property:

* **store points** — the run directory stays readable, a clean re-run of the
  same save sequence completes, and the recovered store ends bit-identical
  to one that never crashed;
* **server points** — a daemon killed at the point either never acked (no
  journal: the run simply does not exist afterwards) or acked durably (the
  restarted daemon replays/serves it bit-identically to inline execution);
* **executor points** — ``raise`` actions surface as typed failures or
  charged retries; ``run()`` never raises and never wedges.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults, telemetry
from repro.api import (
    BatchRunner, ScenarioServer, ServeClient, ServeError,
)
from repro.api.executor import ExecutionService
from repro.api.result import RunFailure, RunResult
from repro.api.server import FAULT_SERVE_RETRY_PRE_REQUEUE
from repro.store import RunStore
import repro.fleet.membership  # noqa: F401 - registers the fleet fault points
import repro.fleet.router  # noqa: F401 - registers the router fault point
import repro.telemetry  # noqa: F401 - registers the telemetry fault points

from test_api import smoke_spec
from test_checkpoint import assert_results_bit_identical
from test_server import _await_port, _kill_group

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")
HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")

chaos = pytest.mark.chaos

#: Fault point -> the driver class/test exercising it.  The coverage test
#: below keeps this exhaustive against the live registry.
DRIVERS = {
    "manifest.commit.pre_write": "TestStoreCrashMatrix",
    "manifest.commit.pre_rename": "TestStoreCrashMatrix",
    "manifest.commit.post_commit": "TestStoreCrashMatrix",
    "series.append.mid_batch": "TestStoreCrashMatrix",
    "series.append.pre_fsync": "TestStoreCrashMatrix",
    "store.reset.post_manifest": "TestStoreCrashMatrix",
    "server.journal.pre_write": "TestServerCrashMatrix",
    "server.journal.post_write": "TestServerCrashMatrix",
    "server.result.pre_persist": "TestServerCrashMatrix",
    "server.result.post_persist": "TestServerCrashMatrix",
    "server.retry.pre_requeue": "TestServerRetryFault",
    "executor.worker.pre_run": "TestExecutorFaults",
    "executor.retry.pre_requeue": "TestExecutorFaults",
    "executor.spawn.pre_submit": "TestExecutorFaults",
    # Fleet drivers live in test_fleet.py (same chaos marker, same CI job).
    "fleet.member.pre_join": "TestFleetFaults",
    "fleet.steal.pre_claim": "TestFleetFaults",
    "fleet.router.pre_proxy": "TestFleetFaults",
    # Telemetry drivers live in test_telemetry.py.
    "telemetry.span.pre_write": "TestTelemetryFaults",
    "telemetry.metrics.pre_merge": "TestTelemetryFaults",
}


def test_every_registered_point_has_a_driver():
    # Importing the full stack (done above) populates the registry; any
    # point without a matrix entry — or any stale entry — fails here.
    assert set(faults.points()) == set(DRIVERS)


def _env_with(plan: str = "") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if plan:
        env[faults.ENV_VAR] = plan
    else:
        env.pop(faults.ENV_VAR, None)
    return env


# ----------------------------------------------------------------------
# Store layer: crash at every commit-adjacent point
# ----------------------------------------------------------------------
#: Deterministic save sequences driven in a subprocess.  "saves" is the
#: ordinary append-only run; "reset" forces the diverged-history rebuild
#: (``_reset_run``) on its third save.
_STORE_DRIVER = """
import sys
sys.path.insert(0, sys.argv[3])
from repro.store import RunStore

def ckpt(step, offset=0.0):
    times = [float(s) + offset for s in range(step + 1)]
    return {"format": 2, "scenario": "chaos", "engine": "md",
            "time": times[-1], "step": step,
            "state": {"x": [1.0, times[-1]]},
            "times": times, "records": {"e": [0.5] * len(times)}}

store = RunStore(sys.argv[1])
if sys.argv[2] == "saves":
    for step in range(4):
        store.save(ckpt(step), run_id="r")
else:  # reset: the third save describes a different history -> rebuild
    store.save(ckpt(0), run_id="r")
    store.save(ckpt(1), run_id="r")
    store.save(ckpt(0, offset=0.25), run_id="r")
    store.save(ckpt(1, offset=0.25), run_id="r")
print("COMPLETED", flush=True)
"""


def _drive_store(root: Path, mode: str, plan: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _STORE_DRIVER, str(root), mode, SRC],
        env=_env_with(plan), capture_output=True, text=True, timeout=120,
    )


@chaos
class TestStoreCrashMatrix:
    MATRIX = [
        ("manifest.commit.pre_write", "saves"),
        ("manifest.commit.pre_rename", "saves"),
        ("manifest.commit.post_commit", "saves"),
        ("series.append.mid_batch", "saves"),
        ("series.append.pre_fsync", "saves"),
        # The reset path only runs on a diverged-history save.
        ("store.reset.post_manifest", "reset"),
        # Crash mid-sequence (@2/@3) as well as on first contact: partial
        # state on disk, not just clean-or-empty.
        ("manifest.commit.pre_rename@3", "saves"),
        ("series.append.mid_batch@2", "saves"),
    ]

    @pytest.mark.parametrize("spec,mode", MATRIX,
                             ids=[m[0] for m in MATRIX])
    def test_crash_then_rerun_is_bit_identical(self, tmp_path, spec, mode):
        point = spec.split("@")[0]
        suffix = spec[len(point):]

        clean = _drive_store(tmp_path / "clean", mode)
        assert clean.returncode == 0, clean.stderr
        assert "COMPLETED" in clean.stdout

        crashed_root = tmp_path / "crashed"
        crashed = _drive_store(crashed_root, mode,
                               plan=f"{point}=crash{suffix}")
        assert crashed.returncode == faults.CRASH_EXIT_CODE, (
            f"{spec}: expected injected crash, got rc={crashed.returncode} "
            f"stdout={crashed.stdout!r} stderr={crashed.stderr!r}"
        )
        assert "COMPLETED" not in crashed.stdout

        # Recovery property 1: the crashed store is READABLE as it stands.
        survivor = RunStore(crashed_root)
        summary = survivor.describe("chaos", "r")
        for step in summary["steps"]:
            survivor.load("chaos", "r", step)

        # Recovery property 2: a clean re-run of the same sequence completes
        # and lands bit-identical to the never-crashed store.
        rerun = _drive_store(crashed_root, mode)
        assert rerun.returncode == 0, rerun.stderr

        recovered, pristine = RunStore(crashed_root), RunStore(tmp_path / "clean")
        assert recovered.steps("chaos", "r") == pristine.steps("chaos", "r")
        for step in pristine.steps("chaos", "r"):
            assert json.dumps(recovered.load("chaos", "r", step), sort_keys=True) \
                == json.dumps(pristine.load("chaos", "r", step), sort_keys=True)


# ----------------------------------------------------------------------
# Serving daemon: crash on either side of the journal/result commit points
# ----------------------------------------------------------------------
OVERRIDES = {"runtime.num_steps": 4, "runtime.record_every": 1}


def _spawn_faulty_daemon(root: Path, plan: str = "") -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "0", "--checkpoint-dir", str(root)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_env_with(plan), start_new_session=True,
    )


@chaos
@needs_fork
class TestServerCrashMatrix:
    def _crash_daemon_at(self, root: Path, plan: str) -> int:
        """Start a daemon armed with ``plan``, submit one run, return its
        exit code once the injected crash takes it down."""
        proc = _spawn_faulty_daemon(root, plan)
        try:
            port = _await_port(proc)
            client = ServeClient(port=port, timeout=30.0, retries=0)
            try:
                client.submit("maxwell-vacuum", overrides=OVERRIDES,
                              run_id="victim")
            except Exception:
                pass  # the daemon may die mid-request; the exit code decides
            try:
                return proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                raise AssertionError("daemon survived its crash plan") from None
        finally:
            _kill_group(proc)

    def _expected(self):
        return BatchRunner().run(
            [smoke_spec("maxwell-vacuum", num_steps=4)], raise_on_error=True
        )[0]

    def test_crash_before_journal_write_never_acked(self, tmp_path):
        root = tmp_path / "state"
        rc = self._crash_daemon_at(root, "server.journal.pre_write=crash")
        assert rc == faults.CRASH_EXIT_CODE
        # No ack, no journal: the submission simply never happened.
        if (root / "queue").is_dir():
            assert not list((root / "queue").glob("*.json"))
        proc = _spawn_faulty_daemon(root)
        try:
            port = _await_port(proc)
            client = ServeClient(port=port, timeout=30.0)
            with pytest.raises(ServeError) as excinfo:
                client.status("victim")
            assert excinfo.value.status == 404
        finally:
            _kill_group(proc)

    def test_crash_after_journal_write_replays_bit_identically(self, tmp_path):
        root = tmp_path / "state"
        rc = self._crash_daemon_at(root, "server.journal.post_write=crash")
        assert rc == faults.CRASH_EXIT_CODE
        assert (root / "queue" / "victim.json").exists()  # durable claim
        proc = _spawn_faulty_daemon(root)
        try:
            port = _await_port(proc)
            client = ServeClient(port=port, timeout=30.0)
            assert client.status("victim")["recovered"] is True
            outcome = client.wait("victim", timeout=120)
            assert outcome.ok, outcome.error
            assert_results_bit_identical(self._expected(), outcome)
        finally:
            _kill_group(proc)

    def test_crash_before_result_persist_reruns_bit_identically(self, tmp_path):
        root = tmp_path / "state"
        rc = self._crash_daemon_at(root, "server.result.pre_persist=crash")
        assert rc == faults.CRASH_EXIT_CODE
        # Executed but never persisted: the journal still owns the run.
        assert (root / "queue" / "victim.json").exists()
        assert not (root / "results" / "victim.json").exists()
        proc = _spawn_faulty_daemon(root)
        try:
            port = _await_port(proc)
            client = ServeClient(port=port, timeout=30.0)
            outcome = client.wait("victim", timeout=120)
            assert outcome.ok, outcome.error
            assert_results_bit_identical(self._expected(), outcome)
        finally:
            _kill_group(proc)

    def test_crash_after_result_persist_serves_existing_result(self, tmp_path):
        root = tmp_path / "state"
        rc = self._crash_daemon_at(root, "server.result.post_persist=crash")
        assert rc == faults.CRASH_EXIT_CODE
        # Result durable, journal orphaned — the classic crash window.
        assert (root / "queue" / "victim.json").exists()
        assert (root / "results" / "victim.json").exists()
        before = (root / "results" / "victim.json").read_bytes()
        proc = _spawn_faulty_daemon(root)
        try:
            port = _await_port(proc)
            client = ServeClient(port=port, timeout=30.0)
            record = client.status("victim")
            assert record["status"] == "done"
            outcome = client.wait("victim", timeout=30)
            assert outcome.ok
            assert_results_bit_identical(self._expected(), outcome)
            # Served from disk, not re-executed: the bytes did not change,
            # and the orphaned journal entry was swept.
            assert (root / "results" / "victim.json").read_bytes() == before
            assert not (root / "queue" / "victim.json").exists()
        finally:
            _kill_group(proc)


@chaos
@needs_fork
class TestServerRetryFault:
    def test_injected_requeue_fault_fails_typed_without_wedging(self, tmp_path):
        daemon = ScenarioServer(tmp_path / "state", port=0, workers=1,
                                max_retries=2)
        daemon.start()
        try:
            faults.configure(f"{FAULT_SERVE_RETRY_PRE_REQUEUE}=raise")
            client = ServeClient(port=daemon.port, timeout=60.0)
            # The submission's own fault plan makes attempt 1 fail in the
            # worker; the daemon-side requeue fault then abandons the retry.
            client.submit("maxwell-vacuum", overrides=OVERRIDES,
                          run_id="doomed",
                          faults="executor.worker.pre_run=raise")
            outcome = client.wait("doomed", timeout=120)
            assert isinstance(outcome, RunFailure)
            assert "injected fault" in outcome.error
            record = client.status("doomed")
            assert record["status"] == "failed"
            assert record["attempts"] == 1  # charged, not retried
            # The daemon is not wedged: a clean run still executes.
            ok = client.wait(
                client.submit("maxwell-vacuum", overrides=OVERRIDES)["run_id"],
                timeout=120,
            )
            assert ok.ok
        finally:
            faults.reset()
            daemon.stop(drain=False)


# ----------------------------------------------------------------------
# Executor: raise-mode faults surface as charged retries / typed failures
# ----------------------------------------------------------------------
@chaos
class TestExecutorFaults:
    @pytest.fixture(autouse=True)
    def disarm(self):
        faults.reset()
        yield
        faults.reset()

    def _service(self, tmp_path, **kwargs) -> ExecutionService:
        return ExecutionService(workers=0,
                                checkpoint_dir=tmp_path / "ckpts", **kwargs)

    def test_worker_fault_is_retried_and_charged(self, tmp_path):
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        faults.configure("executor.worker.pre_run=raise")
        with self._service(tmp_path, max_retries=1) as service:
            outcome = service.run([spec])[0]
        assert isinstance(outcome, RunResult)
        assert outcome.metadata["executor"]["attempt"] == 2

    def test_requeue_fault_abandons_retry_typed(self, tmp_path):
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        faults.configure(
            "executor.worker.pre_run=raise,executor.retry.pre_requeue=raise"
        )
        with self._service(tmp_path, max_retries=3) as service:
            outcome = service.run([spec])[0]
        assert isinstance(outcome, RunFailure)
        assert outcome.attempts == 1  # the abandoned retry stayed charged
        assert "injected fault" in outcome.error

    def test_spawn_fault_quarantines_without_charging(self, tmp_path,
                                                      live_telemetry):
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        faults.configure("executor.spawn.pre_submit=raise")
        with self._service(tmp_path, max_retries=1) as service:
            outcome = service.run([spec])[0]
        # A submit-time fault reads as a pool break: the pool re-runs the
        # payload alone (inline, for this inline service) with its retry
        # budget intact, and it completes there.
        assert isinstance(outcome, RunResult)
        assert outcome.metadata["executor"]["attempt"] == 1
        assert telemetry.snapshot()["counters"][
            "repro_pool_isolated_runs_total"]["value"] == 1
