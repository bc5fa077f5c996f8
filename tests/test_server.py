"""End-to-end harness for the ``repro serve`` daemon.

The subprocess tests are the PR's acceptance criteria: a real daemon process
serves concurrent submissions bit-identically to inline execution, reuses its
warm worker processes across requests, and — when SIGKILLed mid-run — the
next daemon started on the same state directory resumes the interrupted run
from its last checkpoint and still reproduces the uninterrupted result
bit-exactly.

The in-process tests cover the protocol surface (queue bounds, error
statuses, event streaming, journal recovery) without the subprocess overhead.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import faults, telemetry
from repro.api import (
    BatchRunner,
    ScenarioServer,
    ServeClient,
    ServeError,
    default_registry,
    run_scenario,
)
from repro.analytics import conservation_violations, load_results
from repro.api.adapters import MaxwellEngine
from repro.api.server import ServerError
from repro.perf import KernelWorkspace

from test_api import smoke_spec
from test_checkpoint import assert_results_bit_identical

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")
HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")

#: The three concurrently-submitted scenarios of the acceptance test —
#: deterministic and stochastic engines, three different adapters.
E2E_NAMES = ("maxwell-vacuum", "md-nve", "md-langevin")


# ----------------------------------------------------------------------
# Subprocess daemon harness
# ----------------------------------------------------------------------
def _spawn_daemon(root: Path, workers: int, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers), "--checkpoint-dir", str(root), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        # Its own session/process group: killing the group takes the forked
        # pool workers down with the daemon (the SIGKILL test relies on it).
        start_new_session=True,
    )


def _await_port(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """Parse the bound port from the daemon's startup line."""
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon exited during startup: {proc.stdout.read()}"
            )
        line = proc.stdout.readline()
        if "listening on" in line:
            return int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
    raise AssertionError(f"no startup line within {timeout}s (last: {line!r})")


def _kill_group(proc: subprocess.Popen, sig: int = signal.SIGKILL) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), sig)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait(timeout=30)
    proc.stdout.close()


def first_event(client: ServeClient, run_id: str, event: str,
                **fields) -> dict:
    """Block on the run's event stream until its first ``event`` whose
    ``fields`` match arrives; fails if the run finishes first."""
    stream = client.events(run_id, timeout=120)
    try:
        for item in stream:
            if item["event"] == event and all(
                    item.get(key) == value for key, value in fields.items()):
                return item
    finally:
        stream.close()
    raise AssertionError(f"{run_id} finished before its first {event} event")


@contextmanager
def serve_daemon(root: Path, workers: int = 1, *extra: str):
    proc = _spawn_daemon(root, workers, *extra)
    try:
        port = _await_port(proc)
        client = ServeClient(port=port, timeout=60.0)
        yield proc, client
    finally:
        _kill_group(proc)


# ----------------------------------------------------------------------
# Acceptance: concurrent parity + warm pool + kill/resume, end to end
# ----------------------------------------------------------------------
@needs_fork
class TestDaemonEndToEnd:
    def test_concurrent_submissions_match_inline_and_reuse_workers(self, tmp_path):
        specs = [smoke_spec(name, num_steps=4) for name in E2E_NAMES]
        inline = BatchRunner().run(specs, raise_on_error=True)

        with serve_daemon(tmp_path / "state", 2) as (proc, client):
            # Submit all three concurrently from separate client threads.
            acks = [None] * len(specs)

            def _submit(i):
                acks[i] = client.submit(specs[i], run_id=f"e2e-{i}")

            threads = [
                threading.Thread(target=_submit, args=(i,))
                for i in range(len(specs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert all(ack is not None for ack in acks)

            outcomes = [
                client.wait(f"e2e-{i}", timeout=120)
                for i in range(len(specs))
            ]
            for expected, actual in zip(inline, outcomes):
                assert actual.ok, actual.error
                assert actual.scenario == expected.scenario
                assert_results_bit_identical(expected, actual)

            first_pids = {
                outcome.metadata["executor"]["worker_pid"]
                for outcome in outcomes
            }
            assert len(first_pids) <= 2  # the pool, not one process per run
            assert proc.pid not in first_pids  # real worker subprocesses

            # A second wave of requests lands on the SAME warm workers: the
            # pool persists across submissions instead of respawning.
            second_pids = set()
            for i, spec in enumerate(specs):
                ack = client.submit(spec, run_id=f"wave2-{i}")
                outcome = client.wait(ack["run_id"], timeout=120)
                assert outcome.ok
                second_pids.add(outcome.metadata["executor"]["worker_pid"])
            assert second_pids <= first_pids
            assert client.health()["pool_generations"] == 1

    def test_killed_daemon_resumes_from_last_checkpoint(self, tmp_path):
        # ~8 s of TDDFT stepping: long enough that SIGKILL lands mid-run,
        # cheap enough for the suite.  checkpoint_every=20 bounds lost work.
        spec = default_registry().get("quickstart-tddft").with_overrides({
            "runtime.num_steps": 400,
            "runtime.record_every": 4,
        })
        uninterrupted = BatchRunner().run([spec], raise_on_error=True)[0]

        root = tmp_path / "state"
        proc = _spawn_daemon(root, 1)
        try:
            port = _await_port(proc)
            client = ServeClient(port=port, timeout=60.0)
            client.submit(spec, run_id="victim", checkpoint_every=20)
            # Wait for the first committed snapshot (a checkpoint event is
            # read off the manifest, the v2 store's commit point, so a
            # complete resumable snapshot is on disk), then SIGKILL the whole
            # process group (daemon + pool workers): no drain, no atexit.
            first_event(client, "victim", "checkpoint")
        finally:
            _kill_group(proc, signal.SIGKILL)

        # The run died unfinished: its journal entry survived the kill.
        assert (root / "queue" / "victim.json").exists()
        assert not (root / "results" / "victim.json").exists()

        # A fresh daemon on the same state dir resumes and finishes it.
        with serve_daemon(root, 1) as (_proc, client):
            record = client.status("victim")
            assert record["recovered"] is True
            outcome = client.wait("victim", timeout=300)
            assert outcome.ok, outcome.error
            resumed_from = outcome.metadata["executor"]["resumed_from_step"]
            assert resumed_from is not None and resumed_from >= 20
            assert_results_bit_identical(uninterrupted, outcome)
            assert not (root / "queue" / "victim.json").exists()


# ----------------------------------------------------------------------
# Protocol surface (in-process daemon: fast, no subprocess)
# ----------------------------------------------------------------------
@pytest.fixture()
def server(tmp_path):
    daemon = ScenarioServer(tmp_path / "state", port=0, workers=0)
    daemon.start()
    yield daemon
    daemon.stop(drain=True)


@pytest.fixture()
def client(server):
    return ServeClient(port=server.port, timeout=30.0)


class TestProtocol:
    def test_health_and_scenarios(self, client):
        health = client.health()
        assert health["ok"] and health["workers"] == 0
        assert health["queued"] == health["running"] == 0
        assert set(client.scenarios()) == set(default_registry().names())

    def test_submit_by_name_with_overrides(self, client):
        ack = client.submit("maxwell-vacuum",
                            overrides={"runtime.num_steps": 4})
        outcome = client.wait(ack["run_id"], timeout=60)
        assert outcome.ok
        assert outcome.metadata["spec"]["runtime"]["num_steps"] == 4

    def test_results_are_bit_identical_to_inline(self, client):
        spec = smoke_spec("localmode-switch", num_steps=4)
        inline = BatchRunner().run([spec], raise_on_error=True)[0]
        outcome = client.wait(client.submit(spec)["run_id"], timeout=60)
        assert outcome.ok
        assert_results_bit_identical(inline, outcome)

    def test_attempt_reads_the_same_in_status_and_metadata(self, client):
        first = client.wait(
            client.submit(smoke_spec("maxwell-vacuum"))["run_id"], timeout=60)
        assert first.metadata["executor"]["attempt"] == 1
        assert client.status(first.metadata["executor"]["run_id"])[
            "attempts"] == 1
        # A one-shot process-wide plan fails attempt 1 in the inline worker;
        # the retry succeeds.
        faults.configure("executor.worker.pre_run=raise")
        try:
            ack = client.submit(smoke_spec("maxwell-vacuum"))
            retried = client.wait(ack["run_id"], timeout=60)
        finally:
            faults.reset()
        assert retried.ok, retried.error
        assert retried.metadata["executor"]["attempt"] == 2
        assert client.status(ack["run_id"])["attempts"] == 2

    def test_unknown_run_id_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.status("nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            list(client.events("nope"))
        assert excinfo.value.status == 404

    def test_unknown_scenario_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit("no-such-scenario")
        assert excinfo.value.status == 404
        assert "unknown scenario" in str(excinfo.value)

    def test_invalid_spec_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"name": "x", "engine": "not-an-engine"})
        assert excinfo.value.status == 400

    def test_duplicate_run_id_is_409(self, client):
        spec = smoke_spec("maxwell-vacuum")
        client.submit(spec, run_id="twice")
        client.wait("twice", timeout=60)
        # An identical resubmission is idempotent (a retried POST whose ack
        # was lost must not fail)...
        ack = client.submit(spec, run_id="twice")
        assert ack["deduplicated"] is True
        # ...but a *different* submission under the same id still conflicts.
        with pytest.raises(ServeError) as excinfo:
            client.submit(smoke_spec("maxwell-vacuum", num_steps=7),
                          run_id="twice")
        assert excinfo.value.status == 409

    def test_auto_run_ids_skip_taken_ids(self, client):
        # A client-claimed id in the auto sequence must not be reissued (it
        # would overwrite the record and double-queue the id).
        spec = smoke_spec("maxwell-vacuum")
        client.submit(spec, run_id="r000001")
        auto = [client.submit(spec)["run_id"] for _ in range(2)]
        assert "r000001" not in auto
        assert len(set(auto + ["r000001"])) == 3
        for run_id in auto + ["r000001"]:
            assert client.wait(run_id, timeout=60).ok

    def test_auto_run_ids_skip_previous_incarnations(self, tmp_path):
        # After a restart the sequence counter starts over; auto ids must not
        # clobber results persisted by the previous daemon.
        root = tmp_path / "reuse"
        spec = smoke_spec("maxwell-vacuum")
        with ScenarioServer(root, port=0, workers=0) as first:
            client = ServeClient(port=first.port, timeout=30.0)
            old_id = client.submit(spec)["run_id"]
            client.wait(old_id, timeout=60)
        with ScenarioServer(root, port=0, workers=0) as second:
            client = ServeClient(port=second.port, timeout=30.0)
            new_id = client.submit(spec)["run_id"]
            assert new_id != old_id
            assert client.wait(new_id, timeout=60).ok
            assert client.status(old_id)["status"] == "done"

    def test_path_traversal_run_id_is_400(self, client, tmp_path):
        with pytest.raises(ServeError) as excinfo:
            client.submit(smoke_spec("maxwell-vacuum"),
                          run_id="../../escape")
        assert excinfo.value.status == 400
        assert not (tmp_path.parent / "escape.json").exists()

    def test_non_integer_checkpoint_every_is_400_not_a_dropped_connection(
            self, client):
        # Raw POST (the Python client coerces client-side): the daemon must
        # answer 400 JSON, not crash the handler and drop the connection.
        import http.client as http_client
        import json as json_mod

        connection = http_client.HTTPConnection("127.0.0.1", client.port,
                                                timeout=30)
        try:
            connection.request(
                "POST", "/v1/runs",
                body=json_mod.dumps({"scenario": "md-nve",
                                     "checkpoint_every": "ten"}),
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "checkpoint_every" in json_mod.loads(response.read())["error"]
        finally:
            connection.close()
        assert client.ping()  # the daemon is still up

    def test_bad_events_query_is_400(self, client):
        import http.client as http_client
        import json as json_mod

        run_id = client.submit(smoke_spec("maxwell-vacuum"))["run_id"]
        client.wait(run_id, timeout=60)
        connection = http_client.HTTPConnection("127.0.0.1", client.port,
                                                timeout=30)
        try:
            connection.request("GET", f"/v1/runs/{run_id}/events?from=abc")
            response = connection.getresponse()
            assert response.status == 400
            assert "'from'" in json_mod.loads(response.read())["error"]
        finally:
            connection.close()

    def test_result_while_pending_is_409(self, tmp_path):
        # A daemon that is never started executes nothing: the submission
        # stays queued, so the result route must answer 409, not hang.
        daemon = ScenarioServer(tmp_path / "s2", port=0, workers=0)
        daemon.submit(smoke_spec("maxwell-vacuum").to_dict(), run_id="stuck")
        with pytest.raises(ServerError) as excinfo:
            daemon.result("stuck")
        assert excinfo.value.status == 409

    def test_queue_bound_is_429(self, tmp_path):
        daemon = ScenarioServer(tmp_path / "s3", port=0, workers=0,
                                queue_size=2)
        spec = smoke_spec("maxwell-vacuum").to_dict()
        daemon.submit(spec)  # never started -> stays queued
        daemon.submit(spec)
        with pytest.raises(ServerError) as excinfo:
            daemon.submit(spec)
        assert excinfo.value.status == 429

    def test_submissions_execute_in_fifo_order(self, client):
        run_ids = [
            client.submit(smoke_spec("maxwell-vacuum"),
                          run_id=f"fifo-{i}")["run_id"]
            for i in range(4)
        ]
        outcomes = [client.wait(run_id, timeout=60) for run_id in run_ids]
        finished = [
            outcome.metadata["executor"]["run_id"] for outcome in outcomes
        ]
        assert finished == run_ids
        records = {r["run_id"]: r for r in client.runs()}
        starts = [records[run_id]["started_at"] for run_id in run_ids]
        assert starts == sorted(starts)

    def test_event_stream_reports_checkpoints_then_done(self, client):
        spec = smoke_spec("maxwell-vacuum", num_steps=6)
        ack = client.submit(spec, run_id="ev", checkpoint_every=2)
        events = list(client.events("ev", timeout=60))
        kinds = [event["event"] for event in events]
        assert kinds[-1] == "done"
        steps = [e["step"] for e in events if e["event"] == "checkpoint"]
        assert steps == [2, 4, 6]
        outcome = ServeClient.decode_outcome(events[-1]["outcome"])
        assert outcome.ok and outcome.scenario == "maxwell-vacuum"

    def test_journal_recovery_reruns_unfinished_submissions(self, tmp_path):
        root = tmp_path / "s5"
        spec = smoke_spec("md-langevin", num_steps=4)
        inline = BatchRunner().run([spec], raise_on_error=True)[0]
        # Daemon 1 journals two submissions but is never started — the
        # accepted-but-unexecuted crash window.
        dead = ScenarioServer(root, port=0, workers=0)
        dead.submit(spec.to_dict(), run_id="lost-a")
        dead.submit(spec.to_dict(), run_id="lost-b")
        assert sorted(p.stem for p in (root / "queue").glob("*.json")) == \
            ["lost-a", "lost-b"]

        with ScenarioServer(root, port=0, workers=0) as daemon:
            client = ServeClient(port=daemon.port, timeout=30.0)
            for run_id in ("lost-a", "lost-b"):
                assert client.status(run_id)["recovered"] is True
                outcome = client.wait(run_id, timeout=60)
                assert outcome.ok
                assert_results_bit_identical(inline, outcome)
        assert not list((root / "queue").glob("*.json"))

    def test_finished_results_survive_daemon_restart(self, tmp_path):
        root = tmp_path / "s6"
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        with ScenarioServer(root, port=0, workers=0) as first:
            client = ServeClient(port=first.port, timeout=30.0)
            before = client.wait(client.submit(spec, run_id="keeper")["run_id"],
                                 timeout=60)
        with ScenarioServer(root, port=0, workers=0) as second:
            client = ServeClient(port=second.port, timeout=30.0)
            record = client.status("keeper")
            assert record["status"] == "done" and record["recovered"] is True
            after = client.result("keeper")
            assert_results_bit_identical(before, after)


class TestStatsEndpoint:
    """``GET /v1/stats``: the deep observability snapshot."""

    def test_stats_sections_and_shape(self, client):
        stats = client.stats()
        daemon, store = stats["daemon"], stats["store"]
        assert daemon["ok"] is True
        assert daemon["pid"] and daemon["owner"]
        assert daemon["uptime_s"] >= 0
        for key in ("queued", "running", "done", "failed",
                    "queue_depth", "inflight", "queue_size"):
            assert isinstance(daemon[key], int), key
        pool = daemon["pool"]
        assert pool["workers"] == 0
        assert pool["submissions"] == 0 and pool["warm_hit_rate"] is None
        for key in ("journal", "results", "checkpoints", "leases"):
            assert key in store, key
        assert store["leases"] == {"live": 0, "stale": 0, "none": 0}

    def test_stats_track_runs_and_store_growth(self, client):
        before = client.stats()
        run_id = client.submit(smoke_spec("maxwell-vacuum"),
                               checkpoint_every=2)["run_id"]
        assert client.wait(run_id, timeout=60).ok
        after = client.stats()
        assert after["daemon"]["done"] == before["daemon"]["done"] + 1
        assert after["daemon"]["avg_run_s"] is not None
        assert after["store"]["results"]["count"] == \
            before["store"]["results"]["count"] + 1
        assert after["store"]["checkpoints"]["runs"] >= 1
        assert after["store"]["checkpoints"]["bytes"] > 0

    def test_results_dir_feeds_the_regression_gate(self, server, client):
        # A daemon's results/ directory is what `repro analytics regress`
        # reads: each finished run loads under its serve run id.
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        run_id = client.submit(spec)["run_id"]
        outcome = client.wait(run_id, timeout=60)
        assert outcome.ok
        results = load_results([server.root / "results"])
        assert list(results) == [run_id]
        assert results[run_id]["times"] == outcome.times.tolist()
        # The pulse injects field energy: not conserved, the gate trips.
        [violation] = conservation_violations(results, spec.name,
                                              "field_energy", tier="loose")
        assert violation["run_id"] == run_id


class TestServerValidation:
    def test_constructor_rejects_bad_args(self, tmp_path):
        with pytest.raises(ValueError):
            ScenarioServer(tmp_path, queue_size=0)
        with pytest.raises(ValueError):
            ScenarioServer(tmp_path, max_retries=-1)
        with pytest.raises(ValueError):
            ScenarioServer(tmp_path, checkpoint_every=0)
        with pytest.raises(ValueError):
            ScenarioServer(tmp_path, workers=-1)
        # Pools are process pools only; the keyword stays for callers that
        # still name the one backend.
        with pytest.raises(ValueError, match="backend"):
            ScenarioServer(tmp_path, backend="thread")
        assert ScenarioServer(tmp_path, backend="process").pool.workers == 1

    def test_submit_validates_spec_before_journalling(self, tmp_path):
        daemon = ScenarioServer(tmp_path / "s7", port=0, workers=0)
        with pytest.raises(ServerError) as excinfo:
            daemon.submit({"name": "bad", "engine": "nope"})
        assert excinfo.value.status == 400
        queue_dir = tmp_path / "s7" / "queue"
        assert not (queue_dir.is_dir() and list(queue_dir.glob("*.json")))


@needs_fork
class TestCrashIsolation:
    def test_a_run_that_kills_every_worker_fails_alone(
            self, tmp_path, live_telemetry):
        # The doomed run's own fault plan kills its worker on every attempt.
        # The pool re-runs it alone after each break, where the death is its
        # own and charged: max_retries + 1 attempts, each isolated once.  The
        # healthy run queued behind it still runs, exactly.
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        max_retries = 1
        with ScenarioServer(tmp_path, port=0, workers=1,
                            max_retries=max_retries) as server:
            client = ServeClient(port=server.port, timeout=60.0)
            client.submit(spec, run_id="doomed",
                          faults="executor.worker.pre_run=crash")
            client.submit(spec, run_id="healthy")
            doomed = client.wait("doomed", timeout=120)
            healthy = client.wait("healthy", timeout=120)
            record = client.status("doomed")
        assert not doomed.ok
        assert "BrokenProcessPool" in doomed.error
        assert record["status"] == "failed"
        assert record["attempts"] == doomed.attempts == max_retries + 1
        isolated = telemetry.snapshot()["counters"][
            "repro_pool_isolated_runs_total"]["value"]
        assert isolated == max_retries + 1
        assert healthy.ok, healthy.error
        assert_results_bit_identical(
            run_scenario(spec, workspace=KernelWorkspace()), healthy)

    def test_a_run_cut_off_by_a_no_drain_stop_stays_journalled_uncharged(
            self, tmp_path, monkeypatch, live_telemetry):
        # The worker dies only once the daemon has torn its pool down.
        stopped = multiprocessing.get_context("fork").Event()

        def die_after_stop(self, num_steps):
            stopped.wait(60)
            os._exit(3)

        monkeypatch.setattr(MaxwellEngine, "_advance", die_after_stop)
        root = tmp_path / "state"
        server = ScenarioServer(root, port=0, workers=1).start()
        client = ServeClient(port=server.port, timeout=60.0)
        client.submit(smoke_spec("maxwell-vacuum"), run_id="cut")
        first_event(client, "cut", "status", status="running")
        server.stop(drain=False)
        stopped.set()
        record = server._records["cut"]
        with server._wake:
            assert server._wake.wait_for(
                lambda: record.status == "queued", timeout=60)
        assert record.attempts == 0
        assert "repro_pool_isolated_runs_total" not in \
            telemetry.snapshot()["counters"]
        assert (root / "queue" / "cut.json").exists()
        assert not (root / "results" / "cut.json").exists()


def _fail_once_past_step_two(monkeypatch, hold=None):
    """Patch MaxwellEngine so its first attempt raises past its step-2
    snapshot (after waiting on ``hold`` when given); returns the event the
    patch sets on its way to raising."""
    original, crashed = MaxwellEngine._advance, threading.Event()

    def flaky(self, num_steps):
        if not crashed.is_set() and self._step + num_steps >= 4:
            crashed.set()
            if hold is not None:
                hold.wait(60)
            raise RuntimeError("injected crash")
        original(self, num_steps)

    monkeypatch.setattr(MaxwellEngine, "_advance", flaky)
    return crashed


class TestPoolRetries:
    """The pool retries a failed run; the daemon only records the outcome."""

    def test_a_retried_run_stays_running_and_is_queued_once(
            self, tmp_path, monkeypatch, live_telemetry):
        spec = smoke_spec("maxwell-vacuum", num_steps=6)
        crashed = _fail_once_past_step_two(monkeypatch)
        with ScenarioServer(tmp_path, port=0, workers=0) as server:
            advance, during_retry = MaxwellEngine._advance, []

            def watch(self, num_steps):
                if crashed.is_set():
                    during_retry.append(server._records["r"].status)
                advance(self, num_steps)

            monkeypatch.setattr(MaxwellEngine, "_advance", watch)
            client = ServeClient(port=server.port, timeout=60.0)
            client.submit(spec, run_id="r", checkpoint_every=2)
            outcome = client.wait("r", timeout=120)
            spans = client.trace("r")["spans"]
        assert outcome.ok, outcome.error
        assert outcome.metadata["executor"]["attempt"] == 2
        assert outcome.metadata["executor"]["resumed_from_step"] == 2
        assert during_retry and set(during_retry) == {"running"}
        queued = [r for r in spans if r["name"] == "serve.queue"]
        assert [r["attrs"]["attempt"] for r in queued] == [1]
        assert [r["attrs"]["attempt"] for r in spans
                if r["name"] == "worker.run"] == [1, 2]

    def test_a_draining_stop_waits_for_an_inflight_retry(self, tmp_path,
                                                         monkeypatch):
        release = threading.Event()
        crashed = _fail_once_past_step_two(monkeypatch, hold=release)
        root = tmp_path / "state"
        server = ScenarioServer(root, port=0, workers=0).start()
        server.submit(smoke_spec("maxwell-vacuum", num_steps=6).to_dict(),
                      run_id="r", checkpoint_every=2)
        stopper = threading.Thread(target=server.stop)  # drain=True
        assert crashed.wait(60)
        stopper.start()
        with server._wake:
            assert server._wake.wait_for(lambda: server._stopping, timeout=60)
        release.set()  # attempt 1 raises now, with the daemon draining
        stopper.join(60)
        assert not stopper.is_alive()
        record = server._records["r"]
        assert (record.status, record.attempts) == ("done", 2)
        assert (root / "results" / "r.json").exists()
        assert not (root / "queue" / "r.json").exists()


class TestHousekeeping:
    """Startup-replay housekeeping: the state directory stays bounded."""

    def _result_payload(self, run_id: str, scenario: str = "maxwell-vacuum"):
        return {"run_id": run_id, "finished_at": 0.0,
                "ok": {"scenario": scenario, "engine": "maxwell",
                       "times": [0.0], "observables": {}}}

    def test_dead_journal_entry_is_dropped_not_rerun(self, tmp_path):
        # A daemon that crashed between persisting a result and unlinking the
        # journal leaves both files; replaying the journal would execute the
        # finished run a second time.
        from repro.store import atomic_write_json

        root = tmp_path / "state"
        spec = smoke_spec("maxwell-vacuum", num_steps=2).to_dict()
        atomic_write_json(root / "queue" / "dead.json",
                          {"run_id": "dead", "seq": 0, "spec": spec,
                           "submitted_at": 0.0})
        atomic_write_json(root / "results" / "dead.json",
                          self._result_payload("dead"))
        with ScenarioServer(root, port=0, workers=0) as daemon:
            assert daemon.list_runs() == []  # nothing was re-enqueued
            assert not (root / "queue" / "dead.json").exists()
            # ... but the finished result is still served from disk.
            assert daemon.status("dead")["status"] == "done"

    def test_results_retention_prunes_old_results_and_their_checkpoints(
            self, tmp_path):
        import os as _os

        from repro.api import CheckpointStore
        from repro.store import atomic_write_json

        root = tmp_path / "state"
        store = CheckpointStore(root / "checkpoints")
        for index, run_id in enumerate(["r0", "r1", "r2", "r3"]):
            atomic_write_json(root / "results" / f"{run_id}.json",
                              self._result_payload(run_id))
            _os.utime(root / "results" / f"{run_id}.json",
                      (1000.0 + index, 1000.0 + index))
            store.save({"format": 1, "scenario": "maxwell-vacuum",
                        "engine": "maxwell", "time": 1.0, "step": 1,
                        "state": {"x": [1.0]}}, run_id=run_id)
        with ScenarioServer(root, port=0, workers=0,
                            retention="keep=2") as daemon:
            results = sorted(p.stem for p in (root / "results").glob("*.json"))
            assert results == ["r2", "r3"]
            # pruned results lose their checkpoint runs too
            assert daemon.store.run_ids("maxwell-vacuum") == ["r2", "r3"]

    def test_keep_every_terms_do_not_apply_to_results(self, tmp_path):
        # every=K is a snapshot-step rule; against result mtimes it would
        # delete ~everything whose mtime isn't divisible by K.
        from repro.store import atomic_write_json

        root = tmp_path / "state"
        for index, run_id in enumerate(["r0", "r1", "r2"]):
            atomic_write_json(root / "results" / f"{run_id}.json",
                              self._result_payload(run_id))
            os.utime(root / "results" / f"{run_id}.json",
                     (1001.0 + index, 1001.0 + index))
        with ScenarioServer(root, port=0, workers=0, retention="every=3"):
            pass
        assert sorted(p.stem for p in (root / "results").glob("*.json")) \
            == ["r0", "r1", "r2"]

    def test_no_retention_means_no_pruning(self, tmp_path):
        from repro.store import atomic_write_json

        root = tmp_path / "state"
        for run_id in ("a", "b"):
            atomic_write_json(root / "results" / f"{run_id}.json",
                              self._result_payload(run_id))
        with ScenarioServer(root, port=0, workers=0):
            pass
        assert sorted(p.stem for p in (root / "results").glob("*.json")) \
            == ["a", "b"]

    def test_retention_reaches_worker_checkpoint_stores(self, tmp_path):
        # retention="keep=1" must ride the payload into the worker's store:
        # after a run with per-step snapshots only the final one survives.
        root = tmp_path / "state"
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        with ScenarioServer(root, port=0, workers=0,
                            retention="keep=1") as daemon:
            client = ServeClient(port=daemon.port, timeout=30.0)
            ack = client.submit(spec, run_id="pruned", checkpoint_every=1)
            outcome = client.wait(ack["run_id"], timeout=60)
            assert outcome.ok
            assert daemon.store.steps(spec.name, "pruned") == [4]


# ----------------------------------------------------------------------
# Shared state root: ownership, contested run ids, dead-owner takeover
# ----------------------------------------------------------------------
@needs_fork
class TestSharedRootOwnership:
    #: ~8 s of TDDFT stepping (same budget as the kill/resume test): long
    #: enough that the second daemon's contested submission lands while the
    #: first is demonstrably mid-run.
    LONG = {"runtime.num_steps": 400, "runtime.record_every": 4}

    def test_retry_after_header_reaches_the_client(self, tmp_path):
        daemon = ScenarioServer(tmp_path / "state", port=0, workers=0,
                                queue_size=1)
        daemon.start()
        try:
            client = ServeClient(port=daemon.port, timeout=30.0, retries=0)
            slow = default_registry().get("quickstart-tddft").with_overrides(
                self.LONG
            )
            running = client.submit(slow, run_id="hog")["run_id"]
            first_event(client, running, "status", status="running")
            client.submit(smoke_spec("maxwell-vacuum"), run_id="queued")
            with pytest.raises(ServeError) as excinfo:
                client.submit(smoke_spec("maxwell-vacuum"), run_id="refused")
            assert excinfo.value.status == 429
            # Honest backpressure: the daemon names a wait, the client
            # surfaces it for its backoff schedule.
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1.0
            assert client.wait(running, timeout=120).ok
        finally:
            daemon.stop(drain=False)

    def test_contested_run_id_answers_409_naming_the_owner(self, tmp_path):
        root = tmp_path / "shared"
        slow = default_registry().get("quickstart-tddft").with_overrides(
            self.LONG
        )
        with serve_daemon(root, 1) as (proc_a, client_a):
            owner_a = client_a.health()["owner"]
            assert str(proc_a.pid) in owner_a  # serve:<host>:<pid>
            client_a.submit(slow, run_id="contested", checkpoint_every=20)
            with serve_daemon(root, 1) as (_proc_b, client_b):
                # Daemon B shares the root; the run id is A's while A lives.
                with pytest.raises(ServeError) as excinfo:
                    client_b.submit(slow, run_id="contested")
                assert excinfo.value.status == 409
                assert owner_a in str(excinfo.value)
                # B is otherwise fully operational on the shared root.
                ok = client_b.wait(
                    client_b.submit(smoke_spec("maxwell-vacuum"),
                                    run_id="b-own")["run_id"],
                    timeout=120,
                )
                assert ok.ok
            assert client_a.wait("contested", timeout=300).ok

    @pytest.mark.chaos
    def test_dead_owner_is_taken_over_and_resumes_bit_identically(self, tmp_path):
        root = tmp_path / "shared"
        spec = default_registry().get("quickstart-tddft").with_overrides(
            self.LONG
        )
        uninterrupted = BatchRunner().run([spec], raise_on_error=True)[0]

        proc_a = _spawn_daemon(root, 1, "--lease-ttl", "2")
        try:
            port_a = _await_port(proc_a)
            client_a = ServeClient(port=port_a, timeout=60.0)
            client_a.submit(spec, run_id="victim", checkpoint_every=20)
            with serve_daemon(root, 1, "--lease-ttl", "2") as (_proc_b, client_b):
                # While A lives, B loses the contested submission...
                with pytest.raises(ServeError) as excinfo:
                    client_b.submit(spec, run_id="victim")
                assert excinfo.value.status == 409
                assert client_a.health()["owner"] in str(excinfo.value)

                # ...A is SIGKILLed mid-run (after its first durable
                # snapshot, so the takeover has something to resume from)...
                first_event(client_a, "victim", "checkpoint")
                _kill_group(proc_a, signal.SIGKILL)
                assert (root / "queue" / "victim.json").exists()

                # ...and B's first re-submission claims the orphaned run at
                # once (A is reaped, and a dead same-host journal owner is
                # dead without waiting out its lease) and finishes it
                # bit-identically to an uninterrupted run.
                ack = client_b.submit(spec, run_id="victim")
                assert ack["recovered"] is True
                outcome = client_b.wait("victim", timeout=300)
                assert outcome.ok, outcome.error
                resumed_from = outcome.metadata["executor"]["resumed_from_step"]
                assert resumed_from is not None and resumed_from >= 20
                assert_results_bit_identical(uninterrupted, outcome)
        finally:
            _kill_group(proc_a)
