"""Cross-process locking, run-ownership leases, and client retry units.

Tier-1 coverage of the crash-safety layer's building blocks: the advisory
per-run file lock (fcntl and its pidfile fallback), lease claim/renew/stale
semantics inside the manifest, the ``RunStore`` ownership surface, fault-plan
parsing, manifest shape validation, the store CLI's exit-2 error paths, and
the serving client's backoff/timeout behaviour.  The end-to-end kill matrix
lives in ``test_faults.py`` (chaos-marked); everything here is fast and
in-process (the lock-contention tests fork one trivial child).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.api.cli import main
from repro.api.client import ServeClient, ServeError, ServeTimeout
from repro.store import (
    CheckpointError, DEFAULT_LEASE_TTL_S, RunLeaseHeld, RunLock, RunStore,
    StoreLockTimeout, claim_lease, lease_remaining, lease_stale, release_lease,
)
from repro.store import locks as locks_module
from repro.store.manifest import MANIFEST_NAME, read_manifest

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")


def dead_pid() -> int:
    """A pid that provably belongs to no live process (a reaped child)."""
    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait(timeout=30)
    return proc.pid  # reaped above, so the pid is free again


@pytest.fixture
def clock(monkeypatch):
    """A wall clock (``time.time``) that moves only when a test advances
    ``clock[0]``: the lease ages the store reads, without sleeping."""
    now = [time.time()]
    monkeypatch.setattr(time, "time", lambda: now[0])
    return now


def make_checkpoint(step: int, scenario: str = "locked") -> dict:
    return {"format": 2, "scenario": scenario, "engine": "md",
            "time": float(step), "step": int(step),
            "state": {"x": [1.0, float(step)]},
            "times": [float(s) for s in range(step + 1)],
            "records": {"e": [0.5] * (step + 1)}}


# ----------------------------------------------------------------------
# RunLock: the advisory per-run file mutex
# ----------------------------------------------------------------------
class TestRunLock:
    def test_acquire_release_round_trip(self, tmp_path):
        lock = RunLock(tmp_path)
        assert not lock.held
        with lock:
            assert lock.held
            assert (tmp_path / ".lock").exists()
        assert not lock.held
        # Reacquirable after release.
        with RunLock(tmp_path):
            pass

    def test_contention_times_out_typed(self, tmp_path):
        # flock is per open-file-description: a second descriptor conflicts
        # even within one process, which is exactly the cross-process case.
        with RunLock(tmp_path):
            contender = RunLock(tmp_path, timeout=0.2, poll=0.01)
            with pytest.raises(StoreLockTimeout) as excinfo:
                contender.acquire()
            assert ".lock" in str(excinfo.value)
            assert not contender.held

    @needs_fork
    def test_excludes_other_processes(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        release = ctx.Event()
        acquired = ctx.Event()

        def _hold():
            with RunLock(tmp_path):
                acquired.set()
                release.wait(timeout=30)

        child = ctx.Process(target=_hold)
        child.start()
        try:
            assert acquired.wait(timeout=10)
            with pytest.raises(StoreLockTimeout):
                RunLock(tmp_path, timeout=0.2, poll=0.01).acquire()
        finally:
            release.set()
            child.join(timeout=10)
        # With the holder gone, the lock is free again.
        with RunLock(tmp_path, timeout=5.0):
            pass

    def test_sigkilled_holder_releases_instantly(self, tmp_path):
        # The kernel drops a flock when its process dies — no TTL, no
        # staleness heuristics.  SIGKILL the holder and acquire immediately.
        code = (
            "import sys; sys.path.insert(0, sys.argv[2])\n"
            "from repro.store import RunLock\n"
            "RunLock(sys.argv[1]).acquire()\n"
            "print('held', flush=True)\n"
            "import time; time.sleep(60)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(tmp_path), src],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "held"
            proc.kill()
            proc.wait(timeout=10)
        finally:
            proc.stdout.close()
        with RunLock(tmp_path, timeout=5.0):
            pass


class TestPidfileFallback:
    @pytest.fixture(autouse=True)
    def no_fcntl(self, monkeypatch):
        monkeypatch.setattr(locks_module, "fcntl", None)

    def test_acquire_writes_pidfile_and_releases(self, tmp_path):
        lock = RunLock(tmp_path)
        with lock:
            content = (tmp_path / ".lock").read_text()
            assert content.split()[0] == str(os.getpid())
        # The fallback removes its pidfile on release.
        assert not (tmp_path / ".lock").exists()

    def test_live_holder_blocks(self, tmp_path):
        with RunLock(tmp_path):
            with pytest.raises(StoreLockTimeout):
                RunLock(tmp_path, timeout=0.2, poll=0.01).acquire()

    def test_dead_holder_is_broken(self, tmp_path):
        (tmp_path / ".lock").write_text(f"{dead_pid()} ghost:1\n")
        with RunLock(tmp_path, timeout=5.0):
            pass  # staleness breaking unlinked the dead pidfile

    def test_ancient_unreadable_pidfile_is_broken(self, tmp_path):
        path = tmp_path / ".lock"
        path.write_text("not-a-pid\n")
        old = time.time() - 2 * locks_module.STALE_PIDFILE_S
        os.utime(path, (old, old))
        with RunLock(tmp_path, timeout=5.0):
            pass


# ----------------------------------------------------------------------
# Lease records: claim / renew / stale / release
# ----------------------------------------------------------------------
class TestLeaseFunctions:
    def test_claim_fresh_and_renew_keeps_acquired_at(self):
        manifest = {"scenario": "s", "run_id": "r"}
        first = claim_lease(manifest, "alice", pid=123, host="h", ttl=30.0,
                            now=100.0)
        assert manifest["lease"] is first
        assert first["owner"] == "alice" and first["acquired_at"] == 100.0
        renewed = claim_lease(manifest, "alice", pid=123, host="h", ttl=30.0,
                              now=110.0)
        assert renewed["acquired_at"] == 100.0  # heartbeat, not a re-claim
        assert renewed["renewed_at"] == 110.0

    def test_live_foreign_lease_is_typed_conflict(self):
        manifest = {"scenario": "s", "run_id": "r"}
        claim_lease(manifest, "alice", pid=os.getpid(), ttl=30.0, now=100.0)
        with pytest.raises(RunLeaseHeld) as excinfo:
            claim_lease(manifest, "bob", now=110.0)
        err = excinfo.value
        assert err.owner == "alice"
        assert err.scenario == "s" and err.run_id == "r"
        assert 0.0 < err.expires_in <= 30.0
        assert "alice" in str(err)

    def test_ttl_expired_lease_is_claimable(self):
        manifest = {"scenario": "s", "run_id": "r"}
        claim_lease(manifest, "alice", pid=os.getpid(), ttl=5.0, now=100.0)
        taken = claim_lease(manifest, "bob", now=106.0)
        assert taken["owner"] == "bob"

    def test_dead_pid_lease_is_claimable_immediately(self):
        # Same host + provably dead pid: no TTL wait.
        manifest = {"scenario": "s", "run_id": "r"}
        claim_lease(manifest, "alice", pid=dead_pid(), ttl=3600.0, now=None)
        taken = claim_lease(manifest, "bob")
        assert taken["owner"] == "bob"

    def test_foreign_host_pid_is_not_probed(self):
        manifest = {"scenario": "s", "run_id": "r"}
        claim_lease(manifest, "alice", pid=dead_pid(), host="elsewhere",
                    ttl=3600.0, now=100.0)
        assert not lease_stale(manifest["lease"], now=110.0)
        with pytest.raises(RunLeaseHeld):
            claim_lease(manifest, "bob", now=110.0)

    def test_stale_and_remaining_edge_cases(self):
        assert lease_stale(None)
        assert lease_remaining(None) == 0.0
        assert lease_remaining({"renewed_at": "junk"}) == 0.0
        lease = {"owner": "a", "renewed_at": 100.0, "ttl": 10.0}
        assert lease_remaining(lease, now=104.0) == pytest.approx(6.0)
        assert not lease_stale(lease, now=104.0)
        assert lease_stale(lease, now=111.0)

    def test_future_renewed_lease_never_reports_more_than_one_ttl(self):
        # Clock skew: a renewed_at stamped in the future (writer's NTP
        # stepped forward, or this reader's stepped back) must read as at
        # most one freshly-renewed TTL — not hours of remaining lease that
        # would make the run untakeable and stall every claim-scan backoff.
        lease = {"owner": "a", "renewed_at": 7200.0, "ttl": 10.0}
        assert lease_remaining(lease, now=100.0) == pytest.approx(10.0)
        assert not lease_stale(lease, now=100.0)
        # Once the reader's clock catches up, normal TTL expiry resumes.
        assert lease_remaining(lease, now=7205.0) == pytest.approx(5.0)
        assert lease_stale(lease, now=7211.0)

    def test_release_only_for_the_owner(self):
        manifest = {"scenario": "s", "run_id": "r"}
        claim_lease(manifest, "alice", pid=os.getpid())
        assert release_lease(manifest, "bob") is False
        assert "lease" in manifest
        assert release_lease(manifest, "alice") is True
        assert "lease" not in manifest
        assert release_lease(manifest, "alice") is False  # idempotent


# ----------------------------------------------------------------------
# RunStore ownership surface
# ----------------------------------------------------------------------
class TestStoreLeases:
    def test_owned_save_writes_and_renews_lease(self, tmp_path, clock):
        store = RunStore(tmp_path, owner="alice")
        store.save(make_checkpoint(0), run_id="r")
        lease = read_manifest(store.run_dir("locked", "r"))["lease"]
        assert lease["owner"] == "alice" and lease["pid"] == os.getpid()
        first_renewed = lease["renewed_at"]
        clock[0] += 0.01
        store.save(make_checkpoint(1), run_id="r")
        lease = read_manifest(store.run_dir("locked", "r"))["lease"]
        assert lease["renewed_at"] > first_renewed
        assert lease["acquired_at"] <= first_renewed  # renewal, not re-claim
        assert store.describe("locked", "r")["lease"]["owner"] == "alice"

    def test_second_live_owner_gets_typed_conflict(self, tmp_path):
        RunStore(tmp_path, owner="alice").save(make_checkpoint(0), run_id="r")
        bob = RunStore(tmp_path, owner="bob")
        with pytest.raises(RunLeaseHeld) as excinfo:
            bob.save(make_checkpoint(1), run_id="r")
        assert excinfo.value.owner == "alice"
        # The refused save left no partial state: alice's snapshot stands.
        assert RunStore(tmp_path).steps("locked", "r") == [0]

    def test_dead_owner_is_taken_over_immediately(self, tmp_path):
        alice = RunStore(tmp_path, owner="alice", owner_pid=dead_pid())
        alice.save(make_checkpoint(0), run_id="r")
        bob = RunStore(tmp_path, owner="bob")
        bob.save(make_checkpoint(1), run_id="r")
        lease = read_manifest(bob.run_dir("locked", "r"))["lease"]
        assert lease["owner"] == "bob"
        assert bob.steps("locked", "r") == [0, 1]

    def test_expired_ttl_is_taken_over(self, tmp_path, clock):
        # A foreign-host lease (no pid probe possible) falls back to TTL.
        alice = RunStore(tmp_path, owner="alice", owner_host="elsewhere",
                         lease_ttl=0.05)
        alice.save(make_checkpoint(0), run_id="r")
        bob = RunStore(tmp_path, owner="bob")
        with pytest.raises(RunLeaseHeld):
            bob.save(make_checkpoint(1), run_id="r")
        clock[0] += 0.08
        bob.save(make_checkpoint(1), run_id="r")
        assert read_manifest(bob.run_dir("locked", "r"))["lease"]["owner"] == "bob"

    def test_release_clears_lease_and_unowned_saves_preserve_it(self, tmp_path):
        alice = RunStore(tmp_path, owner="alice")
        alice.save(make_checkpoint(0), run_id="r")
        # A lease-oblivious writer neither claims nor clobbers the lease.
        RunStore(tmp_path).save(make_checkpoint(1), run_id="r")
        assert read_manifest(alice.run_dir("locked", "r"))["lease"]["owner"] == "alice"
        assert alice.release("locked", "r") is True
        assert "lease" not in read_manifest(alice.run_dir("locked", "r"))
        assert alice.release("locked", "r") is False
        # Released runs are claimable by anyone.
        RunStore(tmp_path, owner="bob").save(make_checkpoint(2), run_id="r")

    def test_lease_less_manifests_read_as_unleased(self, tmp_path):
        RunStore(tmp_path).save(make_checkpoint(0), run_id="r")
        manifest = read_manifest(tmp_path / "locked" / "r")
        assert "lease" not in manifest
        assert manifest["store_format"] == 2
        # ...and are claimable without ceremony.
        RunStore(tmp_path, owner="bob").save(make_checkpoint(1), run_id="r")

    def test_lock_file_survives_compact(self, tmp_path):
        store = RunStore(tmp_path, owner="alice")
        for step in range(3):
            store.save(make_checkpoint(step), run_id="r")
        store.compact("locked", "r")
        assert (store.run_dir("locked", "r") / ".lock").exists()
        assert store.latest("locked", "r")["step"] == 2


# ----------------------------------------------------------------------
# Fault plans (parsing + trigger semantics; the kill matrix is chaos-tier)
# ----------------------------------------------------------------------
class TestFaultPlans:
    @pytest.fixture(autouse=True)
    def disarm(self):
        faults.reset()
        yield
        faults.reset()

    def test_parse_plan_string_and_dict(self):
        plan = faults.parse_plan(
            "manifest.commit.pre_write=raise, series.append.mid_batch=crash@3"
        )
        assert plan == {"manifest.commit.pre_write": ("raise", 1),
                        "series.append.mid_batch": ("crash", 3)}
        assert faults.parse_plan(
            {"manifest.commit.pre_write": "crash"}
        ) == {"manifest.commit.pre_write": ("crash", 1)}
        assert faults.parse_plan(None) == {}
        assert faults.parse_plan("") == {}

    @pytest.mark.parametrize("bad", [
        "no-equals-sign", "p=banana", "p=raise@0", "p=raise@x", 42,
    ])
    def test_bad_plans_are_typed_errors(self, bad):
        with pytest.raises(faults.FaultPlanError):
            faults.parse_plan(bad)

    def test_unregistered_point_raises_even_disarmed(self):
        with pytest.raises(faults.FaultPlanError):
            faults.point("no.such.site")

    def test_raise_action_fires_once(self):
        import repro.store.manifest as manifest_module
        name = manifest_module.FAULT_COMMIT_PRE
        faults.configure(f"{name}=raise")
        assert faults.active_plan()
        with pytest.raises(faults.InjectedFault) as excinfo:
            faults.point(name)
        assert excinfo.value.point == name
        faults.point(name)  # one-shot: disarmed after firing
        assert not faults.active_plan()

    def test_nth_hit_counting(self):
        import repro.store.manifest as manifest_module
        name = manifest_module.FAULT_COMMIT_POST
        faults.configure({name: "raise@3"})
        faults.point(name)
        faults.point(name)
        with pytest.raises(faults.InjectedFault):
            faults.point(name)

    def test_registered_points_cover_every_layer(self):
        import repro.api.executor  # noqa: F401 - registers its points
        import repro.api.server  # noqa: F401
        registered = set(faults.points())
        for prefix in ("manifest.", "series.", "store.",
                       "server.", "executor."):
            assert any(name.startswith(prefix) for name in registered), prefix


# ----------------------------------------------------------------------
# Manifest shape validation + store CLI error paths
# ----------------------------------------------------------------------
class TestCorruptManifests:
    def corrupt(self, tmp_path, text: str) -> Path:
        run_dir = tmp_path / "scen" / "run"
        run_dir.mkdir(parents=True)
        (run_dir / MANIFEST_NAME).write_text(text)
        return run_dir

    def test_non_object_manifest_is_typed(self, tmp_path):
        run_dir = self.corrupt(tmp_path, "[1, 2, 3]")
        with pytest.raises(CheckpointError, match="expected a JSON object"):
            read_manifest(run_dir)

    def test_missing_sections_are_typed(self, tmp_path):
        run_dir = self.corrupt(
            tmp_path, json.dumps({"store_format": 2, "snapshots": {}})
        )
        with pytest.raises(CheckpointError, match="snapshots"):
            read_manifest(run_dir)

    def test_unparsable_manifest_is_typed(self, tmp_path):
        run_dir = self.corrupt(tmp_path, "{not json")
        with pytest.raises(CheckpointError):
            read_manifest(run_dir)


class TestStoreCliErrorPaths:
    def corrupt_root(self, tmp_path) -> Path:
        root = tmp_path / "store"
        run_dir = root / "scen" / "run"
        run_dir.mkdir(parents=True)
        (run_dir / MANIFEST_NAME).write_text("{broken")
        return root

    @pytest.mark.parametrize("argv_tail", [
        ["ls"], ["inspect"], ["compact"],
    ])
    def test_corrupt_manifest_exits_2_with_diagnostic(
            self, tmp_path, capsys, argv_tail):
        root = self.corrupt_root(tmp_path)
        argv = ["store", argv_tail[0], str(root)]
        if argv_tail[0] == "inspect":
            argv += ["scen", "run"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one-line diagnostic, no traceback

    def test_inspect_missing_run_exits_2(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["store", "inspect", str(tmp_path / "empty"),
                     "scen", "nope"]) == 2
        assert "no run" in capsys.readouterr().out

    def test_healthy_ls_still_exits_0(self, tmp_path, capsys):
        root = tmp_path / "ok"
        RunStore(root).save(make_checkpoint(0), run_id="r")
        assert main(["store", "ls", str(root)]) == 0
        assert "locked" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Client degradation: backoff, Retry-After, typed wait timeout
# ----------------------------------------------------------------------
class TestClientRetry:
    def test_delay_schedule_is_capped_and_jittered(self):
        client = ServeClient(retries=3, backoff=0.25, backoff_cap=2.0)
        for attempt in range(6):
            delay = client._delay(attempt, None)
            ceiling = min(0.25 * 2 ** attempt, 2.0)
            assert ceiling / 2.0 <= delay <= ceiling
        # A daemon hint replaces the computed delay, still capped.
        assert client._delay(0, 1.5) == 1.5
        assert client._delay(0, 99.0) == 2.0

    def test_transient_statuses_are_retried_then_succeed(self, monkeypatch):
        client = ServeClient(retries=3, backoff=0.0, backoff_cap=0.0)
        calls = []

        def fake_once(method, path, body=None):
            calls.append(method)
            if len(calls) < 3:
                raise ServeError(429, "queue is full", retry_after=0.0)
            return {"ok": True}

        monkeypatch.setattr(client, "_request_once", fake_once)
        assert client._request("POST", "/runs") == {"ok": True}
        assert len(calls) == 3

    def test_retry_budget_exhausts_typed(self, monkeypatch):
        client = ServeClient(retries=2, backoff=0.0, backoff_cap=0.0)
        calls = []

        def fake_once(method, path, body=None):
            calls.append(1)
            raise ServeError(503, "draining", retry_after=0.0)

        monkeypatch.setattr(client, "_request_once", fake_once)
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/runs")
        assert excinfo.value.status == 503
        assert len(calls) == 3  # initial try + 2 retries

    def test_permanent_errors_are_never_retried(self, monkeypatch):
        client = ServeClient(retries=5, backoff=0.0, backoff_cap=0.0)
        calls = []

        def fake_once(method, path, body=None):
            calls.append(1)
            raise ServeError(409, "already exists")

        monkeypatch.setattr(client, "_request_once", fake_once)
        with pytest.raises(ServeError):
            client._request("POST", "/runs")
        assert len(calls) == 1

    def test_connection_loss_retried_for_get_only(self, monkeypatch):
        from repro.api.client import ServeUnavailable
        client = ServeClient(retries=2, backoff=0.0, backoff_cap=0.0)
        calls = []

        def fake_once(method, path, body=None):
            calls.append(1)
            raise ServeUnavailable("gone")

        monkeypatch.setattr(client, "_request_once", fake_once)
        with pytest.raises(ServeUnavailable):
            client._request("POST", "/runs")
        assert len(calls) == 1  # resubmitting a POST is not idempotent
        calls.clear()
        with pytest.raises(ServeUnavailable):
            client._request("GET", "/health")
        assert len(calls) == 3

    def test_retry_sleep_is_clamped_to_the_deadline(self):
        # A 60 s Retry-After hint must not stall a caller whose own wait
        # deadline is 50 ms away: the sleep is clamped to the remaining
        # budget, and an already-expired deadline re-raises the pending
        # error without sleeping at all.
        start = time.monotonic()
        try:
            raise ServeError(429, "queue is full")
        except ServeError:
            ServeClient._sleep_before_retry(60.0, time.monotonic() + 0.05)
        assert time.monotonic() - start < 5.0

        with pytest.raises(ServeError):
            try:
                raise ServeError(429, "queue is full")
            except ServeError:
                ServeClient._sleep_before_retry(60.0, time.monotonic() - 1.0)
        assert time.monotonic() - start < 5.0

    def test_wait_transient_errors_respect_the_deadline(self, monkeypatch):
        # A daemon answering nothing but 429 + huge Retry-After: wait()
        # must give up at its own timeout with the typed error instead of
        # honouring hints that outlive the budget.
        client = ServeClient(retries=50, backoff=0.01, backoff_cap=0.01)

        def always_full(method, path, body=None):
            raise ServeError(429, "queue is full", retry_after=60.0)

        monkeypatch.setattr(client, "_request_once", always_full)
        start = time.monotonic()
        with pytest.raises((ServeTimeout, ServeError)) as excinfo:
            client.wait("r0", timeout=0.2, poll=0.01)
        assert time.monotonic() - start < 5.0
        if isinstance(excinfo.value, ServeError):
            assert excinfo.value.status == 429

    def test_wait_timeout_is_typed(self, monkeypatch):
        client = ServeClient()
        monkeypatch.setattr(
            client, "_request_once",
            lambda method, path, body=None: {"status": "running"}
        )
        with pytest.raises(ServeTimeout) as excinfo:
            client.wait("slow", timeout=0.05, poll=0.01)
        err = excinfo.value
        assert isinstance(err, TimeoutError)  # the CLI's exit-3 contract
        assert err.run_id == "slow" and err.run_status == "running"
        assert err.timeout == 0.05

    def test_defaults_leave_lease_ttl_sane(self):
        assert DEFAULT_LEASE_TTL_S == 60.0
