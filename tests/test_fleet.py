"""repro.fleet: membership registry, work stealing, the router front door.

Three layers under test:

* **membership** — daemons heartbeat JSON records into
  ``<root>/fleet/members/``; staleness follows the run-lease rules (TTL
  expiry, immediate same-host dead-pid), graceful drains remove the record,
  SIGKILLed daemons age out and are pruned by survivors.
* **work stealing** — idle daemons scan the shared journal for runs whose
  owner is provably dead and claim them under a per-run flock: exactly one
  of two racing daemons wins, the loser sees a typed
  :class:`~repro.fleet.scheduler.FleetClaimLost` and moves on, and the
  adopted run resumes bit-identically to an uninterrupted one.
* **router** — ``repro fleet route`` load-balances submissions by queue
  depth, proxies status/result/events to the owning member with
  shared-store fallbacks, aggregates backpressure honestly (429 with the
  smallest Retry-After), and fails over transparently when a member dies —
  never answering 5xx for a routable request.

The chaos-marked subprocess tests at the bottom are the PR's acceptance
criteria (a SIGKILLed member's runs finish bit-identically via its
surviving peers, end to end through the router); the rest runs in tier 1.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import faults, telemetry
from repro.api import (
    BatchRunner, ScenarioServer, ServeClient, ServeError, ServeUnavailable,
    default_registry,
)
from repro.api.client import ServeTimeout
from repro.api.wire import FINISHED, ServerError
from repro.fleet import (
    FleetRegistry, FleetRouter, FleetScheduler, member_id_for,
)
from repro.store import atomic_write_json

from test_api import smoke_spec
from test_checkpoint import assert_results_bit_identical
from test_server import (
    E2E_NAMES, SRC, _await_port, _kill_group, needs_fork,
)

HOSTNAME = socket.gethostname()

chaos = pytest.mark.chaos


# ----------------------------------------------------------------------
# Harness helpers
# ----------------------------------------------------------------------
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


def _spawn_fleet_daemon(root: Path, workers: int = 1, *extra: str,
                        plan: str = "") -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers), "--checkpoint-dir", str(root), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_env_with(plan), start_new_session=True,
    )


def _spawn_router(root: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "route", "--port", "0",
         "--root", str(root)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_env_with(), start_new_session=True,
    )


def _dead_pid() -> int:
    """A pid that provably belonged to an exited process on this host.

    Reuse before the assertion runs is astronomically unlikely on Linux's
    sequential pid allocator.
    """
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait(timeout=30)
    return proc.pid


def _await_event(client: ServeClient, run_id: str, wanted,
                 deadline_s: float) -> dict:
    """Read ``run_id``'s event stream up to the first event ``wanted`` accepts.

    The gate is the event itself; the deadline only turns a run that never
    gets there (or settles first) into a failure instead of a hang.
    """
    deadline = time.monotonic() + deadline_s
    stream = client.events(run_id)
    try:
        for event in stream:
            if wanted(event):
                return event
            assert event["event"] not in FINISHED, \
                f"{run_id} settled first: {event['event']}"
            assert time.monotonic() < deadline, \
                f"{run_id}: no such event within {deadline_s} s"
    finally:
        stream.close()
    raise AssertionError(f"{run_id}: the event stream ended early")


def _orphan_entry(run_id: str, spec, seq: int = 0) -> dict:
    """A journal entry whose owner is provably dead (foreign host, no
    lease) — exactly what a SIGKILLed remote daemon leaves behind."""
    return {
        "run_id": run_id, "seq": seq, "spec": spec.to_dict(),
        "checkpoint_every": None, "submitted_at": 0.0,
        "owner": "serve:no-such-host-zzz:999999",
        "owner_pid": 999999,
        "owner_host": "no-such-host-zzz",
    }


@contextmanager
def fleet_servers(root: Path, count: int = 2, workers: int = 0, **kwargs):
    """``count`` in-process daemons sharing one root, distinct owners."""
    servers = []
    try:
        for index in range(count):
            server = ScenarioServer(
                root, port=0, workers=workers,
                owner=f"serve:{HOSTNAME}:{os.getpid()}:{chr(97 + index)}",
                **kwargs,
            )
            server.start()
            servers.append(server)
        yield servers
    finally:
        for server in servers:
            try:
                server.stop(drain=False)
            except Exception:
                pass


@contextmanager
def fleet_with_router(root: Path, count: int = 2, workers: int = 0,
                      **kwargs):
    with fleet_servers(root, count=count, workers=workers, **kwargs) \
            as servers:
        router = FleetRouter(root, port=0, stats_ttl=0.5, quarantine_s=0.5)
        router.start()
        try:
            yield servers, router, ServeClient(port=router.port,
                                               timeout=60.0)
        finally:
            router.stop()


# ----------------------------------------------------------------------
# Membership registry (unit)
# ----------------------------------------------------------------------
class TestMembership:
    def test_member_id_sanitizes_owner_strings(self):
        assert member_id_for("serve:host.example:123") == \
            "serve-host.example-123"
        assert member_id_for("a b/c") == "a-b-c"
        assert member_id_for(":::") == "member"
        assert member_id_for("..") == "member"

    def test_registry_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ValueError):
            FleetRegistry(tmp_path, ttl=0.0)

    def test_join_requires_an_owner(self, tmp_path):
        with pytest.raises(ValueError):
            FleetRegistry(tmp_path).join({"host": "127.0.0.1", "port": 1})

    def test_join_heartbeat_leave_roundtrip(self, tmp_path):
        registry = FleetRegistry(tmp_path)
        member_id = registry.join({"owner": "serve:h:1", "port": 1234})
        assert member_id == "serve-h-1"
        members = registry.members()
        assert [m["member_id"] for m in members] == [member_id]
        assert members[0]["port"] == 1234
        assert members[0]["stale"] is False
        first_beat = members[0]["heartbeat_at"]
        # join == heartbeat: rejoining refreshes the record in place.
        assert registry.join({"owner": "serve:h:1", "port": 1234}) == member_id
        assert registry.members()[0]["heartbeat_at"] >= first_beat
        registry.leave(member_id)
        assert registry.members(include_stale=True) == []
        registry.leave(member_id)  # idempotent

    def test_ttl_expiry_marks_members_stale(self, tmp_path):
        registry = FleetRegistry(tmp_path, ttl=1.0)
        registry.join({"owner": "serve:h:1"})
        future = time.time() + 10.0
        assert registry.members(now=future) == []
        stale = registry.members(include_stale=True, now=future)
        assert len(stale) == 1 and stale[0]["stale"] is True

    def test_same_host_dead_pid_is_stale_immediately(self, tmp_path):
        registry = FleetRegistry(tmp_path, ttl=3600.0)
        registry.join({"owner": "serve:h:dead", "machine": HOSTNAME,
                       "pid": _dead_pid()})
        # Heartbeat is fresh, TTL huge — the dead pid alone condemns it.
        assert registry.members() == []
        assert registry.members(include_stale=True)[0]["stale"] is True

    def test_live_pid_keeps_member_live(self, tmp_path):
        registry = FleetRegistry(tmp_path)
        registry.join({"owner": "serve:h:live", "machine": HOSTNAME,
                       "pid": os.getpid()})
        assert registry.members()[0]["stale"] is False

    def test_prune_removes_only_long_dead_records(self, tmp_path):
        registry = FleetRegistry(tmp_path, ttl=1.0)
        fresh_id = registry.join({"owner": "serve:h:fresh"})
        old_id = registry.join({"owner": "serve:h:old"})
        old_path = registry.members_dir / f"{old_id}.json"
        record = json.loads(old_path.read_text())
        record["heartbeat_at"] = 1.0
        old_path.write_text(json.dumps(record))
        os.utime(old_path, (1.0, 1.0))
        assert registry.prune() == 1
        survivors = [m["member_id"]
                     for m in registry.members(include_stale=True)]
        assert survivors == [fresh_id]
        # A freshly-stale record (mtime inside the prune horizon) survives
        # for operators even though it reads as stale.
        future = time.time() + 5.0
        assert registry.prune(now=future) == 0
        assert registry.members(include_stale=True, now=future)

    def test_atomic_write_temp_files_are_invisible(self, tmp_path):
        registry = FleetRegistry(tmp_path)
        registry.join({"owner": "serve:h:1"})
        temp = registry.members_dir / ".tmp-serve-h-1-abcd.json"
        temp.write_text("{}")
        assert len(registry.members(include_stale=True)) == 1
        assert registry.prune(now=time.time() + 1e6) == 1  # not the temp
        assert temp.exists()

    # -- clock skew: pid liveness must beat wall-clock arithmetic ------
    def test_forward_clock_step_keeps_live_pids_live(self, tmp_path):
        # An NTP step (or a reader with a fast clock) makes every heartbeat
        # look ancient; a provably live same-host pid must still read live
        # instead of the whole fleet mass-expiring.
        registry = FleetRegistry(tmp_path, ttl=1.0)
        registry.join({"owner": "serve:h:live", "machine": HOSTNAME,
                       "pid": os.getpid()})
        skewed_now = time.time() + 3600.0
        members = registry.members(now=skewed_now)
        assert len(members) == 1 and members[0]["stale"] is False

    def test_dead_pid_is_stale_despite_future_heartbeat(self, tmp_path):
        # The converse: a heartbeat stamped in the future (writer's clock
        # stepped back after the write) must not shield a dead daemon.
        registry = FleetRegistry(tmp_path, ttl=3600.0)
        member_id = registry.join({"owner": "serve:h:dead",
                                   "machine": HOSTNAME, "pid": _dead_pid()})
        path = registry.members_dir / f"{member_id}.json"
        record = json.loads(path.read_text())
        record["heartbeat_at"] = time.time() + 3600.0
        path.write_text(json.dumps(record))
        assert registry.members() == []
        assert registry.members(include_stale=True)[0]["stale"] is True

    def test_future_heartbeat_without_identity_reads_as_just_now(self,
                                                                 tmp_path):
        # No pid to probe: a future-stamped beat is clamped to "age zero"
        # (live), and goes stale once `now` catches up a TTL past it —
        # never "live forever" and never negative-age weirdness.
        registry = FleetRegistry(tmp_path, ttl=10.0)
        beat = 1000.0
        record = {"owner": "serve:h:skew", "ttl": 10.0, "heartbeat_at": beat}
        assert not registry.member_stale(record, now=beat - 500.0)
        assert not registry.member_stale(record, now=beat + 9.0)
        assert registry.member_stale(record, now=beat + 11.0)


# ----------------------------------------------------------------------
# Daemon integration: join on start, leave on drain, identity routes
# ----------------------------------------------------------------------
class TestDaemonMembership:
    def test_daemon_joins_heartbeats_and_leaves(self, tmp_path):
        root = tmp_path / "state"
        daemon = ScenarioServer(root, port=0, workers=0)
        daemon.start()
        try:
            registry = FleetRegistry(root)
            members = registry.members()
            assert len(members) == 1
            member = members[0]
            assert member["owner"] == daemon.owner
            assert member["daemon_id"] == daemon.daemon_id
            assert member["port"] == daemon.port
            assert member["pid"] == os.getpid()
            assert member["machine"] == HOSTNAME

            client = ServeClient(port=daemon.port, timeout=30.0)
            health = client.health()
            assert health["daemon_id"] == daemon.daemon_id
            assert health["host"] == daemon.host
            assert health["port"] == daemon.port
            assert health["version"] and health["started_at"]

            fleet = client.request("GET", "/fleet")
            assert [m["daemon_id"] for m in fleet["members"]] == \
                [daemon.daemon_id]

            stats = client.stats()["daemon"]
            assert stats["daemon_id"] == daemon.daemon_id
            assert stats["stolen"] == 0
        finally:
            daemon.stop(drain=True)
        assert FleetRegistry(root).members(include_stale=True) == []

    def test_two_daemons_share_one_registry(self, tmp_path):
        root = tmp_path / "shared"
        with fleet_servers(root, count=2) as (a, b):
            ids = {m["daemon_id"] for m in FleetRegistry(root).members()}
            assert ids == {a.daemon_id, b.daemon_id}


# ----------------------------------------------------------------------
# Work stealing over the shared journal
# ----------------------------------------------------------------------
class TestWorkStealing:
    def test_scheduler_steals_dead_owners_orphan_bit_identically(
            self, tmp_path):
        root = tmp_path / "shared"
        spec = smoke_spec("md-langevin", num_steps=4)
        inline = BatchRunner().run([spec], raise_on_error=True)[0]
        with fleet_servers(root, count=1, steal_interval=0.05) as (daemon,):
            client = ServeClient(port=daemon.port, timeout=60.0)
            # The orphan appears AFTER startup (a peer died mid-fleet), so
            # only the steal loop — not the startup replay — can adopt it.
            atomic_write_json(root / "queue" / "orphan.json",
                              _orphan_entry("orphan", spec))
            # Adoption registers the run and notifies the daemon's condition.
            with daemon._wake:
                assert daemon._wake.wait_for(
                    lambda: "orphan" in daemon._records, timeout=60), \
                    "never stolen"
            outcome = client.wait("orphan", timeout=120)
            assert outcome.ok, outcome.error
            assert_results_bit_identical(inline, outcome)
            assert client.status("orphan")["recovered"] is True
            assert client.stats()["daemon"]["stolen"] == 1
        assert not (root / "queue" / "orphan.json").exists()

    def test_steal_leaves_live_owners_entries_alone(self, tmp_path):
        root = tmp_path / "shared"
        spec = smoke_spec("maxwell-vacuum")
        entry = _orphan_entry("held", spec)
        entry.update({"owner": "serve:somebody-else:1",
                      "owner_pid": os.getpid(), "owner_host": HOSTNAME})
        atomic_write_json(root / "queue" / "held.json", entry)
        daemon = ScenarioServer(root, port=0, workers=0)
        assert daemon.steal_once() == []
        persisted = json.loads((root / "queue" / "held.json").read_text())
        assert persisted["owner"] == "serve:somebody-else:1"

    def test_steal_sweeps_finished_dead_entries_without_rerunning(
            self, tmp_path):
        root = tmp_path / "shared"
        spec = smoke_spec("maxwell-vacuum")
        atomic_write_json(root / "queue" / "dead.json",
                          _orphan_entry("dead", spec))
        atomic_write_json(root / "results" / "dead.json",
                          {"run_id": "dead", "finished_at": 0.0,
                           "spec": spec.to_dict(),
                           "ok": {"scenario": spec.name, "engine": "maxwell",
                                  "times": [0.0], "observables": {}}})
        daemon = ScenarioServer(root, port=0, workers=0)
        assert daemon.steal_once() == []
        assert not (root / "queue" / "dead.json").exists()
        assert (root / "results" / "dead.json").exists()

    def test_contended_claims_have_exactly_one_winner_each(self, tmp_path):
        root = tmp_path / "shared"
        spec = smoke_spec("maxwell-vacuum", num_steps=2)
        run_ids = [f"orph-{i}" for i in range(6)]
        with fleet_servers(root, count=2) as (a, b):
            # Orphans appear after both daemons are up: adoption can only
            # happen through the racing steal_once calls below.
            for index, run_id in enumerate(run_ids):
                atomic_write_json(root / "queue" / f"{run_id}.json",
                                  _orphan_entry(run_id, spec, seq=index))
            adopted = {"a": [], "b": []}
            barrier = threading.Barrier(2)

            def _race(name, server):
                barrier.wait()
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    adopted[name].extend(server.steal_once())
                    if len(adopted["a"]) + len(adopted["b"]) >= len(run_ids):
                        return
                    # Not a wait for an event: this loop is the steal tick
                    # under test, and the sleep is its interval.
                    time.sleep(0.01)

            threads = [threading.Thread(target=_race, args=("a", a)),
                       threading.Thread(target=_race, args=("b", b))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=90)
            wins_a, wins_b = set(adopted["a"]), set(adopted["b"])
            # Exactly one winner per orphan: disjoint, complete, no double
            # adoption (the per-run flock + owner re-check arbitrates).
            assert wins_a & wins_b == set()
            assert wins_a | wins_b == set(run_ids)
            assert len(adopted["a"]) + len(adopted["b"]) == len(run_ids)
            # Every adopted run executes to a persisted result; each settle
            # notifies its daemon's condition.
            for server, wins in ((a, wins_a), (b, wins_b)):
                with server._wake:
                    assert server._wake.wait_for(
                        lambda: all(server._records[run_id].status in FINISHED
                                    for run_id in wins), timeout=120), \
                        f"never finished: {sorted(wins)}"
            assert all((root / "results" / f"{run_id}.json").exists()
                       for run_id in run_ids)

    def test_startup_replay_and_a_peer_steal_adopt_an_orphan_once(
            self, tmp_path, monkeypatch):
        root = tmp_path / "shared"
        atomic_write_json(root / "queue" / "orphan.json",
                          _orphan_entry("orphan", smoke_spec("maxwell-vacuum")))
        a, b = (ScenarioServer(root, port=0, workers=0,
                               owner=f"serve:{HOSTNAME}:{os.getpid()}:{name}")
                for name in "ab")
        consult = a._foreign_owner_alive
        steals = []

        def consult_then_steal(entry, run_id):
            # B's steal tick lands between A's journal scan and A's claim.
            alive = consult(entry, run_id)
            if not steals:
                steals.append(b.steal_once())
            return alive

        monkeypatch.setattr(a, "_foreign_owner_alive", consult_then_steal)
        a._recover()
        assert steals == [["orphan"]]
        holders = [server for server in (a, b) if "orphan" in server._records]
        assert len(holders) == 1
        entry = json.loads((root / "queue" / "orphan.json").read_text())
        assert entry["owner"] == holders[0].owner

    def test_replayed_peers_runs_with_equal_seqs_batch_correctly(
            self, tmp_path):
        # Two dead peers each journalled their first run as seq 0.  Batch
        # outcomes are keyed by seq, so the replay must renumber them or a
        # coalesced batch hands one run the other's result.
        root = tmp_path / "shared"
        for run_id in ("x", "y"):
            spec = smoke_spec("maxwell-vacuum", num_steps=2).to_dict()
            spec["name"] = f"vacuum-{run_id}"
            entry = _orphan_entry(run_id, smoke_spec("maxwell-vacuum"))
            entry.update(spec=spec, owner=f"serve:no-such-host-zzz:{run_id}")
            atomic_write_json(root / "queue" / f"{run_id}.json", entry)
        with fleet_servers(root, count=1, batch_max=4) as (daemon,):
            with daemon._wake:
                assert daemon._wake.wait_for(
                    lambda: all(daemon._records[run_id].status in FINISHED
                                for run_id in "xy"), timeout=120)
            assert daemon.stats()["daemon"]["batched_runs"] == 2
            for run_id in "xy":
                assert daemon.result(run_id)["ok"]["scenario"] == \
                    f"vacuum-{run_id}"

    def test_resubmit_takes_over_a_dead_peers_run_only_with_its_spec(
            self, tmp_path, live_telemetry):
        root = tmp_path / "shared"
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        entry = _orphan_entry("orphan", spec)
        entry["checkpoint_every"] = 2
        journal = root / "queue" / "orphan.json"
        with fleet_servers(root, count=1) as (daemon,):  # no steal ticks
            atomic_write_json(journal, entry)
            before = journal.read_bytes()
            # A different spec under the dead peer's id would replace the
            # journalled run: a conflict, and the journal stays untouched.
            with pytest.raises(ServerError) as excinfo:
                daemon.submit(smoke_spec("md-nve").to_dict(), run_id="orphan")
            assert excinfo.value.status == 409
            assert journal.read_bytes() == before
            assert "orphan" not in daemon._records

            ack = daemon.submit(spec.to_dict(), run_id="orphan",
                                checkpoint_every=3)
            assert ack["recovered"] is True
            # The run is rebuilt from the journal, cadence included.
            assert daemon._records["orphan"].checkpoint_every == 2
            with daemon._wake:
                assert daemon._wake.wait_for(
                    lambda: daemon._records["orphan"].status in FINISHED,
                    timeout=120)
            assert daemon._records["orphan"].status == "done"
            spans = daemon.trace_payload("orphan")["spans"]
        adopts = [span for span in spans if span["name"] == "fleet.adopt"]
        assert len(adopts) == 1
        assert adopts[0]["attrs"]["previous_owner"] == entry["owner"]
        counters = telemetry.snapshot()["counters"]
        assert counters["repro_fleet_adoptions_total"]["value"] == 1

    def test_stealing_is_opt_in(self, tmp_path, monkeypatch):
        root = tmp_path / "shared"
        beats = {"count": 0}
        beat = threading.Condition()
        genuine = FleetScheduler._heartbeat

        def observed(scheduler):
            genuine(scheduler)
            with beat:
                beats["count"] += 1
                beat.notify_all()

        monkeypatch.setattr(FleetScheduler, "_heartbeat", observed)
        # No steal_interval; a 0.3 s member TTL makes the loop beat every
        # 0.1 s.
        with fleet_servers(root, count=1, fleet_ttl=0.3) as (daemon,):
            with beat:
                seen = beats["count"]
            atomic_write_json(
                root / "queue" / "orphan.json",
                _orphan_entry("orphan", smoke_spec("maxwell-vacuum")),
            )
            # Two heartbeats after the orphan appeared: the loop has gone a
            # full tick with it on disk, and a stealing loop would have
            # taken it on that tick.
            with beat:
                assert beat.wait_for(lambda: beats["count"] >= seen + 2,
                                     timeout=30), "the heartbeat loop stopped"
            assert daemon._fleet is not None
            assert (root / "queue" / "orphan.json").exists()
            with pytest.raises(ServeError) as excinfo:
                ServeClient(port=daemon.port, timeout=10.0).status("orphan")
            assert excinfo.value.status == 404


# ----------------------------------------------------------------------
# Idempotent submission (satellite a)
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


class TestIdempotentSubmit:
    def test_identical_resubmission_is_acknowledged_not_409(self, client):
        spec = smoke_spec("maxwell-vacuum")
        first = client.submit(spec, run_id="dup")
        assert "deduplicated" not in first
        again = client.submit(spec, run_id="dup")
        assert again["run_id"] == "dup"
        assert again["deduplicated"] is True
        assert again["position"] is None
        assert client.wait("dup", timeout=60).ok
        # ... and after the run finished, the replay still acks (served
        # from the persisted result's spec stamp).
        done = client.submit(spec, run_id="dup")
        assert done["deduplicated"] is True
        assert done["status"] == "done"

    def test_different_spec_under_same_id_still_conflicts(self, client):
        client.submit(smoke_spec("maxwell-vacuum"), run_id="dup")
        client.wait("dup", timeout=60)
        with pytest.raises(ServeError) as excinfo:
            client.submit(smoke_spec("maxwell-vacuum", num_steps=7),
                          run_id="dup")
        assert excinfo.value.status == 409

    def test_different_checkpoint_cadence_conflicts(self, client):
        spec = smoke_spec("maxwell-vacuum")
        client.submit(spec, run_id="dup", checkpoint_every=2)
        with pytest.raises(ServeError) as excinfo:
            client.submit(spec, run_id="dup", checkpoint_every=4)
        assert excinfo.value.status == 409
        assert client.wait("dup", timeout=60).ok

    def test_dropped_ack_retry_with_run_id_succeeds(self, server):
        # A POST whose ack is lost mid-flight: with a caller-supplied run
        # id the client retries (the daemon deduplicates the replay).
        client = ServeClient(port=server.port, timeout=30.0, retries=2,
                             backoff=0.01)
        original = client._request_once
        state = {"dropped": 0}

        def flaky(method, path, body=None):
            if method == "POST" and state["dropped"] == 0:
                state["dropped"] += 1
                original(method, path, body=body)  # daemon DID process it
                raise ServeUnavailable("ack lost on the wire")
            return original(method, path, body=body)

        client._request_once = flaky
        ack = client.submit(smoke_spec("maxwell-vacuum"), run_id="retried")
        assert ack["run_id"] == "retried"
        assert ack["deduplicated"] is True  # the replay hit the journal
        assert client.wait("retried", timeout=60).ok

    def test_dropped_ack_without_run_id_is_not_retried(self, server):
        # No caller id means a replay could double-submit: the connection
        # error must propagate instead.
        client = ServeClient(port=server.port, timeout=30.0, retries=2,
                             backoff=0.01)

        def dead(method, path, body=None):
            raise ServeUnavailable("gone")

        client._request_once = dead
        with pytest.raises(ServeUnavailable):
            client.submit(smoke_spec("maxwell-vacuum"))


# ----------------------------------------------------------------------
# Client wait backoff (satellite b)
# ----------------------------------------------------------------------
class TestWaitBackoff:
    def test_poll_delays_double_up_to_the_cap(self, monkeypatch):
        client = ServeClient(port=1, timeout=1.0, retries=0)
        monkeypatch.setattr(
            client, "_request_once",
            lambda method, path, body=None: {"status": "queued"})
        sleeps = []
        monkeypatch.setattr("repro.api.client.time.sleep", sleeps.append)
        with pytest.raises(ServeTimeout) as excinfo:
            client.wait("slow", timeout=0.25, poll=0.01, poll_cap=0.04)
        assert excinfo.value.run_status == "queued"
        assert len(sleeps) >= 3
        assert sleeps[0] == pytest.approx(0.01)
        assert sleeps[1] == pytest.approx(0.02)
        assert sleeps[2] == pytest.approx(0.04)
        # Capped thereafter, and never overshooting the deadline budget.
        assert max(sleeps) <= 0.04 + 1e-9

    def test_wait_without_timeout_returns_on_completion(self, client):
        run_id = client.submit(smoke_spec("maxwell-vacuum"),
                               run_id="patient")["run_id"]
        assert client.wait(run_id, poll=0.01).ok

    def test_dead_daemon_raises_unavailable_not_timeout(self, tmp_path):
        # The two failure modes stay distinct types: a dead daemon is
        # ServeUnavailable, never dressed up as a run timeout.
        daemon = ScenarioServer(tmp_path / "stuck", port=0, workers=0)
        daemon.start()
        daemon.stop(drain=False)
        client = ServeClient(port=daemon.port, timeout=5.0, retries=0)
        with pytest.raises(ServeUnavailable):
            client.wait("stuck", timeout=1.0, poll=0.01)


# ----------------------------------------------------------------------
# The router/gateway front door
# ----------------------------------------------------------------------
class TestRouter:
    def test_roundtrip_balances_across_members(self, tmp_path):
        root = tmp_path / "shared"
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        inline = BatchRunner().run([spec], raise_on_error=True)[0]
        with fleet_with_router(root) as (servers, router, rc):
            health = rc.health()
            assert health["ok"] and health["router"] is True
            assert health["members"] == 2

            acks = [rc.submit(spec, run_id=f"rt-{i}") for i in range(4)]
            routed = {ack["routed_to"] for ack in acks}
            assert len(routed) == 2  # least-depth routing spreads the load

            for i in range(4):
                outcome = rc.wait(f"rt-{i}", timeout=120)
                assert outcome.ok, outcome.error
                assert_results_bit_identical(inline, outcome)

            # status/result/events all route through the same front door.
            assert rc.status("rt-0")["status"] == "done"
            events = list(rc.events("rt-1", timeout=60))
            assert events[-1]["event"] == "done"
            listed = {r["run_id"] for r in rc.runs()}
            assert {f"rt-{i}" for i in range(4)} <= listed

            stats = rc.stats()
            assert stats["router"]["routed"] == 4
            assert stats["fleet"]["members"] == 2
            assert stats["fleet"]["done"] == 4
            assert len(stats["members"]) == 2
            assert stats["store"]["results"]["count"] == 4

            overview = rc.request("GET", "/fleet")["members"]
            assert all(m["reachable"] for m in overview)

    def test_unknown_run_id_is_404(self, tmp_path):
        with fleet_with_router(tmp_path / "shared") as (_servers, _router, rc):
            with pytest.raises(ServeError) as excinfo:
                rc.status("nope")
            assert excinfo.value.status == 404

    def test_no_members_is_503_with_retry_hint(self, tmp_path):
        router = FleetRouter(tmp_path / "empty", port=0).start()
        try:
            rc = ServeClient(port=router.port, timeout=10.0, retries=0)
            with pytest.raises(ServeError) as excinfo:
                rc.submit(smoke_spec("maxwell-vacuum"))
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
        finally:
            router.stop()

    def test_full_fleet_aggregates_429_with_smallest_hint(self, tmp_path):
        root = tmp_path / "shared"
        hog = default_registry().get("quickstart-tddft").with_overrides(
            {"runtime.num_steps": 160, "runtime.record_every": 4}
        )
        with fleet_with_router(root, queue_size=1) as (servers, router, rc):
            hogs = []
            for index, member in enumerate(servers):
                mc = ServeClient(port=member.port, timeout=30.0, retries=0)
                hog_id = f"hog-{index}"
                mc.submit(hog, run_id=hog_id)
                _await_event(mc, hog_id,
                             lambda event: event.get("status") == "running",
                             deadline_s=30)
                mc.submit(smoke_spec("maxwell-vacuum"), run_id=f"fill-{index}")
                hogs.append((mc, hog_id, f"fill-{index}"))
            strict = ServeClient(port=router.port, timeout=30.0, retries=0)
            with pytest.raises(ServeError) as excinfo:
                strict.submit(smoke_spec("maxwell-vacuum"), run_id="refused")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert "capacity" in str(excinfo.value)
            for mc, hog_id, fill_id in hogs:
                assert mc.wait(hog_id, timeout=300).ok
                assert mc.wait(fill_id, timeout=120).ok

    def test_router_resolves_duplicate_submissions(self, tmp_path):
        root = tmp_path / "shared"
        spec = smoke_spec("maxwell-vacuum")
        with fleet_with_router(root) as (_servers, _router, rc):
            rc.submit(spec, run_id="dup")
            assert rc.wait("dup", timeout=60).ok
            again = rc.submit(spec, run_id="dup")
            assert again["deduplicated"] is True
            with pytest.raises(ServeError) as excinfo:
                rc.submit(smoke_spec("maxwell-vacuum", num_steps=7),
                          run_id="dup")
            assert excinfo.value.status == 409

    def test_drained_member_is_skipped_without_5xx(self, tmp_path):
        root = tmp_path / "shared"
        with fleet_with_router(root) as (servers, router, rc):
            servers[0].stop(drain=True)
            ack = rc.submit(smoke_spec("maxwell-vacuum"), run_id="after")
            assert ack["routed_to"] == \
                f"{servers[1].host}:{servers[1].port}"
            assert rc.wait("after", timeout=60).ok

    def test_status_and_result_fall_back_to_the_shared_store(self, tmp_path):
        root = tmp_path / "shared"
        spec = smoke_spec("maxwell-vacuum")
        atomic_write_json(root / "queue" / "orphan.json",
                          _orphan_entry("orphan", spec))
        atomic_write_json(root / "results" / "finished.json",
                          {"run_id": "finished", "finished_at": 0.0,
                           "spec": spec.to_dict(),
                           "ok": {"scenario": spec.name, "engine": "maxwell",
                                  "times": [0.0], "observables": {}}})
        router = FleetRouter(root, port=0).start()  # no live members at all
        try:
            rc = ServeClient(port=router.port, timeout=10.0)
            orphan = rc.status("orphan")
            assert orphan["status"] == "queued"
            assert orphan["orphaned"] is True
            finished = rc.status("finished")
            assert finished["status"] == "done"
            assert finished["recovered"] is True
            assert rc.result("finished").ok
        finally:
            router.stop()


# ----------------------------------------------------------------------
# Fleet CLI surface
# ----------------------------------------------------------------------
class TestFleetCli:
    def test_fleet_ls_and_status_json(self, tmp_path):
        root = tmp_path / "root"
        FleetRegistry(root).join({"owner": "serve:h:1", "host": "127.0.0.1",
                                  "port": 1, "machine": HOSTNAME,
                                  "pid": os.getpid(), "workers": 2})
        ls = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "ls", str(root),
             "--json"],
            env=_env_with(), capture_output=True, text=True, timeout=120,
        )
        assert ls.returncode == 0, ls.stderr
        members = json.loads(ls.stdout)["members"]
        assert [m["member_id"] for m in members] == ["serve-h-1"]
        status = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "status", str(root),
             "--json"],
            env=_env_with(), capture_output=True, text=True, timeout=120,
        )
        assert status.returncode == 0, status.stderr
        overview = json.loads(status.stdout)
        assert overview["members"][0]["member_id"] == "serve-h-1"
        # Port 1 answers nothing: reported unreachable, never an error.
        assert overview["members"][0]["reachable"] is False


# ----------------------------------------------------------------------
# Fault drivers (fleet.* rows of the chaos kill matrix)
# ----------------------------------------------------------------------
@chaos
class TestFleetFaults:
    def test_member_join_crash_leaves_root_clean_and_restarts(self, tmp_path):
        root = tmp_path / "state"
        proc = _spawn_fleet_daemon(root, 0,
                                   plan="fleet.member.pre_join=crash")
        try:
            # Times out (fails) if the daemon survived its crash plan.
            assert proc.wait(timeout=60) == faults.CRASH_EXIT_CODE
        finally:
            _kill_group(proc)
        # The crash hit before the record write: never discoverable.
        members_dir = root / "fleet" / "members"
        if members_dir.is_dir():
            assert not [p for p in members_dir.glob("*.json")
                        if not p.name.startswith(".")]
        clean = _spawn_fleet_daemon(root, 0)
        try:
            port = _await_port(clean)
            client = ServeClient(port=port, timeout=30.0)
            assert client.ping()
            assert len(FleetRegistry(root).members()) == 1
        finally:
            _kill_group(clean)

    def test_steal_claim_crash_leaves_orphan_intact_for_survivors(
            self, tmp_path):
        root = tmp_path / "state"
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        inline = BatchRunner().run([spec], raise_on_error=True)[0]
        doomed = _spawn_fleet_daemon(root, 0, "--steal-interval", "0.1",
                                     plan="fleet.steal.pre_claim=crash")
        try:
            _await_port(doomed)  # startup replay is over; now the orphan
            atomic_write_json(root / "queue" / "orphan.json",
                              _orphan_entry("orphan", spec))
            # Times out (fails) if the daemon never hit the point.
            assert doomed.wait(timeout=60) == faults.CRASH_EXIT_CODE
        finally:
            _kill_group(doomed)
        # The claim never landed: the entry still names the dead owner, so
        # any surviving daemon can adopt it (the flock died with the pid).
        entry = json.loads((root / "queue" / "orphan.json").read_text())
        assert entry["owner"] == "serve:no-such-host-zzz:999999"
        survivor = _spawn_fleet_daemon(root, 0, "--steal-interval", "0.1")
        try:
            port = _await_port(survivor)
            client = ServeClient(port=port, timeout=60.0)
            outcome = client.wait("orphan", timeout=120)
            assert outcome.ok, outcome.error
            assert_results_bit_identical(inline, outcome)
        finally:
            _kill_group(survivor)

    def test_router_proxy_fault_fails_over_not_5xx(self, tmp_path):
        root = tmp_path / "shared"
        with fleet_with_router(root) as (_servers, router, rc):
            try:
                # One-shot raise: the first proxy attempt "drops", the
                # router quarantines that member and the submission lands
                # on the other — the client only ever sees the 202.
                faults.configure("fleet.router.pre_proxy=raise")
                ack = rc.submit(smoke_spec("maxwell-vacuum"),
                                run_id="survived")
                assert "routed_to" in ack
                assert rc.wait("survived", timeout=60).ok
                assert rc.stats()["router"]["failovers"] >= 1
            finally:
                faults.reset()


# ----------------------------------------------------------------------
# Acceptance (chaos): SIGKILLed members, surviving peers, the router
# ----------------------------------------------------------------------
@chaos
@needs_fork
class TestFleetEndToEnd:
    def test_two_live_daemons_replay_a_sigkilled_thirds_journal(
            self, tmp_path):
        """Satellite (c): each orphan is adopted by exactly one survivor
        and the resumed results are bit-identical to uninterrupted runs."""
        root = tmp_path / "shared"
        long_spec = default_registry().get("quickstart-tddft") \
            .with_overrides({"runtime.num_steps": 400,
                             "runtime.record_every": 4})
        short_spec = smoke_spec("maxwell-vacuum", num_steps=4)
        uninterrupted = BatchRunner().run([long_spec, short_spec],
                                          raise_on_error=True)

        # The survivors are LIVE before the victim's submissions exist, so
        # the orphans can only move through the work-stealing loop (the
        # startup replay saw an empty journal).
        survivors = [
            _spawn_fleet_daemon(root, 1, "--lease-ttl", "2",
                                "--steal-interval", "0.2")
            for _ in range(2)
        ]
        try:
            clients = [ServeClient(port=_await_port(p), timeout=60.0)
                       for p in survivors]
            victim = _spawn_fleet_daemon(root, 1, "--lease-ttl", "2")
            try:
                port = _await_port(victim)
                vc = ServeClient(port=port, timeout=60.0)
                vc.submit(long_spec, run_id="orph-long", checkpoint_every=20)
                vc.submit(short_spec, run_id="orph-short")  # stays queued
                # A checkpoint event means a snapshot the manifest commits.
                _await_event(vc, "orph-long",
                             lambda event: event["event"] == "checkpoint",
                             deadline_s=120)
            finally:
                _kill_group(victim, signal.SIGKILL)
            assert (root / "queue" / "orph-long.json").exists()
            assert (root / "queue" / "orph-short.json").exists()

            # No event to wait on: until a survivor's steal tick claims an
            # orphan, neither survivor knows the run (its events() is a
            # 404), so the shared results directory is the only signal.
            deadline = time.monotonic() + 300
            pending = {"orph-long", "orph-short"}
            while pending and time.monotonic() < deadline:
                pending = {rid for rid in pending
                           if not (root / "results" / f"{rid}.json").exists()}
                time.sleep(0.1)
            assert not pending, f"never adopted/finished: {sorted(pending)}"

            # Exactly one adopter each: the run appears in one survivor's
            # records, the stolen counters sum to the orphan count.
            owners = {"orph-long": [], "orph-short": []}
            stolen = 0
            for index, client in enumerate(clients):
                stats = client.stats()["daemon"]
                stolen += stats["stolen"]
                for record in client.runs():
                    if record["run_id"] in owners:
                        owners[record["run_id"]].append(index)
            assert stolen == 2
            for run_id, holders in owners.items():
                assert len(holders) == 1, (run_id, holders)

            adopter = clients[owners["orph-long"][0]]
            outcome = adopter.wait("orph-long", timeout=60)
            assert outcome.ok, outcome.error
            resumed = outcome.metadata["executor"]["resumed_from_step"]
            assert resumed is not None and resumed >= 20
            assert_results_bit_identical(uninterrupted[0], outcome)
            short = clients[owners["orph-short"][0]].wait("orph-short",
                                                          timeout=60)
            assert short.ok, short.error
            assert_results_bit_identical(uninterrupted[1], short)
            assert not list((root / "queue").glob("*.json"))
        finally:
            for proc in survivors:
                _kill_group(proc)

    def test_router_serves_a_batch_through_a_member_sigkill(self, tmp_path):
        """Satellite (e)'s test half: a seeded batch through the router
        with one member SIGKILLed mid-batch — every run finishes
        bit-identically to inline execution and the router never answers
        5xx."""
        root = tmp_path / "shared"
        specs = [smoke_spec(name, num_steps=4) for name in E2E_NAMES] * 2
        inline = BatchRunner().run(specs, raise_on_error=True)

        daemons = [
            _spawn_fleet_daemon(root, 1, "--lease-ttl", "2",
                                "--steal-interval", "0.2")
            for _ in range(2)
        ]
        router = _spawn_router(root)
        try:
            for proc in daemons:
                _await_port(proc)
            rc = ServeClient(port=_await_port(router), timeout=60.0)
            # No event to wait on: members join by writing membership
            # records, and the router only reads them when asked.
            deadline = time.monotonic() + 60
            while rc.health()["members"] < 2:
                assert time.monotonic() < deadline, "members never joined"
                time.sleep(0.1)

            def _submit(index):
                try:
                    return rc.submit(specs[index], run_id=f"batch-{index}",
                                     checkpoint_every=2)
                except ServeError as exc:
                    assert exc.status < 500, f"router answered {exc.status}"
                    raise

            for index in range(3):
                _submit(index)
            _kill_group(daemons[0], signal.SIGKILL)  # mid-batch
            for index in range(3, len(specs)):
                _submit(index)

            for index, expected in enumerate(inline):
                outcome = rc.wait(f"batch-{index}", timeout=300)
                assert outcome.ok, (index, outcome.error)
                assert_results_bit_identical(expected, outcome)
            assert not list((root / "queue").glob("*.json"))
        finally:
            _kill_group(router)
            for proc in daemons:
                _kill_group(proc)
