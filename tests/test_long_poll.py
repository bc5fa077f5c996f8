"""Long-poll run status: ``GET /v1/runs/<id>?wait=S`` and its users.

The daemon holds a status request on its wake condition until the run
settles, the hold expires or the daemon stops; ``ServeClient.wait`` asks
for that hold on every check, and the fleet router forwards it to the
run's owner.  Everything here runs in process: a ``workers=0`` daemon
whose scheduler is kept from dispatching (``_slots`` -> 0) keeps a run
``queued`` for as long as a test needs, and the run settles when the test
lets the scheduler go — gates, not sleeps.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import telemetry
from repro.api import ScenarioServer, ServeClient
from repro.api.client import ServeTimeout
from repro.api.server import ServerError

from test_api import smoke_spec
from test_fleet import fleet_with_router


@pytest.fixture()
def server(tmp_path):
    daemon = ScenarioServer(tmp_path / "state", port=0, workers=0)
    daemon.start()
    yield daemon
    daemon.stop(drain=True)


def park(server) -> str:
    """Submit one run the scheduler will not dispatch; its run id."""
    server._slots = lambda: 0
    return server.submit(smoke_spec("maxwell-vacuum").to_dict())["run_id"]


def release(server) -> None:
    """Let the scheduler dispatch the parked run (it settles inline)."""
    del server._slots
    with server._wake:
        server._wake.notify_all()


def timed(call, *args, **kwargs):
    started = time.monotonic()
    answer = call(*args, **kwargs)
    return answer, time.monotonic() - started


def held_status(server, monkeypatch, run_id, wait):
    """A thread holding ``status(run_id, wait=...)``, returned once it is
    blocked on the daemon's wake condition; it appends (record, seconds)."""
    entered, answers = threading.Event(), []
    holder = threading.Thread(target=lambda: answers.append(
        timed(server.status, run_id, wait=wait)))
    wait_on_wake = server._wake.wait

    def gated_wait(timeout=None):
        if threading.current_thread() is holder:
            entered.set()
        return wait_on_wake(timeout)

    monkeypatch.setattr(server._wake, "wait", gated_wait)
    holder.start()
    assert entered.wait(5.0)
    return holder, answers


class TestDaemonHold:
    def test_held_status_of_a_queued_run_answers_when_the_hold_expires(
            self, server):
        run_id = park(server)
        record, elapsed = timed(server.status, run_id, wait=0.2)
        assert record["status"] == "queued"
        assert 0.2 <= elapsed < 5.0

    def test_held_status_answers_when_the_run_settles(
            self, server, monkeypatch):
        run_id = park(server)
        holder, answers = held_status(server, monkeypatch, run_id, 10.0)
        release(server)
        holder.join(30.0)
        (record, elapsed), = answers
        assert record["status"] == "done"
        assert elapsed < 5.0

    def test_stop_releases_a_held_status(self, server, monkeypatch):
        run_id = park(server)
        holder, answers = held_status(server, monkeypatch, run_id, 10.0)
        server.stop(drain=False)
        holder.join(5.0)
        (record, elapsed), = answers
        assert record["status"] == "queued"
        assert elapsed < 5.0

    def test_unknown_id_with_wait_404s_at_once(self, server):
        started = time.monotonic()
        with pytest.raises(ServerError) as excinfo:
            server.status("nope", wait=10.0)
        assert excinfo.value.status == 404
        assert time.monotonic() - started < 5.0

    def test_a_held_status_is_one_observation(self, server, live_telemetry):
        client = ServeClient(port=server.port, timeout=30.0)
        run_id = client.submit(smoke_spec("maxwell-vacuum"))["run_id"]
        assert client.wait(run_id, timeout=60).ok
        hold = telemetry.snapshot()["histograms"][
            "repro_serve_status_hold_seconds"]
        assert hold["count"] == 1

    def test_plain_status_is_not_observed(self, server, live_telemetry):
        server.status(park(server))
        assert "repro_serve_status_hold_seconds" not in \
            telemetry.snapshot()["histograms"]


class TestEventStreamWake:
    def test_terminal_event_lands_when_the_run_settles(self, server):
        run_id = park(server)
        # A poll far beyond the test's bound: only the wake can end it.
        events = server.iter_events(run_id, poll=60.0)
        assert next(events)["status"] == "queued"
        release(server)
        started = time.monotonic()
        rest = list(events)
        assert rest[-1]["event"] == "done"
        assert rest[-1]["outcome"]["ok"]
        assert time.monotonic() - started < 30.0


class TestClientHold:
    def test_held_answers_cost_no_client_sleep(self, monkeypatch):
        client = ServeClient(port=1, timeout=1.0, retries=0)
        clock, paths, sleeps = {"now": 0.0}, [], []

        def held(method, path, body=None):
            paths.append(path)
            clock["now"] += float(path.rsplit("?wait=", 1)[1]) + 0.001
            return {"status": "running"}

        monkeypatch.setattr(client, "_request_once", held)
        monkeypatch.setattr("repro.api.client.time.monotonic",
                            lambda: clock["now"])
        monkeypatch.setattr("repro.api.client.time.sleep", sleeps.append)
        with pytest.raises(ServeTimeout) as excinfo:
            client.wait("slow", timeout=2.0)
        assert excinfo.value.run_status == "running"
        assert sleeps == []
        # Half the socket timeout per hold, the last one cut to the budget.
        assert paths[:3] == ["/runs/slow?wait=0.5"] * 3
        assert len(paths) == 4


class TestRouterHold:
    def test_wait_through_the_router_returns_the_outcome(
            self, tmp_path, live_telemetry):
        with fleet_with_router(tmp_path / "shared") as (_servers, router, rc):
            run_id = rc.submit(smoke_spec("maxwell-vacuum"))["run_id"]
            assert rc.wait(run_id, timeout=60).ok
            assert router.status(run_id, wait=5.0)["status"] == "done"
        # The owning member held the forwarded requests (the router itself
        # observes no holds).
        assert telemetry.snapshot()["histograms"][
            "repro_serve_status_hold_seconds"]["count"] >= 2
