"""repro.api.http: the one ``/v1`` layer, at socket level.

The layer serves any *application* — an object with one method per row of
:data:`repro.api.http.ROUTES` — so its contract is tested against a fake
one: no daemon, no store, no worker pool.  One small class at the bottom
then checks that the two real applications (``ScenarioServer``,
``FleetRouter``) really do answer through it.
"""

from __future__ import annotations

import http.client
import http.server
import json
import re
import socket
import struct
import threading
from functools import partial
from pathlib import Path

import pytest

from repro.api import ScenarioServer, default_registry
from repro.api.http import API_PREFIX, ROUTES, HttpService, ServerError
from repro.fleet import FleetRouter


class FakeApp:
    """Records every call; ``raises[name]`` makes that method fail."""

    def __init__(self):
        self.calls, self.raises = [], {}
        self.service = HttpService(self, "fake/1")
        self.port = self.service.start("127.0.0.1", 0)

    def _call(self, name, *args, **kwargs):
        self.calls.append((name, args, kwargs))
        if name in self.raises:
            raise self.raises[name]
        return {"called": name}

    def __getattr__(self, name):
        if name not in {row[2] for row in ROUTES}:
            raise AttributeError(name)
        return partial(self._call, name)

    def list_runs(self):
        return [self._call("list_runs")]

    def iter_events(self, run_id, from_step=0):
        yield self._call("iter_events", run_id, from_step=from_step)
        yield self._call("mid_stream")

    def shutdown(self, drain):
        return self._call("shutdown", drain), self.stop

    def stop(self):
        self.service.close()


@pytest.fixture(scope="module")
def served_app():
    fake = FakeApp()
    yield fake
    fake.stop()


@pytest.fixture
def app(served_app):
    """The module's one served fake, with a clean slate."""
    served_app.calls.clear()
    served_app.raises.clear()
    return served_app


def ask(port, method, path, body=None, headers=None):
    """One request; returns ``(status, headers, raw body bytes)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
    try:
        if isinstance(body, dict):
            body = json.dumps(body)
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        connection.close()


def ask_json(port, method, path, body=None, headers=None):
    status, reply_headers, raw = ask(port, method, path, body, headers)
    assert reply_headers["Content-Type"] == "application/json"
    return status, json.loads(raw)


# ----------------------------------------------------------------------
# Routing: every row of the table reaches its method
# ----------------------------------------------------------------------
class TestRoutes:
    @pytest.mark.parametrize(
        "method, pattern, name",
        [row for row in ROUTES
         if row[2] not in ("submit", "shutdown", "iter_events")],
    )
    def test_plain_routes_call_their_method_with_the_run_id(
            self, app, method, pattern, name):
        path = API_PREFIX + pattern.replace("<id>", "r-1")
        status, headers, raw = ask(app.port, method, path)
        assert status == 200
        assert headers["Server"].startswith("fake/1")
        if name == "metrics":  # answered by the layer, Prometheus text
            assert headers["Content-Type"].startswith("text/plain")
            assert app.calls == []
        elif name == "scenarios":  # answered by the layer
            assert "maxwell-vacuum" in json.loads(raw)["scenarios"]
            assert app.calls == []
        else:
            args = ("r-1",) if "<id>" in pattern else ()
            assert app.calls == [(name, args, {})]
            expected = {"runs": [{"called": name}]} if name == "list_runs" \
                else {"called": name}
            assert json.loads(raw) == expected

    def test_submit_passes_the_resolved_spec_and_the_body_fields(self, app):
        body = {"spec": {"name": "x"}, "run_id": "r-1", "checkpoint_every": 3,
                "faults": "a.b=raise", "trace": {"trace_id": "t"}}
        status, ack = ask_json(app.port, "POST", "/v1/runs", body)
        assert (status, ack) == (202, {"called": "submit"})
        assert app.calls == [("submit", ({"name": "x"},), {
            "run_id": "r-1", "checkpoint_every": 3,
            "fault_plan": "a.b=raise", "trace": {"trace_id": "t"},
        })]

    def test_submit_resolves_scenario_and_overrides_before_the_app(self, app):
        body = {"scenario": "maxwell-vacuum",
                "overrides": {"runtime.num_steps": 7}}
        assert ask_json(app.port, "POST", "/v1/runs", body)[0] == 202
        (spec,), kwargs = app.calls[0][1:]
        assert spec["name"] == "maxwell-vacuum"
        assert spec["runtime"]["num_steps"] == 7
        assert kwargs["run_id"] is None
        status, reply = ask_json(app.port, "POST", "/v1/runs",
                                 {"scenario": "no-such-scenario"})
        assert status == 404 and "no-such-scenario" in reply["error"]

    def test_events_stream_ndjson_from_the_requested_step(self, app):
        status, headers, raw = ask(app.port, "GET",
                                   "/v1/runs/r-1/events?from=7")
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert [json.loads(line) for line in raw.splitlines()] == [
            {"called": "iter_events"}, {"called": "mid_stream"}]
        # status() first: an unknown id must 404 before the stream commits.
        assert app.calls[0] == ("status", ("r-1",), {})
        assert app.calls[1] == ("iter_events", ("r-1",), {"from_step": 7})

    def test_events_of_an_unknown_run_are_a_plain_404(self, app):
        app.raises["status"] = ServerError(404, "unknown run id 'nope'")
        status, reply = ask_json(app.port, "GET", "/v1/runs/nope/events")
        assert status == 404 and "nope" in reply["error"]


# ----------------------------------------------------------------------
# Errors: always JSON, always the right status
# ----------------------------------------------------------------------
class TestErrors:
    @pytest.mark.parametrize("path", ["/", "/v2/health", "/v1", "/v1/nope",
                                      "/v1/runs/r-1/nope", "/v1/health/x"])
    def test_unknown_path_is_404_whatever_the_verb(self, app, path):
        for method in ("GET", "POST", "DELETE"):
            status, reply = ask_json(app.port, method, path)
            assert status == 404 and "unknown path" in reply["error"]
        assert app.calls == []

    @pytest.mark.parametrize("method, path", [
        ("DELETE", "/v1/runs/r-1"), ("PUT", "/v1/runs"), ("POST", "/v1/health"),
        ("GET", "/v1/shutdown"), ("PATCH", "/v1/runs/r-1/result"),
        ("OPTIONS", "/v1/stats"),
    ])
    def test_known_path_with_the_wrong_verb_is_405(self, app, method, path):
        status, reply = ask_json(app.port, method, path)
        assert status == 405 and method in reply["error"]
        assert app.calls == []

    @pytest.mark.parametrize("body, needle", [
        ("{not json", "not JSON"),
        (b"\xff\xfe", "not JSON"),
        ("[1, 2]", "JSON object"),
        ('{"spec": 3}', "'spec'"),
        ("{}", "'spec' or 'scenario'"),
    ])
    def test_malformed_submission_bodies_are_400(self, app, body, needle):
        status, reply = ask_json(app.port, "POST", "/v1/runs", body)
        assert status == 400 and needle in reply["error"]
        assert app.calls == []

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400_without_reading(self, app, length):
        # "-1" used to park the handler thread in rfile.read(-1) for as long
        # as the peer stayed connected; "abc" used to be a 500.
        status, reply = ask_json(app.port, "POST", "/v1/runs",
                                 headers={"Content-Length": length})
        assert status == 400 and "Content-Length" in reply["error"]

    def test_bad_from_is_400(self, app):
        status, reply = ask_json(app.port, "GET",
                                 "/v1/runs/r-1/events?from=abc")
        assert status == 400 and "'from'" in reply["error"]

    def test_retry_after_is_rounded_up_to_whole_seconds(self, app):
        app.raises["submit"] = ServerError(429, "queue is full",
                                           retry_after=0.2)
        status, headers, raw = ask(app.port, "POST", "/v1/runs",
                                   {"spec": {}})
        assert status == 429 and headers["Retry-After"] == "1"
        assert json.loads(raw) == {"error": "queue is full"}

    def test_unmapped_exception_is_a_500_json_reply(self, app):
        app.raises["health"] = KeyError("boom")
        status, reply = ask_json(app.port, "GET", "/v1/health")
        assert status == 500
        assert reply["error"].startswith("internal error: KeyError")

    def test_mid_stream_fault_stays_ndjson(self, app):
        app.raises["mid_stream"] = RuntimeError("store went away")
        status, _headers, raw = ask(app.port, "GET", "/v1/runs/r-1/events")
        assert status == 200
        assert b"HTTP/1." not in raw  # no second status line spliced in
        events = [json.loads(line) for line in raw.splitlines()]
        assert events[0] == {"called": "iter_events"}
        assert events[-1] == {"event": "error", "run_id": "r-1",
                              "error": "RuntimeError: store went away"}

    def test_hangup_before_an_error_reply_is_swallowed(self, app, monkeypatch):
        # The client resets the connection while the app is still thinking;
        # the app then refuses, and writing that refusal hits a dead socket.
        # socketserver's handle_error (a traceback on stderr) must not run.
        errors, entered, release, finished = (
            [], threading.Event(), threading.Event(), threading.Event())
        server_class = http.server.ThreadingHTTPServer
        shutdown_request = server_class.shutdown_request

        def refuse_late(run_id):
            entered.set()
            assert release.wait(5.0)
            raise ServerError(404, f"unknown run id {run_id!r}")

        def after_request(server, request):
            shutdown_request(server, request)
            finished.set()

        monkeypatch.setattr(server_class, "handle_error",
                            lambda *args: errors.append(args))
        monkeypatch.setattr(server_class, "shutdown_request", after_request)
        monkeypatch.setattr(app, "status", refuse_late, raising=False)
        peer = socket.create_connection(("127.0.0.1", app.port), timeout=5.0)
        peer.sendall(b"GET /v1/runs/r-1 HTTP/1.0\r\n\r\n")
        assert entered.wait(5.0)
        # SO_LINGER 0: close() sends RST, so the reply write fails at once.
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        peer.close()
        release.set()
        assert finished.wait(5.0)
        assert errors == []


class TestShutdown:
    def test_answers_before_it_stops(self):
        fake = FakeApp()
        answered = threading.Event()
        order = []

        def stop():
            order.append("stop after answer" if answered.wait(5.0)
                         else "stop before answer")
            fake.service.close()

        fake.stop = stop
        try:
            status, ack = ask_json(fake.port, "POST", "/v1/shutdown",
                                   {"drain": False})
            assert (status, ack) == (200, {"called": "shutdown"})
            assert fake.calls == [("shutdown", (False,), {})]
            assert not fake.service.stopped.is_set()
            answered.set()
            assert fake.service.stopped.wait(5.0)
            assert order == ["stop after answer"]
            with pytest.raises(OSError):
                ask(fake.port, "GET", "/v1/health")
        finally:
            answered.set()
            fake.service.close()

    def test_drain_defaults_to_true_and_start_twice_is_refused(self):
        fake = FakeApp()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                fake.service.start("127.0.0.1", 0)
            assert ask_json(fake.port, "POST", "/v1/shutdown")[0] == 200
            assert fake.calls == [("shutdown", (True,), {})]
            assert fake.service.stopped.wait(5.0)
        finally:
            fake.service.close()

    def test_daemon_refuses_submissions_from_the_ack_on(self, tmp_path):
        # Not from whenever the stop thread first runs: a client that holds
        # its shutdown ack must get a 503, never a 202 (no socket needed).
        daemon = ScenarioServer(tmp_path / "s", port=0, workers=0)
        ack, stop = daemon.shutdown(drain=True)
        assert ack == {"ok": True, "draining": True}
        with pytest.raises(ServerError) as refused:
            daemon.submit(default_registry().get("maxwell-vacuum").to_dict())
        assert refused.value.status == 503
        # The stop handed back with the ack takes the daemon down, and it
        # keeps refusing after that.
        stop()
        assert daemon._stopped.is_set()
        with pytest.raises(ServerError) as refused:
            daemon.submit(default_registry().get("maxwell-vacuum").to_dict())
        assert refused.value.status == 503


# ----------------------------------------------------------------------
# The two real applications, and the documented protocol
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def front_ends(tmp_path_factory):
    root = tmp_path_factory.mktemp("http-front-ends")
    with ScenarioServer(root, port=0, workers=0) as daemon, \
            FleetRouter(root, port=0) as router:
        yield {"daemon": (daemon.port, "repro-serve/1"),
               "router": (router.port, "repro-fleet-router/1")}


@pytest.mark.parametrize("front_end", ["daemon", "router"])
class TestBothFrontEnds:
    def test_same_errors_under_their_own_server_header(
            self, front_ends, front_end):
        port, server_version = front_ends[front_end]
        for method, path, body, headers, expected in [
            ("DELETE", "/v1/runs/x", None, {}, 405),
            ("POST", "/v1/runs", "[1]", {}, 400),
            ("POST", "/v1/runs", None, {"Content-Length": "abc"}, 400),
            ("POST", "/v1/runs", None, {"Content-Length": "-1"}, 400),
            ("GET", "/v1/runs/x", None, {}, 404),
            ("GET", "/v1/nope", None, {}, 404),
        ]:
            status, reply_headers, raw = ask(port, method, path, body, headers)
            assert status == expected, (method, path)
            assert reply_headers["Server"].startswith(server_version)
            assert reply_headers["Content-Type"] == "application/json"
            assert set(json.loads(raw)) == {"error"}

    def test_every_route_is_answered(self, front_ends, front_end):
        port, _ = front_ends[front_end]
        for method, pattern, name in ROUTES:
            if name in ("submit", "shutdown"):
                continue
            status, _headers, _raw = ask(
                port, method, API_PREFIX + pattern.replace("<id>", "x"))
            assert status == (404 if "<id>" in pattern else 200), pattern


def test_readme_route_table_is_the_route_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    documented = re.findall(r"^\| `(/v1[^`]*)` \| (GET|POST) \|", readme,
                            flags=re.MULTILINE)
    assert sorted(documented) == sorted(
        (API_PREFIX + pattern, method) for method, pattern, _ in ROUTES)


# ----------------------------------------------------------------------
# The status hold: GET /v1/runs/<id>?wait=S
# ----------------------------------------------------------------------
class TestStatusHold:
    def test_wait_reaches_status_as_a_keyword(self, app):
        status, reply = ask_json(app.port, "GET", "/v1/runs/r-1?wait=0.5")
        assert (status, reply) == (200, {"called": "status"})
        assert app.calls == [("status", ("r-1",), {"wait": 0.5})]

    def test_no_query_leaves_the_plain_call(self, app):
        status, reply = ask_json(app.port, "GET", "/v1/runs/r-1")
        assert (status, reply) == (200, {"called": "status"})
        assert app.calls == [("status", ("r-1",), {})]

    @pytest.mark.parametrize("value", ["abc", "-1", "nan", "inf"])
    def test_bad_wait_is_400(self, app, value):
        status, reply = ask_json(app.port, "GET", f"/v1/runs/r-1?wait={value}")
        assert status == 400 and "'wait'" in reply["error"]
        assert app.calls == []
