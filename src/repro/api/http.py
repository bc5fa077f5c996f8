"""The one ``/v1`` HTTP layer: route table, request handler, socket lifecycle.

Two front ends speak this protocol — the ``repro serve`` daemon
(:class:`~repro.api.server.ScenarioServer`) and the ``repro fleet route``
gateway (:class:`~repro.fleet.router.FleetRouter`).  Neither owns any HTTP
code: each is an *application*, an object with one method per row of
:data:`ROUTES`, served by an :class:`HttpService` — so a client can tell them
apart only by the ``Server:`` header and the payloads the application chose.

Wire protocol (newline-delimited JSON over HTTP/1.0; this docstring and
:data:`ROUTES` are the reference, README "Wire protocol" is checked against
the table by ``tests/test_http.py``)::

    POST /v1/runs                 {"scenario": name, "overrides": {...}} or
                                  {"spec": {...}} [+ "run_id", "faults",
                                  "checkpoint_every", "trace"]; answers 202
    GET  /v1/runs                 all run records
    GET  /v1/runs/<id>            one run record (status, attempts, pid, ...)
                                  ("?wait=S" holds the answer until the run
                                  is done/failed, S (clamped to 10 s)
                                  expires or the daemon stops; a daemon
                                  that predates it answers at once)
    GET  /v1/runs/<id>/result     final outcome JSON (409 while pending)
    GET  /v1/runs/<id>/events     NDJSON stream: status + checkpoint events,
                                  terminated by a "done"/"failed" event
                                  ("?from=N" skips checkpoints up to step N)
    GET  /v1/runs/<id>/trace      the run's span records (JSON)
    GET  /v1/health               liveness + identity of the front end
    GET  /v1/stats                deep observability snapshot
    GET  /v1/metrics              Prometheus text exposition (0.0.4)
    GET  /v1/fleet                fleet membership (live + stale members)
    GET  /v1/scenarios            registered scenario names
    POST /v1/shutdown             {"drain": bool} — answer, then stop

Errors are always ``{"error": message}`` JSON: an application refuses a
request by raising :class:`ServerError` (its status, and ``Retry-After``
when it names one); an unknown path is 404, a known path with the wrong
verb 405, a malformed body or query 400, anything unmapped 500.
"""

from __future__ import annotations

import json
import math
import signal
import threading
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional
from urllib.parse import parse_qs, urlparse

from repro import telemetry
from repro.api.registry import default_registry
from repro.store import validate_key

#: Wire-protocol version prefix of every route.
API_PREFIX = "/v1"

#: The ``/v1`` surface: HTTP method, path under :data:`API_PREFIX` (``<id>``
#: matches one run id) and the application method that answers it — called
#: with the run id when the path has one, its return value sent as JSON.
#: Rows whose reply needs more than that (a body, a stream, a wrapper key)
#: have a ``_reply_<name>`` method on the handler; ``metrics`` and
#: ``scenarios`` are process-global, so the layer answers them itself.
ROUTES = (
    ("POST", "/runs", "submit"),
    ("GET", "/runs", "list_runs"),
    ("GET", "/runs/<id>", "status"),
    ("GET", "/runs/<id>/result", "result"),
    ("GET", "/runs/<id>/events", "iter_events"),
    ("GET", "/runs/<id>/trace", "trace_payload"),
    ("GET", "/health", "health"),
    ("GET", "/stats", "stats"),
    ("GET", "/metrics", "metrics"),
    ("GET", "/fleet", "fleet_overview"),
    ("GET", "/scenarios", "scenarios"),
    ("POST", "/shutdown", "shutdown"),
)

#: Terminal run states: the record has a result, the event ends a stream.
FINISHED = ("done", "failed")

#: The peer hung up; there is nobody left to answer.
_HANGUPS = (BrokenPipeError, ConnectionResetError)


class ServerError(RuntimeError):
    """A request the application refused; carries the HTTP status to answer.

    ``retry_after`` (seconds) is emitted as a ``Retry-After`` header when
    set — honest backpressure for 429/503 so clients back off for about as
    long as the queue actually needs instead of guessing.
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = int(status)
        self.retry_after = retry_after


def recovered_record(run_id: str, outcome: Dict[str, Any]) -> Dict[str, Any]:
    """The run record of a run known only by its persisted outcome (finished
    by a previous daemon incarnation, or by a fleet member that is gone)."""
    summary = outcome.get("ok") or outcome.get("failure") or {}
    return {
        "run_id": run_id,
        "scenario": str(summary.get("scenario", "?")),
        "engine": str(summary.get("engine", "?")),
        "status": "done" if "ok" in outcome else "failed",
        "attempts": None,
        "recovered": True,
        "error": summary.get("error") if "failure" in outcome else None,
    }


def run_trace(store_root, run_id: str, scenario: str) -> Dict[str, Any]:
    """The ``/v1/runs/<id>/trace`` answer: the run's span log under the
    checkpoint store at ``store_root`` (none for an unnamed scenario, ``""``
    or ``"?"``); 400 when ``run_id`` or ``scenario`` is not a store key."""
    known = bool(scenario) and scenario != "?"
    try:
        validate_key(run_id, "run_id")
        if known:
            validate_key(scenario, "scenario")
    except ValueError as exc:
        raise ServerError(400, str(exc)) from exc
    spans = telemetry.read_spans(
        telemetry.span_log_path(store_root, scenario, run_id)) if known else []
    return {"run_id": run_id, "scenario": scenario, "spans": spans}


def result_pending(run_id: str, status: str) -> ServerError:
    """The 409 of a result asked for before the run finished."""
    return ServerError(409, f"run {run_id!r} is {status}; no result yet")


def resolve_submission_spec(body: Dict[str, Any]) -> Dict[str, Any]:
    """A POST /v1/runs body's spec dict (inline ``spec`` or registry
    ``scenario`` + ``overrides``); raises :class:`ServerError` on bad input.

    Resolved here, before the application sees the submission, so the router
    forwards a full spec and every fleet member sees an identical one.
    """
    if "spec" in body:
        spec = body["spec"]
        if not isinstance(spec, dict):
            raise ServerError(400, "'spec' must be a JSON object")
        return spec
    if "scenario" in body:
        try:
            spec = default_registry().get(str(body["scenario"]))
        except KeyError as exc:
            raise ServerError(404, str(exc.args[0])) from exc
        overrides = body.get("overrides") or {}
        if not isinstance(overrides, dict):
            raise ServerError(400, "'overrides' must be a JSON object")
        if overrides:
            try:
                spec = spec.with_overrides(overrides)
            except (KeyError, ValueError) as exc:
                raise ServerError(400, str(exc)) from exc
        return spec.to_dict()
    raise ServerError(400, "submission needs 'spec' or 'scenario'")


class _Handler(BaseHTTPRequestHandler):
    """One request against ``app``, answered as ``server_version``."""

    # HTTP/1.0 + Connection: close keeps the NDJSON event stream free of
    # chunked-transfer framing: curl and http.client just read lines.
    protocol_version = "HTTP/1.0"

    def __init__(self, app: Any, server_version: str, *args) -> None:
        self.app, self.server_version = app, server_version
        super().__init__(*args)  # the stdlib handles the request in here

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the front ends are quiet; traffic logging belongs to callers

    # -- framing --------------------------------------------------------
    def _send(self, body: bytes, content_type: str, status: int = 200,
              retry_after: Optional[float] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            # Whole seconds, rounded up: HTTP Retry-After is integral, and
            # rounding down would tell clients to retry too early.
            self.send_header("Retry-After", str(int(retry_after + 0.999)))
        # Hang-ups are swallowed here, where every reply is written, so none
        # — error replies included — escapes as a traceback on stderr.
        try:
            self.end_headers()
            self.wfile.write(body)
        except _HANGUPS:
            pass

    def _send_json(self, payload: Dict[str, Any], status: int = 200,
                   retry_after: Optional[float] = None) -> None:
        self._send((json.dumps(payload) + "\n").encode("utf-8"),
                   "application/json", status, retry_after)

    def _read_body(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # Refused unread: rfile.read(-1) would block until the peer
            # hangs up, and the handler thread would never answer.
            raise ServerError(400, "Content-Length must be an integer >= 0")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServerError(400, f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise ServerError(400, "request body must be a JSON object")
        return payload

    # -- routing --------------------------------------------------------
    def _route(self) -> None:
        # Path first, method second: a known path with the wrong verb is a
        # 405, an unknown path a 404 whatever the verb.
        path = urlparse(self.path).path
        parts = [part for part in path.split("/") if part]
        allowed = {}  # method -> (application method, run-id arguments)
        for method, pattern, name in ROUTES:
            wanted = (API_PREFIX + pattern).strip("/").split("/")
            pairs = list(zip(wanted, parts))
            if len(wanted) == len(parts) and all(
                    want in ("<id>", part) for want, part in pairs):
                allowed[method] = (
                    name, [part for want, part in pairs if want == "<id>"])
        if not allowed:
            raise ServerError(404, f"unknown path {path!r}")
        if self.command not in allowed:
            raise ServerError(405, f"method {self.command} not allowed")
        name, run_ids = allowed[self.command]
        reply = getattr(self, f"_reply_{name}", None)
        if reply is not None:
            return reply(*run_ids)
        return self._send_json(getattr(self.app, name)(*run_ids))

    def _dispatch(self) -> None:
        try:
            self._route()
        except ServerError as exc:
            self._send_json({"error": str(exc)}, exc.status, exc.retry_after)
        except _HANGUPS:
            pass  # the client hung up mid-request
        except Exception as exc:  # noqa: BLE001 - the front end must answer
            # An unmapped bug must come back as a 500 JSON error, not a
            # dropped connection (which clients misread as daemon-down).
            self._send_json(
                {"error": f"internal error: {type(exc).__name__}: {exc}"}, 500
            )

    # Every verb takes the same road, so a known path with the wrong one is
    # a 405 from the table rather than the stdlib's 501 text/html page.
    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _dispatch  # noqa: N815
    do_HEAD = do_OPTIONS = _dispatch  # noqa: N815

    # -- routes that are more than "call it, send the JSON" --------------
    def _reply_metrics(self) -> None:
        self._send(telemetry.render_prometheus().encode("utf-8"),
                   "text/plain; version=0.0.4; charset=utf-8")

    def _reply_scenarios(self) -> None:
        self._send_json({"scenarios": default_registry().names()})

    def _reply_list_runs(self) -> None:
        self._send_json({"runs": self.app.list_runs()})

    def _reply_submit(self) -> None:
        body = self._read_body()
        ack = self.app.submit(
            resolve_submission_spec(body),
            run_id=body.get("run_id"),
            checkpoint_every=body.get("checkpoint_every"),
            fault_plan=body.get("faults"),
            trace=body.get("trace"),
        )
        self._send_json(ack, status=202)

    def _reply_shutdown(self) -> None:
        drain = bool(self._read_body().get("drain", True))
        ack, stop = self.app.shutdown(drain)
        self._send_json(ack)
        # Stop from a helper thread, once answered: this thread must finish
        # its response, and closing the socket waits for the serve loop.
        threading.Thread(target=stop, daemon=True).start()

    def _reply_status(self, run_id: str) -> None:
        query = parse_qs(urlparse(self.path).query)
        if "wait" not in query:  # plain call: applications may lack ``wait``
            return self._send_json(self.app.status(run_id))
        try:
            wait = float(query["wait"][0])
        except ValueError as exc:
            raise ServerError(400, f"'wait' must be a number: {exc}") from exc
        if not (math.isfinite(wait) and wait >= 0.0):
            raise ServerError(400, "'wait' must be a finite number >= 0")
        self._send_json(self.app.status(run_id, wait=wait))

    def _reply_iter_events(self, run_id: str) -> None:
        query = parse_qs(urlparse(self.path).query)
        try:
            from_step = int(query.get("from", ["0"])[0])
        except ValueError as exc:
            raise ServerError(400, f"'from' must be an integer: {exc}") from exc
        self.app.status(run_id)  # 404 before committing to a stream
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        try:
            for event in self.app.iter_events(run_id, from_step=from_step):
                self._write_event(event)
        except _HANGUPS:
            pass  # the client hung up mid-stream
        except Exception as exc:  # noqa: BLE001 - headers already sent
            # Mid-stream faults must stay NDJSON: an HTTP error response
            # at this point would splice a raw status line into the body.
            try:
                self._write_event({
                    "event": "error", "run_id": run_id,
                    "error": f"{type(exc).__name__}: {exc}",
                })
            except _HANGUPS:
                pass

    def _write_event(self, event: Dict[str, Any]) -> None:
        self.wfile.write((json.dumps(event) + "\n").encode("utf-8"))
        self.wfile.flush()


class HttpService:
    """The socket lifecycle of one ``/v1`` front end.

    ``app`` is the application: one method per :data:`ROUTES` row, plus
    ``start()`` (which calls :meth:`start`) and a ``stop()`` whose last step
    is :meth:`close`.  ``server_version`` is its ``Server:`` header.
    """

    def __init__(self, app: Any, server_version: str) -> None:
        self.app = app
        self.server_version = server_version
        #: Set by :meth:`close`; what :meth:`serve_forever` blocks on.
        self.stopped = threading.Event()
        self._httpd: Optional[ThreadingHTTPServer] = None

    def start(self, host: str, port: int) -> int:
        """Bind, serve from a background thread; returns the port bound."""
        if self._httpd is not None:
            raise RuntimeError(f"{self.server_version} is already started")
        httpd = ThreadingHTTPServer(
            (host, port), partial(_Handler, self.app, self.server_version))
        httpd.daemon_threads = True
        self._httpd = httpd
        threading.Thread(
            target=httpd.serve_forever, name=f"{self.server_version}-http",
            kwargs={"poll_interval": 0.1}, daemon=True,
        ).start()
        return int(httpd.server_address[1])

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        self.stopped.set()

    def serve_forever(self) -> None:
        """Start the application unless it is serving already, then block
        until :meth:`close`; SIGTERM/SIGINT run ``app.stop()`` (graceful)."""
        if self._httpd is None:
            self.app.start()

        def _signal_stop(signum, frame):  # noqa: ARG001 - signal signature
            threading.Thread(target=self.app.stop, daemon=True).start()

        try:
            signal.signal(signal.SIGTERM, _signal_stop)
            signal.signal(signal.SIGINT, _signal_stop)
        except ValueError:
            pass  # not the main thread (tests drive start/stop directly)
        self.stopped.wait()
