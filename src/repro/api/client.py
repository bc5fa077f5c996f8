"""Python client for the ``repro serve`` daemon.

:class:`ServeClient` speaks the daemon's newline-delimited-JSON-over-HTTP
protocol (see :mod:`repro.api.server`) with nothing but the stdlib
``http.client``:

* :meth:`submit` posts a :class:`~repro.api.spec.ScenarioSpec` (or a
  registered scenario name plus overrides) and returns the assigned run id;
* :meth:`status` / :meth:`runs` poll run records;
* :meth:`events` streams the daemon's NDJSON checkpoint/status events line by
  line as dicts;
* :meth:`result` / :meth:`wait` fetch the final outcome, decoded back into
  the same :class:`~repro.api.result.RunResult` /
  :class:`~repro.api.result.RunFailure` objects the in-process
  :class:`~repro.api.registry.BatchRunner` returns — by construction the
  daemon's results are bit-identical to inline execution, so callers can
  treat the wire as transparent.

Errors the daemon refuses (bad spec, unknown run id, full queue) surface as
:class:`ServeError` with the HTTP status attached; a daemon that cannot be
reached at all raises :class:`ServeUnavailable`; a :meth:`wait` deadline
expiring raises :class:`ServeTimeout` — three distinct types, so callers can
tell "the daemon said no", "the daemon is dead" and "the run is slow" apart.

Transient refusals degrade instead of failing: 429 (queue full) and 503
(draining) are retried with capped exponential backoff plus jitter, honoring
the daemon's ``Retry-After`` hint when it sends one, so a burst of clients
against a saturated daemon spreads out instead of spinning in lockstep.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.api.http import API_PREFIX
from repro.api.result import RunFailure, RunResult
from repro.api.server import DEFAULT_PORT, KEEPALIVE_S
from repro.api.spec import ScenarioSpec

#: One finished run, as returned by :meth:`ServeClient.result`.
ServeOutcome = Union[RunResult, RunFailure]

#: HTTP statuses that mean "try again later", not "this request is wrong".
_TRANSIENT_STATUSES = (429, 503)


class ServeError(RuntimeError):
    """The daemon answered with an error status."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = int(status)
        #: The daemon's Retry-After hint in seconds, when it sent one.
        self.retry_after = retry_after


class ServeUnavailable(ConnectionError):
    """No daemon is reachable at the configured address."""


class ServeTimeout(TimeoutError):
    """A :meth:`ServeClient.wait` deadline expired while the run was alive.

    Subclasses :class:`TimeoutError` so existing ``except TimeoutError``
    callers (the CLI's exit-3 path) keep working; distinct from
    :class:`ServeUnavailable` — the daemon is up and answering, the run is
    just not done yet.
    """

    def __init__(self, run_id: str, status: str, timeout: float) -> None:
        super().__init__(
            f"run {run_id!r} still {status} after {timeout} s"
        )
        self.run_id = run_id
        self.run_status = status
        self.timeout = timeout


class ServeClient:
    """Talk to one :class:`~repro.api.server.ScenarioServer` daemon.

    Parameters
    ----------
    host / port:
        The daemon's address.
    timeout:
        Per-request socket timeout in seconds.
    retries:
        How many times a request is retried after a transient refusal
        (429/503) before the :class:`ServeError` propagates.  Connection
        failures are only retried for GETs — a POST that died mid-flight may
        already have been processed, and resubmitting a run is not
        idempotent from the caller's point of view.  0 disables retries.
    backoff / backoff_cap:
        First retry delay and the cap of the exponential schedule, seconds.
        Each delay gets full jitter (uniform over [delay/2, delay]); a
        ``Retry-After`` hint from the daemon replaces the computed delay
        (still capped).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float = 30.0, retries: int = 3,
                 backoff: float = 0.25, backoff_cap: float = 8.0) -> None:
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.backoff_cap = float(backoff_cap)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self, timeout: Optional[float] = None) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout,
        )

    def _request_once(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None,
                      timeout: Optional[float] = None) -> Dict[str, Any]:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body)
            headers["Content-Type"] = "application/json"
        connection = self._connect(timeout=timeout)
        try:
            connection.request(method, API_PREFIX + path, body=payload,
                               headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise ServeUnavailable(
                f"no repro daemon reachable at {self.host}:{self.port} ({exc})"
            ) from exc
        finally:
            connection.close()
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(
                response.status, f"daemon sent unparsable JSON: {exc}"
            ) from exc
        if response.status >= 400:
            retry_after = None
            hint = response.getheader("Retry-After")
            if hint is not None:
                try:
                    retry_after = max(0.0, float(hint))
                except ValueError:
                    pass
            raise ServeError(
                response.status,
                str(decoded.get("error", f"HTTP {response.status}")),
                retry_after=retry_after,
            )
        return decoded

    def _delay(self, attempt: int, retry_after: Optional[float]) -> float:
        """The pre-retry sleep: daemon hint if given, else jittered backoff."""
        if retry_after is not None:
            return min(retry_after, self.backoff_cap)
        delay = min(self.backoff * (2.0 ** attempt), self.backoff_cap)
        return random.uniform(delay / 2.0, delay)

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 idempotent: bool = False,
                 deadline: Optional[float] = None,
                 timeout: Optional[float] = None) -> Dict[str, Any]:
        # Only thread a timeout through when the caller set one: wrapped
        # transports (tests, proxies) that predate the kwarg keep working
        # on the default path.
        kwargs: Dict[str, Any] = {"body": body}
        if timeout is not None:
            kwargs["timeout"] = timeout
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, **kwargs)
            except ServeError as exc:
                if (exc.status not in _TRANSIENT_STATUSES
                        or attempt >= self.retries):
                    raise
                self._sleep_before_retry(
                    self._delay(attempt, exc.retry_after), deadline)
            except ServeUnavailable:
                # Connection failures are retried for GETs and for requests
                # the caller marked idempotent (a submit with a caller-chosen
                # run_id: the daemon deduplicates a replay of the same id +
                # spec, so re-sending after a dropped ack is safe).
                if (method != "GET" and not idempotent) \
                        or attempt >= self.retries:
                    raise
                self._sleep_before_retry(self._delay(attempt, None), deadline)
            attempt += 1

    @staticmethod
    def _sleep_before_retry(delay: float, deadline: Optional[float]) -> None:
        """Sleep before a retry, never past the caller's monotonic deadline.

        An already-expired deadline re-raises the pending exception instead
        of sleeping at all — a server Retry-After hint (up to the daemon's
        60 s 429 cap) must not stall a short :meth:`wait` past its own
        timeout budget.
        """
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                raise
            delay = min(delay, remaining)
        time.sleep(delay)

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One raw wire request (no retries); ``path`` is relative to /v1.

        The escape hatch proxies (the fleet router) use to forward routes
        verbatim; regular callers want the typed methods below.
        """
        return self._request_once(method, path, body=body)

    # ------------------------------------------------------------------
    # Protocol surface
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def stats(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Deep observability snapshot (``/v1/stats``): queue depth, EWMA
        run time, warm-pool hit rate, store footprint, lease states,
        telemetry snapshot.  ``timeout`` overrides the client default for
        this one request — stats scan the state root on disk, which can
        outlast a short default on a big deployment."""
        return self._request("GET", "/stats", timeout=timeout)

    def metrics(self, timeout: Optional[float] = None) -> str:
        """Prometheus text exposition of the daemon's telemetry registry
        (``GET /v1/metrics``) — the protocol's one non-JSON route, hence
        the raw transport path."""
        connection = self._connect(timeout=timeout)
        try:
            connection.request("GET", f"{API_PREFIX}/metrics")
            response = connection.getresponse()
            raw = response.read()
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise ServeUnavailable(
                f"no repro daemon reachable at {self.host}:{self.port} ({exc})"
            ) from exc
        finally:
            connection.close()
        if response.status >= 400:
            try:
                message = json.loads(raw.decode("utf-8"))["error"]
            except Exception:  # noqa: BLE001 - any junk body
                message = f"HTTP {response.status}"
            raise ServeError(response.status, str(message))
        return raw.decode("utf-8")

    def trace(self, run_id: str,
              timeout: Optional[float] = None) -> Dict[str, Any]:
        """One run's span records (``GET /v1/runs/<id>/trace``)."""
        return self._request("GET", f"/runs/{run_id}/trace", timeout=timeout)

    def scenarios(self) -> List[str]:
        return list(self._request("GET", "/scenarios")["scenarios"])

    def submit(self, spec: Union[ScenarioSpec, Dict[str, Any], str],
               overrides: Optional[Dict[str, Any]] = None,
               run_id: Optional[str] = None,
               checkpoint_every: Optional[int] = None,
               faults: Optional[Union[str, Dict[str, str]]] = None,
               trace: Optional[Dict[str, Any]] = None,
               ) -> Dict[str, Any]:
        """Queue one run; returns the daemon's ack (run_id, position, ...).

        ``spec`` may be a full :class:`ScenarioSpec` (or its dict form) or a
        registered scenario *name*, optionally with dotted-path ``overrides``
        that the daemon applies server-side.  ``faults`` is an optional fault
        plan (``"point=action@N,..."`` — see :mod:`repro.faults`) armed in the
        worker for this one run; chaos testing only.  ``trace`` continues an
        existing trace context (``{"trace_id": ..., "parent": ...}``) instead
        of letting the daemon mint a fresh one.
        """
        body: Dict[str, Any] = {}
        if isinstance(spec, ScenarioSpec):
            body["spec"] = spec.to_dict()
        elif isinstance(spec, dict):
            body["spec"] = spec
        else:
            body["scenario"] = str(spec)
        if overrides:
            if "spec" in body:
                body["spec"] = ScenarioSpec.from_dict(
                    body["spec"]
                ).with_overrides(overrides).to_dict()
            else:
                body["overrides"] = dict(overrides)
        if run_id is not None:
            body["run_id"] = str(run_id)
        if checkpoint_every is not None:
            body["checkpoint_every"] = int(checkpoint_every)
        if faults:
            body["faults"] = faults
        if trace:
            body["trace"] = dict(trace)
        # A caller-supplied run id makes the submit idempotent end to end:
        # the daemon answers a replay of the same (id, spec) with a dedup
        # ack instead of 409, so connection failures may be retried.
        return self._request("POST", "/runs", body=body,
                             idempotent=run_id is not None)

    def runs(self) -> List[Dict[str, Any]]:
        return list(self._request("GET", "/runs")["runs"])

    def status(self, run_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/runs/{run_id}")

    def result(self, run_id: str) -> ServeOutcome:
        """The finished outcome, decoded; raises :class:`ServeError` (409)
        while the run is still queued or running."""
        payload = self._request("GET", f"/runs/{run_id}/result")
        return self.decode_outcome(payload)

    @staticmethod
    def decode_outcome(payload: Dict[str, Any]) -> ServeOutcome:
        if "ok" in payload:
            return RunResult.from_dict(payload["ok"])
        if "failure" in payload:
            return RunFailure.from_dict(payload["failure"])
        raise ServeError(500, f"malformed outcome payload: {sorted(payload)}")

    def wait(self, run_id: str, timeout: Optional[float] = None,
             poll: float = 0.1, poll_cap: float = 2.0) -> ServeOutcome:
        """Wait until the run finishes; returns the decoded outcome.

        ``timeout`` bounds the whole wait: when it expires while the run is
        still queued/running, a :class:`ServeTimeout` is raised carrying the
        run's last observed status — distinct from :class:`ServeUnavailable`
        (a dead daemon), so callers can tell "slow run" from "lost daemon".

        Every status check asks the daemon to hold its answer until the run
        settles (``GET /v1/runs/<id>?wait=S``, S at most half the socket
        timeout and never past the ``timeout`` budget), so the outcome is
        fetched as soon as the run is done, not at the next poll.  A hold
        that ran its course is followed by the next one at once.

        ``poll``/``poll_cap`` apply only when the daemon did not hold the
        request (one that predates ``?wait`` answers at once): then the
        poll interval starts at ``poll`` and doubles up to ``poll_cap``
        between status checks, so long runs cost the daemon a handful of
        polls instead of a fixed-rate hammering.  Sleeps never overshoot a
        remaining ``timeout`` budget.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = max(0.001, float(poll))
        poll_cap = max(delay, float(poll_cap))
        while True:
            hold = min(self.timeout / 2.0, KEEPALIVE_S)
            if deadline is not None:
                hold = min(hold, max(0.0, deadline - time.monotonic()))
            asked = time.monotonic()
            # The deadline rides into the transport layer: a transient
            # refusal (429 burst, draining daemon) mid-wait retries with
            # sleeps clamped to the remaining budget instead of honouring a
            # Retry-After hint that outlives the wait itself.
            try:
                record = self._request("GET", f"/runs/{run_id}?wait={hold}",
                                       deadline=deadline)
            except ServeError as exc:
                if (exc.status in _TRANSIENT_STATUSES and deadline is not None
                        and time.monotonic() >= deadline):
                    raise ServeTimeout(run_id, "unknown", timeout) from exc
                raise
            if record["status"] in ("done", "failed"):
                payload = self._request("GET", f"/runs/{run_id}/result",
                                        deadline=deadline)
                return self.decode_outcome(payload)
            if deadline is not None and time.monotonic() > deadline:
                raise ServeTimeout(run_id, str(record["status"]), timeout)
            if hold > 0.0 and time.monotonic() - asked >= hold:
                continue  # the daemon held the full hold: ask again at once
            sleep = delay
            if deadline is not None:
                sleep = min(sleep, max(0.0, deadline - time.monotonic()))
            time.sleep(sleep)
            delay = min(delay * 2.0, poll_cap)

    def events(self, run_id: str, from_step: int = 0,
               timeout: Optional[float] = None) -> Iterator[Dict[str, Any]]:
        """Stream the run's NDJSON events; terminates on done/failed.

        The final event carries the persisted outcome under ``"outcome"``
        (decode it with :meth:`decode_outcome` if needed), so consuming the
        stream to its end observes the complete run without extra polling.
        Quiet stretches carry periodic ``{"event": "ping"}`` keepalives from
        the daemon — filter by event type.  ``timeout`` here bounds the gap
        *between lines* (default: twice the daemon's keepalive cadence), not
        the stream's total duration.
        """
        if timeout is None:
            # The daemon pings every ~10 s on quiet streams; anything beyond
            # two missed keepalives means the connection really is dead.
            timeout = max(self.timeout, 30.0)
        connection = self._connect(timeout=timeout)
        try:
            connection.request(
                "GET", f"{API_PREFIX}/runs/{run_id}/events?from={int(from_step)}"
            )
            response = connection.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    message = json.loads(raw.decode("utf-8"))["error"]
                except Exception:  # noqa: BLE001 - any junk body
                    message = f"HTTP {response.status}"
                raise ServeError(response.status, str(message))
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        except (ConnectionError, socket.timeout) as exc:
            raise ServeUnavailable(
                f"event stream to {self.host}:{self.port} broke ({exc})"
            ) from exc
        finally:
            connection.close()

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        """Ask the daemon to stop; with ``drain`` it finishes in-flight runs
        first and leaves queued runs journalled for the next daemon."""
        return self._request("POST", "/shutdown", body={"drain": bool(drain)})

    def ping(self) -> bool:
        """True when a daemon answers the health route."""
        try:
            return bool(self.health().get("ok"))
        except (ServeUnavailable, ServeError):
            return False
