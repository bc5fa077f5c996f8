"""The fleet front door: one address that load-balances a daemon fleet.

``repro fleet route --port P --root DIR`` starts a :class:`FleetRouter` — a
second application of the one ``/v1`` HTTP layer (:mod:`repro.api.wire`) the
daemon is served by, so :class:`~repro.api.client.ServeClient` (and every
CLI front end built on it) works against the router unchanged.  Behind that
address:

* **submit** is load-balanced across live fleet members by least queue
  depth (each member's ``/v1/stats``, cached with a short TTL and bumped
  optimistically per routed submission so a burst doesn't dog-pile the
  member that *was* idlest a second ago);
* **status / result / events** are proxied to whichever member owns the run,
  with shared-store fallbacks when the owner is gone: results are read
  straight from ``<root>/results/``, journalled-but-ownerless runs report as
  orphaned-queued (a stealing daemon will adopt them), and a broken event
  stream is transparently resumed against the run's next owner from the
  last checkpoint the client saw;
* **backpressure is honest**: when every member refuses with 429/503 the
  router answers 429 with the *smallest* Retry-After any member hinted —
  never a fabricated 5xx — and a member that drops the connection entirely
  is quarantined for a couple of seconds and retried against its peers, so
  a daemon death mid-request is a failover, not a client-visible error.

The router keeps no durable state of its own: membership comes from the
shared registry (:mod:`repro.fleet.membership`), run ownership from asking
the members, results from the shared store.  Kill it and start another —
nothing is lost.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro import faults, telemetry
from repro.api.client import ServeClient, ServeError, ServeUnavailable
from repro.api.wire import (
    FINISHED, HttpService, ServerError, recovered_record, result_pending,
    run_trace,
)
from repro.api.server import DEFAULT_PORT
from repro.fleet.membership import DEFAULT_MEMBER_TTL_S, FleetRegistry
from repro.store.util import read_json_object

FAULT_ROUTER_PRE_PROXY = faults.register(
    "fleet.router.pre_proxy",
    "before the router forwards a submission to the member it picked (a "
    "fault here must fail over to the next member, never surface a 5xx)",
)

__all__ = [
    "DEFAULT_ROUTER_PORT",
    "FleetRouter",
]

#: One above the daemons' default port, so a one-machine fleet needs no flags.
DEFAULT_ROUTER_PORT = DEFAULT_PORT + 1

#: Poll cadence of the orphaned-run event fallback, seconds.
_ORPHAN_POLL_S = 0.25

_MemberKey = Tuple[str, int]


class FleetRouter:
    """The gateway (see the module docstring).

    Parameters
    ----------
    root:
        The fleet's shared state directory — the same ``--checkpoint-dir``
        every member daemon serves; membership, journal and results are all
        read from it.
    host, port:
        Bind address; ``port=0`` picks a free port (read back after start).
    stats_ttl:
        Seconds a member's queue-depth snapshot stays fresh before the next
        submission re-polls its ``/v1/stats``.
    quarantine_s:
        How long a member that dropped a connection is skipped before the
        router tries it again (its membership record usually expires first).
    member_timeout:
        Socket timeout of proxied member requests, seconds.
    fleet_ttl:
        Membership staleness TTL (must match the daemons' ``--fleet-ttl``).
    """

    def __init__(self, root, host: str = "127.0.0.1",
                 port: int = DEFAULT_ROUTER_PORT,
                 stats_ttl: float = 1.0,
                 quarantine_s: float = 2.0,
                 member_timeout: float = 30.0,
                 fleet_ttl: float = DEFAULT_MEMBER_TTL_S) -> None:
        self.root = Path(root)
        self.host = str(host)
        self.port = int(port)
        self.stats_ttl = float(stats_ttl)
        self.quarantine_s = float(quarantine_s)
        self.member_timeout = float(member_timeout)
        self.registry = FleetRegistry(self.root, ttl=fleet_ttl)
        self.started_at = time.time()

        self._lock = threading.Lock()
        self._clients: Dict[_MemberKey, ServeClient] = {}
        #: member key -> (expires_at, queue depth snapshot)
        self._depths: Dict[_MemberKey, Tuple[float, float]] = {}
        #: Optimistic per-member load bump between stats refreshes.
        self._extra: Dict[_MemberKey, int] = {}
        #: run_id -> member key that last answered for it.
        self._owners: Dict[str, _MemberKey] = {}
        #: member key -> quarantined-until timestamp.
        self._dead: Dict[_MemberKey, float] = {}
        self._routed = 0
        self._failovers = 0

        self._http = HttpService(self, "repro-fleet-router/1")

    # ------------------------------------------------------------------
    # Members + per-member clients
    # ------------------------------------------------------------------
    @staticmethod
    def _key(member: Dict[str, Any]) -> Optional[_MemberKey]:
        host = member.get("host")
        try:
            port = int(member.get("port", 0))
        except (TypeError, ValueError):
            return None
        if not host or port <= 0:
            return None
        return (str(host), port)

    def _client(self, key: _MemberKey) -> ServeClient:
        with self._lock:
            client = self._clients.get(key)
            if client is None:
                # retries=0: the ROUTER owns failover; a client quietly
                # retrying a dead member would just stall the next candidate.
                client = ServeClient(host=key[0], port=key[1],
                                     timeout=self.member_timeout, retries=0)
                self._clients[key] = client
            return client

    def _quarantine(self, key: _MemberKey) -> None:
        with self._lock:
            self._dead[key] = time.monotonic() + self.quarantine_s
            self._depths.pop(key, None)
            self._failovers += 1

    def _quarantined(self, key: _MemberKey) -> bool:
        with self._lock:
            until = self._dead.get(key)
            if until is None:
                return False
            if time.monotonic() >= until:
                del self._dead[key]
                return False
            return True

    def live_members(self) -> List[Dict[str, Any]]:
        """Current live membership, quarantined members filtered out."""
        members = []
        for member in self.registry.members():
            key = self._key(member)
            if key is None or self._quarantined(key):
                continue
            members.append(member)
        return members

    def _depth(self, key: _MemberKey) -> float:
        """The member's effective load: cached queue depth + optimistic
        bumps for submissions routed since the snapshot."""
        now = time.monotonic()
        with self._lock:
            cached = self._depths.get(key)
            extra = self._extra.get(key, 0)
        if cached is not None and cached[0] > now:
            return cached[1] + extra
        try:
            stats = self._client(key).stats().get("daemon", {})
            depth = float(
                stats.get("queue_depth", 0) or 0
            ) + float(stats.get("inflight", 0) or 0)
        except (ServeUnavailable, ServeError):
            # Unpollable now; rank it last instead of dropping it — the
            # actual submit attempt decides whether it is really dead.
            depth = float("inf")
        with self._lock:
            self._depths[key] = (now + self.stats_ttl, depth)
            self._extra[key] = 0
        return depth

    def _ranked(self) -> List[Tuple[_MemberKey, Dict[str, Any]]]:
        """Live members, least-loaded first."""
        scored = []
        for member in self.live_members():
            key = self._key(member)
            scored.append((self._depth(key), key, member))
        scored.sort(key=lambda item: (item[0], item[1]))
        return [(key, member) for _, key, member in scored]

    # ------------------------------------------------------------------
    # Submission routing
    # ------------------------------------------------------------------
    def submit(self, spec: Dict[str, Any], run_id: Optional[str] = None,
               checkpoint_every: Optional[int] = None,
               fault_plan: Optional[Union[str, Dict[str, str]]] = None,
               trace: Optional[Dict[str, Any]] = None,
               ) -> Dict[str, Any]:
        """Route one submission to the least-loaded live member.

        Same signature as the daemon's ``submit``: the HTTP layer has already
        resolved ``scenario``/``overrides`` to the full ``spec``, so every
        member sees an identical submission (and 409 conflicts can be
        compared against the shared journal).  Transient member refusals
        (429/503) collect the smallest Retry-After and move on; dropped
        connections quarantine the member and fail over; a 409 for a
        caller-supplied run id is resolved against the shared store — an
        identical submission already journalled or finished is acknowledged
        as a duplicate instead of surfacing the conflict.
        """
        # Trace: continue the caller's context or mint a root one, and wrap
        # the routing decision in a "router.submit" span.  The span finishes
        # BEFORE forwarding (the run directory doesn't exist yet here), so it
        # rides the forwarded context as a carried span the owning daemon
        # flushes into the run's span log.
        incoming = trace if isinstance(trace, dict) else None
        trace_ctx = incoming
        if trace_ctx is None and telemetry.enabled():
            trace_ctx = telemetry.new_context()
        router_span = None
        if isinstance(trace_ctx, dict) and trace_ctx.get("trace_id"):
            router_span = telemetry.start_span(
                "router.submit", trace_ctx,
                attrs={"router": f"{self.host}:{self.port}"},
            )
        forward = {field: value for field, value in (
            ("spec", spec), ("run_id", run_id), ("faults", fault_plan),
            ("checkpoint_every", checkpoint_every)) if value is not None}
        ranked = self._ranked()
        if router_span is not None:
            telemetry.finish_span(router_span, {"members": len(ranked)})
            telemetry.incr("repro_router_submissions_total", 1,
                           "submissions routed by the fleet router")
        if isinstance(trace_ctx, dict) and trace_ctx.get("trace_id"):
            carried = [span for span in (incoming or {}).get("spans", [])
                       if isinstance(span, dict)]
            context = trace_ctx
            if router_span is not None:
                context = telemetry.child_context(trace_ctx, router_span)
                carried.append({key: value
                                for key, value in router_span.items()
                                if not key.startswith("_")})
            forward["trace"] = {"trace_id": context["trace_id"],
                                "parent": context.get("parent")}
            if carried:
                forward["trace"]["spans"] = carried
        hints: List[float] = []
        refusals: List[str] = []
        for key, _member in ranked:
            client = self._client(key)
            try:
                faults.point(FAULT_ROUTER_PRE_PROXY)
                ack = client.request("POST", "/runs", body=forward)
            except (ServeUnavailable, faults.InjectedFault):
                # The member died (or chaos says it did) mid-proxy: put it
                # in quarantine and fail over to the next one.
                self._quarantine(key)
                continue
            except ServeError as exc:
                if exc.status in (429, 503):
                    if exc.retry_after is not None:
                        hints.append(float(exc.retry_after))
                    refusals.append(f"{key[0]}:{key[1]}: {exc}")
                    continue
                if exc.status == 409 and run_id is not None:
                    resolved = self._resolve_conflict(str(run_id), spec)
                    if resolved is not None:
                        return resolved
                raise ServerError(exc.status, str(exc),
                                  retry_after=exc.retry_after) from exc
            with self._lock:
                self._routed += 1
                self._extra[key] = self._extra.get(key, 0) + 1
                if "run_id" in ack:
                    self._owners[str(ack["run_id"])] = key
            ack["routed_to"] = f"{key[0]}:{key[1]}"
            return ack
        if refusals:
            raise ServerError(
                429,
                "every fleet member is at capacity: " + "; ".join(refusals),
                retry_after=min(hints) if hints else 5.0,
            )
        raise ServerError(
            503, "no live fleet members (is any `repro serve` running on "
                 f"{self.root}?)", retry_after=5.0,
        )

    def _resolve_conflict(self, run_id: str, spec: Dict[str, Any],
                          ) -> Optional[Dict[str, Any]]:
        """Turn a 409 into a duplicate ack when the shared store proves the
        conflicting run IS this submission; None leaves the 409 standing."""
        entry = read_json_object(self.root / "queue" / f"{run_id}.json")
        outcome = read_json_object(self.root / "results" / f"{run_id}.json")
        journalled = entry is not None and entry.get("spec") == spec
        finished = outcome is not None and outcome.get("spec") == spec
        if not (journalled or finished):
            return None
        record = self.status(run_id)
        record["position"] = None
        record["deduplicated"] = True
        return record

    # ------------------------------------------------------------------
    # Run routing: status / result / events
    # ------------------------------------------------------------------
    def _locate(self, run_id: str, wait: Optional[float] = None,
                ) -> Optional[Tuple[_MemberKey, Dict[str, Any]]]:
        """(member key, run record) of whichever member answers for the run.

        The cached owner is asked first; on a miss every live member is
        tried — after a steal the *new* owner answers, and the cache is
        rewritten.  None means no live member knows the run (dead owner,
        not yet adopted — the shared-store fallbacks take over).  ``wait``
        rides along as the member's ``?wait=`` hold (members that do not
        own the run 404 at once), kept under half the member socket timeout.
        """
        path = f"/runs/{run_id}"
        if wait is not None:
            path += f"?wait={min(wait, self.member_timeout / 2.0)}"
        with self._lock:
            cached = self._owners.get(run_id)
        keys: List[_MemberKey] = []
        if cached is not None:
            keys.append(cached)
        for member in self.live_members():
            key = self._key(member)
            if key is not None and key not in keys:
                keys.append(key)
        for key in keys:
            try:
                record = self._client(key).request("GET", path)
            except ServeUnavailable:
                self._quarantine(key)
                continue
            except ServeError as exc:
                if exc.status == 404:
                    continue
                raise ServerError(exc.status, str(exc)) from exc
            with self._lock:
                self._owners[run_id] = key
            return key, record
        with self._lock:
            self._owners.pop(run_id, None)
        return None

    def status(self, run_id: str,
               wait: Optional[float] = None) -> Dict[str, Any]:
        located = self._locate(run_id, wait)
        if located is not None:
            return located[1]
        # Shared-store fallbacks: the run may be finished (result persisted
        # by a daemon that since died) or orphaned in the journal awaiting
        # adoption by a stealing member.
        outcome = read_json_object(self.root / "results" / f"{run_id}.json")
        if outcome is not None:
            return recovered_record(run_id, outcome)
        entry = read_json_object(self.root / "queue" / f"{run_id}.json")
        if entry is not None:
            return {
                "run_id": run_id,
                "scenario": str(entry.get("spec", {}).get("name", "?")),
                "engine": str(entry.get("spec", {}).get("engine", "?")),
                "status": "queued",
                "orphaned": True,
                "owner": entry.get("owner"),
            }
        raise ServerError(404, f"unknown run id {run_id!r}")

    def trace_payload(self, run_id: str) -> Dict[str, Any]:
        """One run's span records, read straight from the shared store —
        works whichever member(s) executed the run, and after all of them
        are gone (the same durability argument as :meth:`result`)."""
        record = self.status(run_id)  # 404s unknown ids
        return run_trace(self.root / "checkpoints", run_id,
                         str(record.get("scenario") or ""))

    def result(self, run_id: str) -> Dict[str, Any]:
        # The shared store is authoritative for finished runs — no proxy
        # needed, and it keeps working when the finishing daemon is gone.
        outcome = read_json_object(self.root / "results" / f"{run_id}.json")
        if outcome is not None:
            return outcome
        record = self.status(run_id)  # 404s unknown ids
        raise result_pending(run_id, record["status"])

    def iter_events(self, run_id: str, from_step: int = 0,
                    ) -> Iterator[Dict[str, Any]]:
        """Proxy the run's event stream with transparent owner failover.

        The router tracks the last checkpoint step each proxied stream
        delivered; when a member dies mid-stream it re-locates the run (its
        next owner after a steal, or the shared store once finished) and
        resumes from that step, so the client sees one continuous stream —
        possibly with a duplicate ``status`` event at the splice, never a
        gap or an error.
        """
        seen_step = int(from_step)
        while True:
            located = self._locate(run_id)
            if located is None:
                outcome = read_json_object(
                    self.root / "results" / f"{run_id}.json"
                )
                if outcome is not None:
                    event = "done" if "ok" in outcome else "failed"
                    yield {"event": event, "run_id": run_id,
                           "outcome": outcome}
                    return
                record = self.status(run_id)  # 404s unknown ids
                yield {"event": "status", "run_id": run_id,
                       "status": record["status"],
                       "orphaned": bool(record.get("orphaned"))}
                time.sleep(_ORPHAN_POLL_S)
                continue
            key, _record = located
            client = self._client(key)
            try:
                for event in client.events(run_id, from_step=seen_step):
                    if event.get("event") == "checkpoint":
                        try:
                            seen_step = max(seen_step,
                                            int(event.get("step", 0)))
                        except (TypeError, ValueError):
                            pass
                    yield event
                    if event.get("event") in FINISHED:
                        return
                # The stream ended without a terminal event (member drained
                # or died politely): fall through and re-locate.
            except (ServeUnavailable, ServeError):
                self._quarantine(key)
            time.sleep(_ORPHAN_POLL_S)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def fleet_overview(self) -> Dict[str, Any]:
        """Membership plus per-member queue depth (the ``fleet status`` CLI
        and the router's ``/v1/fleet`` route)."""
        members = []
        for member in self.registry.members(include_stale=True):
            entry = dict(member)
            key = self._key(member)
            if not member.get("stale") and key is not None \
                    and not self._quarantined(key):
                depth = self._depth(key)
                entry["queue_depth"] = None if depth == float("inf") \
                    else depth
                entry["reachable"] = depth != float("inf")
            else:
                entry["queue_depth"] = None
                entry["reachable"] = False
            members.append(entry)
        return {"members": members}

    def member_stats(self) -> List[Dict[str, Any]]:
        """Each live member's ``/v1/stats`` daemon section (best effort)."""
        out = []
        for member in self.live_members():
            key = self._key(member)
            try:
                stats = self._client(key).stats().get("daemon", {})
            except (ServeUnavailable, ServeError):
                continue
            stats["member_id"] = member.get("member_id")
            out.append(stats)
        return out

    def stats(self) -> Dict[str, Any]:
        from repro.analytics.stats import fleet_rollup, store_stats

        members = self.member_stats()
        with self._lock:
            router = {
                "ok": True,
                "router": True,
                "uptime_s": time.time() - self.started_at,
                "routed": self._routed,
                "failovers": self._failovers,
                "known_runs": len(self._owners),
            }
        return {
            "router": router,
            "fleet": fleet_rollup(members),
            "members": members,
            "store": store_stats(self.root),
        }

    def health(self) -> Dict[str, Any]:
        members = self.live_members()
        return {
            "ok": True,
            "router": True,
            "host": self.host,
            "port": self.port,
            "root": str(self.root),
            "uptime_s": time.time() - self.started_at,
            "members": len(members),
        }

    def list_runs(self) -> List[Dict[str, Any]]:
        """Run records merged across the live members (newest owner wins)."""
        merged: Dict[str, Dict[str, Any]] = {}
        for member in self.live_members():
            key = self._key(member)
            try:
                runs = self._client(key).request("GET", "/runs")["runs"]
            except (ServeUnavailable, ServeError, KeyError):
                continue
            for record in runs:
                merged[str(record.get("run_id"))] = record
        return list(merged.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetRouter":
        self.port = self._http.start(self.host, self.port)
        return self

    def stop(self) -> None:
        self._http.close()

    def shutdown(self, drain: bool = True,  # noqa: ARG002 - nothing to drain
                 ) -> Tuple[Dict[str, Any], Callable[[], None]]:
        """``POST /v1/shutdown``: the ack, and the stop to run once it is sent
        — of the ROUTER only; daemons drain via their own ``/v1/shutdown``."""
        return {"ok": True, "router": True}, self.stop

    def serve_forever(self) -> None:
        self._http.serve_forever()

    def __enter__(self) -> "FleetRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
