"""The per-daemon fleet loop: heartbeat membership, steal orphaned work.

One background thread per daemon does both fleet duties:

* **Heartbeat** — re-join the membership registry every few seconds (a join
  *is* the heartbeat: an unconditional atomic rewrite with a fresh
  ``heartbeat_at``), plus occasional tombstone pruning so dead members'
  records do not pile up forever.
* **Work stealing** — when the daemon has idle worker slots, ask it to scan
  the shared journal for pending runs whose owner is dead or absent and
  adopt them (``ScenarioServer.steal_once``).  Stealing is *opt-in*
  (``steal_interval=None`` keeps it off): a lone daemon replays its own
  journal on restart anyway, and chaos tests that stage a dead owner for a
  *client*-driven takeover must not have a peer snatch it first.

The contended-claim arbiter lives in the server's adoption path, not here:
two daemons racing to adopt the same orphan both reach
``ScenarioServer._adopt``, exactly one wins the per-run claim lock
(kernel-released flock — a crashed claimant releases instantly), and the
loser gets the typed :class:`FleetClaimLost` this module defines and moves
on silently.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro import faults

FAULT_STEAL_PRE_CLAIM = faults.register(
    "fleet.steal.pre_claim",
    "inside the claim lock, before an adopted run's journal entry is "
    "rewritten — startup replay, steal tick or dead-owner resubmit (a "
    "crash here must leave the entry intact for the next claimant)",
)

__all__ = [
    "FleetClaimLost",
    "FleetScheduler",
]


class FleetClaimLost(RuntimeError):
    """Another daemon won (or invalidated) the claim on an orphaned run.

    The expected loser outcome of every steal race — contended claim lock,
    entry adopted/finished/removed between scan and claim — so callers
    treat it as "move on to the next candidate", never as a failure.
    """

    def __init__(self, run_id: str, reason: str) -> None:
        super().__init__(f"claim on run {run_id!r} lost: {reason}")
        self.run_id = str(run_id)
        self.reason = str(reason)


class FleetScheduler:
    """Background heartbeat + steal loop for one daemon.

    ``server`` duck-types to ``ScenarioServer``: the loop calls
    ``server.member_entry()`` / ``server.registry`` for membership and
    ``server.steal_once()`` for stealing.  Kept separate from the daemon's
    run scheduler thread so a slow journal scan can never stall dispatch.
    """

    #: Prune tombstones roughly this often (in heartbeat ticks).
    _PRUNE_EVERY = 10

    def __init__(self, server,
                 heartbeat_interval: float = 5.0,
                 steal_interval: Optional[float] = None) -> None:
        if float(heartbeat_interval) <= 0.0:
            raise ValueError("heartbeat_interval must be > 0")
        if steal_interval is not None and float(steal_interval) < 0.0:
            raise ValueError("steal_interval must be >= 0")
        self.server = server
        self.heartbeat_interval = float(heartbeat_interval)
        self.steal_interval = (
            None if steal_interval is None else float(steal_interval)
        )
        self._beats = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def _tick(self) -> float:
        if self.steal_interval is None:
            return self.heartbeat_interval
        # A steal_interval of 0 means "as eager as the heartbeat floor
        # allows" — tests use it to make adoption near-immediate.
        return max(0.05, min(self.heartbeat_interval,
                             self.steal_interval or 0.05))

    def _loop(self) -> None:
        beat_due = 0.0
        steal_due = 0.0
        clock = 0.0
        while not self._stop.is_set():
            if clock >= beat_due:
                beat_due = clock + self.heartbeat_interval
                self._heartbeat()
            if self.steal_interval is not None and clock >= steal_due:
                steal_due = clock + (self.steal_interval or self._tick)
                self._steal()
            self._stop.wait(self._tick)
            clock += self._tick

    def _heartbeat(self) -> None:
        try:
            self.server.registry.join(self.server.member_entry())
            self._beats += 1
            if self._beats % self._PRUNE_EVERY == 0:
                self.server.registry.prune()
        except Exception:
            # Membership is best-effort: a full disk or torn registry must
            # not take the daemon's steal/dispatch loop down with it.
            pass

    def _steal(self) -> None:
        try:
            self.server.steal_once()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def start(self) -> "FleetScheduler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-fleet", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout)
