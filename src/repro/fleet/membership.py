"""Fleet membership: which daemons currently share one state root.

Every ``repro serve`` daemon joins the fleet registry on start by writing
``<root>/fleet/members/<daemon-id>.json`` — an atomic JSON record carrying
its identity (owner string, connect address, pid, started_at, version) — and
refreshes it on a heartbeat cadence while it lives.  The record is the
discovery channel of the fleet: the router reads it to learn where to proxy,
peers read it to learn who else is working the same journal.

Liveness follows the run-lease rules exactly (:mod:`repro.store.locks`):

* a member is **stale** once its heartbeat (the newer of the record's
  ``heartbeat_at`` field and the file's mtime) is older than its TTL, or
  immediately when its pid is provably dead on this host;
* a graceful drain removes the record (``leave``); a SIGKILLed daemon's
  record simply ages out — and is eventually pruned by a surviving member's
  housekeeping — so membership needs no coordinator and no extra daemon.

The registry is intentionally dumb: atomic single-file writes, no locking.
Two daemons never share a member id (it embeds host + pid via the owner
string), so there is nothing to contend on.
"""

from __future__ import annotations

import re
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import faults
from repro.store.locks import owner_alive
from repro.store.util import atomic_write_json, read_json_object

FAULT_MEMBER_PRE_JOIN = faults.register(
    "fleet.member.pre_join",
    "before a daemon's membership record is written (a crash here must "
    "leave the shared root clean — the daemon never became discoverable)",
)

__all__ = [
    "DEFAULT_MEMBER_TTL_S",
    "FleetRegistry",
    "member_id_for",
]

#: Seconds a member stays live past its last heartbeat.  Deliberately a few
#: heartbeat intervals (the scheduler beats at ttl/3) so one slow write never
#: reads as a dead daemon; pid-liveness makes same-host death immediate.
DEFAULT_MEMBER_TTL_S = 15.0

#: Stale records older than this many TTLs are pruned by members' heartbeat
#: housekeeping (kept around that long so operators can see recent deaths).
_PRUNE_AFTER_TTLS = 10.0


def member_id_for(owner: str) -> str:
    """An owner string as a safe member file name (path-component rules)."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", str(owner)).strip(".-")
    return slug or "member"


class FleetRegistry:
    """Read/write the membership records under one shared state root."""

    def __init__(self, root, ttl: float = DEFAULT_MEMBER_TTL_S) -> None:
        if float(ttl) <= 0.0:
            raise ValueError("member ttl must be > 0")
        self.root = Path(root)
        self.ttl = float(ttl)
        self.members_dir = self.root / "fleet" / "members"

    def _path(self, member_id: str) -> Path:
        return self.members_dir / f"{member_id}.json"

    # ------------------------------------------------------------------
    # Write side (the daemons)
    # ------------------------------------------------------------------
    def join(self, entry: Dict[str, Any]) -> str:
        """(Re)write one member record; returns its member id.

        Joining and heartbeating are the same operation — an unconditional
        atomic rewrite with a fresh ``heartbeat_at`` — so a member whose
        record was pruned while it lived simply reappears on its next beat.
        """
        owner = str(entry.get("owner", ""))
        if not owner:
            raise ValueError("a member entry needs an 'owner' identity")
        member_id = member_id_for(owner)
        record = dict(entry)
        record["member_id"] = member_id
        record["ttl"] = self.ttl
        record["heartbeat_at"] = time.time()
        faults.point(FAULT_MEMBER_PRE_JOIN)
        self.members_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self._path(member_id), record)
        return member_id

    def leave(self, member_id: str) -> None:
        """Remove one member record (graceful drain); missing is fine."""
        try:
            self._path(member_id).unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Read side (the router, peers, the CLI)
    # ------------------------------------------------------------------
    def member_stale(self, record: Dict[str, Any],
                     mtime: Optional[float] = None,
                     now: Optional[float] = None) -> bool:
        """Whether one member record reads as dead (TTL or dead pid)."""
        now = time.time() if now is None else now
        try:
            ttl = float(record.get("ttl", self.ttl))
        except (TypeError, ValueError):
            ttl = self.ttl
        try:
            beat = float(record.get("heartbeat_at", 0.0))
        except (TypeError, ValueError):
            beat = 0.0
        if mtime is not None:
            beat = max(beat, float(mtime))
        # A same-host pid probe beats any wall-clock delta: an NTP step
        # forward must not mass-expire provably live daemons, and a dead pid
        # condemns a record no matter how fresh its heartbeat looks.  When
        # the record carries an identity, let it decide outright ("machine"
        # is the member's hostname; "host" its connect address; a foreign
        # machine falls through to the TTL inside owner_alive).
        machine = record.get("machine")
        pid = record.get("pid")
        if machine is not None and pid:
            return not owner_alive(machine, pid, lease={"host": machine,
                                                        "pid": pid,
                                                        "renewed_at": beat,
                                                        "ttl": ttl}, now=now)
        # No identity to probe: the TTL decides, with negative ages clamped
        # to zero — a heartbeat stamped in the future (clock stepped
        # backwards since the write) reads as "just now", not "live forever"
        # once `now` catches back up past it.
        return max(0.0, now - beat) > ttl

    def members(self, include_stale: bool = False,
                now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Every member record, each with a computed ``stale`` flag."""
        if not self.members_dir.is_dir():
            return []
        now = time.time() if now is None else now
        out: List[Dict[str, Any]] = []
        for path in sorted(self.members_dir.glob("*.json")):
            if path.name.startswith("."):
                continue  # an atomic-write temp file caught mid-heartbeat
            record = read_json_object(path)
            if record is None:
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            record["stale"] = self.member_stale(record, mtime=mtime, now=now)
            if record["stale"] and not include_stale:
                continue
            out.append(record)
        return out

    def prune(self, now: Optional[float] = None) -> int:
        """Drop long-dead member records; returns how many were removed.

        Run from the surviving members' heartbeat loops, so a fleet that
        keeps losing daemons does not accumulate tombstones forever.  Only
        records stale for many TTLs go — a freshly dead member stays
        visible (flagged stale) for operators.
        """
        if not self.members_dir.is_dir():
            return 0
        now = time.time() if now is None else now
        removed = 0
        for path in self.members_dir.glob("*.json"):
            if path.name.startswith("."):
                continue
            record = read_json_object(path)
            if record is None:
                continue
            try:
                ttl = float(record.get("ttl", self.ttl))
            except (TypeError, ValueError):
                ttl = self.ttl
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            horizon = now - _PRUNE_AFTER_TTLS * ttl
            if mtime < horizon and self.member_stale(record, mtime=mtime,
                                                     now=now):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
