"""Daemon/store observability: stats collection and dashboard rendering.

Two halves:

* :func:`store_stats` — an offline scan of a ``repro serve`` root (journal
  depth, persisted results, checkpoint bytes, lease states).  The daemon's
  ``/v1/stats`` endpoint merges this with its live counters (queue depth,
  EWMA run time, warm-pool hit rate); this function alone serves the CLI
  when no daemon is up.
* :func:`render_dashboard` — one stats snapshot as aligned text for a
  terminal.  JSON output is just the snapshot itself; this module never
  decides which of the two the user gets.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from repro.store.errors import StoreFormatError
from repro.store.locks import lease_stale
from repro.store.runstore import RunStore
from repro.store.util import file_size


def _dir_file_stats(directory: Path, pattern: str) -> Dict[str, int]:
    files = [p for p in directory.glob(pattern)] if directory.is_dir() else []
    return {
        "count": len(files),
        "bytes": sum(file_size(p) for p in files),
    }


def store_stats(serve_root) -> Dict[str, Any]:
    """Scan one serve root's on-disk state (no daemon required).

    Lease states come from each run's checkpoint manifest: ``live`` means a
    writer renewed within its TTL (or is a provably-alive same-host pid),
    ``stale`` an expired/dead claim, ``none`` a run that finished cleanly or
    never checkpointed under a lease.
    """
    root = Path(serve_root)
    store = RunStore(root / "checkpoints")
    leases = {"live": 0, "stale": 0, "none": 0}
    runs = 0
    snapshot_bytes = 0
    for scenario in store.scenarios():
        for run_id in store.run_ids(scenario):
            try:
                summary = store.describe(scenario, run_id)
            except StoreFormatError:
                summary = {}  # counted; no bytes or lease this build can read
            runs += 1
            snapshot_bytes += int(summary.get("bytes", 0))
            lease = summary.get("lease")
            if lease is None:
                leases["none"] += 1
            elif lease_stale(lease):
                leases["stale"] += 1
            else:
                leases["live"] += 1
    return {
        "root": str(root),
        "journal": _dir_file_stats(root / "queue", "*.json"),
        "results": _dir_file_stats(root / "results", "*.json"),
        "checkpoints": {"runs": runs, "bytes": snapshot_bytes},
        "leases": leases,
    }


def fleet_rollup(member_stats) -> Dict[str, Any]:
    """Fleet-wide totals from per-member ``/v1/stats`` daemon sections.

    The router's ``/v1/stats`` serves this so one poll answers "how is the
    whole fleet doing": counts are summed across members, the average run
    time is the mean of the members that have observed one, and ``stolen``
    totals the runs that moved between daemons via work stealing.
    """
    members = [m for m in member_stats if isinstance(m, dict)]
    totals = {
        key: sum(int(m.get(key, 0) or 0) for m in members)
        for key in ("queued", "running", "done", "failed",
                    "queue_depth", "inflight", "queue_size", "stolen")
    }
    avg_samples = [float(m["avg_run_s"]) for m in members
                   if m.get("avg_run_s") is not None]
    return {
        "members": len(members),
        "workers": sum(
            int((m.get("pool") or {}).get("workers", 0) or 0)
            for m in members
        ),
        **totals,
        "avg_run_s": (sum(avg_samples) / len(avg_samples)
                      if avg_samples else None),
    }


def _human_bytes(count) -> str:
    count = float(count or 0)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return f"{count:.0f} {unit}" if unit == "B" \
                else f"{count:.1f} {unit}"
        count /= 1024
    return f"{count:.1f} GiB"  # pragma: no cover - unreachable


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _fmt_seconds(value: Any) -> str:
    if value is None:
        return "-"
    value = float(value)
    if value < 1e-3:
        return f"{value * 1e6:.0f} us"
    if value < 1.0:
        return f"{value * 1e3:.1f} ms"
    return f"{value:.2f} s"


#: Histograms surfaced as dashboard latency rows, in display order.
_LATENCY_ROWS = (
    ("queue wait", "repro_serve_queue_wait_seconds"),
    ("run", "repro_serve_run_seconds"),
    ("store save", "repro_store_save_seconds"),
)


def _telemetry_lines(section: Dict[str, Any]) -> list:
    """Dashboard lines for one ``/v1/stats`` telemetry section.

    Old daemons serve no ``telemetry`` key at all; callers gate on that, and
    this function additionally tolerates missing metrics/histograms so a
    partially populated section degrades to fewer rows, never a crash.
    """
    from repro.telemetry import quantile

    lines = ["telemetry"]
    lines.append(f"  {'enabled':<32} "
                 f"{'yes' if section.get('enabled') else 'no'}")
    written = (section.get("spans") or {}).get("written")
    if written is not None:
        lines.append(f"  {'spans written':<32} {int(written)}")
    metrics = section.get("metrics") or {}
    bounds = metrics.get("bounds")
    for label, name in _LATENCY_ROWS:
        hist = (metrics.get("histograms") or {}).get(name)
        if not hist or not hist.get("count"):
            continue
        snap = dict(hist)
        if bounds is not None and "bounds" not in snap:
            snap["bounds"] = bounds
        p50, p95, p99 = (quantile(snap, q) for q in (0.5, 0.95, 0.99))
        lines.append(
            f"  {label + ' p50/p95/p99':<32} "
            f"{_fmt_seconds(p50)} / {_fmt_seconds(p95)} / "
            f"{_fmt_seconds(p99)}  ({int(hist['count'])} samples)"
        )
    return lines


def render_dashboard(stats: Dict[str, Any]) -> str:
    """One stats snapshot (live ``/v1/stats`` or offline scan) as text."""
    lines = []

    daemon = stats.get("daemon")
    if daemon:
        lines.append("daemon")
        pool = daemon.get("pool", {})
        hit_rate = pool.get("warm_hit_rate")
        for label, value in (
            ("owner", daemon.get("owner")),
            ("uptime", f"{daemon.get('uptime_s', 0.0):.1f} s"),
            ("queued / running / done / failed",
             " / ".join(str(daemon.get(k, 0))
                        for k in ("queued", "running", "done", "failed"))),
            ("queue depth", f"{daemon.get('queue_depth', 0)}"
             f" of {daemon.get('queue_size', '?')}"),
            ("avg run time", None if daemon.get("avg_run_s") is None
             else f"{daemon['avg_run_s']:.2f} s"),
            ("workers", f"{pool.get('workers', '?')} "
             f"(generation {pool.get('generations', '?')})"),
            ("warm-pool hit rate", None if hit_rate is None
             else f"{100.0 * hit_rate:.0f}% of "
                  f"{pool.get('submissions', 0)} submissions"),
            ("retention", daemon.get("retention")),
        ):
            if value is not None:
                lines.append(f"  {label:<32} {_fmt(value)}")

    telemetry_section = stats.get("telemetry")
    if telemetry_section:
        lines.extend(_telemetry_lines(telemetry_section))

    fleet = stats.get("fleet")
    if fleet:
        lines.append("fleet")
        for label, value in (
            ("members", fleet.get("members")),
            ("workers", fleet.get("workers")),
            ("queued / running / done / failed",
             " / ".join(str(fleet.get(k, 0))
                        for k in ("queued", "running", "done", "failed"))),
            ("queue depth", f"{fleet.get('queue_depth', 0)}"
             f" of {fleet.get('queue_size', '?')}"),
            ("stolen runs", fleet.get("stolen")),
            ("avg run time", None if fleet.get("avg_run_s") is None
             else f"{fleet['avg_run_s']:.2f} s"),
        ):
            if value is not None:
                lines.append(f"  {label:<32} {_fmt(value)}")

    store = stats.get("store")
    if store:
        lines.append("store")
        leases = store.get("leases", {})
        for label, value in (
            ("root", store.get("root")),
            ("journalled submissions", store.get("journal", {}).get("count")),
            ("persisted results",
             f"{store.get('results', {}).get('count', 0)} "
             f"({_human_bytes(store.get('results', {}).get('bytes', 0))})"),
            ("checkpointed runs",
             f"{store.get('checkpoints', {}).get('runs', 0)} "
             f"({_human_bytes(store.get('checkpoints', {}).get('bytes', 0))})"),
            ("leases live / stale / none",
             " / ".join(str(leases.get(k, 0))
                        for k in ("live", "stale", "none"))),
        ):
            if value is not None:
                lines.append(f"  {label:<32} {_fmt(value)}")

    if not lines:
        lines.append("(no stats sections available)")
    return "\n".join(lines)
