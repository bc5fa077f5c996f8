"""Process-local metrics: counters, gauges, and log-bucketed histograms.

Design rules (mirroring :mod:`repro.faults`, the repo's other cross-cutting
ambient registry):

* **Zero cost when disabled.**  The module-level recording helpers
  (:func:`incr` / :func:`set_gauge` / :func:`observe`) start with
  ``if not _enabled: return`` — one global read, no allocation, no locking —
  so instrumented hot paths pay nothing until telemetry is switched on.
  Enablement comes from the ``REPRO_TELEMETRY`` environment variable (read
  once at import, so forked pool workers inherit it and spawned workers
  re-read it) or programmatically via :func:`enable` / :func:`disable`.
* **Lock-free hot path.**  Recording into an existing metric is plain
  attribute/item arithmetic under the GIL — the same discipline as
  :class:`repro.perf.workspace.LRUCache`'s hit/miss counters.  The registry
  lock is only taken when a metric is *created*; a rare lost increment under
  pathological thread interleaving is an accepted observability trade, never
  a correctness one.
* **Mergeable snapshots.**  :func:`snapshot` returns a plain-JSON view and
  :func:`merge_snapshot` folds one registry's snapshot into another's
  (counters and histogram buckets add, gauges last-write-wins), so
  process-backend pool workers can report deltas that the daemon folds into
  its own registry — ending up with the same aggregate view the thread
  backend and inline workers get for free by sharing the daemon's process.
  :func:`subtract_snapshot` produces those deltas (what changed since the
  previous report, and nothing else) so a long-lived worker never
  double-reports.

Histograms are log₂-bucketed over ``BUCKET_BOUNDS`` (1 µs … ~134 s upper
bounds plus an overflow bucket) — fixed bounds keep cross-process merging a
straight element-wise add and make the Prometheus rendering cumulative by
construction.
"""

from __future__ import annotations

import bisect
import os
import re
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro import faults

__all__ = [
    "BUCKET_BOUNDS", "Counter", "ENV_VAR", "Gauge", "Histogram",
    "MetricsRegistry", "configure", "counter", "disable", "enable",
    "enabled", "gauge", "histogram", "incr", "merge_snapshot", "observe",
    "quantile", "registry", "render_prometheus", "reset", "set_gauge",
    "snapshot", "subtract_snapshot",
]

ENV_VAR = "REPRO_TELEMETRY"

#: Histogram bucket upper bounds (seconds): 1 µs doubling up to ~134 s.
#: Fixed and shared by every histogram so snapshots merge element-wise.
BUCKET_BOUNDS: Sequence[float] = tuple(1e-6 * (2.0 ** i) for i in range(28))

FAULT_METRICS_PRE_MERGE = faults.register(
    "telemetry.metrics.pre_merge",
    "before folding a worker's metrics snapshot into the daemon registry "
    "(a fault here must never fail the run it rode in on)",
)

_TRUTHY = frozenset({"1", "true", "on", "yes", "enabled"})


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins, also across merges)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Log-bucketed distribution over the shared :data:`BUCKET_BOUNDS`."""

    __slots__ = ("name", "help", "counts", "sum", "count")

    bounds = BUCKET_BOUNDS

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        # One bucket per bound plus the overflow bucket.
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(BUCKET_BOUNDS, value)] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """A named collection of metrics with snapshot/merge semantics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- creation (locked) and lookup ---------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter(name, help))
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name, help))
        return metric

    def histogram(self, name: str, help: str = "") -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(
                    name, Histogram(name, help)
                )
        return metric

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain-JSON view of every metric (safe to ship over the wire)."""
        return {
            "bounds": list(BUCKET_BOUNDS),
            "counters": {
                name: {"value": c.value, "help": c.help}
                for name, c in self._counters.items()
            },
            "gauges": {
                name: {"value": g.value, "help": g.help}
                for name, g in self._gauges.items()
            },
            "histograms": {
                name: {"counts": list(h.counts), "sum": h.sum,
                       "count": h.count, "help": h.help}
                for name, h in self._histograms.items()
            },
        }

    def merge(self, snap: Dict[str, Any]) -> None:
        """Fold one snapshot into this registry.

        Counters and histogram buckets add; gauges take the incoming value.
        Histograms bucketed against different bounds (a version-skewed
        worker) are ignored rather than mis-added.
        """
        faults.point(FAULT_METRICS_PRE_MERGE)
        for name, entry in (snap.get("counters") or {}).items():
            self.counter(name, entry.get("help", "")).value += \
                float(entry.get("value", 0.0))
        for name, entry in (snap.get("gauges") or {}).items():
            self.gauge(name, entry.get("help", "")).value = \
                float(entry.get("value", 0.0))
        bounds = snap.get("bounds")
        aligned = bounds is None or list(bounds) == list(BUCKET_BOUNDS)
        if not aligned:
            return
        for name, entry in (snap.get("histograms") or {}).items():
            hist = self.histogram(name, entry.get("help", ""))
            counts = entry.get("counts") or []
            if len(counts) != len(hist.counts):
                continue
            for index, value in enumerate(counts):
                hist.counts[index] += int(value)
            hist.sum += float(entry.get("sum", 0.0))
            hist.count += int(entry.get("count", 0))

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def subtract_snapshot(new: Dict[str, Any],
                      old: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """``new - old``, keeping only the metrics that changed: counters and
    histograms that grew (by what they grew, bucket by bucket) and gauges
    whose level moved.  A long-lived worker reports these deltas, so
    repeated reports never double-count and an idle metric ships nothing.
    A metric that shrank (a restarted worker) counts as unchanged."""
    old = old or {}
    old_counters = old.get("counters") or {}
    old_gauges = old.get("gauges") or {}
    old_hists = old.get("histograms") or {}
    delta: Dict[str, Any] = {
        "bounds": new.get("bounds"),
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for name, entry in (new.get("counters") or {}).items():
        base = float((old_counters.get(name) or {}).get("value", 0.0))
        grown = float(entry.get("value", 0.0)) - base
        if grown > 0.0:
            delta["counters"][name] = {"value": grown,
                                       "help": entry.get("help", "")}
    for name, entry in (new.get("gauges") or {}).items():
        if name not in old_gauges or \
                old_gauges[name].get("value") != entry.get("value"):
            delta["gauges"][name] = entry
    for name, entry in (new.get("histograms") or {}).items():
        base = old_hists.get(name) or {}
        grown = int(entry.get("count", 0)) - int(base.get("count", 0))
        if grown <= 0:
            continue
        base_counts = base.get("counts") or []
        counts = [int(value) for value in (entry.get("counts") or [])]
        if len(base_counts) == len(counts):
            counts = [max(0, c - int(b))
                      for c, b in zip(counts, base_counts)]
        delta["histograms"][name] = {
            "counts": counts,
            "sum": max(0.0, float(entry.get("sum", 0.0))
                       - float(base.get("sum", 0.0))),
            "count": grown,
            "help": entry.get("help", ""),
        }
    return delta


def quantile(hist_snapshot: Dict[str, Any], q: float) -> Optional[float]:
    """Approximate quantile from a histogram snapshot (bucket upper bound).

    Returns None for an empty histogram.  The answer is the upper bound of
    the bucket the q-th sample falls in — the standard Prometheus-style
    estimate, good to within one log₂ bucket.
    """
    counts = hist_snapshot.get("counts") or []
    total = int(hist_snapshot.get("count", 0)) or sum(counts)
    if total <= 0:
        return None
    bounds = hist_snapshot.get("bounds") or list(BUCKET_BOUNDS)
    rank = max(1, int(round(q * total)))
    seen = 0
    for index, value in enumerate(counts):
        seen += int(value)
        if seen >= rank:
            if index < len(bounds):
                return float(bounds[index])
            return float(bounds[-1]) if bounds else None
    return float(bounds[-1]) if bounds else None


_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _prom_number(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def render_prometheus(snap: Optional[Dict[str, Any]] = None) -> str:
    """Render a snapshot (default: the live registry) as Prometheus text
    exposition format 0.0.4: ``# HELP``/``# TYPE`` headers, plain samples
    for counters/gauges, cumulative ``_bucket{le=...}``/``_sum``/``_count``
    triplets for histograms."""
    if snap is None:
        snap = _REGISTRY.snapshot()
    lines: List[str] = []
    for name in sorted(snap.get("counters") or {}):
        entry = snap["counters"][name]
        prom = _prom_name(name)
        if entry.get("help"):
            lines.append(f"# HELP {prom} {entry['help']}")
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_number(entry.get('value', 0.0))}")
    for name in sorted(snap.get("gauges") or {}):
        entry = snap["gauges"][name]
        prom = _prom_name(name)
        if entry.get("help"):
            lines.append(f"# HELP {prom} {entry['help']}")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_number(entry.get('value', 0.0))}")
    bounds = snap.get("bounds") or list(BUCKET_BOUNDS)
    for name in sorted(snap.get("histograms") or {}):
        entry = snap["histograms"][name]
        prom = _prom_name(name)
        if entry.get("help"):
            lines.append(f"# HELP {prom} {entry['help']}")
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        counts = entry.get("counts") or []
        for index, bound in enumerate(bounds):
            cumulative += int(counts[index]) if index < len(counts) else 0
            lines.append(
                f'{prom}_bucket{{le="{repr(float(bound))}"}} {cumulative}'
            )
        total = int(entry.get("count", 0))
        lines.append(f'{prom}_bucket{{le="+Inf"}} {total}')
        lines.append(f"{prom}_sum {repr(float(entry.get('sum', 0.0)))}")
        lines.append(f"{prom}_count {total}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Module-level default registry + the zero-cost recording helpers
# ----------------------------------------------------------------------
_REGISTRY = MetricsRegistry()
_enabled = False


def registry() -> MetricsRegistry:
    return _REGISTRY


def enabled() -> bool:
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def configure(spec: Optional[str]) -> None:
    """Enable/disable from an environment-style string (``"1"``/``"on"``…)."""
    global _enabled
    _enabled = bool(spec) and str(spec).strip().lower() in _TRUTHY


def counter(name: str, help: str = "") -> Counter:
    return _REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return _REGISTRY.gauge(name, help)


def histogram(name: str, help: str = "") -> Histogram:
    return _REGISTRY.histogram(name, help)


def incr(name: str, amount: float = 1.0, help: str = "") -> None:
    if not _enabled:
        return
    _REGISTRY.counter(name, help).inc(amount)


def set_gauge(name: str, value: float, help: str = "") -> None:
    if not _enabled:
        return
    _REGISTRY.gauge(name, help).set(value)


def observe(name: str, value: float, help: str = "") -> None:
    if not _enabled:
        return
    _REGISTRY.histogram(name, help).observe(value)


def snapshot() -> Dict[str, Any]:
    return _REGISTRY.snapshot()


def merge_snapshot(snap: Dict[str, Any]) -> None:
    _REGISTRY.merge(snap)


def reset() -> None:
    _REGISTRY.reset()


configure(os.environ.get(ENV_VAR))
