"""In-memory span recorder for the traced benchmark run.

The harness wraps its *own calls* into the program's public functions in
spans — nothing inside ``src/`` is instrumented.  A span is
``{id, name, start, end, parent, trace}`` (plus ``n`` for a block of N
identical calls, and ``scenario`` on run spans); spans of one run share its
``trace`` id, inherited from the nearest ancestor that names one.  Spans are
kept in memory and written as NDJSON when the workload process exits.

A layer's *self time* is its span's duration minus the part of that interval
its child spans cover.  Children are clipped to their parent first, so the
self times of one tree sum to the root's duration exactly; that sum is the
``self-time coverage`` line the harness prints against the traced pass time.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple


class SpanRecorder:
    """Collects spans; ``span()`` nests by the recorder's own call stack."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None, n: int = 1,
             **attrs: Any) -> Iterator[Dict[str, Any]]:
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "name": name, "start": 0.0,
                  "end": 0.0, "parent": parent, "trace": trace, "n": int(n),
                  **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: int) -> Dict[str, Any]:
        """A span observed from outside (e.g. read off a daemon run record)."""
        record = {"id": len(self.spans), "name": name, "start": float(start),
                  "end": float(max(start, end)), "parent": parent,
                  "trace": None, "n": 1}
        self.spans.append(record)
        return record

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:  # creation order: parents come first
                if record["trace"] is None and record["parent"] is not None:
                    record["trace"] = self.spans[record["parent"]]["trace"]
                handle.write(json.dumps(record) + "\n")


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        if end > edge:
            total += end - max(start, edge)
            edge = end
    return total


def self_times(spans: List[Dict[str, Any]], root_ids: List[int],
               ) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time, call count and span count of the
    trees rooted at ``root_ids``."""
    children: Dict[int, List[Dict[str, Any]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    table: Dict[str, Dict[str, float]] = {}
    stack = [(spans[i], spans[i]["start"], spans[i]["end"]) for i in root_ids]
    while stack:
        record, start, end = stack.pop()
        clipped = []
        for child in children.get(record["id"], ()):
            c_start = min(max(child["start"], start), end)
            c_end = min(max(child["end"], start), end)
            clipped.append((c_start, c_end))
            stack.append((child, c_start, c_end))
        row = table.setdefault(record["name"],
                               {"self_s": 0.0, "calls": 0, "spans": 0})
        row["self_s"] += (end - start) - _covered(clipped)
        row["calls"] += record["n"]
        row["spans"] += 1
    return table
