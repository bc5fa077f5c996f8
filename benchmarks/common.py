"""Shared helpers for the benchmark harnesses.

Every benchmark reproduces one table or figure of the paper (or measures one
subsystem): it computes the same rows/series the paper reports, prints them
in a human-readable form, and emits a machine-readable artefact through
:func:`finish` — a **common schema** document written next to this module
(``results/<name>.json``) and, when the benchmark was invoked with
``--json out.json``, to the caller's path as well.  The schema::

    {"schema": "repro-bench/1", "bench": <name>, "payload": {...}}

keeps every ``bench_*.py`` consumable by the same tooling instead of each
benchmark printing and discarding its numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Version tag of the common benchmark-artefact schema.
BENCH_SCHEMA = "repro-bench/1"

#: Append-only invocation history: one timestamped schema document per
#: :func:`finish` call.  ``results/<name>.json`` keeps only the latest run;
#: ``repro analytics bench results/history.ndjson`` reads the history
#: directly to show a metric's trajectory across invocations.
HISTORY_PATH = RESULTS_DIR / "history.ndjson"


def write_result(name: str, payload) -> Path:
    """Write a JSON result file and return its path."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=float)
    return path


def parse_bench_args(argv: Optional[Sequence[str]] = None,
                     ) -> argparse.Namespace:
    """The shared benchmark CLI: ``--json out.json`` (and nothing else).

    Unknown arguments are ignored, not rejected: several benchmarks are
    pytest-driven test functions, where ``sys.argv`` belongs to pytest.
    """
    parser = argparse.ArgumentParser(
        description="benchmark harness (see the module docstring)"
    )
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="PATH",
                        help="also write the schema document to PATH "
                             "('-' = stdout)")
    args, _unknown = parser.parse_known_args(argv)
    return args


def finish(name: str, payload, argv: Optional[Sequence[str]] = None) -> Path:
    """Emit one benchmark's artefact in the common schema.

    Writes ``results/<name>.json`` always, appends one timestamped line to
    ``results/history.ndjson`` (the cross-invocation trajectory
    ``repro analytics bench`` reads), honours ``--json out.json`` from the
    command line (``argv`` overrides ``sys.argv`` for tests), and returns
    the results-dir path.
    """
    try:  # record whether telemetry instrumentation was live for this run
        from repro.telemetry import enabled as _telemetry_enabled
        telemetry_enabled = bool(_telemetry_enabled())
    except Exception:  # noqa: BLE001 - benchmarks must not require telemetry
        telemetry_enabled = None
    document = {"schema": BENCH_SCHEMA, "bench": name,
                "telemetry_enabled": telemetry_enabled, "payload": payload}
    path = write_result(name, document)
    with open(HISTORY_PATH, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**document, "ts": time.time()},
                                default=float) + "\n")
    print(f"\nwrote {path}")
    args = parse_bench_args(sys.argv[1:] if argv is None else argv)
    if args.json_path == "-":
        print(json.dumps(document, indent=2, default=float))
    elif args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, default=float)
        print(f"wrote {args.json_path}")
    return path


def print_table(title: str, columns: Iterable[str], rows: Iterable[Mapping]) -> None:
    """Print a fixed-width table mirroring the paper's layout."""
    columns = list(columns)
    print(f"\n=== {title} ===")
    header = " | ".join(f"{c:>24}" for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(" | ".join(f"{_format(row.get(c, '')):>24}" for c in columns))


def _format(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-2:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
