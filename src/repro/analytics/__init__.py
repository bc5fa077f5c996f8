"""Cross-run regression checks and daemon stats, read from result files.

* :mod:`repro.analytics.regress` — conservation/cohort drift checks over
  RunResult JSON with the repo's tolerance-tier vocabulary (single source:
  golden tests import it from here), and bench-metric trajectories read
  from ``benchmarks/results/history.ndjson``.
* :mod:`repro.analytics.stats` — daemon/store observability snapshots and
  the text dashboard.

Entry points: the functions below in Python, ``repro analytics
regress|bench|dashboard`` on the command line, and the daemon's
``/v1/stats`` endpoint.
"""

from repro.analytics.regress import (
    TOLERANCE_TIERS,
    bench_trajectory,
    cohort_violations,
    conservation_violations,
    load_results,
)
from repro.analytics.stats import render_dashboard, store_stats

__all__ = [
    "TOLERANCE_TIERS",
    "bench_trajectory",
    "cohort_violations",
    "conservation_violations",
    "load_results",
    "render_dashboard",
    "store_stats",
]
