"""Implementation of the ``repro analytics`` CLI subcommands.

Argument wiring lives in :mod:`repro.api.cli` (the one front door); the
behaviour lives here with the subsystem it operates on.

Subcommands::

    repro analytics regress PATH... SCENARIO ...  the CI regression gate
    repro analytics bench HISTORY [--bench B]     repro-bench trajectories
    repro analytics dashboard [ROOT | --live]     stats snapshot

Exit codes follow the repo convention (:mod:`repro.store.cliutil`): 0 on
success, **1 when ``regress`` finds violations** (the gate), 2 on usage or
state errors.  ``dashboard`` reads a live daemon's ``/v1/stats`` when given
``--live``, else scans the root offline.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.analytics.regress import bench_trajectory, cohort_violations, \
    conservation_violations, load_results
from repro.analytics.stats import render_dashboard, store_stats
from repro.store.cliutil import subcommand_errors

#: Analytics faults become one-line stderr diagnostics and exit 2 — the same
#: error path the store CLI uses (repro.store.cliutil).
_analytics_errors = subcommand_errors(ValueError, KeyError)


@_analytics_errors
def cmd_regress(paths: Sequence[str], scenario: str,
                series: Sequence[str] = (), tier: str = "standard",
                cohort: Sequence[str] = (), as_json: bool = False) -> int:
    """The CI gate: exit 1 when any conservation/cohort violation exists."""
    if not series and not cohort:
        raise ValueError(
            "regress needs at least one --series (conservation check) "
            "or --cohort (cohort-median check) column"
        )
    results = load_results(paths)
    violations = []
    for name in series:
        violations.extend(
            conservation_violations(results, scenario, name, tier=tier)
        )
    for column in cohort:
        violations.extend(
            cohort_violations(results, scenario, column, tier=tier)
        )
    if as_json:
        print(json.dumps({"scenario": scenario, "tier": tier,
                          "violations": violations}, indent=2))
    elif not violations:
        checked = ", ".join([*series, *cohort])
        print(f"ok: {scenario} passed {tier!r}-tier regression checks "
              f"({checked})")
    else:
        print(f"REGRESSION: {len(violations)} violation(s) in {scenario} "
              f"at tier {tier!r}:")
        for violation in violations:
            if "series" in violation:
                print(f"  run {violation['run_id']}: "
                      f"{violation['series']} drifted "
                      f"{violation['worst_drift']:.3e} "
                      f"(allowed {violation['allowed']:.3e}) "
                      f"at t={violation['worst_t']:g} "
                      f"[{violation['violating_records']}"
                      f"/{violation['records']} records]")
            else:
                print(f"  run {violation['run_id']}: "
                      f"{violation['column']} = {violation['value']:.6g} "
                      f"vs cohort median {violation['median']:.6g} "
                      f"(allowed deviation {violation['allowed']:.3e}, "
                      f"cohort of {violation['cohort_size']})")
    return 1 if violations else 0


@_analytics_errors
def cmd_bench(history, bench: Optional[str] = None,
              metric: Optional[str] = None, as_json: bool = False) -> int:
    trajectories = bench_trajectory(history, bench=bench, metric=metric)
    if as_json:
        print(json.dumps(trajectories, indent=2))
        return 0
    if not trajectories:
        print(f"no repro-bench/1 documents in {history}")
        return 0
    for row in trajectories:
        print(f"{row['bench']} :: {row['metric']} "
              f"({row['samples']} sample(s))")
        print(f"  latest {row['latest']:.6g}   best {row['best']:.6g}   "
              f"worst {row['worst']:.6g}")
        tail = row["values"][-8:]
        print("  trail  " + "  ".join(f"{v:.4g}" for v in tail))
    return 0


@_analytics_errors
def cmd_dashboard(serve_root=None, host: Optional[str] = None,
                  port: Optional[int] = None, timeout: float = 10.0,
                  as_json: bool = False) -> int:
    if host is not None:
        from repro.api.client import ServeClient

        client = ServeClient(
            host=host, **({} if port is None else {"port": port}),
            timeout=timeout,
        )
        stats = client.stats()
    elif serve_root is not None:
        stats = {"store": store_stats(serve_root)}
    else:
        raise ValueError(
            "dashboard needs a serve root or --live (query a daemon)"
        )
    if as_json:
        print(json.dumps(stats, indent=2))
    else:
        print(render_dashboard(stats))
    return 0
