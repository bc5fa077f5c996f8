"""Cross-run regression checks: conservation drift, cohort drift, bench
trajectories — read straight from the files runs and benchmarks write.

This module is the single source of the repo's **tolerance-tier vocabulary**
(:data:`TOLERANCE_TIERS`) — the golden tests import it from here, so the CI
regression gate and the golden suite can never disagree about what
``standard`` means.

Three checks, all pure functions over plain dicts so they are equally usable
from Python, the ``repro analytics regress``/``bench`` CLI (``regress`` exits
1 when violations exist — the CI gate), and tests:

* :func:`conservation_violations` — per run, is a series flat to within its
  tier?  (energy drift, norm loss, charge non-conservation).
* :func:`cohort_violations` — per run, is a run-level statistic within the
  tier band of the cohort median?  Catches a run that silently diverged from
  its peers even when each run is internally self-consistent.
* :func:`bench_trajectory` — per bench metric, the time-ordered value
  sequence plus the latest-vs-best ratio, for spotting performance decay
  across the ``repro-bench/1`` history ``benchmarks/common.py`` appends to.

:func:`load_results` reads the RunResult dicts the first two take from the
JSON files ``repro run/batch --json`` and ``repro serve`` write.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional

import numpy as np

#: rtol/atol per tier.  ``exact`` is for integer-valued or analytically
#: pinned series; ``standard`` absorbs reordered-reduction noise (different
#: SIMD/BLAS builds); ``loose`` is for trajectories that amplify roundoff
#: (chaotic MD, surface hopping, thermostatted dynamics).  The golden tests
#: (tests/test_golden.py) import these — edit here, not there.
TOLERANCE_TIERS: Dict[str, Dict[str, float]] = {
    "exact": {"rtol": 0.0, "atol": 0.0},
    "standard": {"rtol": 1e-6, "atol": 1e-9},
    "loose": {"rtol": 1e-2, "atol": 1e-5},
}


def tier_bounds(tier: str) -> Dict[str, float]:
    if tier not in TOLERANCE_TIERS:
        raise ValueError(
            f"unknown tolerance tier {tier!r} (known: "
            f"{sorted(TOLERANCE_TIERS)})"
        )
    return TOLERANCE_TIERS[tier]


def _within(value: float, reference: float, rtol: float, atol: float) -> bool:
    if not (np.isfinite(value) and np.isfinite(reference)):
        return False
    return abs(value - reference) <= atol + rtol * abs(reference)


# ----------------------------------------------------------------------
# Reading results
# ----------------------------------------------------------------------
def _is_result(document: Any) -> bool:
    return isinstance(document, Mapping) and "times" in document \
        and "observables" in document and "scenario" in document


def run_id_of(result: Mapping[str, Any],
              wrapper: Optional[Mapping[str, Any]] = None) -> str:
    """Best run id for a result: the serve wrapper's ``run_id``, then the
    executor stamp ``metadata.executor.run_id``, then a content hash (so
    hand-rolled dumps still get a stable id)."""
    if wrapper is not None and wrapper.get("run_id"):
        return str(wrapper["run_id"])
    executor = dict(result.get("metadata", {})).get("executor") or {}
    if executor.get("run_id"):
        return str(executor["run_id"])
    canon = json.dumps(result, sort_keys=True, default=str)
    return "sha-" + hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def load_results(paths: Iterable[Any]) -> Dict[str, Dict[str, Any]]:
    """RunResult dicts by run id, from JSON files or directories of them.

    A file holds a bare RunResult, a batch array (``repro batch --json``),
    or a serve outcome ``{"run_id": ..., "ok": {...}}`` (a daemon's
    ``results/`` directory).  Failures and unrelated JSON are skipped; a
    run id seen twice counts once.  A missing path is a ``ValueError``.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        elif path.is_file():
            files.append(path)
        else:
            raise ValueError(f"no such file or directory: {path}")
    results: Dict[str, Dict[str, Any]] = {}
    for path in files:
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            continue
        for entry in document if isinstance(document, list) else [document]:
            wrapper = None
            if isinstance(entry, Mapping) and _is_result(entry.get("ok")):
                wrapper, entry = entry, entry["ok"]
            if _is_result(entry):
                results.setdefault(run_id_of(entry, wrapper), entry)
    return results


def _observables(result: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    times = np.asarray(result.get("times", []), dtype=float)
    observables = {
        str(name): np.asarray(series, dtype=float)
        for name, series in dict(result.get("observables", {})).items()
    }
    for name, series in observables.items():
        if series.shape[:1] != times.shape:
            raise ValueError(
                f"observable {name!r} has {series.shape[:1]} records, "
                f"expected {times.size} to match times"
            )
    return observables


def series_columns(result: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """One value per record for every checkable series of a result.

    A scalar observable is its own column (named verbatim); an observable
    with extra axes (per-atom positions, per-domain currents) is reduced per
    record to ``<name>.l2``, ``<name>.mean`` and ``<name>.absmax``.
    """
    columns: Dict[str, np.ndarray] = {}
    for name, series in sorted(_observables(result).items()):
        if series.ndim == 1:
            columns[name] = series
            continue
        n = series.shape[0]
        per_record = series.reshape(n, -1) if n else series.reshape(0, 1)
        with np.errstate(invalid="ignore"):
            columns[f"{name}.l2"] = np.sqrt(np.nansum(per_record ** 2, axis=1))
            columns[f"{name}.mean"] = np.nanmean(per_record, axis=1) \
                if per_record.shape[1] else np.full(n, np.nan)
            columns[f"{name}.absmax"] = np.nanmax(np.abs(per_record), axis=1) \
                if per_record.shape[1] else np.full(n, np.nan)
    return columns


def run_summaries(result: Mapping[str, Any]) -> Dict[str, float]:
    """Whole-run ``obs.<name>.mean|absmax|l2|final`` of every observable
    (the values :func:`cohort_violations` compares across runs)."""
    out: Dict[str, float] = {}
    for name, values in sorted(_observables(result).items()):
        flat = values.ravel()
        finite = flat[np.isfinite(flat)]
        final = values[-1].ravel() if len(values) else np.empty(0)
        out[f"obs.{name}.mean"] = float(finite.mean()) if finite.size \
            else float("nan")
        out[f"obs.{name}.absmax"] = float(np.abs(finite).max()) \
            if finite.size else float("nan")
        out[f"obs.{name}.l2"] = float(np.sqrt(np.sum(finite ** 2))) \
            if finite.size else 0.0
        out[f"obs.{name}.final"] = float(final[0]) if final.size == 1 else (
            float(np.sqrt(np.sum(final[np.isfinite(final)] ** 2)))
            if final.size else float("nan")
        )
    return out


def _of_scenario(results: Mapping[str, Mapping[str, Any]],
                 scenario: str) -> Dict[str, Mapping[str, Any]]:
    runs = {run_id: result for run_id, result in results.items()
            if str(result.get("scenario", "")) == scenario}
    if not runs:
        raise ValueError(f"no {scenario!r} results among {len(results)} "
                         "loaded run(s)")
    return runs


def _column_per_run(runs: Mapping[str, Mapping[str, Any]], column: str,
                    table) -> Dict[str, Any]:
    """``table(result)[column]`` per run; NaN where a run lacks it, a
    ``KeyError`` when no run has it."""
    tables = {run_id: table(result) for run_id, result in runs.items()}
    if not any(column in t for t in tables.values()):
        known = sorted({name for t in tables.values() for name in t})
        raise KeyError(f"unknown column {column!r} (known: {known})")
    return {run_id: t.get(column, np.nan) for run_id, t in tables.items()}


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
def conservation_violations(results: Mapping[str, Mapping[str, Any]],
                            scenario: str, series: str,
                            tier: str = "standard",
                            ) -> List[Dict[str, Any]]:
    """Runs whose ``series`` drifts from its own first sample beyond ``tier``.

    ``results`` maps run id to RunResult dict (:func:`load_results`).  A
    conserved quantity (total energy, norm, topological charge) should
    satisfy ``|x_t - x_0| <= atol + rtol * |x_0|`` for every record.  A
    non-finite sample is itself a violation and the worst one; a non-finite
    first sample leaves nothing to compare against, so every record
    violates.  Each violating run yields one report row with the worst
    offending sample.
    """
    bounds = tier_bounds(tier)
    rtol, atol = bounds["rtol"], bounds["atol"]
    runs = _of_scenario(results, scenario)
    columns = _column_per_run(runs, series, series_columns)
    violations: List[Dict[str, Any]] = []
    for run_id in sorted(runs):
        times = np.asarray(runs[run_id].get("times", []), dtype=float)
        values = np.broadcast_to(columns[run_id], times.shape)
        if not values.size:
            continue
        reference = float(values[0])
        with np.errstate(invalid="ignore"):  # inf - inf: flagged below
            drift = np.abs(values - reference)
        allowed = atol + rtol * abs(reference)
        nonfinite = ~np.isfinite(values)
        if nonfinite[0]:
            bad = np.ones(values.shape, dtype=bool)
        else:
            bad = (drift > allowed) | nonfinite
        if not bad.any():
            continue
        worst = int(np.argmax(nonfinite)) if nonfinite.any() \
            else int(np.argmax(np.where(bad, drift, -np.inf)))
        violations.append({
            "scenario": scenario,
            "run_id": run_id,
            "series": series,
            "tier": tier,
            "reference": reference,
            "worst_value": float(values[worst]),
            "worst_drift": float(drift[worst]),
            "allowed": float(allowed),
            "worst_row": worst,
            "worst_t": float(times[worst]),
            "violating_records": int(bad.sum()),
            "records": int(values.size),
        })
    return violations


def cohort_violations(results: Mapping[str, Mapping[str, Any]],
                      scenario: str, column: str, tier: str = "standard",
                      ) -> List[Dict[str, Any]]:
    """Runs whose run-level ``column`` falls outside the cohort median band.

    ``column`` is a :func:`run_summaries` name (``obs.<name>.mean`` or
    ``.final``, ...).  Runs are grouped into cohorts by engine, so reference
    and optimized engines are judged against their own peers; within each
    cohort every run is compared to the cohort median with the tier's
    rtol/atol.  Cohorts of fewer than three runs are skipped — a median of
    two is just an average of disagreement.
    """
    bounds = tier_bounds(tier)
    rtol, atol = bounds["rtol"], bounds["atol"]
    runs = _of_scenario(results, scenario)
    values = _column_per_run(runs, column, run_summaries)
    cohorts: Dict[str, List[str]] = {}
    for run_id in runs:  # load order, the order a report lists them in
        cohorts.setdefault(str(runs[run_id].get("engine", "?")),
                           []).append(run_id)
    violations: List[Dict[str, Any]] = []
    for engine in sorted(cohorts):
        cohort = np.asarray([values[r] for r in cohorts[engine]], dtype=float)
        finite = cohort[np.isfinite(cohort)]
        if finite.size < 3:
            continue
        median = float(np.median(finite))
        for run_id, value in zip(cohorts[engine], cohort):
            if _within(float(value), median, rtol, atol):
                continue
            violations.append({
                "scenario": scenario,
                "run_id": run_id,
                "column": column,
                "tier": tier,
                "cohort": {"engine": engine},
                "cohort_size": int(finite.size),
                "median": median,
                "value": float(value),
                "deviation": float(abs(float(value) - median)),
                "allowed": float(atol + rtol * abs(median)),
            })
    return violations


def _numeric_leaves(mapping: Mapping[str, Any], prefix: str = "",
                    ) -> Dict[str, float]:
    """Dotted-path numeric (bool included) leaves of a nested mapping."""
    out: Dict[str, float] = {}
    for key, value in mapping.items():
        if isinstance(value, Mapping):
            out.update(_numeric_leaves(value, prefix=f"{prefix}{key}."))
        elif isinstance(value, (bool, int, float)):
            out[f"{prefix}{key}"] = float(value)
    return out


def bench_trajectory(history, bench: Optional[str] = None,
                     metric: Optional[str] = None) -> List[Dict[str, Any]]:
    """Time-ordered metric trajectories from a ``history.ndjson`` file.

    ``history`` holds one ``repro-bench/1`` document per line (what
    ``benchmarks/common.py::finish`` appends); other lines are skipped.  One
    report row per (bench, payload metric) pair: the value sequence sorted
    by ``ts`` (NaN where an invocation lacked the metric), plus
    latest/best/worst so a human reading JSON can spot a performance metric
    decaying across commits.  A missing file is a ``ValueError``.
    """
    path = Path(history)
    if not path.is_file():
        raise ValueError(f"no such file: {path}")
    documents: Dict[str, List[Dict[str, Any]]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            try:
                document = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(document, Mapping) \
                    or document.get("schema") != "repro-bench/1":
                continue
            name = str(document.get("bench", "?"))
            if bench and name != str(bench):
                continue
            payload = document.get("payload")
            documents.setdefault(name, []).append({
                "ts": float(document.get("ts", 0.0) or 0.0),
                "metrics": _numeric_leaves(
                    payload if isinstance(payload, Mapping) else {}),
            })
    out: List[Dict[str, Any]] = []
    for name in sorted(documents):
        docs = sorted(documents[name], key=lambda d: d["ts"])
        names = sorted({m for d in docs for m in d["metrics"]})
        for metric_name in names:
            if metric is not None and metric != metric_name:
                continue
            series = np.asarray([d["metrics"].get(metric_name, np.nan)
                                 for d in docs], dtype=float)
            finite = series[np.isfinite(series)]
            if not finite.size:
                continue
            out.append({
                "bench": name,
                "metric": metric_name,
                "samples": int(finite.size),
                "values": [float(v) for v in series.tolist()],
                "ts": [d["ts"] for d in docs],
                "latest": float(finite[-1]),
                "best": float(finite.min()),
                "worst": float(finite.max()),
            })
    return out
