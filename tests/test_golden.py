"""Cross-scenario golden regression fixture.

Every registered scenario's default run is frozen as a compact digest —
shape, dtype and SHA-256 of the raw bytes of ``times`` and of each recorded
observable series — in ``tests/golden/<scenario>.json``.  The test reruns the
scenario and asserts the digests match bit-for-bit, so a perf refactor that
silently drifts the physics (a reordered reduction, a dropped term, a changed
RNG stream) fails loudly instead of shipping.

Digests are environment-stamped: bit-identical floating point is only
guaranteed on the numpy/BLAS build that wrote the fixture.  On a matching
environment a digest mismatch is a hard failure — reruns in one environment
are exactly reproducible by construction (every stochastic component draws
from the spec's seeded streams).

On a *different* environment the fixtures fall back to **numeric-tolerance
tiers** instead of skipping: each fixture also freezes a per-series numeric
summary (l2 norm, mean, absmax, final sample), and every series carries a
tolerance tier (``exact`` / ``standard`` / ``loose``, see ``SERIES_TIERS``)
chosen by how much legitimate cross-BLAS drift its physics can accumulate;
per-orbital ``norms`` are summarised through their sum over orbitals, which
does not depend on the gauge inside a degenerate subspace.
A second BLAS build can therefore *run* the golden job and still catch real
regressions; only fixtures predating the summaries skip.

Regenerate after an *intentional* physics change::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict

import numpy as np
import pytest
import scipy

from repro.api import RunResult, default_registry, run_scenario

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def environment_fingerprint() -> Dict[str, str]:
    """What bit-identity across machines legitimately depends on.

    Python is fingerprinted at major.minor (patch releases don't change
    float semantics); numpy exactly (its SIMD kernels do); scipy exactly (its
    bundled LAPACK does the ground-state eigensolve); and the OpenBLAS thread
    count (``"default"`` when unset), which changes how BLAS blocks its
    reductions — the quantum digests differ between one thread and the
    default.  CI pins its golden job to this fixture environment so the
    digests stay *binding* there — the tolerance-tier fallback below is for
    every other environment, not an escape hatch for CI.
    """
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(platform.python_version_tuple()[:2]),
        "machine": platform.machine(),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def _array_digest(array: np.ndarray) -> Dict[str, Any]:
    array = np.ascontiguousarray(array)
    return {
        "shape": list(array.shape),
        "dtype": str(array.dtype),
        "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
    }


# ----------------------------------------------------------------------
# Tolerance tiers (the cross-environment fallback)
# ----------------------------------------------------------------------
#: rtol/atol per tier.  Single-sourced from the analytics subsystem so the
#: golden suite and the ``repro analytics regress`` CI gate can never
#: disagree about what ``standard`` means.
from repro.analytics.regress import TOLERANCE_TIERS  # noqa: E402

#: Tier overrides per ``(scenario, series)``; ``(scenario, "*")`` covers all
#: series of one scenario; anything unlisted uses ``standard``.  ``times``
#: is always ``exact`` — the clock is arithmetic, not physics.
SERIES_TIERS: Dict[tuple, str] = {
    # Chaotic classical trajectories: Lyapunov growth amplifies any
    # cross-build ulp difference.
    ("md-nve", "*"): "loose",
    ("md-langevin", "*"): "loose",
    # Branchy stochastic hopping: one flipped hop rescales whole series.
    ("mesh-hopping", "*"): "loose",
    # Noise-driven lattice dynamics on a BLAS-dependent relaxed texture.
    ("localmode-switch", "*"): "loose",
    ("mlmd-photoswitch", "*"): "loose",
    # Topological charge is near-integer-valued; keep it meaningfully tight.
    ("localmode-switch", "topological_charge"): "standard",
    ("mlmd-photoswitch", "topological_charge"): "standard",
}


def series_tier(scenario: str, series: str) -> str:
    if series == "times":
        return "exact"
    for key in ((scenario, series), (scenario, "*")):
        if key in SERIES_TIERS:
            return SERIES_TIERS[key]
    return "standard"


def _array_summary(array: np.ndarray) -> Dict[str, Any]:
    array = np.asarray(array, dtype=float)
    finite = array[np.isfinite(array)]
    return {
        "l2": float(np.sqrt(np.sum(finite ** 2))) if finite.size else 0.0,
        "mean": float(finite.mean()) if finite.size else 0.0,
        "absmax": float(np.abs(finite).max()) if finite.size else 0.0,
        "final": np.asarray(array[-1]).ravel()[:8].tolist()
        if array.size else [],
    }


def result_summary(result: RunResult) -> Dict[str, Any]:
    summary = {"times": _array_summary(result.times)}
    for name, series in sorted(result.observables.items()):
        if name == "norms":
            # Rotations inside a degenerate orbital subspace (the top pair of
            # quickstart-tddft) are gauge-free, so per-orbital norms depend on
            # the BLAS build and thread count (1.25e-6 apart between one
            # thread and the default); their per-record sum over orbitals,
            # a subspace invariant, does not (1.7e-12).
            series = np.sum(series, axis=-1)
        summary[name] = _array_summary(series)
    return summary


def _compare_summaries(scenario: str, stored: Dict[str, Any],
                       fresh: Dict[str, Any]) -> Dict[str, str]:
    """Per-series tier comparison; returns {series: problem} for failures."""
    problems: Dict[str, str] = {}
    for name in sorted(set(stored) | set(fresh)):
        if name not in stored or name not in fresh:
            problems[name] = "series appeared/vanished"
            continue
        tier = series_tier(scenario, name)
        tolerance = TOLERANCE_TIERS[tier]
        for stat in ("l2", "mean", "absmax"):
            if not np.isclose(fresh[name][stat], stored[name][stat],
                              rtol=tolerance["rtol"], atol=tolerance["atol"],
                              equal_nan=True):
                problems[name] = (
                    f"{stat}: {fresh[name][stat]!r} vs stored "
                    f"{stored[name][stat]!r} (tier {tier!r})"
                )
                break
        else:
            got = np.asarray(fresh[name]["final"], dtype=float)
            want = np.asarray(stored[name]["final"], dtype=float)
            if got.shape != want.shape or not np.allclose(
                    got, want, rtol=tolerance["rtol"],
                    atol=tolerance["atol"], equal_nan=True):
                problems[name] = f"final sample drifted (tier {tier!r})"
    return problems


def result_digest(result: RunResult) -> Dict[str, Any]:
    return {
        "scenario": result.scenario,
        "engine": result.engine,
        "num_records": result.num_records,
        "times": _array_digest(result.times),
        "observables": {
            name: _array_digest(series)
            for name, series in sorted(result.observables.items())
        },
    }


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def run_default(name: str) -> RunResult:
    return run_scenario(default_registry().get(name))


@pytest.mark.parametrize("name", default_registry().names())
def test_scenario_matches_golden_digest(name):
    path = golden_path(name)
    assert path.exists(), (
        f"no golden fixture for scenario {name!r}; generate it with "
        f"`PYTHONPATH=src python {Path(__file__).name} --write`"
    )
    stored = json.loads(path.read_text(encoding="utf-8"))
    result = run_default(name)
    fresh = result_digest(result)
    if fresh == stored["digest"]:
        return
    local_env = environment_fingerprint()
    if local_env != stored["environment"]:
        if "summary" not in stored:
            pytest.skip(
                f"digest mismatch on a different environment "
                f"(fixture: {stored['environment']}, local: {local_env}) "
                "and the fixture predates numeric summaries; regenerate "
                "with --write to enable tolerance-tier checking"
            )
        # Tolerance-tier fallback: bit-identity is only frozen per
        # environment, but the physics must still agree within each
        # series' tier on any BLAS build.
        problems = _compare_summaries(
            name, stored["summary"], result_summary(result)
        )
        if problems:
            raise AssertionError(
                f"scenario {name!r} drifted beyond its tolerance tiers on a "
                f"different environment (fixture: {stored['environment']}, "
                f"local: {local_env}): {problems}"
            )
        return
    drifted = sorted(
        key for key in set(fresh["observables"]) | set(stored["digest"]["observables"])
        if fresh["observables"].get(key) != stored["digest"]["observables"].get(key)
    )
    raise AssertionError(
        f"scenario {name!r} drifted from its golden digest "
        f"(observables changed: {drifted or ['<times/meta>']}); if the "
        "physics change is intentional, regenerate with --write"
    )


def test_golden_covers_every_registered_scenario():
    names = set(default_registry().names())
    stored = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert names <= stored, f"missing golden fixtures: {sorted(names - stored)}"
    assert stored <= names, f"stale golden fixtures: {sorted(stored - names)}"


def test_every_series_has_a_known_tier():
    for (scenario, series), tier in SERIES_TIERS.items():
        assert tier in TOLERANCE_TIERS, (scenario, series, tier)
        assert scenario in default_registry().names(), scenario


def write_golden() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    env = environment_fingerprint()
    for name in default_registry().names():
        result = run_default(name)
        payload = {
            "environment": env,
            "digest": result_digest(result),
            "summary": result_summary(result),
        }
        golden_path(name).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {golden_path(name)}")


if __name__ == "__main__":
    if "--write" in sys.argv:
        write_golden()
    else:
        print(__doc__)
