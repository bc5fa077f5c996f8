"""The five workloads: frozen operation counts, seeded spec generators, and
the per-run verification every result must pass.

Every timed phase is a *fixed operation count* (rule 2 of the README): the
counts below are sized for ``run_seconds`` of ``BENCHMARK.json`` on the
reference box and scale linearly with ``--seconds``, so two commits measured
with the same command always do identical work.

A *pass* is one cycle over a workload's scenario list (one burst for
``served-burst``).  All inputs derive from ``--seed``; the program under test
only ever sees the generated :class:`~repro.api.spec.ScenarioSpec` objects.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.api import ScenarioSpec, default_registry

#: The ``--seconds`` value the frozen counts below were sized for
#: (``run_seconds`` in BENCHMARK.json; run.py refuses to start if they differ).
NOMINAL_SECONDS = 20

#: The daemon every served workload talks to.
SERVER_CONFIG = {"workers": 1, "backend": "process", "batch_max": 8,
                 "queue_size": 64}

#: Runs submitted back-to-back in one ``served-burst`` operation.
BURST_SIZE = 24

#: ``ServeClient.wait`` arguments.  ``served-short`` uses the client's default
#: poll schedule (0.1 s doubling to 2 s): its over-wait is what that workload
#: measures, and its runs finish well before the first poll.  The other two
#: cannot be kept clear of the default poll instants (rule 6 of the README:
#: a 1.1 s run served at 1.5 s jumps to 3.1 s when the box slows by a third,
#: and a burst's three batches each end within 50 ms of an instant), so they
#: poll every 20 ms and their timings follow the daemon, not a lottery.
DEFAULT_WAIT = {"timeout": 120.0}
FINE_WAIT = {"timeout": 120.0, "poll": 0.02, "poll_cap": 0.02}

#: ``direct-steploop`` step counts: each run is 0.2-1.2 s of pure stepping.
STEPLOOP_STEPS = {
    "dcmesh-pulse": 400, "mesh-hopping": 100, "md-nve": 600,
    "md-langevin": 600, "localmode-switch": 1500, "mlmd-photoswitch": 1500,
    "maxwell-vacuum": 20000,
}

#: name -> frozen counts.  ``passes`` is the timed phase at NOMINAL_SECONDS;
#: ``cold_starts`` is how many fresh interpreters ``setup_s`` is the median
#: of (the workload process itself is the last of them).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "direct-quantum": {
        "served": False, "passes": 18, "cold_starts": 3,
        "scenarios": ["quickstart-tddft", "dcmesh-pulse", "mesh-hopping"],
    },
    "direct-steploop": {
        "served": False, "passes": 6, "cold_starts": 3,
        "scenarios": list(STEPLOOP_STEPS),
    },
    "served-short": {
        "served": True, "passes": 10, "cold_starts": 3, "wait": DEFAULT_WAIT,
        "scenarios": ["maxwell-vacuum", "md-nve", "localmode-switch",
                      "md-langevin", "mlmd-photoswitch"],
    },
    "served-quantum": {
        "served": True, "passes": 6, "cold_starts": 3, "wait": FINE_WAIT,
        "scenarios": ["quickstart-tddft", "dcmesh-pulse", "mesh-hopping"],
    },
    "served-burst": {
        "served": True, "passes": 10, "cold_starts": 3, "wait": FINE_WAIT,
        "scenarios": ["localmode-switch"] * BURST_SIZE,
    },
}


def timed_passes(workload: str, seconds: float) -> int:
    """The fixed pass count of the timed phase for ``--seconds``."""
    frozen = WORKLOADS[workload]["passes"]
    return max(1, round(frozen * float(seconds) / NOMINAL_SECONDS))


def runs_per_pass(workload: str) -> int:
    return len(WORKLOADS[workload]["scenarios"])


class SpecGenerator:
    """Seeded stream of passes; no two draws share a run seed, and the
    direct workloads never repeat a material."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        index = list(WORKLOADS).index(workload)
        self._rng = np.random.default_rng([int(seed), index])
        self._registry = default_registry()

    def _jitter(self, value: float) -> float:
        return float(value) * float(self._rng.uniform(0.9, 1.1))

    def _spec(self, name: str) -> ScenarioSpec:
        base = self._registry.get(name)
        overrides: Dict[str, Any] = {
            "seed": int(self._rng.integers(1, 2**31 - 1)),
        }
        if base.pulse.kind != "none":
            overrides["pulse.e0"] = self._jitter(base.pulse.e0)
        if not WORKLOADS[self.workload]["served"] and base.material.depths:
            # A per-material ground-state cache cannot hit on these.
            overrides["material.depths"] = [
                self._jitter(depth) for depth in base.material.depths
            ]
        if self.workload == "direct-steploop":
            steps = STEPLOOP_STEPS[name]
            overrides["runtime.num_steps"] = steps
            overrides["runtime.record_every"] = steps // 50
        return base.with_overrides(overrides)

    def next_pass(self) -> List[ScenarioSpec]:
        return [self._spec(name) for name in WORKLOADS[self.workload]["scenarios"]]


def verify(outcome, spec: ScenarioSpec) -> Optional[str]:
    """Why ``outcome`` is a failed run, or None when it is a good one.

    Checks truths that do not depend on the build: finiteness, SCF
    convergence, orbital normalisation, NVE energy conservation, and that
    the run recorded exactly the samples its spec asked for.
    """
    if not outcome.ok:
        return f"run failed: {outcome.error}"
    expected = spec.runtime.num_steps // spec.runtime.record_every + 1
    if outcome.num_records != expected:
        return f"{outcome.num_records} records, expected {expected}"
    if not np.all(np.isfinite(outcome.times)):
        return "non-finite times"
    for name, series in outcome.observables.items():
        if not np.all(np.isfinite(series)):
            return f"non-finite observable {name!r}"
    if outcome.metadata.get("scf_converged") is False:
        return "SCF did not converge"
    norms = outcome.observables.get("norms")
    if norms is not None and np.max(np.abs(norms - 1.0)) > 5e-3:
        return f"orbital norms drift {np.max(np.abs(norms - 1.0)):.2e}"
    if spec.name == "md-nve":
        energy = outcome.observables["total_energy"]
        drift = np.max(np.abs(energy - energy[0])) / abs(energy[0])
        if drift > 5e-3:
            return f"NVE total energy drift {drift:.2e}"
    return None


def bit_identical(a, b) -> bool:
    """Same times and the same observables, bit for bit."""
    if not np.array_equal(a.times, b.times):
        return False
    if set(a.observables) != set(b.observables):
        return False
    return all(np.array_equal(a.observables[k], b.observables[k])
               for k in a.observables)
