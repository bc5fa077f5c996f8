"""The ground-state cache in :class:`~repro.perf.workspace.KernelWorkspace`.

A quantum run's ``prepare`` solves the Kohn-Sham SCF; a repeat of the same
SCF problem on the same workspace replays the cached solution instead.  The
contract checked here:

* **bit-identity** — a hit, a miss and a fresh-workspace run produce the
  same times, observables and ``scf_*`` metadata, including a run resumed
  from a mid-run snapshot whose ``prepare`` hits;
* **the key** — what the solve reads (the material's wells, the SCF
  settings) misses when it changes; what it does not read (``seed``,
  ``pulse``) hits;
* **no aliasing** — cached arrays are read-only and every caller gets
  copies, so writing into one run's orbitals or potentials cannot reach the
  next;
* **bounds and sharing** — an 8-entry LRU that ``clear()`` empties, shared by
  ``BatchRunner`` runs and by inline ``ExecutionService`` runs.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.api import BatchRunner, ExecutionService, default_registry, run_scenario
from repro.api import executor
from repro.api.adapters import _ground_state, build_engine
from repro.perf.workspace import GROUND_STATE_ENTRIES, KernelWorkspace
from repro.qd.hamiltonian import gaussian_external_potential

from test_api import smoke_spec
from test_checkpoint import assert_results_bit_identical

QUANTUM = ("quickstart-tddft", "dcmesh-pulse", "mesh-hopping")


def scf_metadata(result):
    """The ``scf_*`` facts of a run, minus the hit/miss flag itself."""
    return {k: v for k, v in result.metadata.items()
            if k.startswith("scf_") and k != "scf_cache"}


def ground_state_counts(workspace):
    stats = workspace.stats
    return stats["ground_state_hits"], stats["ground_state_misses"]


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------
class TestHitEqualsMiss:
    @pytest.mark.parametrize("name", QUANTUM)
    def test_hit_equals_miss_equals_fresh_workspace(self, name):
        spec = default_registry().get(name)
        workspace = KernelWorkspace()
        miss = run_scenario(spec, workspace=workspace)
        hit = run_scenario(spec, workspace=workspace)
        fresh = run_scenario(spec, workspace=KernelWorkspace())
        assert (miss.metadata["scf_cache"], hit.metadata["scf_cache"],
                fresh.metadata["scf_cache"]) == ("miss", "hit", "miss")
        assert ground_state_counts(workspace) == (1, 1)
        for other in (hit, fresh):
            assert_results_bit_identical(miss, other)
            assert scf_metadata(other) == scf_metadata(miss)
        assert scf_metadata(miss)["scf_iterations"] > 0

    @pytest.mark.parametrize("name", QUANTUM)
    def test_resume_whose_prepare_hits_is_bit_identical(self, name):
        spec = smoke_spec(name, num_steps=4)
        workspace = KernelWorkspace()
        snapshots = []
        full = run_scenario(spec, workspace=workspace, checkpoint_every=2,
                            on_checkpoint=snapshots.append)
        engine = build_engine(spec, workspace=workspace)
        resumed = engine.resume(snapshots[0])
        assert resumed.metadata["scf_cache"] == "hit"
        assert ground_state_counts(workspace) == (1, 1)
        assert_results_bit_identical(full, resumed)


# ----------------------------------------------------------------------
# The key: what the solve reads, not the spec
# ----------------------------------------------------------------------
class TestKey:
    @pytest.mark.parametrize("name", ("dcmesh-pulse", "mesh-hopping"))
    @pytest.mark.parametrize("change,expected", [
        (lambda spec: {"material.depths":
                       [d * 1.001 for d in spec.material.depths]}, "miss"),
        (lambda spec: {"material.scf_tolerance":
                       spec.material.scf_tolerance / 2}, "miss"),
        (lambda spec: {"seed": spec.seed + 1}, "hit"),
        (lambda spec: {"pulse.e0": spec.pulse.e0 * 2}, "hit"),
    ], ids=["depths", "scf_tolerance", "seed", "pulse.e0"])
    def test_what_the_solve_reads_decides(self, name, change, expected):
        spec = smoke_spec(name, num_steps=1)
        workspace = KernelWorkspace()
        run_scenario(spec, workspace=workspace)
        other = run_scenario(spec.with_overrides(change(spec)),
                             workspace=workspace)
        assert other.metadata["scf_cache"] == expected
        assert workspace.stats["ground_state_entries"] == (
            1 if expected == "hit" else 2)


# ----------------------------------------------------------------------
# No aliasing
# ----------------------------------------------------------------------
class TestNoAliasing:
    def ground_state(self, workspace):
        spec = default_registry().get("dcmesh-pulse")
        material = spec.material
        grid = spec.grid.build()
        v_ext = gaussian_external_potential(
            grid, material.centers, material.depths, material.widths)
        return _ground_state(spec, grid, v_ext, {}, workspace)

    def test_cached_arrays_are_read_only(self):
        workspace = KernelWorkspace()
        self.ground_state(workspace)
        [(entry, potentials)] = workspace._ground_states._data.values()
        for array in (entry.wavefunctions.psi, entry.eigenvalues,
                      entry.density, *potentials.values()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_writes_into_a_hit_never_reach_the_next_hit(self):
        reference_h, reference = self.ground_state(KernelWorkspace())
        workspace = KernelWorkspace()
        for _ in range(2):  # the miss, then a hit: scribble over both
            hamiltonian, scf = self.ground_state(workspace)
            for array in (scf.wavefunctions.psi, scf.eigenvalues, scf.density,
                          hamiltonian.hartree, hamiltonian.xc_potential,
                          hamiltonian._xc_energy_density):
                array[...] = 7.0
        hamiltonian, scf = self.ground_state(workspace)
        assert ground_state_counts(workspace) == (2, 1)
        np.testing.assert_array_equal(scf.wavefunctions.psi,
                                      reference.wavefunctions.psi)
        np.testing.assert_array_equal(scf.eigenvalues, reference.eigenvalues)
        np.testing.assert_array_equal(scf.density, reference.density)
        for name, array in reference_h.potentials_state().items():
            np.testing.assert_array_equal(
                hamiltonian.potentials_state()[name], array, err_msg=name)


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
class TestBounds:
    def test_lru_holds_eight_entries_and_clear_empties_it(self):
        workspace = KernelWorkspace()
        solved = []

        def solver(key):
            return lambda: solved.append(key) or ("entry", key)

        for key in range(GROUND_STATE_ENTRIES + 2):
            assert workspace.ground_state(key, solver(key)) == (
                ("entry", key), False)
        assert GROUND_STATE_ENTRIES == 8
        assert workspace.stats["ground_state_entries"] == 8
        # The two oldest were evicted; the newest is still there.
        assert workspace.ground_state(9, solver(9)) == (("entry", 9), True)
        assert workspace.ground_state(0, solver(0)) == (("entry", 0), False)
        assert solved == list(range(10)) + [0]


# ----------------------------------------------------------------------
# Sharing: BatchRunner and the inline executor
# ----------------------------------------------------------------------
class TestSharing:
    def specs(self):
        return [smoke_spec("dcmesh-pulse", num_steps=2, seed=seed)
                for seed in (1, 2)]

    def test_batch_runner_solves_one_material_once(self):
        specs = self.specs()
        results = BatchRunner().run(specs)
        assert [r.metadata["scf_cache"] for r in results] == ["miss", "hit"]
        stats = results[-1].metadata["workspace_stats"]
        assert (stats["ground_state_hits"], stats["ground_state_misses"]) \
            == (1, 1)
        for spec, result in zip(specs, results):
            assert_results_bit_identical(
                run_scenario(spec, workspace=KernelWorkspace()), result)

    def test_inline_executor_runs_share_the_cache(self, monkeypatch):
        monkeypatch.setattr(executor, "_WORKER_WORKSPACE", None)
        service = ExecutionService(workers=0, max_retries=0)
        outcomes = [service.run([spec])[0] for spec in self.specs()]
        assert all(outcome.ok for outcome in outcomes)
        assert [o.metadata["scf_cache"] for o in outcomes] == ["miss", "hit"]
        stats = outcomes[-1].metadata["workspace_stats"]
        assert (stats["ground_state_hits"], stats["ground_state_misses"]) \
            == (1, 1)

    def test_racing_threads_store_one_identical_entry(self):
        # More threads than cores and a short switch interval: a race
        # between the lookup and the store must still leave one entry, and
        # every thread the same run.  (The hit/miss counters are best-effort
        # under contention, so they are not asserted.)
        spec = smoke_spec("dcmesh-pulse", num_steps=2)
        reference = run_scenario(spec, workspace=KernelWorkspace())
        workspace = KernelWorkspace()
        barrier = threading.Barrier(4)
        results = [None] * 4

        def run(slot):
            barrier.wait(timeout=30)
            results[slot] = run_scenario(spec, workspace=workspace)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result in results:
            assert_results_bit_identical(reference, result)
        assert "miss" in {r.metadata["scf_cache"] for r in results}
        assert workspace.stats["ground_state_entries"] == 1
