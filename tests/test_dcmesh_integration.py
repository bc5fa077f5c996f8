"""Integration test of the coupled DC-MESH driver (Maxwell + multi-domain TDDFT)."""

import numpy as np
import pytest

from repro.api import build_engine, default_registry, run_scenario
from repro.dc import DCMESHSimulation
from repro.perf.workspace import KernelWorkspace

#: Long enough for the pulse to cross both domains.
EXCHANGES = 80


@pytest.fixture(scope="module")
def dcmesh_run():
    """Two tiny DC domains coupled to a 1-D Maxwell window with a strong
    pulse (``dcmesh-pulse``), run for EXCHANGES exchanges: the adapter and
    its result."""
    spec = default_registry().get("dcmesh-pulse")
    engine = build_engine(spec, workspace=KernelWorkspace())
    result = engine.run(num_steps=EXCHANGES, record_every=1)
    return engine, result


class TestDCMESH:
    def test_run_produces_consistent_time_series(self, dcmesh_run):
        _, result = dcmesh_run
        assert result.times.shape == (EXCHANGES + 1,)
        assert result.observables["vector_potential"].shape == (EXCHANGES + 1, 2)
        assert result.observables["domain_excitations"].shape == (EXCHANGES + 1, 2)
        assert np.all(np.diff(result.times) > 0)

    def test_pulse_reaches_domains_and_excites_electrons(self, dcmesh_run):
        _, result = dcmesh_run
        excitations = result.observables["domain_excitations"]
        # The vector potential sampled at the first domain must become nonzero
        # once the pulse has propagated there.
        assert np.max(np.abs(result.observables["vector_potential"][:, 0])) > 1e-4
        # The laser drives a nonzero current and a nonzero photo-excitation.
        assert np.max(np.abs(result.observables["domain_currents"])) > 0
        assert np.all(excitations[-1] >= 0.0)
        assert np.max(excitations) > 1e-6

    def test_upstream_domain_sees_pulse_first(self, dcmesh_run):
        _, result = dcmesh_run
        a = np.abs(result.observables["vector_potential"])
        threshold = 0.25 * a.max()
        assert np.all(np.any(a > threshold, axis=0))  # it reaches both
        first_arrival = [int(np.argmax(a[:, d] > threshold)) for d in range(2)]
        assert first_arrival[0] <= first_arrival[1]

    def test_gather_excitations_matches_engines(self, dcmesh_run):
        simulation = dcmesh_run[0].simulation
        gathered = simulation.gather_excitations()
        manual = np.array(
            [e.occupations.excitation_number() for e in simulation.domain_engines]
        )
        assert np.allclose(gathered, manual)

    def test_configuration_validation(self, dcmesh_run):
        simulation = dcmesh_run[0].simulation
        with pytest.raises(ValueError):
            DCMESHSimulation(
                domain_engines=simulation.domain_engines[:1],
                coupler=simulation.coupler,
                pulse=simulation.pulse,
                qd_steps_per_exchange=5,
            )
        with pytest.raises(ValueError):
            DCMESHSimulation(
                domain_engines=simulation.domain_engines,
                coupler=simulation.coupler,
                pulse=simulation.pulse,
                qd_steps_per_exchange=7,  # inconsistent with the Maxwell dt
            )
        with pytest.raises(ValueError):
            run_scenario(default_registry().get("dcmesh-pulse"), num_steps=0)
