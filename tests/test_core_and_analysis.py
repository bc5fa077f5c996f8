"""Tests for DCR orchestration, the MLMD pipeline, and analysis helpers."""

import numpy as np
import pytest

from repro.analysis import absorption_spectrum, dipole_strength_function, energy_drift, norm_drift
from repro.analysis.conservation import momentum_drift
from repro.api import default_registry, run_scenario
from repro.core import (
    DCRDecomposition,
    HardwareUnit,
    MLMDPipeline,
    Subproblem,
)
from repro.core.dcr import mlmd_decomposition


class TestDCR:
    def test_register_and_report(self):
        decomposition = DCRDecomposition()
        decomposition.add_subproblem(Subproblem("lfd", HardwareUnit.GPU, "fp32", 1e9))
        decomposition.add_subproblem(Subproblem("qxmd", HardwareUnit.CPU, "fp64", 1e7))
        decomposition.add_interface("lfd", "qxmd", 1e3)
        assert decomposition.interface_bytes("lfd", "qxmd") == 1e3
        report = decomposition.report()
        assert {row["subproblem"] for row in report} == {"lfd", "qxmd"}
        with pytest.raises(ValueError):
            decomposition.add_subproblem(Subproblem("lfd", HardwareUnit.GPU, "fp32", 1.0))
        with pytest.raises(KeyError):
            decomposition.add_interface("lfd", "missing", 1.0)

    def test_mlmd_decomposition_minimal_mutual_information(self):
        decomposition = mlmd_decomposition(
            num_domains=100,
            orbitals_per_domain=1024,
            grid_points_per_domain=70 * 70 * 72,
            atoms_total=1_000_000,
            nn_weights=690_000,
        )
        # The shadow-dynamics handshake (occupations) must be orders of
        # magnitude smaller than the GPU-resident wave-function state.
        ratio = decomposition.mutual_information_ratio("lfd", "qxmd")
        assert ratio < 1e-4
        # And the DC-MESH -> XS-NNQMD handshake is one number per domain.
        assert decomposition.interface_bytes("lfd", "xs_nnqmd") == 8.0 * 100


def _photoswitch(excitation_fraction):
    """The Fig. 3 run: a 2x2 skyrmion superlattice on 20x20x1 cells,
    relaxed for 200 steps, then 250 excited-state steps."""
    spec = default_registry().get("mlmd-photoswitch").with_overrides({
        "material.repeats": [20, 20, 1],
        "material.skyrmions_per_axis": [2, 2],
        "propagator.relax_steps": 200,
        "propagator.excitation_fraction": excitation_fraction,
    })
    return run_scenario(spec, num_steps=250, record_every=5)


class TestMLMDPipeline:
    @pytest.fixture(scope="class")
    def results(self):
        return _photoswitch(0.8), _photoswitch(0.0)

    def test_initial_texture_is_topological(self, results):
        pumped, dark = results
        assert pumped.metadata["initial_label"] == "skyrmion"
        assert abs(pumped.observables["topological_charge"][0]) == pytest.approx(4.0, abs=0.2)
        assert abs(dark.observables["topological_charge"][0]) == pytest.approx(4.0, abs=0.2)

    def test_pumped_run_switches_dark_run_does_not(self, results):
        pumped, dark = results
        pumped_charge = pumped.observables["topological_charge"]
        dark_charge = dark.observables["topological_charge"]
        assert pumped.metadata["switching_time_fs"] is not None
        assert dark.metadata["switching_time_fs"] is None
        assert abs(dark_charge[-1]) > 0.5 * abs(dark_charge[0])
        assert abs(pumped_charge[-1]) < 0.5 * abs(pumped_charge[0])

    def test_excitation_decays_over_time(self, results):
        pumped, _ = results
        fraction = pumped.observables["excitation_fraction"]
        assert fraction[0] == pytest.approx(0.8)
        assert fraction[-1] < fraction[0]

    def test_excitation_helpers(self):
        pipeline = MLMDPipeline(rng=np.random.default_rng(1))
        assert pipeline.fluence_to_excitation(0.0) == 0.0
        assert 0.0 < pipeline.fluence_to_excitation(1.0) < 1.0
        fraction = pipeline.excitation_from_dcmesh(np.array([2.0, 4.0]), electrons_per_domain=10.0)
        assert fraction == pytest.approx(0.3)
        with pytest.raises(ValueError):
            pipeline.excitation_from_dcmesh(np.array([]), 10.0)


class TestAnalysis:
    def test_dipole_spectrum_recovers_oscillation_frequency(self):
        omega0 = 0.35
        times = np.linspace(0.0, 400.0, 2000)
        dipole = 0.01 * np.sin(omega0 * times)
        omega, strength = absorption_spectrum(times, dipole, kick_strength=0.01, damping=0.02)
        # Restrict the peak search to the physically relevant window (the
        # 2*omega/pi prefactor amplifies the high-frequency truncation ripple).
        window = omega < 2.0
        peak = omega[window][np.argmax(strength[window])]
        assert peak == pytest.approx(omega0, abs=0.03)

    def test_strength_function_requires_uniform_grid(self):
        times = np.array([0.0, 1.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            dipole_strength_function(times, np.zeros(4), 0.01)
        with pytest.raises(ValueError):
            dipole_strength_function(np.linspace(0, 1, 10), np.zeros(10), 0.0)

    def test_energy_and_norm_drift(self):
        assert energy_drift(np.array([1.0, 1.0, 1.0])) == 0.0
        assert energy_drift(np.array([1.0, 1.1])) == pytest.approx(0.1)
        assert energy_drift(np.array([0.0, 1e-3]), relative=True) == pytest.approx(1.0)
        assert norm_drift(np.array([[1.0, 1.0], [1.0, 0.99]])) == pytest.approx(0.01)
        assert norm_drift(np.array([])) == 0.0

    def test_energy_drift_absolute_and_relative_to_initial_energy(self):
        energies = np.array([-2.0, -2.2, -1.9])
        assert energy_drift(energies, relative=False) == pytest.approx(0.3)
        assert energy_drift(energies) == pytest.approx(0.15)

    @pytest.mark.parametrize("energies", [[], [3.0], [[3.0]]])
    def test_energy_drift_of_fewer_than_two_samples_is_zero(self, energies):
        assert energy_drift(np.array(energies)) == 0.0

    def test_norm_drift_counts_growth_and_loss_alike(self):
        assert norm_drift(np.array([1.0, 1.02, 0.99])) == pytest.approx(0.02)

    def test_momentum_drift_is_largest_change_from_the_start(self):
        momenta = np.array([[1.0, 0.0, 0.0], [4.0, 4.0, 0.0], [1.0, 0.0, 1.0]])
        assert momentum_drift(momenta) == pytest.approx(5.0)
        assert momentum_drift(momenta[:1]) == 0.0

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 3, 1)])
    def test_momentum_drift_rejects_non_vector_series(self, shape):
        with pytest.raises(ValueError):
            momentum_drift(np.zeros(shape))
