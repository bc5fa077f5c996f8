"""Tests for the ground-state SCF solver, the Hamiltonian, and real-time TDDFT."""

import numpy as np
import pytest

from repro import telemetry
from repro.api import default_registry, run_scenario
from repro.grid import Grid3D
from repro.perf.workspace import KernelWorkspace
from repro.qd import LocalHamiltonian, OccupationState, RealTimeTDDFT, WaveFunctions
from repro.qd.hamiltonian import gaussian_external_potential
from repro.scf import KohnShamSolver, lowest_eigenstates
from repro.analysis import energy_drift, norm_drift


@pytest.fixture(scope="module")
def scf_result():
    """One converged SCF ground state shared by several tests (8^3 grid)."""
    grid = Grid3D((8, 8, 8), (8.0, 8.0, 8.0))
    vext = gaussian_external_potential(grid, [[4.0, 4.0, 4.0]], [3.0], [1.2])
    hamiltonian = LocalHamiltonian(grid, vext)
    solver = KohnShamSolver(
        hamiltonian, n_electrons=2, n_orbitals=3, max_iterations=40, tolerance=1e-5
    )
    return hamiltonian, solver.run()


class TestHamiltonian:
    def test_external_potential_is_attractive_well(self, small_grid):
        vext = gaussian_external_potential(small_grid, [[4.0, 4.0, 4.0]], [2.0], [1.0])
        assert vext.min() == pytest.approx(-2.0, rel=1e-6)
        assert vext.max() < 0.0

    def test_orbital_energies_real_and_hermitian(self, small_grid, rng):
        vext = gaussian_external_potential(small_grid, [[4.0, 4.0, 4.0]], [2.0], [1.0])
        ham = LocalHamiltonian(small_grid, vext)
        ham.update_potentials(np.full(small_grid.shape, 2.0 / small_grid.volume))
        wf = WaveFunctions.random(small_grid, 2, rng)
        energies = ham.orbital_energies(wf.psi)
        assert energies.shape == (2,)
        assert np.all(np.isfinite(energies))
        # <i|H|j> must be Hermitian: check via a random pair.
        h_psi = ham.apply(wf.psi)
        h01 = np.vdot(wf.psi[0], h_psi[1]) * small_grid.dv
        h10 = np.vdot(wf.psi[1], h_psi[0]) * small_grid.dv
        assert h01 == pytest.approx(np.conj(h10), abs=1e-10)

    def test_dipole_of_symmetric_density_is_zero(self, small_grid):
        vext = np.zeros(small_grid.shape)
        ham = LocalHamiltonian(small_grid, vext)
        density = small_grid.gaussian((4.0, 4.0, 4.0), 1.0) ** 2
        dipole = ham.dipole_moment(density)
        assert np.allclose(dipole, 0.0, atol=1e-5)

    def test_current_zero_for_real_ground_state(self, scf_result):
        hamiltonian, result = scf_result
        psi = result.wavefunctions.psi
        weights = result.occupations.electrons_per_orbital()
        assert not psi.imag.any()
        # A real orbital pairs every k with -k, so it carries no paramagnetic
        # current, whatever the build -- except through the Nyquist plane of
        # an even grid, which the FFT lists at -k only.  That artefact is
        # ~2e-6 here; with the plane set aside the current is zero to
        # round-off.
        assert np.allclose(
            hamiltonian.current_density_average(psi, weights), 0.0, atol=1e-5)
        psi_k = np.fft.fftn(psi, axes=(1, 2, 3))
        psi_k[:, 4, :, :] = psi_k[:, :, 4, :] = psi_k[:, :, :, 4] = 0.0
        paired = np.fft.ifftn(psi_k, axes=(1, 2, 3))
        assert np.allclose(
            hamiltonian.current_density_average(paired, weights), 0.0, atol=1e-10)

    def test_current_responds_to_vector_potential(self, scf_result):
        hamiltonian, result = scf_result
        a_vec = np.array([0.0, 0.0, 13.7])
        current = hamiltonian.current_density_average(
            result.wavefunctions.psi,
            result.occupations.electrons_per_orbital(),
            a_vec,
        )
        # Diamagnetic response: J ~ -n A / c, so opposite in sign to A.
        assert current[2] < 0


class TestSCF:
    def test_scf_converges(self, scf_result):
        _, result = scf_result
        assert result.converged
        assert result.iterations < 40
        assert result.density_residuals[-1] < 1e-5

    def test_density_integrates_to_electron_count(self, scf_result):
        hamiltonian, result = scf_result
        total = hamiltonian.grid.integrate(result.density)
        assert total == pytest.approx(2.0, rel=1e-6)

    def test_eigenvalues_ordered_and_bound_state_negative(self, scf_result):
        _, result = scf_result
        assert np.all(np.diff(result.eigenvalues) >= -1e-10)
        assert result.eigenvalues[0] < 0.0

    def test_homo_lumo_gap_positive(self, scf_result):
        _, result = scf_result
        assert result.homo_lumo_gap > 0.0

    def test_total_energy_below_noninteracting_well_depth(self, scf_result):
        _, result = scf_result
        assert result.total_energy < 0.0

    def test_lowest_eigenstates_particle_in_gaussian_well(self):
        # Single particle in a deep Gaussian well: the ground state is nodeless
        # -> its density has a single maximum at the well centre.
        grid = Grid3D((8, 8, 8), (8.0, 8.0, 8.0))
        vext = gaussian_external_potential(grid, [[4.0, 4.0, 4.0]], [4.0], [1.0])
        ham = LocalHamiltonian(grid, vext)
        ham.update_potentials(np.zeros(grid.shape))
        eigenvalues, orbitals = lowest_eigenstates(ham, 2)
        assert eigenvalues[0] < eigenvalues[1]
        density = np.abs(orbitals[0]) ** 2
        peak = np.unravel_index(np.argmax(density), grid.shape)
        assert peak == (4, 4, 4)

    def test_solver_input_validation(self, small_grid):
        vext = np.zeros(small_grid.shape)
        ham = LocalHamiltonian(small_grid, vext)
        with pytest.raises(ValueError):
            KohnShamSolver(ham, n_electrons=-1)
        with pytest.raises(ValueError):
            KohnShamSolver(ham, n_electrons=4, n_orbitals=1)
        with pytest.raises(ValueError):
            KohnShamSolver(ham, n_electrons=2, mixing=0.0)


#: The ``scf_result`` system as a ``tddft`` scenario: one well, two
#: electrons in three orbitals, dt = 0.05, field-free.
TDDFT_OVERRIDES = {
    "material.centers": [[4.0, 4.0, 4.0]],
    "material.depths": [3.0],
    "material.widths": [1.2],
    "material.n_electrons": 2.0,
    "material.n_orbitals": 3,
    "pulse.kind": "none",
    "propagator.dt": 0.05,
    "propagator.update_potentials_every": 1,
    "propagator.occupation_decoherence_rate": 0.0,
    "propagator.scissors_shift": 0.0,
}


def _tddft_run(num_steps, record_every=1, workspace=None, **overrides):
    """A ``tddft`` run of the fixture system; the ground state is solved
    once per ``workspace`` and served from its cache afterwards."""
    spec = default_registry().get("quickstart-tddft").with_overrides({
        **TDDFT_OVERRIDES,
        "runtime.num_steps": num_steps,
        "runtime.record_every": record_every,
        **overrides,
    })
    return run_scenario(spec, workspace=workspace).observables


def _pulse(e0):
    return {"pulse.kind": "gaussian", "pulse.e0": e0, "pulse.omega": 0.4,
            "pulse.t0": 0.5, "pulse.sigma": 0.3}


class TestRealTimeTDDFT:
    @pytest.fixture(scope="class")
    def workspace(self):
        return KernelWorkspace()

    def test_field_free_propagation_conserves_norm_and_energy(self, workspace):
        out = _tddft_run(20, record_every=5, workspace=workspace, **{
            "propagator.update_potentials_every": 2})
        assert norm_drift(out["norms"]) < 1e-8
        assert energy_drift(out["total_energy"]) < 1e-4
        assert np.allclose(out["excitation"], 0.0)

    def test_laser_pulse_deposits_energy_and_excites(self, workspace):
        out = _tddft_run(30, record_every=10, workspace=workspace, **{
            **_pulse(0.05),
            "propagator.update_potentials_every": 2,
            "propagator.occupation_decoherence_rate": 2.0,
        })
        energy, excitation = out["total_energy"], out["excitation"]
        # The pulse must not drain energy (up to the split-operator tolerance).
        assert energy[-1] > energy[0] - 1e-4
        assert excitation[-1] >= 0.0
        # The kick must excite a measurable (if small) number of electrons.
        # The exact value depends on how the degenerate excited orbitals of the
        # Gaussian well are oriented by the eigensolver, so only a loose lower
        # bound is asserted.
        assert excitation[-1] > 1e-7

    def test_scissors_correction_changes_dynamics(self, workspace):
        kwargs = {**_pulse(0.02), "propagator.update_potentials_every": 5}
        out_plain = _tddft_run(10, workspace=workspace, **kwargs)
        out_scissors = _tddft_run(10, workspace=workspace, **{
            **kwargs, "propagator.scissors_shift": 0.2})
        assert not np.allclose(out_plain["dipole"], out_scissors["dipole"])

    def test_kernel_split_reaches_telemetry(self, workspace, live_telemetry):
        _tddft_run(3, workspace=workspace)
        histograms = telemetry.snapshot()["histograms"]
        assert histograms["repro_qd_kin_prop_seconds"]["count"] == 3

    def test_invalid_arguments(self, scf_result):
        with pytest.raises(ValueError, match="num_steps must be >= 1"):
            run_scenario(default_registry().get("quickstart-tddft"), num_steps=0)
        hamiltonian, result = scf_result
        with pytest.raises(ValueError):
            RealTimeTDDFT(
                hamiltonian, result.wavefunctions.copy(),
                OccupationState.ground_state(3, 2.0), dt=-1.0,
            )
