"""Tests for the ground-state SCF solver, the Hamiltonian, and real-time TDDFT."""

import numpy as np
import pytest

from repro import telemetry
from repro.grid import Grid3D
from repro.maxwell import GaussianPulse
from repro.qd import (
    LocalHamiltonian,
    NonlocalCorrection,
    OccupationState,
    RealTimeTDDFT,
    WaveFunctions,
)
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


class TestRealTimeTDDFT:
    def _make_engine(self, scf_result, **kwargs):
        hamiltonian, result = scf_result
        occupations = OccupationState.ground_state(result.occupations.n_orbitals, 2.0)
        return RealTimeTDDFT(
            hamiltonian,
            result.wavefunctions.copy(),
            occupations,
            dt=0.05,
            **kwargs,
        )

    def test_field_free_propagation_conserves_norm_and_energy(self, scf_result):
        engine = self._make_engine(scf_result, update_potentials_every=2)
        out = engine.run(20, record_every=5)
        assert norm_drift(out.norms) < 1e-8
        assert energy_drift(out.total_energy) < 1e-4
        assert np.allclose(out.excitation, 0.0)

    def test_laser_pulse_deposits_energy_and_excites(self, scf_result):
        pulse = GaussianPulse(e0=0.05, omega=0.4, t0=0.5, sigma=0.3)
        engine = self._make_engine(
            scf_result,
            field_callback=lambda t: pulse.vector_potential(t).reshape(3),
            update_potentials_every=2,
            occupation_decoherence_rate=2.0,
        )
        out = engine.run(30, record_every=10)
        # The pulse must not drain energy (up to the split-operator tolerance).
        assert out.total_energy[-1] > out.total_energy[0] - 1e-4
        assert out.excitation[-1] >= 0.0
        # The kick must excite a measurable (if small) number of electrons.
        # The exact value depends on how the degenerate excited orbitals of the
        # Gaussian well are oriented by the eigensolver, so only a loose lower
        # bound is asserted.
        assert out.excitation[-1] > 1e-7

    def test_scissors_correction_changes_dynamics(self, scf_result):
        hamiltonian, result = scf_result
        pulse = GaussianPulse(e0=0.02, omega=0.4, t0=0.5, sigma=0.3)
        kwargs = dict(
            field_callback=lambda t: pulse.vector_potential(t).reshape(3),
            update_potentials_every=5,
        )
        plain = self._make_engine(scf_result, **kwargs)
        out_plain = plain.run(10)
        with_scissors = self._make_engine(
            scf_result,
            scissors=NonlocalCorrection(result.wavefunctions.copy(), shift=0.2, dt=0.05),
            **kwargs,
        )
        out_scissors = with_scissors.run(10)
        assert not np.allclose(out_plain.dipole, out_scissors.dipole)

    def test_kernel_split_reaches_telemetry(self, scf_result, live_telemetry):
        engine = self._make_engine(scf_result)
        engine.run(3)
        histograms = telemetry.snapshot()["histograms"]
        assert histograms["repro_qd_kin_prop_seconds"]["count"] == 3

    def test_invalid_arguments(self, scf_result):
        engine = self._make_engine(scf_result)
        with pytest.raises(ValueError):
            engine.run(0)
        with pytest.raises(ValueError):
            RealTimeTDDFT(
                engine.hamiltonian, engine.wavefunctions, engine.occupations, dt=-1.0
            )
