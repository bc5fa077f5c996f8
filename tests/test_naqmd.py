"""Tests for nonadiabatic couplings, surface hopping, Ehrenfest forces and MESH."""

import numpy as np
import pytest
import scipy.linalg

from repro.api import build_engine, default_registry
from repro.grid import Grid3D
from repro.naqmd import (
    EhrenfestForces,
    MESHIntegrator,
    SurfaceHopping,
    coupling_from_overlap,
    nonadiabatic_coupling_matrix,
)
from repro.perf.workspace import KernelWorkspace
from repro.qd import OccupationState, WaveFunctions

from test_checkpoint import assert_results_bit_identical, json_cycle


class TestNonadiabaticCoupling:
    def test_identical_states_give_zero_coupling(self, small_grid, rng):
        wf = WaveFunctions.random(small_grid, 3, rng)
        coupling = nonadiabatic_coupling_matrix(wf, wf.copy(), dt=1.0)
        assert np.allclose(coupling, 0.0, atol=1e-12)

    def test_antisymmetric_to_leading_order(self, small_grid, rng):
        wf1 = WaveFunctions.random(small_grid, 3, rng)
        wf2 = wf1.copy()
        wf2.psi += 0.01 * (
            rng.standard_normal(wf2.psi.shape) + 1j * rng.standard_normal(wf2.psi.shape)
        )
        wf2.orthonormalize()
        coupling = nonadiabatic_coupling_matrix(wf1, wf2, dt=0.5)
        assert np.allclose(coupling, -coupling.conj().T, atol=1e-3)
        off_diagonal = coupling - np.diag(np.diag(coupling))
        assert np.linalg.norm(off_diagonal) > 0

    def test_coupling_from_overlap_formula(self):
        forward = np.array([[1.0, 0.1], [-0.1, 1.0]])
        backward = np.array([[1.0, -0.1], [0.1, 1.0]])
        coupling = coupling_from_overlap(forward, backward, dt=2.0)
        assert coupling[0, 1] == pytest.approx(0.05)
        with pytest.raises(ValueError):
            coupling_from_overlap(forward, backward, dt=0.0)


class TestSurfaceHopping:
    def test_no_coupling_means_no_hops(self, rng):
        sh = SurfaceHopping(np.array([0.0, 0.1, 0.2]), active_state=0, rng=rng)
        result = sh.step(np.zeros((3, 3)), dt=1.0)
        assert result.hops == []
        assert result.active_state == 0
        assert np.allclose(sh.populations(), [1.0, 0.0, 0.0])

    def test_strong_coupling_transfers_population(self, rng):
        energies = np.array([0.0, 0.001])
        coupling = np.array([[0.0, 0.5], [-0.5, 0.0]])
        sh = SurfaceHopping(energies, active_state=0, rng=rng)
        sh.step(coupling, dt=2.0)
        populations = sh.populations()
        assert populations[1] > 0.1
        assert np.isclose(populations.sum(), 1.0)

    def test_hops_eventually_occur_and_update_occupations(self):
        rng = np.random.default_rng(3)
        energies = np.array([0.0, 0.002])
        coupling = np.array([[0.0, 0.4], [-0.4, 0.0]])
        occupations = OccupationState.ground_state(2, 2.0)
        sh = SurfaceHopping(energies, active_state=0, rng=rng)
        hopped = False
        for _ in range(50):
            result = sh.step(coupling, dt=1.0, occupations=occupations, kinetic_energy=1.0)
            if result.hops:
                hopped = True
                break
        assert hopped
        assert occupations.excitation_number() > 0

    def test_frustrated_hop_when_no_kinetic_energy(self):
        rng = np.random.default_rng(5)
        energies = np.array([0.0, 5.0])  # huge upward gap
        coupling = np.array([[0.0, 0.6], [-0.6, 0.0]])
        sh = SurfaceHopping(energies, active_state=0, rng=rng)
        for _ in range(50):
            result = sh.step(coupling, dt=1.0, kinetic_energy=0.0)
            assert result.active_state == 0  # never allowed to hop up
        assert True

    @pytest.mark.parametrize("dt", [0.05, 2.0, 4.13])
    def test_one_step_is_the_exact_exponential(self, dt):
        """One MD step applies expm(-i H dt) to the amplitudes, then
        renormalises, with H = diag(eps) - i d (a slightly non-anti-Hermitian
        finite-difference coupling, as MESH produces)."""
        rng = np.random.default_rng(7)
        energies = np.array([-0.4, 0.1, 0.35])
        raw = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        coupling = raw - raw.conj().T + 0.01 * rng.standard_normal((3, 3))
        sh = SurfaceHopping(energies, active_state=1, rng=rng)
        sh.amplitudes = np.array([0.6, 0.7j, 0.2 - 0.3j])
        hamiltonian = np.diag(energies) - 1j * coupling
        expected = scipy.linalg.expm(-1j * hamiltonian * dt) @ sh.amplitudes
        expected /= np.linalg.norm(expected)
        sh.step(coupling, dt)
        np.testing.assert_allclose(sh.amplitudes, expected, rtol=0, atol=1e-12)

    def test_probabilities_clipped_to_unit_interval(self, rng):
        sh = SurfaceHopping(np.array([0.0, 0.1]), active_state=0, rng=rng)
        result = sh.step(np.array([[0.0, 3.0], [-3.0, 0.0]]), dt=5.0)
        assert np.all(result.hop_probabilities >= 0.0)
        assert np.all(result.hop_probabilities <= 1.0)

    def test_input_validation(self, rng):
        with pytest.raises(ValueError):
            SurfaceHopping(np.array([0.0]), 0, rng)
        with pytest.raises(IndexError):
            SurfaceHopping(np.array([0.0, 1.0]), 5, rng)


class TestEhrenfestForces:
    def _setup(self):
        grid = Grid3D((8, 8, 8), (8.0, 8.0, 8.0))
        forces = EhrenfestForces(grid, depths=[3.0], widths=[1.2], charges=[2.0])
        return grid, forces

    def test_symmetric_density_gives_zero_force(self):
        grid, forces = self._setup()
        density = grid.gaussian((4.0, 4.0, 4.0), 1.0) ** 2
        density /= float(grid.integrate(density))
        f = forces.electronic_forces(density, np.array([[4.0, 4.0, 4.0]]))
        assert np.allclose(f, 0.0, atol=1e-8)

    def test_force_pulls_ion_toward_charge(self):
        grid, forces = self._setup()
        density = grid.gaussian((5.0, 4.0, 4.0), 1.0) ** 2
        density /= float(grid.integrate(density))
        f = forces.electronic_forces(density, np.array([[3.0, 4.0, 4.0]]))
        # Electron cloud at x=5, ion at x=3, attractive well -> force along +x.
        assert f[0, 0] > 0

    def test_force_matches_numerical_gradient(self):
        grid, forces = self._setup()
        density = grid.gaussian((4.5, 4.0, 3.5), 1.0) ** 2
        density /= float(grid.integrate(density))
        position = np.array([[3.8, 4.2, 4.0]])
        analytic = forces.electronic_forces(density, position)
        h = 1e-4
        numeric = np.zeros(3)
        for axis in range(3):
            plus = position.copy()
            plus[0, axis] += h
            minus = position.copy()
            minus[0, axis] -= h
            e_plus = float(grid.integrate(density * forces.external_potential(plus)))
            e_minus = float(grid.integrate(density * forces.external_potential(minus)))
            numeric[axis] = -(e_plus - e_minus) / (2 * h)
        assert np.allclose(analytic[0], numeric, rtol=1e-3, atol=1e-6)

    def test_ion_ion_repulsion_and_newton_third_law(self):
        grid = Grid3D((8, 8, 8), (10.0, 10.0, 10.0))
        forces = EhrenfestForces(grid, depths=[3.0, 3.0], widths=[1.0, 1.0], charges=[2.0, 2.0])
        positions = np.array([[4.0, 5.0, 5.0], [6.0, 5.0, 5.0]])
        f = forces.ion_ion_forces(positions)
        assert f[0, 0] < 0 and f[1, 0] > 0  # repulsion pushes them apart
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-12)
        assert forces.ion_ion_energy(positions) > 0


class TestMESHIntegrator:
    @pytest.fixture(scope="class")
    def mesh_run(self):
        """One ion in a 6^3 box under MESH with surface hopping, field-free,
        run for three MD steps of 2.0 a.u.: the adapter and its result."""
        spec = default_registry().get("mesh-hopping").with_overrides({
            "material.centers": [[4.0, 4.0, 4.0]],
            "material.depths": [3.0],
            "material.widths": [1.2],
            "material.charges": [2.0],
            "material.masses": [50000.0],
            "material.scf_max_iterations": 25,
            "pulse.kind": "none",
            "propagator.dt": 0.2,
            "propagator.qd_substeps": 10,
            "propagator.update_potentials_every": 5,
            "propagator.occupation_decoherence_rate": 0.0,
        })
        engine = build_engine(spec, workspace=KernelWorkspace())
        return engine, engine.run(num_steps=3, record_every=1)

    def test_step_produces_consistent_record(self, mesh_run):
        _, result = mesh_run
        assert result.times[1] == pytest.approx(2.0)
        assert result.observables["positions"][1].shape == (1, 3)
        assert np.isfinite(result.observables["total_energy"][1])
        assert result.observables["excitation"][1] >= 0.0

    def test_run_advances_time_and_history(self, mesh_run):
        _, result = mesh_run
        assert result.num_records == 4  # the initial state and three steps
        assert np.all(np.diff(result.times) > 0)

    def test_time_step_consistency_enforced(self, mesh_run):
        mesh = mesh_run[0].integrator
        with pytest.raises(ValueError):
            MESHIntegrator(
                tddft=mesh.tddft,
                forces=mesh.forces,
                positions=mesh.positions,
                velocities=mesh.velocities,
                masses=mesh.masses,
                md_dt=1.0,
                qd_substeps=3,  # 1.0 / 3 != tddft.dt
            )


class TestFrustratedHop:
    """A strong pulse drives the registry MESH engine to attempt upward hops
    that its near-still ions cannot pay for: the frustrated-hop branch."""

    def test_frustrated_hop_keeps_the_surface_and_resumes_bit_identically(
            self, monkeypatch):
        spec = default_registry().get("mesh-hopping").with_overrides(
            {"pulse.e0": 1.0, "runtime.num_steps": 40, "seed": 3})
        attempts = []
        step = SurfaceHopping.step

        def recording_step(hopping, *args, **kwargs):
            before = hopping.active_state
            result = step(hopping, *args, **kwargs)
            attempts.append((before, kwargs["kinetic_energy"], result,
                             hopping.energies))
            return result

        monkeypatch.setattr(SurfaceHopping, "step", recording_step)
        checkpoints = []
        uninterrupted = build_engine(spec, workspace=KernelWorkspace()).run(
            checkpoint_every=10,
            on_checkpoint=lambda c: checkpoints.append(json_cycle(c)))
        frustrated = [i for i, (_, _, result, _) in enumerate(attempts)
                      if result.frustrated]
        assert frustrated
        for i in frustrated:
            before, kinetic, result, energies = attempts[i]
            (source, target), = result.frustrated
            assert source == before == result.active_state
            assert not result.hops
            assert energies[target] - energies[source] > kinetic

        # Resume from the last snapshot before the first frustrated hop.
        first = frustrated[0]
        checkpoint = [c for c in checkpoints if c["step"] <= first][-1]
        resumed_attempts = len(attempts)
        resumed = build_engine(spec, workspace=KernelWorkspace()).resume(
            checkpoint)
        assert_results_bit_identical(uninterrupted, resumed)
        replayed = [result.frustrated
                    for _, _, result, _ in attempts[resumed_attempts:]]
        original = [result.frustrated for _, _, result, _
                    in attempts[checkpoint["step"]:resumed_attempts]]
        assert replayed == original
