"""Tests for kin_prop, nlp_prop and xc."""

import numpy as np
import pytest

from repro.grid import Grid3D
from repro.qd import (
    KineticPropagator,
    NonlocalCorrection,
    WaveFunctions,
    lda_exchange_correlation,
)
from repro.qd.kin_prop import IMPLEMENTATIONS
from repro.qd.xc import lda_correlation, lda_exchange


class TestKineticPropagator:
    def test_stencil_variants_agree_at_second_order(self, small_grid, rng):
        wf = WaveFunctions.random(small_grid, 3, rng)
        prop = KineticPropagator(small_grid, dt=0.05, stencil_order=2, block_size=2)
        baseline = prop.kin_prop(wf.psi, "baseline")
        reordered = prop.kin_prop(wf.psi, "reordered")
        blocked = prop.kin_prop(wf.psi, "blocked")
        assert np.allclose(baseline, reordered, atol=1e-12)
        assert np.allclose(reordered, blocked, atol=1e-12)

    def test_device_variant_close_to_stencil_for_small_dt(self, small_grid, rng):
        wf = WaveFunctions.random(small_grid, 2, rng)
        prop = KineticPropagator(small_grid, dt=0.01, stencil_order=6, taylor_order=4)
        blocked = prop.kin_prop(wf.psi, "blocked")
        device = prop.kin_prop(wf.psi, "device")
        assert np.max(np.abs(blocked - device)) < 5e-3

    def test_exact_propagation_is_unitary(self, small_grid, rng):
        wf = WaveFunctions.random(small_grid, 3, rng)
        prop = KineticPropagator(small_grid, dt=0.2)
        out = prop.propagate_exact(wf.psi)
        norms = np.sqrt(np.sum(np.abs(out) ** 2, axis=(1, 2, 3)) * small_grid.dv)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_plane_wave_acquires_exact_phase(self):
        grid = Grid3D((8, 8, 8), (6.0, 6.0, 6.0))
        wf = WaveFunctions.from_plane_waves(grid, 2)
        dt = 0.3
        prop = KineticPropagator(grid, dt=dt)
        out = prop.propagate_exact(wf.psi)
        # The lowest plane wave is k = 0 -> no phase; the next has |k| = 2 pi / L.
        assert np.allclose(out[0], wf.psi[0])
        k = 2.0 * np.pi / 6.0
        expected_phase = np.exp(-1j * dt * 0.5 * k ** 2)
        ratio = out[1] / wf.psi[1]
        assert np.allclose(ratio, expected_phase, atol=1e-10)

    def test_vector_potential_shifts_free_particle_phase(self, small_grid):
        wf = WaveFunctions.from_plane_waves(small_grid, 1)  # k = 0 state
        dt = 0.1
        from repro.units import SPEED_OF_LIGHT_AU
        a_vec = np.array([0.0, 0.0, SPEED_OF_LIGHT_AU])  # A/c = 1 a.u. momentum shift
        prop = KineticPropagator(small_grid, dt=dt)
        out = prop.propagate_exact(wf.psi, a_vec)
        expected_phase = np.exp(-1j * dt * 0.5 * 1.0 ** 2)
        assert np.allclose(out[0] / wf.psi[0], expected_phase, atol=1e-6)

    def test_unknown_implementation_rejected(self, small_grid, rng):
        prop = KineticPropagator(small_grid, dt=0.1)
        wf = WaveFunctions.random(small_grid, 1, rng)
        with pytest.raises(ValueError):
            prop.kin_prop(wf.psi, "cuda")
        assert set(IMPLEMENTATIONS) == {"baseline", "reordered", "blocked", "device"}

    def test_flop_accounting(self, small_grid, rng):
        prop = KineticPropagator(small_grid, dt=0.05)
        wf = WaveFunctions.random(small_grid, 2, rng)
        prop.kin_prop(wf.psi, "blocked")
        assert prop.flops["kin_prop_blocked"] > 0


class TestNonlocalCorrection:
    def test_matches_dense_projector_formula(self, small_grid, rng):
        reference = WaveFunctions.random(small_grid, 3, rng)
        correction = NonlocalCorrection(reference, shift=0.1, dt=0.05, mode="fp64")
        psi_t = WaveFunctions.random(small_grid, 3, rng).as_matrix()
        out = correction.apply_matrix(np.ascontiguousarray(psi_t))
        psi0 = reference.as_matrix()
        overlap = psi0.conj().T @ psi_t * small_grid.dv
        expected = psi_t - correction.delta * (psi0 @ overlap)
        assert np.allclose(out, expected, atol=1e-12)

    def test_identity_when_shift_zero(self, small_grid, rng):
        reference = WaveFunctions.random(small_grid, 2, rng)
        correction = NonlocalCorrection(reference, shift=0.0, dt=0.1)
        wf = WaveFunctions.random(small_grid, 2, rng)
        before = wf.psi.copy()
        correction.apply(wf)
        assert np.allclose(wf.psi, before)

    def test_precision_modes_track_reference(self, small_grid, rng):
        reference = WaveFunctions.random(small_grid, 3, rng)
        psi_t = np.ascontiguousarray(WaveFunctions.random(small_grid, 3, rng).as_matrix())
        exact = NonlocalCorrection(reference, shift=0.2, dt=0.1, mode="fp64").apply_matrix(psi_t)
        for mode, tol in (("fp32", 1e-5), ("bf16", 5e-2), ("bf16x3", 1e-4)):
            approx = NonlocalCorrection(reference, shift=0.2, dt=0.1, mode=mode).apply_matrix(psi_t)
            rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
            assert rel < tol

    def test_flop_count_and_two_gemms_per_call(self, small_grid, rng):
        reference = WaveFunctions.random(small_grid, 2, rng)
        correction = NonlocalCorrection(reference, shift=0.1, dt=0.05)
        assert correction.flop_count_per_call() > 0
        psi_t = np.ascontiguousarray(reference.as_matrix())
        out = correction.apply_matrix(psi_t)
        assert out.shape == psi_t.shape
        assert correction.gemm_engine.call_count == 2


class TestXC:
    def test_lda_exchange_scaling(self):
        # eps_x ~ n^(1/3): doubling density scales the energy density per electron by 2^(1/3).
        n1 = np.full((2, 2, 2), 0.01)
        eps1, v1 = lda_exchange(n1)
        eps2, _ = lda_exchange(2 * n1)
        assert np.allclose(eps2 / eps1, 2.0 ** (1.0 / 3.0))
        assert np.allclose(v1, 4.0 / 3.0 * eps1)

    def test_lda_correlation_negative_and_continuous(self):
        # The PZ parameterisation must be continuous at rs = 1.
        n_at_rs1 = 3.0 / (4.0 * np.pi)
        eps_low, _ = lda_correlation(np.array([n_at_rs1 * 1.0001]))
        eps_high, _ = lda_correlation(np.array([n_at_rs1 * 0.9999]))
        assert eps_low[0] < 0 and eps_high[0] < 0
        assert abs(eps_low[0] - eps_high[0]) < 1e-4

    def test_lda_total_potential_zero_for_zero_density(self):
        energy_density, potential = lda_exchange_correlation(np.zeros((3, 3, 3)))
        assert np.allclose(energy_density, 0.0)
        assert np.allclose(potential, 0.0)

    def test_lda_energy_negative_for_finite_density(self):
        energy_density, potential = lda_exchange_correlation(np.full((2, 2, 2), 0.02))
        assert np.all(energy_density < 0)
        assert np.all(potential < 0)
