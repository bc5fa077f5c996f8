"""Tests for wave functions and occupation-number bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.qd import OccupationState, WaveFunctions


class TestWaveFunctions:
    def test_random_orbitals_are_orthonormal(self, small_grid, rng):
        wf = WaveFunctions.random(small_grid, 4, rng)
        overlap = wf.overlap_matrix()
        assert np.allclose(overlap, np.eye(4), atol=1e-10)

    def test_plane_waves_orthonormal(self, small_grid):
        wf = WaveFunctions.from_plane_waves(small_grid, 3)
        overlap = wf.overlap_matrix()
        assert np.allclose(overlap, np.eye(3), atol=1e-10)

    def test_density_integrates_to_electron_count(self, small_grid, rng):
        wf = WaveFunctions.random(small_grid, 3, rng)
        occ = np.array([2.0, 2.0, 1.0])
        density = wf.density(occ)
        assert np.all(density >= 0)
        assert small_grid.integrate(density) == pytest.approx(5.0)

    def test_as_matrix_shape_and_round_trip(self, small_grid, rng):
        wf = WaveFunctions.random(small_grid, 2, rng)
        matrix = wf.as_matrix()
        assert matrix.shape == (small_grid.num_points, 2)
        back = matrix.T.reshape(2, *small_grid.shape)
        assert np.allclose(back, wf.psi)

    def test_norms_and_normalize_each(self, small_grid, rng):
        data = rng.standard_normal((2, *small_grid.shape)) * 3.0
        wf = WaveFunctions(small_grid, data.astype(complex))
        wf.normalize_each()
        assert np.allclose(wf.norms(), 1.0)

    def test_shape_validation(self, small_grid):
        with pytest.raises(ValueError):
            WaveFunctions(small_grid, np.zeros((2, 4, 4, 4), dtype=complex))
        with pytest.raises(ValueError):
            WaveFunctions.random(small_grid, 0, np.random.default_rng(0))


class TestOccupations:
    def test_ground_state_filling(self):
        occ = OccupationState.ground_state(4, 6.0)
        assert np.allclose(occ.occupations, [1.0, 1.0, 1.0, 0.0])
        assert occ.total_electrons == pytest.approx(6.0)

    def test_partial_filling(self):
        occ = OccupationState.ground_state(3, 3.0)
        assert np.allclose(occ.occupations, [1.0, 0.5, 0.0])

    def test_excitation_number_counts_depletion(self):
        occ = OccupationState.ground_state(4, 4.0)
        occ.apply_transition(1, 3, 0.25)
        # 0.25 occupation moved = 0.5 electrons (spin degeneracy 2).
        assert occ.excitation_number() == pytest.approx(0.5)
        assert occ.total_electrons == pytest.approx(4.0)

    def test_transition_clipping(self):
        occ = OccupationState.ground_state(2, 2.0)
        occ.apply_transition(0, 1, 5.0)  # can move at most 1.0 - f_target = 0
        assert np.all(occ.occupations <= 1.0)
        assert occ.total_electrons == pytest.approx(2.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            OccupationState(np.array([1.5]))
        with pytest.raises(ValueError):
            OccupationState.ground_state(2, 10.0)
        occ = OccupationState.ground_state(2, 2.0)
        with pytest.raises(IndexError):
            occ.apply_transition(0, 5, 0.1)
        with pytest.raises(ValueError):
            occ.set_occupations(np.array([0.5, 1.2]))

    @given(
        n_orb=st.integers(min_value=2, max_value=8),
        electrons=st.floats(min_value=0.5, max_value=8.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_electron_count_conserved_under_transitions(self, n_orb, electrons):
        electrons = min(electrons, 2.0 * n_orb)
        occ = OccupationState.ground_state(n_orb, electrons)
        rng = np.random.default_rng(0)
        for _ in range(5):
            i, j = rng.integers(0, n_orb, 2)
            occ.apply_transition(int(i), int(j), float(rng.random()) * 0.3)
        assert occ.total_electrons == pytest.approx(electrons)
        assert np.all(occ.occupations >= -1e-12)
        assert np.all(occ.occupations <= 1.0 + 1e-12)
