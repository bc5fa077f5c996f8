"""Equivalence tests for the vectorized hot kernels against their references.

Every rewritten kernel keeps its pre-vectorization implementation around
(mirroring the paper's baseline-vs-optimized Table III ladder); these tests
pin the vectorized paths to those references to machine precision, including
the degenerate periodic-image geometries (fewer than 3 cells per axis) that
historically needed special-casing.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid import Grid3D
from repro.grid.stencil import laplacian, laplacian_reference
from repro.md import AtomsSystem, NeighborList, brute_force_pairs
from repro.md.neighborlist import build_pairs_reference
from repro.naqmd import EhrenfestForces
from repro.perf.workspace import KernelWorkspace
from repro.qd import KineticPropagator, WaveFunctions


def _random_atoms(rng: np.random.Generator, n: int, box: float) -> AtomsSystem:
    positions = rng.uniform(0, box, (n, 3))
    return AtomsSystem(positions, np.array(["Ar"] * n, dtype=object), np.array([box] * 3))


class TestNeighborListVectorized:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force_and_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        box = float(rng.uniform(6.0, 15.0))
        cutoff = float(rng.uniform(1.5, min(4.0, box / 2.001)))
        atoms = _random_atoms(rng, n, box)
        nl = NeighborList(cutoff, skin=0.0)
        pairs, vectors, distances = nl.build(atoms)
        assert set(map(tuple, pairs)) == set(map(tuple, brute_force_pairs(atoms, cutoff)))
        ref_pairs, ref_vectors, ref_distances = build_pairs_reference(atoms, cutoff)
        assert np.array_equal(pairs, ref_pairs)
        assert np.allclose(vectors, ref_vectors, atol=1e-10)
        assert np.allclose(distances, ref_distances, atol=1e-10)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_small_boxes_with_fewer_than_three_cells(self, seed):
        # reach in (box/3, box/2] puts 2 cells on every axis; the +/-1 offsets
        # then alias the same periodic neighbour cell.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        box = float(rng.uniform(5.0, 9.0))
        cutoff = float(rng.uniform(box / 3.0 + 1e-6, box / 2.001))
        atoms = _random_atoms(rng, n, box)
        pairs, vectors, distances = NeighborList(cutoff, skin=0.0).build(atoms)
        assert set(map(tuple, pairs)) == set(map(tuple, brute_force_pairs(atoms, cutoff)))
        ref_pairs, ref_vectors, ref_distances = build_pairs_reference(atoms, cutoff)
        assert np.array_equal(pairs, ref_pairs)
        assert np.allclose(vectors, ref_vectors, atol=1e-10)
        assert np.allclose(distances, ref_distances, atol=1e-10)

    def test_single_cell_per_axis(self, rng):
        # reach > box/2 collapses the cell grid to one cell per axis; the
        # vectorized sweep then degrades gracefully to an all-pairs scan.
        atoms = _random_atoms(rng, 20, 5.0)
        nl = NeighborList(cutoff=2.4, skin=0.2)
        pairs, vectors, distances = nl.build(atoms)
        ref_pairs, ref_vectors, ref_distances = build_pairs_reference(atoms, 2.4, skin=0.2)
        assert np.array_equal(pairs, ref_pairs)
        assert np.allclose(vectors, ref_vectors, atol=1e-10)
        assert np.allclose(distances, ref_distances, atol=1e-10)

    def test_skin_included_in_reach(self, rng):
        atoms = _random_atoms(rng, 40, 12.0)
        pairs, _, distances = NeighborList(cutoff=3.0, skin=0.5).build(atoms)
        reference = brute_force_pairs(atoms, 3.5)
        assert set(map(tuple, pairs)) == set(map(tuple, reference))
        assert np.all(distances <= 3.5 + 1e-12)

    def test_empty_list(self):
        atoms = AtomsSystem(
            np.array([[1.0, 1.0, 1.0], [9.0, 9.0, 9.0]]),
            np.array(["Ar", "Ar"], dtype=object),
            np.array([18.0] * 3),
        )
        pairs, vectors, distances = NeighborList(cutoff=2.0, skin=0.0).build(atoms)
        assert pairs.shape == (0, 2)
        assert vectors.shape == (0, 3)
        assert distances.shape == (0,)
        assert np.array_equal(NeighborList(2.0, 0.0).build(atoms)[0],
                              build_pairs_reference(atoms, 2.0)[0])


class TestFusedStencil:
    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_matches_reference_real(self, small_grid, rng, order):
        batch = rng.standard_normal((3, *small_grid.shape))
        fused = laplacian(batch, small_grid, order=order)
        reference = laplacian_reference(batch, small_grid, order=order)
        assert np.max(np.abs(fused - reference)) < 1e-10

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_matches_reference_complex(self, small_grid, rng, order):
        batch = (
            rng.standard_normal((2, *small_grid.shape))
            + 1j * rng.standard_normal((2, *small_grid.shape))
        )
        fused = laplacian(batch, small_grid, order=order)
        reference = laplacian_reference(batch, small_grid, order=order)
        assert np.max(np.abs(fused - reference)) < 1e-10

    def test_out_buffer(self, small_grid, rng):
        field = rng.standard_normal(small_grid.shape)
        out = np.empty_like(field)
        result = laplacian(field, small_grid, order=4, out=out)
        assert result is out
        again = laplacian(field, small_grid, order=4)
        assert np.array_equal(again, out)

    def test_out_aliasing_rejected(self, small_grid, rng):
        field = rng.standard_normal(small_grid.shape)
        with pytest.raises(ValueError):
            laplacian(field, small_grid, out=field)


class TestCachedKineticPropagation:
    def test_matches_uncached_reference(self, small_grid, rng):
        wf = WaveFunctions.random(small_grid, 3, rng)
        prop = KineticPropagator(small_grid, dt=0.07, workspace=KernelWorkspace())
        for a_vec in (None, np.array([0.3, -0.2, 0.1])):
            cached = prop.propagate_exact(wf.psi, a_vec)
            reference = prop.propagate_exact_reference(wf.psi, a_vec)
            assert np.max(np.abs(cached - reference)) < 1e-12
            # Replay from cache must be bit-identical, not merely close.
            assert np.array_equal(prop.propagate_exact(wf.psi, a_vec), cached)

    def test_phase_cache_hit_at_fixed_dt_and_a(self, small_grid, rng):
        workspace = KernelWorkspace()
        prop = KineticPropagator(small_grid, dt=0.05, workspace=workspace)
        wf = WaveFunctions.random(small_grid, 2, rng)
        prop.propagate_exact(wf.psi, np.array([0.1, 0.0, 0.0]))
        misses = workspace.stats["phase_misses"]
        prop.propagate_exact(wf.psi, np.array([0.1, 0.0, 0.0]))
        assert workspace.stats["phase_misses"] == misses
        assert workspace.stats["phase_hits"] >= 1
        # A different vector potential is a different cache entry.
        prop.propagate_exact(wf.psi, np.array([0.2, 0.0, 0.0]))
        assert workspace.stats["phase_misses"] == misses + 1

    def test_taylor_variants_still_agree(self, small_grid, rng):
        wf = WaveFunctions.random(small_grid, 5, rng)
        prop = KineticPropagator(small_grid, dt=0.05, stencil_order=2, block_size=2)
        baseline = prop.kin_prop(wf.psi, "baseline")
        blocked = prop.kin_prop(wf.psi, "blocked")
        assert np.max(np.abs(baseline - blocked)) < 1e-10


class TestEhrenfestVectorized:
    def _model(self, rng, n_ions):
        grid = Grid3D((8, 8, 8), (9.0, 9.0, 9.0))
        return grid, EhrenfestForces(
            grid,
            depths=rng.uniform(1.0, 4.0, n_ions),
            widths=rng.uniform(0.8, 1.6, n_ions),
            charges=rng.uniform(1.0, 3.0, n_ions),
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_ion_pair_terms_match_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_ions = int(rng.integers(2, 9))
        grid, model = self._model(rng, n_ions)
        positions = rng.uniform(0.0, 9.0, (n_ions, 3))
        assert np.allclose(
            model.ion_ion_forces(positions),
            model.ion_ion_forces_reference(positions),
            atol=1e-10,
        )
        assert model.ion_ion_energy(positions) == pytest.approx(
            model.ion_ion_energy_reference(positions), abs=1e-10
        )

    def test_coincident_ions_do_not_blow_up(self, rng):
        grid, model = self._model(rng, 3)
        positions = np.array([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0], [5.0, 5.0, 5.0]])
        forces = model.ion_ion_forces(positions)
        reference = model.ion_ion_forces_reference(positions)
        assert np.all(np.isfinite(forces))
        assert np.allclose(forces, reference, atol=1e-10)

    def test_electronic_forces_match_loop_reference(self, rng):
        grid, model = self._model(rng, 5)
        density = grid.gaussian((4.0, 5.0, 4.5), 1.1) ** 2
        density /= float(grid.integrate(density))
        positions = rng.uniform(1.0, 8.0, (5, 3))
        vectorized = model.electronic_forces(density, positions)
        reference = model.electronic_forces_reference(density, positions)
        assert np.allclose(vectorized, reference, atol=1e-10)
        # Blocked evaluation must agree regardless of the block size.
        assert np.allclose(
            model.electronic_forces(density, positions, ion_block=2), reference, atol=1e-10
        )

    def test_newton_third_law_preserved(self, rng):
        grid, model = self._model(rng, 6)
        positions = rng.uniform(0.0, 9.0, (6, 3))
        assert np.allclose(model.ion_ion_forces(positions).sum(axis=0), 0.0, atol=1e-10)


@pytest.mark.slow
class TestVectorizedAtScale:
    """Benchmark-scale cross-checks, excluded from the tier-1 smoke run."""

    def test_neighbor_list_matches_reference_at_2000_atoms(self):
        rng = np.random.default_rng(7)
        n = 2000
        box = 36.0
        atoms = _random_atoms(rng, n, box)
        nl = NeighborList(cutoff=4.5, skin=0.5)
        pairs, vectors, distances = nl.build(atoms)
        ref_pairs, ref_vectors, ref_distances = build_pairs_reference(atoms, 4.5, skin=0.5)
        assert np.array_equal(pairs, ref_pairs)
        assert np.allclose(vectors, ref_vectors, atol=1e-10)
        assert np.allclose(distances, ref_distances, atol=1e-10)
