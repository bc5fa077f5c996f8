"""Tests for the divide-and-conquer decomposition and global-local SCF."""

import numpy as np
import pytest

from repro.dc import DCKohnShamSolver, DomainDecomposition
from repro.grid import Grid3D
from repro.qd.hamiltonian import LocalHamiltonian, gaussian_external_potential
from repro.scf import KohnShamSolver


class TestDomainDecomposition:
    def test_domain_counts_and_shapes(self):
        grid = Grid3D((16, 16, 8), (16.0, 16.0, 8.0))
        decomposition = DomainDecomposition(grid, (2, 2, 1), buffer_fraction=0.5)
        assert decomposition.num_domains == 4
        assert decomposition.core_shape == (8, 8, 8)
        for domain in decomposition.domains:
            assert domain.core_shape == (8, 8, 8)
            # No buffer along z: an undivided axis is already the global
            # period.
            assert domain.local_shape == (16, 16, 8)

    def test_paper_overlap_factor_of_eight(self):
        grid = Grid3D((16, 16, 16), (16.0, 16.0, 16.0))
        decomposition = DomainDecomposition(grid, (2, 2, 2), buffer_fraction=0.5)
        assert decomposition.overlap_factor() == pytest.approx(8.0)

    def test_indivisible_grid_rejected(self):
        grid = Grid3D((10, 10, 10), (10.0, 10.0, 10.0))
        with pytest.raises(ValueError):
            DomainDecomposition(grid, (3, 1, 1))

    def test_extract_and_scatter_round_trip(self, rng):
        grid = Grid3D((8, 8, 8), (8.0, 8.0, 8.0))
        decomposition = DomainDecomposition(grid, (2, 2, 2), buffer_fraction=0.5)
        global_field = rng.standard_normal(grid.shape)
        reassembled = np.zeros(grid.shape)
        for domain in decomposition.domains:
            local = decomposition.extract_local(domain, global_field)
            assert local.shape == domain.local_shape
            decomposition.scatter_core(domain, local, reassembled)
        assert np.allclose(reassembled, global_field)

    def test_assemble_density_conserves_charge(self, rng):
        grid = Grid3D((8, 8, 8), (8.0, 8.0, 8.0))
        decomposition = DomainDecomposition(grid, (2, 1, 1), buffer_fraction=0.5)
        locals_ = [np.abs(rng.standard_normal(d.local_shape)) for d in decomposition.domains]
        assembled = decomposition.assemble_density(locals_)
        expected = sum(
            float(loc[d.core_slice()].sum()) for loc, d in zip(locals_, decomposition.domains)
        )
        assert assembled.sum() == pytest.approx(expected)

    def test_periodic_buffer_wraps(self):
        grid = Grid3D((8, 8, 8), (8.0, 8.0, 8.0))
        decomposition = DomainDecomposition(grid, (2, 1, 1), buffer_fraction=0.5)
        domain = decomposition.domains[0]
        ix, _, _ = domain.global_indices(grid.shape)
        # core is [0, 4) with buffer 2 -> indices start at -2 -> wrap to 6, 7.
        assert list(ix[:2]) == [6, 7]

    def test_domain_positions_along_axis(self):
        grid = Grid3D((8, 8, 8), (8.0, 8.0, 8.0))
        decomposition = DomainDecomposition(grid, (2, 1, 1))
        positions = decomposition.domain_positions(axis=0)
        assert np.allclose(positions, [2.0, 6.0])

    def test_local_grid_geometry(self):
        grid = Grid3D((8, 8, 8), (8.0, 8.0, 8.0))
        decomposition = DomainDecomposition(grid, (2, 2, 2), buffer_fraction=0.5)
        local = decomposition.local_grid(decomposition.domains[0])
        assert local.shape == (8, 8, 8)
        assert local.spacing == grid.spacing


class TestDCSCF:
    def test_dc_scf_matches_monolithic_density(self):
        """With a buffer of half the core length the DC density must agree with
        the monolithic Kohn-Sham density to a few percent (quantum
        nearsightedness)."""
        grid = Grid3D((8, 8, 8), (10.0, 10.0, 10.0))
        centers = [[2.5, 5.0, 5.0], [7.5, 5.0, 5.0]]
        vext = gaussian_external_potential(grid, centers, [3.0, 3.0], [1.2, 1.2])

        mono_ham = LocalHamiltonian(grid, vext)
        mono = KohnShamSolver(
            mono_ham, n_electrons=4, n_orbitals=4, max_iterations=30, tolerance=1e-4
        ).run()

        decomposition = DomainDecomposition(grid, (2, 1, 1), buffer_fraction=0.5)
        dc_solver = DCKohnShamSolver(
            decomposition,
            vext,
            electrons_per_domain=2.0,
            orbitals_per_domain=2,
            max_iterations=25,
            tolerance=1e-4,
        )
        dc = dc_solver.run()
        # Through the density mixer it shares with the monolithic solver the
        # loop converges in 9 iterations here (16 with plain linear mixing).
        assert dc.converged and dc.iterations <= 12
        assert dc.mixer_restarts >= 0
        assert np.all(dc.density >= 0.0)
        assert dc.total_electrons == pytest.approx(4.0)
        assert grid.integrate(dc.density) == pytest.approx(4.0, rel=1e-6)
        diff = np.sqrt(grid.integrate((dc.density - mono.density) ** 2))
        norm = np.sqrt(grid.integrate(mono.density ** 2))
        assert diff / norm < 0.10

    def test_dc_scf_converges_and_reports_residuals(self):
        grid = Grid3D((8, 8, 8), (10.0, 10.0, 10.0))
        vext = gaussian_external_potential(
            grid, [[2.5, 5.0, 5.0], [7.5, 5.0, 5.0]], [3.0, 3.0], [1.2, 1.2]
        )
        decomposition = DomainDecomposition(grid, (2, 1, 1), buffer_fraction=0.5)
        solver = DCKohnShamSolver(
            decomposition, vext, electrons_per_domain=2.0, orbitals_per_domain=2,
            max_iterations=25, tolerance=1e-4,
        )
        result = solver.run()
        assert len(result.density_residuals) == result.iterations
        assert result.density_residuals[-1] <= result.density_residuals[0]
        assert len(result.domain_wavefunctions) == 2
        assert all(len(e) == 2 for e in result.domain_eigenvalues)

    def test_input_validation(self):
        grid = Grid3D((8, 8, 8), (10.0, 10.0, 10.0))
        vext = np.zeros(grid.shape)
        decomposition = DomainDecomposition(grid, (2, 1, 1))
        with pytest.raises(ValueError):
            DCKohnShamSolver(decomposition, vext, electrons_per_domain=[2.0], orbitals_per_domain=2)
        with pytest.raises(ValueError):
            DCKohnShamSolver(decomposition, vext, electrons_per_domain=6.0, orbitals_per_domain=1)
        with pytest.raises(ValueError):
            DCKohnShamSolver(decomposition, np.zeros((4, 4, 4)), electrons_per_domain=2.0, orbitals_per_domain=2)
