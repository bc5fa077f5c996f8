"""Tests for grids, stencils and Poisson solvers."""

import numpy as np
import pytest

from repro.grid import (
    Grid3D,
    laplacian,
    laplacian_naive,
    solve_poisson,
)
from repro.grid.poisson import poisson_residual
from repro.grid.stencil import finite_difference_coefficients


class TestGrid3D:
    def test_geometry(self):
        grid = Grid3D((8, 10, 12), (4.0, 5.0, 6.0))
        assert grid.num_points == 8 * 10 * 12
        assert grid.volume == pytest.approx(120.0)
        assert grid.spacing == pytest.approx((0.5, 0.5, 0.5))
        assert grid.dv == pytest.approx(120.0 / 960)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid3D((1, 8, 8), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            Grid3D((8, 8, 8), (0.0, 1.0, 1.0))

    def test_integrate_constant(self, small_grid):
        field = np.full(small_grid.shape, 2.0)
        assert small_grid.integrate(field) == pytest.approx(2.0 * small_grid.volume)

    def test_gaussian_normalised(self, small_grid):
        blob = small_grid.gaussian((4.0, 4.0, 4.0), 1.0)
        assert small_grid.integrate(blob ** 2) == pytest.approx(1.0)

    def test_meshgrid_is_built_once_and_read_only(self):
        grid = Grid3D((4, 5, 6), (2.0, 2.5, 3.0))
        x, y, z = grid.meshgrid()
        again = Grid3D((4, 5, 6), (2.0, 2.5, 3.0)).meshgrid()
        assert all(a is b for a, b in zip((x, y, z), again))
        fresh = np.meshgrid(*grid.axes(), indexing="ij")
        for array, expected in zip((x, y, z), fresh):
            assert np.array_equal(array, expected)
            with pytest.raises(ValueError):
                array += 1.0

    def test_k_squared_zero_mode(self, small_grid):
        assert small_grid.k_squared()[0, 0, 0] == pytest.approx(0.0)


class TestStencils:
    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_fd_coefficients_sum_to_zero(self, order):
        coeffs = finite_difference_coefficients(order)
        assert np.isclose(coeffs.sum(), 0.0, atol=1e-12)
        # Applying to x^2 should give exactly 2 (constant second derivative).
        half = len(coeffs) // 2
        x = np.arange(-half, half + 1, dtype=float)
        assert np.isclose(np.dot(coeffs, x ** 2), 2.0)

    def test_fd_coefficients_rejects_bad_order(self):
        with pytest.raises(ValueError):
            finite_difference_coefficients(3)

    @pytest.mark.parametrize("order,tol", [(2, 3e-2), (4, 2e-3), (6, 2e-4)])
    def test_laplacian_of_plane_wave(self, order, tol):
        grid = Grid3D((16, 16, 16), (8.0, 8.0, 8.0))
        x, _, _ = grid.meshgrid()
        k = 2.0 * np.pi / 8.0
        f = np.sin(k * x)
        lap = laplacian(f, grid, order=order)
        assert np.max(np.abs(lap + k ** 2 * f)) < tol * k ** 2

    def test_laplacian_batch_matches_single(self, small_grid, rng):
        batch = rng.standard_normal((3, *small_grid.shape))
        stacked = laplacian(batch, small_grid, order=4)
        for s in range(3):
            assert np.allclose(stacked[s], laplacian(batch[s], small_grid, order=4))

    def test_laplacian_naive_matches_vectorised(self, small_grid, rng):
        f = rng.standard_normal(small_grid.shape)
        assert np.allclose(laplacian_naive(f, small_grid), laplacian(f, small_grid, order=2))

    def test_shape_validation(self, small_grid):
        with pytest.raises(ValueError):
            laplacian(np.zeros((4, 4, 4)), small_grid)


class TestPoissonSolvers:
    def _gaussian_density(self, grid):
        rho = grid.gaussian((grid.lengths[0] / 2,) * 3, 0.9) ** 2
        return rho / float(grid.integrate(rho))

    def test_hartley_poisson_residual(self):
        grid = Grid3D((16, 16, 16), (10.0, 10.0, 10.0))
        rho = self._gaussian_density(grid)
        potential = solve_poisson(rho, grid)
        assert potential.mean() == pytest.approx(0.0, abs=1e-10)
        assert poisson_residual(potential, rho, grid, order=6) < 0.05

    def test_hartley_poisson_sinusoidal_exact(self):
        # For rho = sin(kx), V = 4 pi sin(kx)/k^2 exactly (single Fourier mode).
        grid = Grid3D((16, 8, 8), (8.0, 8.0, 8.0))
        x, _, _ = grid.meshgrid()
        k = 2 * np.pi / 8.0
        rho = np.sin(k * x)
        v = solve_poisson(rho, grid)
        assert np.allclose(v, 4 * np.pi * np.sin(k * x) / k ** 2, atol=1e-10)

    def test_shape_validation(self, small_grid):
        with pytest.raises(ValueError):
            solve_poisson(np.zeros((4, 4, 4)), small_grid)
