"""Build-independent oracles for the ground-state solver.

The dense eigensolve (real symmetric) and the density mixer (Anderson) decide
the converged numbers at the 1e-5 level, so a regenerated golden digest proves
nothing about them.  These tests check truths that hold on any LAPACK build:

* every eigenpair satisfies ``H psi = eps psi`` through the matrix-free
  :meth:`LocalHamiltonian.apply`, which shares no code with the dense assembly;
* the converged density is a fixed point of the un-mixed SCF map;
* eigenvalues, energy and density agree with a plain linear-mixing loop kept
  *here* (not in ``src/``) and run a hundred times tighter;
* the iteration count — an exact, noise-free number — stays at or below 10 and
  below the linear loop's;
* the mixer's safeguard restarts instead of propagating a bad extrapolation.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.scf.eigensolver as eigensolver
from repro.api import default_registry
from repro.grid import Grid3D
from repro.qd import LocalHamiltonian, OccupationState, WaveFunctions
from repro.qd.hamiltonian import gaussian_external_potential
from repro.scf import DensityMixer, KohnShamSolver, lowest_eigenstates

REGISTRY_MATERIALS = ("quickstart-tddft", "dcmesh-pulse", "mesh-hopping")

#: (scenario, per-well depth factors): the registry materials as they are,
#: plus two with the well depths jittered the way the e2e benchmark does.
CASES = [(name, None) for name in REGISTRY_MATERIALS] + [
    ("quickstart-tddft", (0.93, 1.08)),
    ("mesh-hopping", (1.07, 0.91)),
]


def _material(name, factors):
    spec = default_registry().get(name)
    material = spec.material
    depths = material.depths if factors is None else [
        depth * factor for depth, factor in zip(material.depths, factors)]
    grid = spec.grid.build()
    v_ext = gaussian_external_potential(
        grid, material.centers, depths, material.widths)
    return material, grid, v_ext


def _solver(material, grid, v_ext, **overrides):
    options = dict(
        n_electrons=material.n_electrons, n_orbitals=material.n_orbitals,
        max_iterations=material.scf_max_iterations,
        tolerance=material.scf_tolerance,
    )
    options.update(overrides)
    return KohnShamSolver(LocalHamiltonian(grid, v_ext), **options)


def _residual_norm(grid, a, b, n_electrons):
    return float(np.sqrt(grid.integrate((a - b) ** 2))) / max(n_electrons, 1.0)


def _scf_map(hamiltonian, material, density):
    """One un-mixed SCF step: density -> potentials -> orbitals -> density."""
    hamiltonian.update_potentials(density)
    eigenvalues, orbitals = lowest_eigenstates(hamiltonian, material.n_orbitals)
    weights = OccupationState.ground_state(
        material.n_orbitals, material.n_electrons).electrons_per_orbital()
    return eigenvalues, orbitals, WaveFunctions(
        hamiltonian.grid, orbitals).density(weights)


def _linear_mixing_reference(material, grid, v_ext, tolerance, mixing=0.4,
                             max_iterations=400):
    """The pre-Anderson loop, verbatim: fixed linear mixing from a uniform
    density.  Returns the result at ``tolerance / 100`` and the iteration at
    which the residual first dropped below ``tolerance``."""
    hamiltonian = LocalHamiltonian(grid, v_ext)
    density = np.full(grid.shape, material.n_electrons / grid.volume)
    first_below = None
    for iteration in range(1, max_iterations + 1):
        eigenvalues, orbitals, new_density = _scf_map(
            hamiltonian, material, density)
        residual = _residual_norm(grid, new_density, density,
                                  material.n_electrons)
        density = (1.0 - mixing) * density + mixing * new_density
        if first_below is None and residual < tolerance:
            first_below = iteration
        if residual < tolerance / 100.0:
            break
    else:
        raise AssertionError("the linear reference loop did not converge")
    hamiltonian.update_potentials(density)
    weights = OccupationState.ground_state(
        material.n_orbitals, material.n_electrons).electrons_per_orbital()
    return {
        "eigenvalues": eigenvalues, "density": density,
        "total_energy": hamiltonian.total_energy(orbitals, weights),
        "iterations_to_tolerance": first_below,
    }


@pytest.fixture(scope="module", params=CASES,
                ids=[f"{name}{'-jittered' if f else ''}" for name, f in CASES])
def solved(request):
    name, factors = request.param
    material, grid, v_ext = _material(name, factors)
    solver = _solver(material, grid, v_ext)
    return name, factors, material, grid, v_ext, solver.hamiltonian, solver.run()


class TestEigenpairs:
    def test_every_eigenpair_satisfies_the_matrix_free_hamiltonian(self, solved):
        *_, material, grid, _, hamiltonian, _ = solved
        eigenvalues, orbitals = lowest_eigenstates(
            hamiltonian, material.n_orbitals)
        defect = hamiltonian.apply(orbitals) \
            - eigenvalues[:, None, None, None] * orbitals
        norms = np.sqrt(np.sum(np.abs(defect) ** 2, axis=(1, 2, 3)) * grid.dv)
        assert np.all(norms < 1e-8), norms

    def test_orbitals_are_real_orthonormal_and_reproducible(self, solved):
        *_, material, grid, _, hamiltonian, _ = solved
        eigenvalues, orbitals = lowest_eigenstates(
            hamiltonian, material.n_orbitals)
        assert orbitals.dtype == np.complex128
        assert orbitals.shape == (material.n_orbitals, *grid.shape)
        assert not orbitals.imag.any()
        flat = orbitals.reshape(material.n_orbitals, -1)
        overlap = flat.conj() @ flat.T * grid.dv
        assert np.allclose(overlap, np.eye(material.n_orbitals), atol=1e-10)
        again_values, again = lowest_eigenstates(hamiltonian, material.n_orbitals)
        assert np.array_equal(eigenvalues, again_values)
        assert np.array_equal(orbitals, again)

    def test_sign_convention_largest_component_positive(self, solved):
        *_, material, _, _, hamiltonian, _ = solved
        _, orbitals = lowest_eigenstates(hamiltonian, material.n_orbitals)
        for orbital in orbitals.real.reshape(material.n_orbitals, -1):
            tied = np.abs(orbital) >= (1.0 - 1e-6) * np.abs(orbital).max()
            assert orbital[np.argmax(tied)] > 0.0

    def test_non_finite_potential_raises_instead_of_solving(self):
        grid = Grid3D((4, 4, 4), (6.0, 6.0, 6.0))
        v_ext = np.zeros(grid.shape)
        v_ext[1, 2, 3] = np.nan
        with pytest.raises(ValueError):
            lowest_eigenstates(LocalHamiltonian(grid, v_ext), 2)

    def test_dense_matrix_is_real_and_exactly_symmetric(self, solved):
        """A field-free cell's Hamiltonian is assembled and diagonalised in
        float64, a quarter of the cost of the complex Hermitian solve."""
        *_, hamiltonian, _ = solved
        matrix = eigensolver._dense_hamiltonian(hamiltonian)
        assert matrix.dtype == np.float64
        assert np.array_equal(matrix, matrix.T)


class TestSelfConsistency:
    def test_converged_density_is_a_fixed_point_of_the_scf_map(self, solved):
        *_, material, grid, v_ext, _, result = solved
        assert result.converged
        _, _, mapped = _scf_map(
            LocalHamiltonian(grid, v_ext), material, result.density)
        defect = _residual_norm(grid, mapped, result.density,
                                material.n_electrons)
        assert defect < 5.0 * material.scf_tolerance

    def test_density_is_physical(self, solved):
        *_, material, grid, _, _, result = solved
        assert np.all(result.density >= 0.0)
        assert grid.integrate(result.density) == pytest.approx(
            material.n_electrons, rel=1e-12)

    def test_agrees_with_a_tight_linear_mixing_loop(self, solved):
        _, factors, material, grid, v_ext, _, result = solved
        tolerance = material.scf_tolerance
        reference = _linear_mixing_reference(material, grid, v_ext, tolerance)
        bound = 20.0 * tolerance
        assert np.max(np.abs(result.eigenvalues - reference["eigenvalues"])) < bound
        assert abs(result.total_energy - reference["total_energy"]) < bound
        assert _residual_norm(grid, result.density, reference["density"],
                              material.n_electrons) < bound
        # The noise-free perf gate: an exact count, not a stopwatch.
        assert result.iterations < reference["iterations_to_tolerance"]
        assert len(result.density_residuals) == result.iterations
        if factors is None:
            assert result.iterations <= 10


class TestMixerSafeguard:
    def _grid_and_pair(self):
        grid = Grid3D((4, 4, 4), (4.0, 4.0, 4.0))
        x, _, _ = grid.meshgrid()
        density_in = np.full(grid.shape, 2.0 / grid.volume)
        density_out = density_in * (1.0 + 0.5 * np.cos(2 * np.pi * x / 4.0))
        return grid, density_in, density_out

    def test_empty_history_is_the_linear_step(self):
        grid, density_in, density_out = self._grid_and_pair()
        mixed, norm = DensityMixer(grid, 2.0, 0.4).mix(density_in, density_out)
        assert np.allclose(mixed, 0.6 * density_in + 0.4 * density_out,
                           rtol=1e-13, atol=0.0)
        assert norm == pytest.approx(
            _residual_norm(grid, density_out, density_in, 2.0))

    def test_output_is_clipped_and_normalised(self):
        grid, density_in, density_out = self._grid_and_pair()
        mixer = DensityMixer(grid, 2.0, 1.0)
        mixer.mix(density_in, density_out)
        # A second pair engineered so the secant extrapolation undershoots 0.
        mixed, _ = mixer.mix(density_out, density_in * 0.2 + density_out * 0.8)
        assert np.all(mixed >= 0.0)
        assert grid.integrate(mixed) == pytest.approx(2.0, rel=1e-12)

    def test_rising_residual_clears_the_history(self):
        grid, density_in, density_out = self._grid_and_pair()
        mixer = DensityMixer(grid, 2.0, 0.4)
        nearly = density_in + 0.01 * (density_out - density_in)
        mixer.mix(density_in, nearly)            # small residual
        mixed, _ = mixer.mix(density_in, density_out)   # 100x larger
        assert mixer.restarts == 1
        assert np.allclose(mixed, 0.6 * density_in + 0.4 * density_out,
                           rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("poison", ["non-finite", "far-off"])
    def test_bad_extrapolation_restarts_and_the_run_recovers(
            self, monkeypatch, poison):
        """Corrupt the third Anderson step of a real SCF run: a NaN density is
        caught at once, a finite-but-wild one by the residual it causes."""
        material, grid, v_ext = _material("dcmesh-pulse", None)
        genuine = DensityMixer._extrapolate
        calls = {"n": 0}

        def sabotaged(self):
            calls["n"] += 1
            step = genuine(self)
            if calls["n"] != 3:
                return step
            if poison == "non-finite":
                return np.full_like(step, np.nan)
            spike = np.zeros_like(step)
            spike[0] = 1.0
            return spike

        monkeypatch.setattr(DensityMixer, "_extrapolate", sabotaged)
        result = _solver(material, grid, v_ext, max_iterations=40).run()
        assert result.mixer_restarts > 0
        assert result.converged
        assert np.all(np.isfinite(result.density))
        assert np.all(np.isfinite(result.eigenvalues))
        assert np.isfinite(result.total_energy)

    def test_exhausted_iterations_report_unconverged_not_nan(self):
        material, grid, v_ext = _material("quickstart-tddft", None)
        result = _solver(material, grid, v_ext, max_iterations=3).run()
        assert not result.converged and result.iterations == 3
        assert np.all(np.isfinite(result.density))
        assert np.isfinite(result.total_energy)


class TestKineticCache:
    def test_concurrent_geometries_never_lose_their_matrix(self, monkeypatch):
        """More geometries than cache slots, from more threads than cores:
        the evict-then-reread race of the old cache raised KeyError here."""
        monkeypatch.setattr(eigensolver, "_KINETIC_CACHE", {})
        hamiltonians = [
            LocalHamiltonian(Grid3D((3, 3, 3), (4.0 + 0.1 * i,) * 3),
                             np.zeros((3, 3, 3)))
            for i in range(12)
        ]
        errors = []

        def worker(offset):
            try:
                for round_ in range(40):
                    hamiltonian = hamiltonians[(offset + round_) % 12]
                    kinetic = eigensolver._dense_kinetic(hamiltonian)
                    expected = 0.5 * hamiltonian.grid.k_squared().sum() / 27
                    assert kinetic.shape == (27, 27)
                    assert kinetic.dtype == np.float64
                    assert np.trace(kinetic) / 27 == pytest.approx(expected)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert len(eigensolver._KINETIC_CACHE) <= 8
