"""Tests for the Allegro-lite model stack: basis, MLP, model, training, TEA, SAM."""

import numpy as np
import pytest

from repro.md import AtomsSystem, LennardJones, NeighborList, VelocityVerlet
from repro.nn import (
    Adam,
    AllegroCalculator,
    AllegroLiteModel,
    BlockedInference,
    ConfigurationDataset,
    MLP,
    RadialBasis,
    SAMOptimizer,
    TotalEnergyAlignment,
    Trainer,
    polynomial_cutoff,
    rattle_dataset,
)
from repro.nn.loss import force_energy_loss, force_rmse
from repro.nn.sam import loss_sharpness


@pytest.fixture()
def liquid_argon(rng):
    """A small dense argon configuration with every atom inside the cutoff."""
    lat = 5.26
    base = np.array([[i, j, k] for i in range(2) for j in range(2) for k in range(2)], dtype=float) * lat
    extra = np.concatenate([base + [lat / 2, lat / 2, 0], base + [lat / 2, 0, lat / 2], base + [0, lat / 2, lat / 2]])
    positions = np.vstack([base, extra]) + 0.15 * rng.standard_normal((32, 3))
    return AtomsSystem(positions, np.array(["Ar"] * 32, dtype=object), np.array([2 * lat] * 3))


class TestBasis:
    def test_cutoff_envelope_boundary_values(self):
        value, derivative = polynomial_cutoff(np.array([0.0, 2.5, 5.0, 6.0]), 5.0)
        assert value[0] == pytest.approx(1.0)
        assert value[2] == pytest.approx(0.0, abs=1e-12)
        assert value[3] == 0.0
        assert derivative[3] == 0.0

    def test_cutoff_derivative_matches_numerical(self):
        r = np.linspace(0.1, 4.9, 20)
        value, derivative = polynomial_cutoff(r, 5.0)
        h = 1e-6
        vp, _ = polynomial_cutoff(r + h, 5.0)
        vm, _ = polynomial_cutoff(r - h, 5.0)
        assert np.allclose(derivative, (vp - vm) / (2 * h), atol=1e-5)

    def test_radial_basis_shapes_and_derivatives(self):
        basis = RadialBasis(cutoff=5.0, num_basis=6)
        r = np.linspace(0.5, 4.5, 15)
        values, derivs = basis.evaluate(r)
        assert values.shape == (15, 6)
        h = 1e-6
        vp, _ = basis.evaluate(r + h)
        vm, _ = basis.evaluate(r - h)
        assert np.allclose(derivs, (vp - vm) / (2 * h), atol=1e-5)

    def test_basis_vanishes_beyond_cutoff(self):
        basis = RadialBasis(cutoff=4.0, num_basis=4)
        values, derivs = basis.evaluate(np.array([4.0, 5.0]))
        assert np.allclose(values, 0.0)
        assert np.allclose(derivs, 0.0)


class TestMLP:
    def test_forward_shapes(self, rng):
        mlp = MLP((4, 8, 2), rng=rng)
        out = mlp.forward(rng.standard_normal((5, 4)))
        assert out.shape == (5, 2)
        assert mlp.forward(rng.standard_normal(4)).shape == (2,)

    def test_parameter_round_trip(self, rng):
        mlp = MLP((3, 5, 1), rng=rng)
        params = mlp.get_parameters()
        assert params.size == mlp.num_parameters
        mlp.set_parameters(params * 2.0)
        assert np.allclose(mlp.get_parameters(), params * 2.0)

    def test_backward_gradient_check(self, rng):
        mlp = MLP((3, 6, 2), rng=rng)
        x = rng.standard_normal((4, 3))
        out, cache = mlp.forward(x, cache=True)
        upstream = rng.standard_normal(out.shape)
        grad_params, grad_inputs = mlp.backward(cache, upstream)

        def scalar(params):
            mlp.set_parameters(params)
            return float(np.sum(mlp.forward(x) * upstream))

        params = mlp.get_parameters()
        h = 1e-6
        for index in [0, 5, 17, params.size - 1]:
            perturbed = params.copy()
            perturbed[index] += h
            numeric = (scalar(perturbed) - scalar(params)) / h
            assert grad_params[index] == pytest.approx(numeric, rel=1e-3, abs=1e-6)
        # Input gradient check.
        xp = x.copy()
        xp[1, 2] += h
        numeric_input = (float(np.sum(mlp.forward(xp) * upstream)) - scalar(params)) / h
        assert grad_inputs[1, 2] == pytest.approx(numeric_input, rel=1e-3, abs=1e-6)

    def test_invalid_configurations(self):
        with pytest.raises(ValueError):
            MLP((3,))
        with pytest.raises(ValueError):
            MLP((3, 2), activation="relu6")


class TestAllegroLiteModel:
    def test_forces_are_gradient_of_energy(self, liquid_argon, rng):
        model = AllegroLiteModel(species=["Ar"], cutoff=5.0, num_basis=6, hidden=(16,), rng=rng)
        _, forces = model.energy_and_forces(liquid_argon)
        h = 1e-5
        for (i, axis) in [(0, 0), (7, 2)]:
            plus = liquid_argon.copy()
            plus.positions[i, axis] += h
            minus = liquid_argon.copy()
            minus.positions[i, axis] -= h
            e_plus, _ = model.energy_and_forces(plus)
            e_minus, _ = model.energy_and_forces(minus)
            assert forces[i, axis] == pytest.approx(-(e_plus - e_minus) / (2 * h), rel=1e-4, abs=1e-7)

    def test_momentum_conservation_and_translation_invariance(self, liquid_argon, rng):
        model = AllegroLiteModel(species=["Ar"], cutoff=5.0, rng=rng)
        energy, forces = model.energy_and_forces(liquid_argon)
        assert np.allclose(forces.sum(axis=0), 0.0, atol=1e-10)
        shifted = liquid_argon.copy()
        shifted.positions += np.array([1.3, -0.7, 2.1])
        shifted.wrap()
        energy_shifted, _ = model.energy_and_forces(shifted)
        assert energy_shifted == pytest.approx(energy, rel=1e-10)

    def test_rotation_equivariance(self, rng):
        # Use an isolated cluster (no PBC wrapping issues) in a large box.
        positions = 5.0 + rng.uniform(-1.5, 1.5, (6, 3))
        atoms = AtomsSystem(positions, np.array(["Ar"] * 6, dtype=object), np.array([50.0] * 3))
        model = AllegroLiteModel(species=["Ar"], cutoff=5.0, rng=rng)
        energy, forces = model.energy_and_forces(atoms)
        theta = 0.7
        rot = np.array([
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ])
        rotated = atoms.copy()
        rotated.positions = (atoms.positions - 5.0) @ rot.T + 5.0
        energy_rot, forces_rot = model.energy_and_forces(rotated)
        assert energy_rot == pytest.approx(energy, rel=1e-9)
        assert np.allclose(forces_rot, forces @ rot.T, atol=1e-8)

    def test_parameter_gradient_check(self, liquid_argon, rng):
        model = AllegroLiteModel(species=["Ar"], cutoff=4.5, num_basis=5, hidden=(8,), rng=rng)
        lj = LennardJones()
        ref_e, ref_f = lj.compute(liquid_argon)
        energy, forces, cache = model.energy_and_forces(liquid_argon, return_cache=True)
        loss0, grad_e, grad_f = force_energy_loss(energy, forces, ref_e, ref_f, liquid_argon.n_atoms)
        analytic = model.parameter_gradient(cache, grad_e, grad_f)
        params = model.get_parameters()
        h = 1e-6
        for index in [1, 20, params.size - 3]:
            perturbed = params.copy()
            perturbed[index] += h
            model.set_parameters(perturbed)
            e1, f1 = model.energy_and_forces(liquid_argon)
            loss1, _, _ = force_energy_loss(e1, f1, ref_e, ref_f, liquid_argon.n_atoms)
            model.set_parameters(params)
            numeric = (loss1 - loss0) / h
            assert analytic[index] == pytest.approx(numeric, rel=5e-3, abs=1e-6)

    def test_reference_energies_added(self, liquid_argon, rng):
        model = AllegroLiteModel(species=["Ar"], cutoff=4.5, rng=rng,
                                 atomic_reference_energies={"Ar": -1.5})
        bare = AllegroLiteModel(species=["Ar"], cutoff=4.5, rng=np.random.default_rng(42))
        bare.set_parameters(model.get_parameters())
        e_with, _ = model.energy_and_forces(liquid_argon)
        e_without, _ = bare.energy_and_forces(liquid_argon)
        assert e_with - e_without == pytest.approx(-1.5 * 32)

    def test_num_weights_positive(self, rng):
        model = AllegroLiteModel(species=["Pb", "Ti", "O"], rng=rng)
        assert model.num_weights > 100


class TestTrainingAndInference:
    def test_training_reduces_force_error(self, liquid_argon, rng):
        lj = LennardJones()
        data = rattle_dataset(liquid_argon, lj, 20, 0.08, rng)
        model = AllegroLiteModel(species=["Ar"], cutoff=5.0, num_basis=8, hidden=(16, 16), rng=rng)
        trainer = Trainer(model, learning_rate=0.02, batch_size=5, rng=rng)
        _, rmse_before = trainer.evaluate(data)
        history = trainer.train(data, epochs=25, validation=data)
        _, rmse_after = trainer.evaluate(data)
        assert rmse_after < 0.3 * rmse_before
        assert history.train_loss[-1] < history.train_loss[0]
        assert len(history.validation_force_rmse) == 25

    def test_sam_training_runs_and_finds_flatter_minimum(self, liquid_argon, rng):
        lj = LennardJones()
        data = rattle_dataset(liquid_argon, lj, 12, 0.08, rng)

        def make_and_train(use_sam, seed):
            model = AllegroLiteModel(species=["Ar"], cutoff=5.0, num_basis=6, hidden=(12,),
                                     rng=np.random.default_rng(seed))
            trainer = Trainer(model, learning_rate=0.02, batch_size=4, use_sam=use_sam,
                              sam_rho=0.05, rng=np.random.default_rng(seed))
            trainer.train(data, epochs=15)
            return model, trainer

        plain_model, plain_trainer = make_and_train(False, 7)
        sam_model, sam_trainer = make_and_train(True, 7)

        def loss_of(model, trainer):
            def fn(params):
                original = model.get_parameters()
                model.set_parameters(params)
                loss, _ = trainer.evaluate(data)
                model.set_parameters(original)
                return loss
            return fn

        rho = 0.05
        rng_local = np.random.default_rng(0)
        sharp_plain = loss_sharpness(loss_of(plain_model, plain_trainer), plain_model.get_parameters(), rho, rng_local)
        sharp_sam = loss_sharpness(loss_of(sam_model, sam_trainer), sam_model.get_parameters(), rho, rng_local)
        # SAM should not land in a *sharper* minimum than plain Adam.
        assert sharp_sam <= sharp_plain * 1.5

    def test_blocked_inference_matches_monolithic(self, liquid_argon, rng):
        model = AllegroLiteModel(species=["Ar"], cutoff=5.0, rng=rng)
        blocked = BlockedInference(model, block_size=7)
        e_blocked, f_blocked = blocked.compute(liquid_argon)
        e_full, f_full = model.energy_and_forces(liquid_argon)
        assert e_blocked == pytest.approx(e_full, abs=1e-10)
        assert np.allclose(f_blocked, f_full, atol=1e-10)
        assert blocked.peak_pairs_per_block > 0

    def test_blocked_inference_rejects_empty_blocks(self, rng):
        model = AllegroLiteModel(species=["Ar"], cutoff=5.0, rng=rng)
        with pytest.raises(ValueError):
            BlockedInference(model, block_size=0)

    def test_blocked_inference_peak_pairs_shrink_with_block_size(self, liquid_argon, rng):
        model = AllegroLiteModel(species=["Ar"], cutoff=5.0, rng=rng)
        neighbor_list = NeighborList(model.cutoff)
        neighbor_list.build(liquid_argon)
        total_pairs = neighbor_list.pairs.shape[0]
        peaks, results = [], []
        for block_size in (liquid_argon.n_atoms, 8, 1):
            blocked = BlockedInference(model, block_size=block_size)
            results.append(blocked.compute(liquid_argon))
            peaks.append(blocked.peak_pairs_per_block)
        assert peaks[0] == total_pairs
        assert peaks[0] > peaks[1] > peaks[2] > 0
        for energy, forces in results[1:]:
            assert energy == pytest.approx(results[0][0], abs=1e-10)
            assert np.allclose(forces, results[0][1], atol=1e-10)

    def test_blocked_inference_without_pairs_returns_reference_energy(self, rng):
        model = AllegroLiteModel(species=["Ar"], cutoff=3.0, rng=rng,
                                 atomic_reference_energies={"Ar": -0.5})
        atoms = AtomsSystem(np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]),
                            np.array(["Ar", "Ar"], dtype=object), np.array([30.0] * 3))
        energy, forces = BlockedInference(model, block_size=1).compute(atoms)
        assert energy == pytest.approx(-1.0)
        assert np.array_equal(forces, np.zeros((2, 3)))

    def test_blocked_inference_memory_model_counts_blocks(self, rng):
        model = AllegroLiteModel(species=["Ar"], cutoff=5.0, rng=rng)
        report = BlockedInference(model, block_size=300).memory_model_bytes(
            1000, neighbors_per_atom=50)
        assert report["blocks"] == 4
        assert report["positions_bytes"] == 3 * 1000 * 8
        assert report["neighbor_list_bytes_monolithic"] == 25_000 * 48
        assert report["neighbor_list_bytes_blocked_peak"] == 25_000 * 48 // 4

    def test_blocked_inference_memory_model(self, rng):
        model = AllegroLiteModel(species=["Ar"], cutoff=5.0, rng=rng)
        blocked = BlockedInference(model, block_size=1000)
        report = blocked.memory_model_bytes(10_000, neighbors_per_atom=60)
        assert report["neighbor_list_bytes_monolithic"] > report["positions_bytes"] * 10
        assert report["neighbor_list_bytes_blocked_peak"] < report["neighbor_list_bytes_monolithic"]

    def test_calculator_protocol_runs_md(self, liquid_argon, rng):
        lj = LennardJones()
        data = rattle_dataset(liquid_argon, lj, 15, 0.08, rng)
        model = AllegroLiteModel(species=["Ar"], cutoff=5.0, num_basis=8, hidden=(16,), rng=rng)
        Trainer(model, learning_rate=0.02, batch_size=5, rng=rng).train(data, epochs=20)
        calculator = AllegroCalculator(model)
        atoms = liquid_argon.copy()
        atoms.set_temperature(20.0, rng)
        integrator = VelocityVerlet(calculator, dt=2.0)
        energies = []
        for _ in range(20):
            integrator.step(atoms)
            energies.append(integrator.potential_energy(atoms) + atoms.kinetic_energy())
        assert np.all(np.isfinite(energies))
        assert calculator.call_count > 0

    def test_optimizers(self):
        params = np.array([1.0, -2.0])
        grad = np.array([0.5, -0.5])
        adam = Adam(learning_rate=0.1)
        updated = adam.step(params, grad)
        assert updated[0] < params[0] and updated[1] > params[1]
        sam = SAMOptimizer(Adam(learning_rate=0.1), rho=0.1)
        perturbed = sam.perturb(params, grad)
        assert np.linalg.norm(perturbed - params) == pytest.approx(0.1)

    def test_loss_helpers(self):
        loss, ge, gf = force_energy_loss(1.0, np.zeros((2, 3)), 0.0, np.zeros((2, 3)), 2)
        assert loss == pytest.approx(0.25)
        assert ge == pytest.approx(0.5)
        assert np.allclose(gf, 0.0)
        assert force_rmse(np.ones((2, 3)), np.zeros((2, 3))) == pytest.approx(1.0)


class TestTotalEnergyAlignment:
    def test_recovers_affine_offsets(self, liquid_argon, rng):
        lj = LennardJones()
        reference = rattle_dataset(liquid_argon, lj, 10, 0.06, rng, fidelity="pbe")
        # Low fidelity: same configurations, energies distorted by a known affine map.
        shifted = ConfigurationDataset()
        for config in reference:
            shifted.add(
                type(config)(
                    atoms=config.atoms,
                    energy=0.8 * config.energy + 0.37 * config.atoms.n_atoms,
                    forces=0.8 * config.forces,
                    fidelity="lda",
                )
            )
        tea = TotalEnergyAlignment(reference_fidelity="pbe")
        tea.fit({"pbe": reference, "lda": shifted}, paired_reference={"lda": reference})
        assert tea.alignment_residual(shifted, reference) < 1e-8
        aligned = tea.align(shifted)
        for aligned_config, ref_config in zip(aligned, reference):
            assert aligned_config.energy == pytest.approx(ref_config.energy, abs=1e-6)
            assert np.allclose(aligned_config.forces, ref_config.forces, atol=1e-8)

    def test_mismatched_lengths_rejected(self, liquid_argon, rng):
        lj = LennardJones()
        a = rattle_dataset(liquid_argon, lj, 4, 0.05, rng, fidelity="a")
        b = rattle_dataset(liquid_argon, lj, 3, 0.05, rng, fidelity="b")
        tea = TotalEnergyAlignment(reference_fidelity="a")
        with pytest.raises(ValueError):
            tea.fit({"a": a, "b": b})

    def test_dataset_utilities(self, liquid_argon, rng):
        lj = LennardJones()
        data = rattle_dataset(liquid_argon, lj, 8, 0.05, rng)
        train, valid = data.split(0.75, rng)
        assert len(train) + len(valid) == 8
        batches = list(data.batches(3, rng))
        assert sum(len(b) for b in batches) == 8
