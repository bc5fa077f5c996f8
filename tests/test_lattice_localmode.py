"""Tests for the perovskite builders, skyrmion textures and local-mode model."""

import sys
import threading

import numpy as np
import pytest

from repro.md.lattice import (
    PBTIO3_LATTICE_CONSTANT,
    perovskite_supercell,
    perovskite_unit_cell,
    skyrmion_displacement_field,
)
from repro.md import localmode
from repro.md.localmode import (
    LocalModeLattice, LocalModeModel, force_evaluations, relax_stacked,
    stacked_energy, stacked_forces, step_stacked,
)
from repro.topology.charge import topological_charge
from repro.topology.polarization import in_plane_slice
from repro.utils.mathutils import periodic_shift


class TestPerovskiteBuilders:
    def test_unit_cell_composition(self):
        cell = perovskite_unit_cell()
        assert cell.n_atoms == 5
        assert sorted(cell.species.tolist()) == ["O", "O", "O", "Pb", "Ti"]
        assert cell.box[0] == pytest.approx(PBTIO3_LATTICE_CONSTANT)

    def test_supercell_size_and_metadata(self):
        supercell = perovskite_supercell((3, 2, 1))
        assert supercell.n_atoms == 5 * 6
        assert supercell.metadata["repeats"] == (3, 2, 1)
        # Stoichiometry preserved.
        assert np.sum(supercell.species == "Ti") == 6
        assert np.sum(supercell.species == "O") == 18


class TestSkyrmionTexture:
    def test_superlattice_charge_equals_skyrmion_count(self):
        for count in ((1, 1), (2, 2), (3, 2)):
            field = skyrmion_displacement_field((24, 24, 1), count)
            charge = topological_charge(in_plane_slice(field, 0))
            assert abs(charge) == pytest.approx(count[0] * count[1], abs=0.05)

    def test_core_and_background_polarization(self):
        field = skyrmion_displacement_field((20, 20, 1), (1, 1))
        # Background is up, the core (cell nearest the centre) is down.
        assert field[0, 0, 0, 2] == pytest.approx(1.0, abs=0.01)
        assert field[10, 10, 0, 2] < 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            skyrmion_displacement_field((1, 4, 1), (1, 1))
        with pytest.raises(ValueError):
            skyrmion_displacement_field((8, 8, 1), (0, 1))
        with pytest.raises(ValueError):
            skyrmion_displacement_field((8, 8, 1), (1, 1), radius_fraction=0.9)


class TestLocalModeModel:
    def test_well_minimum(self):
        model = LocalModeModel(quadratic=-0.2, quartic=0.1)
        assert model.well_minimum(0.0) == pytest.approx(1.0)
        # Full excitation with screening > 1 closes the well.
        assert model.well_minimum(1.0) == 0.0

    def test_effective_parameters_validate_weight(self):
        model = LocalModeModel()
        with pytest.raises(ValueError):
            model.effective_quadratic(1.5)

    def test_uniform_state_energy_per_cell(self):
        model = LocalModeModel(coupling=0.08, anisotropy=0.0)
        modes = np.zeros((4, 4, 1, 3))
        modes[..., 2] = model.well_minimum(0.0)
        lattice = LocalModeLattice(modes, model)
        expected_per_cell = model.quadratic * 1.0 + model.quartic * 1.0
        assert lattice.energy() == pytest.approx(16 * expected_per_cell)

    def test_forces_match_numerical_gradient(self):
        rng = np.random.default_rng(0)
        model = LocalModeModel()
        modes = 0.5 * rng.standard_normal((4, 4, 1, 3))
        lattice = LocalModeLattice(modes, model)
        force = lattice.forces(excitation_weight=0.2)
        h = 1e-6
        for index in [(0, 0, 0, 2), (2, 1, 0, 0), (3, 3, 0, 1)]:
            plus = LocalModeLattice(modes.copy(), model)
            plus.modes[index] += h
            minus = LocalModeLattice(modes.copy(), model)
            minus.modes[index] -= h
            numeric = -(plus.energy(0.2) - minus.energy(0.2)) / (2 * h)
            assert force[index] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_relaxation_reaches_well_minimum(self):
        model = LocalModeModel(anisotropy=0.0)
        rng = np.random.default_rng(1)
        modes = np.zeros((4, 4, 1, 3))
        modes[..., 2] = 1.0 + 0.1 * rng.standard_normal((4, 4, 1))
        lattice = LocalModeLattice(modes, model)
        lattice.relax(num_steps=400, dt=0.5)
        magnitudes = np.linalg.norm(lattice.modes, axis=-1)
        assert np.allclose(magnitudes, model.well_minimum(0.0), atol=0.05)

    def test_excited_surface_drives_modes_to_zero(self):
        model = LocalModeModel()
        modes = np.zeros((4, 4, 1, 3))
        modes[..., 2] = 1.0
        lattice = LocalModeLattice(modes, model)
        for _ in range(400):
            lattice.step(1.0, excitation_weight=0.9, damping=0.3)
        assert np.max(np.abs(lattice.modes)) < 0.2

    def test_energy_conservation_without_damping(self):
        model = LocalModeModel()
        rng = np.random.default_rng(2)
        modes = np.zeros((4, 4, 1, 3))
        modes[..., 2] = 1.0 + 0.05 * rng.standard_normal((4, 4, 1))
        lattice = LocalModeLattice(modes, model)
        kinetic0 = 0.5 * lattice.mode_mass * np.sum(lattice.velocities ** 2)
        total0 = lattice.energy() + kinetic0
        for _ in range(200):
            lattice.step(0.5)
        kinetic = 0.5 * lattice.mode_mass * np.sum(lattice.velocities ** 2)
        total = lattice.energy() + kinetic
        assert total == pytest.approx(total0, abs=5e-3 * abs(total0) + 1e-6)


# ----------------------------------------------------------------------
# The one-force-per-step kernel against the two-force step it replaced
# ----------------------------------------------------------------------
class ReferenceLattice:
    """The local-mode step as first written: two force evaluations per
    step, ``np.roll`` neighbours and an ``np.sum`` for ``|u|^2``.  The
    oracle the memoised, gather-based kernel must reproduce bit for bit."""

    def __init__(self, modes, model, mode_mass=50.0):
        self.modes = np.array(modes, dtype=float)
        self.velocities = np.zeros_like(self.modes)
        self.model = model
        self.mode_mass = mode_mass

    def forces(self, excitation_weight, electric_field=None):
        u = self.modes
        a_eff = self.model.effective_quadratic(excitation_weight)
        u2 = np.sum(u ** 2, axis=-1, keepdims=True)
        force = -(2.0 * a_eff * u + 4.0 * self.model.quartic * u2 * u)
        force[..., 2] -= 2.0 * self.model.anisotropy * u[..., 2]
        for axis in range(3):
            if u.shape[axis] < 2:
                continue
            laplacian = (
                np.roll(u, 1, axis=axis) + np.roll(u, -1, axis=axis) - 2.0 * u
            )
            force += self.model.coupling * laplacian
        if electric_field is not None:
            force = force + np.asarray(electric_field, dtype=float).reshape(3)
        return force

    def step(self, dt, excitation_weight, damping, electric_field,
             noise_amplitude, rng):
        force = self.forces(excitation_weight, electric_field)
        self.velocities += 0.5 * dt * force / self.mode_mass
        self.modes += dt * self.velocities
        force = self.forces(excitation_weight, electric_field)
        self.velocities += 0.5 * dt * force / self.mode_mass
        if damping > 0.0:
            self.velocities *= max(0.0, 1.0 - damping * dt)
        if noise_amplitude > 0.0:
            self.velocities += noise_amplitude * rng.standard_normal(
                self.velocities.shape)


def _texture(seed, shape=(8, 6, 2)):
    return 0.8 * np.random.default_rng(seed).standard_normal(shape + (3,))


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


CONSTANT = dict(model=LocalModeModel(), field=None, decay=None)
REUSE_CASES = {
    "constant-weight": CONSTANT,
    "decaying-weight": dict(model=LocalModeModel(), field=None, decay=30.0),
    "field": dict(model=LocalModeModel(), field=[0.01, -0.02, 0.03], decay=None),
}


def _weight(case, step):
    if case["decay"] is None:
        return 0.3
    return 0.5 * float(np.exp(-step / case["decay"]))


class TestOneForcePerStep:
    @pytest.mark.parametrize("name", sorted(REUSE_CASES))
    def test_reuse_is_exact_against_the_two_force_step(self, name):
        case = REUSE_CASES[name]
        modes = _texture(11)
        lattice = LocalModeLattice(modes, case["model"])
        reference = ReferenceLattice(modes, case["model"])
        rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
        for step in range(200):
            w = _weight(case, step)
            lattice.step(0.7, w, 0.05, case["field"], 0.002, rng)
            reference.step(0.7, w, 0.05, case["field"], 0.002, rng_ref)
        assert _same(lattice.modes, reference.modes)
        assert _same(lattice.velocities, reference.velocities)
        w = _weight(case, 200)
        assert _same(lattice.forces(w, case["field"]),
                     reference.forces(w, case["field"]))

    @pytest.mark.parametrize("steps", (1, 7, 40))
    def test_constant_weight_costs_one_evaluation_per_step(self, steps):
        lattice = LocalModeLattice(_texture(20 + steps), LocalModeModel())
        before = force_evaluations()
        for _ in range(steps):
            lattice.step(0.5, 0.2, damping=0.1)
        assert force_evaluations() - before == steps + 1

    def test_decaying_weight_recomputes_every_force(self):
        case = REUSE_CASES["decaying-weight"]
        lattice = LocalModeLattice(_texture(31), case["model"])
        before = force_evaluations()
        for step in range(25):
            lattice.step(0.5, _weight(case, step), damping=0.1)
        assert force_evaluations() - before == 50

    def test_relax_steps_once_per_force(self):
        lattice = LocalModeLattice(_texture(32), LocalModeModel())
        before = force_evaluations()
        lattice.relax(num_steps=30, dt=0.5)
        assert force_evaluations() - before == 31

    def test_writers_between_steps_force_a_recompute(self):
        model = LocalModeModel()
        modes = _texture(41)
        lattice = LocalModeLattice(modes, model)
        reference = ReferenceLattice(modes, model)

        def both_step():
            lattice.step(0.5, 0.3, 0.1, None, 0.0, None)
            reference.step(0.5, 0.3, 0.1, None, 0.0, None)

        for _ in range(5):
            both_step()
        snapshot = lattice.state_dict()
        for _ in range(5):
            both_step()

        # An in-place write to the modes: the memoised force is stale.
        lattice.modes[1, 2, 0, 2] += 0.25
        reference.modes[1, 2, 0, 2] += 0.25
        before = force_evaluations()
        both_step()
        assert force_evaluations() - before == 2
        assert _same(lattice.modes, reference.modes)

        # A restore from an earlier snapshot: stale again.
        lattice.load_state_dict(snapshot)
        reference.modes[...] = snapshot["modes"]
        reference.velocities[...] = snapshot["velocities"]
        before = force_evaluations()
        both_step()
        assert force_evaluations() - before == 2
        for _ in range(10):
            both_step()
        assert _same(lattice.modes, reference.modes)
        assert _same(lattice.velocities, reference.velocities)

    def test_memoised_force_is_read_only_and_public_forces_are_not(self):
        lattice = LocalModeLattice(_texture(51), LocalModeModel())
        stacked = stacked_forces(lattice.modes[None], lattice.model,
                                 np.full((1, 1, 1, 1, 1), -0.2))
        assert not stacked.flags.writeable
        force = lattice.forces()
        force += 1.0  # a caller may scribble on its own copy...
        assert _same(lattice.forces(), stacked[0])  # ...not on the memo

    def test_threads_keep_their_own_memo(self):
        # More threads than cores, switching often: lattices stepped at once
        # in different threads must each get their own forces.
        model = LocalModeModel()
        textures = [_texture(60 + i) for i in range(6)]

        def run(lattice, seed):
            rng = np.random.default_rng(seed)
            for _ in range(150):
                lattice.step(0.5, 0.3, 0.05, None, 0.002, rng)

        serial = [LocalModeLattice(t, model) for t in textures]
        for i, lattice in enumerate(serial):
            run(lattice, i)
        threaded = [LocalModeLattice(t, model) for t in textures]
        workers = [threading.Thread(target=run, args=(lattice, i))
                   for i, lattice in enumerate(threaded)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for a, b in zip(serial, threaded):
            assert _same(a.modes, b.modes)

    def test_noise_without_a_generator_is_refused(self):
        lattice = LocalModeLattice(_texture(70), LocalModeModel())
        before = lattice.modes.copy()
        with pytest.raises(ValueError, match="rng"):
            lattice.step(0.5, noise_amplitude=0.01)
        assert _same(lattice.modes, before)  # refused before stepping


class TestGatherForms:
    @pytest.mark.parametrize("length", (1, 2, 3, 16))
    @pytest.mark.parametrize("shift", (1, -1))
    def test_periodic_shift_gather_equals_roll(self, length, shift):
        rng = np.random.default_rng(length)
        for axis in range(3):
            shape = [2, 3, 2]
            shape[axis] = length
            a = rng.standard_normal(shape + [3])
            gathered = a.take(periodic_shift(length, shift), axis=axis)
            assert _same(gathered, np.roll(a, shift, axis=axis))

    def test_squared_norm_equals_numpy_sum(self):
        rng = np.random.default_rng(2)
        magnitude = 10.0 ** rng.uniform(-3.0, 3.0, size=(20000, 3))
        u = magnitude * rng.choice([-1.0, 1.0], size=magnitude.shape)
        u[:5] = [[0.0, -0.0, 1e-3], [1e3, 1e3, 1e3], [-0.0, -0.0, -0.0],
                 [1e-3, 1e3, 1e-3], [3.0, 4.0, 0.0]]
        assert _same(localmode._squared_norm(u), np.sum(u ** 2, axis=-1))


class TestStackedKernel:
    def test_stack_with_mid_run_peel_off_equals_serial(self):
        model = LocalModeModel()
        textures = [_texture(80 + i, shape=(6, 5, 1)) for i in range(3)]
        weights = [0.1, 0.3, 0.5]
        serial = [ReferenceLattice(t, model) for t in textures]
        for lattice, w, seed in zip(serial, weights, range(3)):
            rng = np.random.default_rng(seed)
            for _ in range(60):
                lattice.step(0.8, w, 0.1, None, 0.003, rng)

        rngs = [np.random.default_rng(seed) for seed in range(3)]
        modes = np.stack(textures)
        velocities = np.zeros_like(modes)
        for _ in range(25):
            step_stacked(modes, velocities, model, 0.8, weights, damping=0.1,
                         noise_amplitude=0.003, rngs=rngs)
        # Member 1 peels off and finishes alone; the others restack.
        alone = LocalModeLattice(modes[1], model)
        alone.velocities[...] = velocities[1]
        keep = [0, 2]
        modes, velocities = modes[keep].copy(), velocities[keep].copy()
        for _ in range(35):
            step_stacked(modes, velocities, model, 0.8,
                         [weights[i] for i in keep], damping=0.1,
                         noise_amplitude=0.003, rngs=[rngs[i] for i in keep])
            alone.step(0.8, weights[1], 0.1, None, 0.003, rngs[1])
        assert _same(modes[0], serial[0].modes)
        assert _same(modes[1], serial[2].modes)
        assert _same(alone.modes, serial[1].modes)
        assert _same(alone.velocities, serial[1].velocities)

    def test_stacked_noise_needs_one_rng_per_member(self):
        modes = np.stack([_texture(90, shape=(4, 4, 1))] * 2)
        with pytest.raises(ValueError, match="one rng per stacked member"):
            step_stacked(modes, np.zeros_like(modes), LocalModeModel(), 0.5,
                         [0.1, 0.2], noise_amplitude=0.01,
                         rngs=[np.random.default_rng(0)])


# ----------------------------------------------------------------------
# The stacked energy and relax kernels against the serial code
# ----------------------------------------------------------------------
def reference_energy(modes, model, excitation_weight, electric_field=None):
    """The lattice energy as written before the stacked kernel: whole-array
    ``np.sum`` calls, ``np.roll`` neighbours, the field term after."""
    u = np.asarray(modes, dtype=float)
    a_eff = model.effective_quadratic(excitation_weight)
    u2 = np.sum(u ** 2, axis=-1)
    onsite = a_eff * u2 + model.quartic * u2 ** 2 + model.anisotropy * u[..., 2] ** 2
    energy = float(np.sum(onsite))
    for axis in range(3):
        if u.shape[axis] < 2:
            continue
        diff = u - np.roll(u, 1, axis=axis)
        energy += 0.5 * model.coupling * float(np.sum(diff ** 2))
    if electric_field is not None:
        energy -= float(np.sum(u @ np.asarray(electric_field, dtype=float)))
    return energy


def _relaxed_reference(modes, model, steps, dt, damping=0.2, velocity=0.0):
    reference = ReferenceLattice(modes, model)
    reference.velocities[...] = velocity
    for _ in range(steps):
        reference.step(dt, 0.0, damping, None, 0.0, None)
    reference.velocities[...] = 0.0
    return reference


ENERGY_CASES = {
    "short-range": dict(model=LocalModeModel(), field=None),
    "field": dict(model=LocalModeModel(), field=[0.01, -0.02, 0.03]),
}


class TestStackedEnergyAndRelax:
    @pytest.mark.parametrize("name", sorted(ENERGY_CASES))
    @pytest.mark.parametrize("shape", ((8, 6, 2), (16, 16, 1), (5, 1, 3)))
    def test_lattice_energy_equals_the_serial_energy_bitwise(self, name,
                                                             shape):
        case = ENERGY_CASES[name]
        for seed, weight in ((1, 0.0), (2, 0.25), (3, 0.9)):
            modes = _texture(seed, shape=shape)
            energy = LocalModeLattice(modes, case["model"]).energy(
                weight, case["field"])
            assert isinstance(energy, float)
            assert _same(energy, reference_energy(
                modes, case["model"], weight, case["field"]))

    @pytest.mark.parametrize("members", (1, 3, 8))
    def test_stacked_energy_rows_equal_each_member_alone(self, members):
        model = LocalModeModel()
        modes = np.stack([_texture(200 + i, shape=(7, 9, 2))
                          for i in range(members)])
        weights = np.linspace(0.0, 0.6, members)
        quadratic_eff = np.array(
            [model.effective_quadratic(w) for w in weights],
        ).reshape(-1, 1, 1, 1, 1)
        energies = stacked_energy(modes, model, quadratic_eff)
        assert energies.shape == (members,)
        for member, weight, energy in zip(modes, weights, energies):
            assert _same(energy, reference_energy(member, model, weight))
            assert _same(energy, LocalModeLattice(member, model).energy(weight))

    def test_lattice_relax_equals_the_serial_relax(self):
        model = CONSTANT["model"]
        modes = _texture(210)
        lattice = LocalModeLattice(modes, model)
        lattice.velocities[...] = 0.3  # a relax starts from these, ends at 0
        reference = _relaxed_reference(modes, model, 40, 0.5, velocity=0.3)
        lattice.relax(num_steps=40, dt=0.5)
        assert _same(lattice.modes, reference.modes)
        assert _same(lattice.velocities, np.zeros_like(lattice.velocities))

    def test_stacked_relax_equals_relaxing_each_member(self):
        model = LocalModeModel()
        textures = [_texture(220 + i, shape=(6, 5, 2)) for i in range(5)]
        serial = []
        for texture in textures:
            lattice = LocalModeLattice(texture, model)
            lattice.velocities[...] = 1.0
            lattice.relax(num_steps=30, dt=0.4, damping=0.15)
            serial.append(lattice)
        modes = np.stack(textures)
        velocities = np.ones_like(modes)
        relax_stacked(modes, velocities, model, num_steps=30, dt=0.4,
                      damping=0.15)
        assert not velocities.any()
        for stacked, lattice, texture in zip(modes, serial, textures):
            assert _same(stacked, lattice.modes)
            assert _same(stacked, _relaxed_reference(
                texture, model, 30, 0.4, damping=0.15, velocity=1.0).modes)

    @pytest.mark.parametrize("members", (1, 4, 8))
    def test_one_stacked_relax_is_one_force_per_step(self, members):
        modes = np.stack([_texture(230 + i) for i in range(members)])
        velocities = np.zeros_like(modes)
        before = force_evaluations()
        relax_stacked(modes, velocities, LocalModeModel(), num_steps=25,
                      dt=0.5)
        assert force_evaluations() - before == 25 + 1

    def test_zero_steps_only_zeroes_velocities_and_bad_dt_is_refused(self):
        modes = np.stack([_texture(240)] * 2)
        velocities = np.ones_like(modes)
        relax_stacked(modes, velocities, LocalModeModel(), num_steps=0)
        assert _same(modes, np.stack([_texture(240)] * 2))
        assert not velocities.any()
        with pytest.raises(ValueError, match="dt must be positive"):
            relax_stacked(modes, velocities, LocalModeModel(), num_steps=3,
                          dt=0.0)
