"""Tests for the MD substrate: atoms, neighbour lists, force fields, integrators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.conservation import momentum_drift
from repro.api import default_registry, run_scenario
from repro.md import (
    AtomsSystem,
    HarmonicWells,
    LangevinIntegrator,
    LennardJones,
    MorsePotential,
    NeighborList,
    VelocityVerlet,
    brute_force_pairs,
)


def _lj_reference(lj, atoms):
    """The per-pair Python loop ``LennardJones.compute`` replaced: parameters
    looked up pair by pair, forces scattered with two ``add.at``."""
    pairs, vectors, distances = NeighborList(lj.cutoff).build(atoms)
    forces = np.zeros((atoms.n_atoms, 3))
    if pairs.shape[0] == 0:
        return 0.0, forces
    eps = np.empty(pairs.shape[0])
    sig = np.empty(pairs.shape[0])
    for k, (i, j) in enumerate(pairs):
        eps[k], sig[k] = lj._pair_parameters(atoms.species[i], atoms.species[j])
    inv_r6 = (sig / distances) ** 6
    inv_r12 = inv_r6 ** 2
    energy = float(np.sum(4.0 * eps * (inv_r12 - inv_r6)))
    magnitude = 4.0 * eps * (12.0 * inv_r12 - 6.0 * inv_r6) / distances
    pair_forces = magnitude[:, None] * vectors / distances[:, None]
    np.add.at(forces, pairs[:, 0], pair_forces)
    np.add.at(forces, pairs[:, 1], -pair_forces)
    return energy, forces


def _morse_reference(morse, atoms):
    """Morse energy and forces with the ``add.at`` scatter."""
    pairs, vectors, distances = NeighborList(morse.cutoff).build(atoms)
    forces = np.zeros((atoms.n_atoms, 3))
    if pairs.shape[0] == 0:
        return 0.0, forces
    exponent = np.exp(-morse.a * (distances - morse.r0))
    energy = float(np.sum(morse.depth * (1.0 - exponent) ** 2 - morse.depth))
    dE_dr = 2.0 * morse.depth * morse.a * exponent * (1.0 - exponent)
    pair_forces = -dE_dr[:, None] * vectors / distances[:, None]
    np.add.at(forces, pairs[:, 0], pair_forces)
    np.add.at(forces, pairs[:, 1], -pair_forces)
    return energy, forces


def _random_system(seed: int, species, n_atoms: int = 40, box: float = 12.0):
    rng = np.random.default_rng(seed)
    return AtomsSystem(
        rng.uniform(0.0, box, (n_atoms, 3)),
        np.array(rng.choice(species, n_atoms), dtype=object),
        np.array([box] * 3),
    )


class TestAtomsSystem:
    def test_basic_properties(self, argon_fcc):
        assert argon_fcc.n_atoms == 32
        assert np.allclose(argon_fcc.masses, 39.948)

    def test_set_temperature_and_com(self, argon_fcc, rng):
        argon_fcc.set_temperature(120.0, rng)
        assert argon_fcc.temperature() == pytest.approx(120.0, rel=0.45)
        momentum = np.sum(argon_fcc.masses[:, None] * argon_fcc.velocities, axis=0)
        assert np.allclose(momentum, 0.0, atol=1e-10)

    def test_zero_temperature(self, argon_fcc, rng):
        argon_fcc.set_temperature(0.0, rng)
        assert argon_fcc.kinetic_energy() == 0.0

    def test_wrap(self):
        atoms = AtomsSystem(
            positions=np.array([[11.0, 0.5, 0.5], [0.5, 0.5, 0.5]]),
            species=np.array(["Ar", "Ar"], dtype=object),
            box=np.array([10.0, 10.0, 10.0]),
        )
        atoms.wrap()
        assert atoms.positions[0, 0] == pytest.approx(1.0)

    def test_replicate(self, argon_fcc):
        big = argon_fcc.replicate((2, 1, 1))
        assert big.n_atoms == 64
        assert big.box[0] == pytest.approx(2 * argon_fcc.box[0])

    def test_unknown_species_requires_masses(self):
        with pytest.raises(ValueError):
            AtomsSystem(np.zeros((1, 3)), np.array(["Xx"], dtype=object), np.ones(3))
        atoms = AtomsSystem(
            np.zeros((1, 3)), np.array(["Xx"], dtype=object), np.ones(3), masses=np.array([10.0])
        )
        assert atoms.masses[0] == 10.0


class TestNeighborList:
    def test_matches_brute_force(self, rng):
        positions = rng.uniform(0, 12.0, (60, 3))
        atoms = AtomsSystem(positions, np.array(["Ar"] * 60, dtype=object), np.array([12.0] * 3))
        nl = NeighborList(cutoff=3.5, skin=0.0)
        pairs, vectors, distances = nl.build(atoms)
        reference = brute_force_pairs(atoms, 3.5)
        assert set(map(tuple, pairs)) == set(map(tuple, reference))
        assert np.all(distances <= 3.5 + 1e-12)
        assert np.allclose(np.linalg.norm(vectors, axis=1), distances)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        box = float(rng.uniform(6.0, 15.0))
        cutoff = float(rng.uniform(1.5, min(4.0, box / 2.001)))
        positions = rng.uniform(0, box, (n, 3))
        atoms = AtomsSystem(positions, np.array(["Ar"] * n, dtype=object), np.array([box] * 3))
        pairs, _, _ = NeighborList(cutoff, skin=0.0).build(atoms)
        reference = brute_force_pairs(atoms, cutoff)
        assert set(map(tuple, pairs)) == set(map(tuple, reference))

    def test_skin_keeps_list_valid_under_small_moves(self, argon_fcc, rng):
        nl = NeighborList(cutoff=6.0, skin=1.0)
        nl.build(argon_fcc)
        argon_fcc.positions += 0.05 * rng.standard_normal(argon_fcc.positions.shape)
        assert not nl.needs_rebuild(argon_fcc)
        argon_fcc.positions[0] += np.array([1.0, 0.0, 0.0])
        assert nl.needs_rebuild(argon_fcc)

    def test_current_geometry_tracks_positions(self, argon_fcc):
        nl = NeighborList(cutoff=6.0, skin=1.0)
        nl.build(argon_fcc)
        argon_fcc.positions += 0.05
        _, _, distances_before = nl.current_geometry(argon_fcc)
        argon_fcc.positions[0, 0] += 0.2
        _, _, distances_after = nl.current_geometry(argon_fcc)
        assert not np.allclose(distances_before, distances_after)

    def test_neighbor_counts(self, argon_fcc):
        nl = NeighborList(cutoff=4.0, skin=0.0)
        pairs = nl.build(argon_fcc)[0]
        counts = np.bincount(pairs.ravel(), minlength=argon_fcc.n_atoms)
        # Perfect FCC: 12 nearest neighbours within ~3.72 A for a = 5.26.
        assert np.all(counts == 12)


class TestForceFields:
    def test_lj_dimer_minimum(self):
        lj = LennardJones(epsilon=0.0104, sigma=3.4, cutoff=10.0)
        r_min = 2 ** (1 / 6) * 3.4
        atoms = AtomsSystem(
            np.array([[0.0, 0.0, 0.0], [r_min, 0.0, 0.0]]),
            np.array(["Ar", "Ar"], dtype=object),
            np.array([30.0, 30.0, 30.0]),
        )
        energy, forces = lj.compute(atoms)
        assert energy == pytest.approx(-0.0104, rel=1e-6)
        assert np.allclose(forces, 0.0, atol=1e-10)

    def test_lj_forces_match_numerical_gradient(self, argon_fcc, rng):
        lj = LennardJones()
        argon_fcc.positions += 0.05 * rng.standard_normal(argon_fcc.positions.shape)
        _, forces = lj.compute(argon_fcc)
        i, axis = 4, 1
        h = 1e-5
        plus = argon_fcc.copy()
        plus.positions[i, axis] += h
        minus = argon_fcc.copy()
        minus.positions[i, axis] -= h
        e_plus, _ = lj.compute(plus)
        e_minus, _ = lj.compute(minus)
        assert forces[i, axis] == pytest.approx(-(e_plus - e_minus) / (2 * h), rel=1e-4, abs=1e-8)

    def test_morse_minimum_at_r0(self):
        morse = MorsePotential(depth=0.4, a=1.6, r0=2.8, cutoff=8.0)
        atoms = AtomsSystem(
            np.array([[0.0, 0.0, 0.0], [2.8, 0.0, 0.0]]),
            np.array(["O", "O"], dtype=object),
            np.array([20.0, 20.0, 20.0]),
        )
        energy, forces = morse.compute(atoms)
        assert energy == pytest.approx(-0.4, rel=1e-8)
        assert np.allclose(forces, 0.0, atol=1e-10)

    def test_total_force_is_zero(self, argon_fcc, rng):
        argon_fcc.positions += 0.1 * rng.standard_normal(argon_fcc.positions.shape)
        for ff in (LennardJones(), MorsePotential(cutoff=6.0)):
            _, forces = ff.compute(argon_fcc)
            assert np.allclose(forces.sum(axis=0), 0.0, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           case=st.sampled_from(["one", "three-partial"]))
    def test_lj_matches_per_pair_reference_bitwise(self, seed, case):
        if case == "one":
            lj, species = LennardJones(cutoff=5.0), ["Ar"]
        else:
            # Only some species have entries, so the defaults fill the rest.
            lj = LennardJones(cutoff=5.0, species_epsilon={"Ar": 0.0104, "Ti": 0.014},
                              species_sigma={"Pb": 4.1})
            species = ["Ar", "Ti", "Pb"]
        atoms = _random_system(seed, species)
        energy, forces = lj.compute(atoms)
        ref_energy, ref_forces = _lj_reference(lj, atoms)
        assert energy == ref_energy
        assert np.array_equal(forces, ref_forces)

    @pytest.mark.parametrize("ff, reference", [
        (LennardJones(cutoff=3.0), _lj_reference),
        (MorsePotential(cutoff=3.0), _morse_reference),
    ])
    def test_no_pairs_matches_reference(self, ff, reference):
        atoms = AtomsSystem(
            np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]]),
            np.array(["Ar", "Ti"], dtype=object),
            np.array([10.0, 10.0, 10.0]),
        )
        energy, forces = ff.compute(atoms)
        ref_energy, ref_forces = reference(ff, atoms)
        assert energy == ref_energy == 0.0
        assert np.array_equal(forces, ref_forces)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_morse_matches_add_at_reference_bitwise(self, seed):
        morse = MorsePotential(cutoff=5.0)
        atoms = _random_system(seed, ["O"])
        energy, forces = morse.compute(atoms)
        ref_energy, ref_forces = _morse_reference(morse, atoms)
        assert energy == ref_energy
        assert np.array_equal(forces, ref_forces)

    def test_harmonic_wells(self, argon_fcc):
        wells = HarmonicWells(argon_fcc.positions.copy(), spring_constant=2.0)
        displaced = argon_fcc.copy()
        displaced.positions[0] += np.array([0.1, 0.0, 0.0])
        energy, forces = wells.compute(displaced)
        assert energy == pytest.approx(0.5 * 2.0 * 0.01)
        assert forces[0, 0] == pytest.approx(-0.2)


class TestIntegrators:
    def test_velocity_verlet_conserves_energy(self):
        # md-nve: the 2x2x2 FCC argon crystal at 30 K, dt = 2 fs.
        result = run_scenario(default_registry().get("md-nve"),
                              num_steps=100, record_every=1)
        energies = result.observables["total_energy"][1:]
        assert (energies.max() - energies.min()) / abs(energies[0]) < 5e-3

    def test_velocity_verlet_conserves_momentum(self, argon_fcc, rng):
        argon_fcc.set_temperature(50.0, rng)
        integrator = VelocityVerlet(LennardJones(), dt=2.0)
        momenta = []
        for _ in range(20):
            integrator.step(argon_fcc)
            momenta.append(np.sum(argon_fcc.masses[:, None] * argon_fcc.velocities, axis=0))
        assert momentum_drift(np.asarray(momenta)) < 1e-8

    def test_harmonic_oscillator_period(self):
        # Single atom in a harmonic well: period T = 2 pi sqrt(m / k) with the
        # metal-unit conversion folded in.
        k = 1.0
        mass = 10.0
        atoms = AtomsSystem(
            positions=np.array([[5.5, 5.0, 5.0]]),
            species=np.array(["Ar"], dtype=object),
            box=np.array([10.0, 10.0, 10.0]),
            masses=np.array([mass]),
        )
        wells = HarmonicWells(np.array([[5.0, 5.0, 5.0]]), spring_constant=k)
        integrator = VelocityVerlet(wells, dt=0.5)
        period = 2 * np.pi * np.sqrt(mass / (k * 9.648533212e-3))
        positions = []
        steps = int(period / 0.5)
        for _ in range(steps):
            integrator.step(atoms)
            positions.append(atoms.positions[0, 0])
        # After one period the atom should be back near its starting point.
        assert abs(positions[-1] - 5.5) < 0.05

    def test_langevin_thermalises_to_target(self, argon_fcc):
        # Starts cold, which a scenario (thermalised at its target) cannot.
        rng = np.random.default_rng(11)
        integrator = LangevinIntegrator(
            LennardJones(), dt=4.0, temperature_k=60.0, friction=0.05, rng=rng
        )
        temps = []
        for _ in range(150):
            integrator.step(argon_fcc)
            temps.append(argon_fcc.temperature())
        assert np.mean(temps[-50:]) == pytest.approx(60.0, rel=0.4)

    def test_invalid_parameters(self, argon_fcc):
        with pytest.raises(ValueError):
            VelocityVerlet(LennardJones(), dt=0.0)
        with pytest.raises(ValueError):
            LangevinIntegrator(LennardJones(), dt=1.0, temperature_k=-5.0, friction=0.1,
                               rng=np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["md-nve", "md-langevin"])
    def test_run_evaluates_the_force_field_once_per_step_plus_one(
            self, name, monkeypatch):
        """N steps cost N + 1 force-field calls: the step-0 record evaluates
        the energy together with the forces the first step uses, and every
        later record reads the energy its step computed.  A resumed run keeps
        the checkpoint's forces: its remaining steps cost one call each."""
        calls = []
        compute = LennardJones.compute

        def counting(self, atoms, neighbor_list=None):
            calls.append(None)
            return compute(self, atoms, neighbor_list)

        monkeypatch.setattr(LennardJones, "compute", counting)
        spec = default_registry().get(name)
        num_steps = spec.runtime.num_steps
        for record_every in (1, spec.runtime.record_every):
            calls.clear()
            run_scenario(spec, record_every=record_every)
            assert len(calls) == num_steps + 1
        checkpoints = []
        run_scenario(spec, num_steps=num_steps // 2, checkpoint_every=1,
                     on_checkpoint=checkpoints.append)
        calls.clear()
        run_scenario(spec, resume_from=checkpoints[-1])
        assert len(calls) == num_steps - num_steps // 2
