"""Oracles for the QD step kernel.

* The per-axis kinetic operators against the FFT propagator they replace.
* Unitarity of the driven split-operator step.
* The stacked DC-MESH step against the per-domain loop, bit for bit.
* The cached local half-step phase against every writer of v_loc.
"""

import numpy as np
import pytest

from repro.dc import DCMESHSimulation
from repro.grid import Grid3D
from repro.maxwell import GaussianPulse, Maxwell1D, MaxwellCoupler
from repro.perf.workspace import KernelWorkspace
from repro.qd import (
    KineticPropagator, LocalHamiltonian, NonlocalCorrection, OccupationState,
    RealTimeTDDFT, WaveFunctions,
)
from repro.qd.hamiltonian import gaussian_external_potential
from repro.scf import KohnShamSolver
from repro.units import SPEED_OF_LIGHT_AU

QD_DT = 0.1
QD_STEPS_PER_EXCHANGE = 5
EXCHANGES = 40


# ----------------------------------------------------------------------
# Per-axis kinetic operators vs the FFT reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape, lengths", [
    ((6, 6, 6), (8.0, 8.0, 8.0)),
    ((8, 8, 8), (6.0, 6.0, 6.0)),
    ((5, 6, 8), (7.0, 8.0, 9.5)),
])
@pytest.mark.parametrize("a_vec", [None, (0.8, -0.3, 0.5)])
def test_per_axis_operators_match_fft_reference(shape, lengths, a_vec):
    grid = Grid3D(shape, lengths)
    wf = WaveFunctions.random(grid, 3, np.random.default_rng(11))
    prop = KineticPropagator(grid, dt=0.07, workspace=KernelWorkspace())
    a = None if a_vec is None else np.array(a_vec)
    out = prop.propagate_exact(wf.psi, a)
    reference = prop.propagate_exact_reference(wf.psi, a)
    assert np.max(np.abs(out - reference)) <= 1e-12


# ----------------------------------------------------------------------
# Unitarity of the driven step
# ----------------------------------------------------------------------
def test_orbital_norms_hold_over_200_driven_steps():
    grid = Grid3D((6, 6, 6), (8.0, 8.0, 8.0))
    v_ext = gaussian_external_potential(grid, [[4.0, 4.0, 4.0]], [3.0], [1.2])
    wf = WaveFunctions.random(grid, 3, np.random.default_rng(5))
    engine = RealTimeTDDFT(
        LocalHamiltonian(grid, v_ext), wf, OccupationState.ground_state(3, 2.0),
        dt=0.05, update_potentials_every=2,
        field_callback=lambda t: np.array([0.0, 0.0, 40.0 * np.sin(0.4 * t)]),
        workspace=KernelWorkspace(),
    )
    for _ in range(200):
        engine.step(1)
        assert np.max(np.abs(engine.wavefunctions.norms() - 1.0)) <= 1e-10


# ----------------------------------------------------------------------
# Stacked DC-MESH step == per-domain loop
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ground_state():
    grid = Grid3D((6, 6, 6), (8.0, 8.0, 8.0))
    v_ext = gaussian_external_potential(grid, [[4.0, 4.0, 4.0]], [3.0], [1.2])
    scf = KohnShamSolver(
        LocalHamiltonian(grid, v_ext), n_electrons=2, n_orbitals=3,
        max_iterations=20, tolerance=1e-4,
    ).run()
    return grid, v_ext, scf.wavefunctions


def _domains(ground_state, num_domains):
    """Fresh engines, coupler and pulse; the last of several domains also
    carries a scissors correction, so the per-slice path is exercised."""
    grid, v_ext, orbitals = ground_state
    maxwell_dt = QD_DT * QD_STEPS_PER_EXCHANGE
    dx = 1.05 * SPEED_OF_LIGHT_AU * maxwell_dt
    solver = Maxwell1D(num_points=60, dx=dx, dt=maxwell_dt)
    positions = [(10.0 + 40.0 * d / num_domains) * dx for d in range(num_domains)]
    coupler = MaxwellCoupler(solver, positions)
    engines = []
    for d in range(num_domains):
        scissors = None
        if num_domains > 1 and d == num_domains - 1:
            scissors = NonlocalCorrection(orbitals.copy(), shift=0.05, dt=QD_DT)
        engines.append(RealTimeTDDFT(
            LocalHamiltonian(grid, v_ext), orbitals.copy(),
            OccupationState.ground_state(3, 2.0), dt=QD_DT,
            scissors=scissors, update_potentials_every=5,
            occupation_decoherence_rate=2.0,
        ))
    pulse = GaussianPulse(e0=0.08, omega=0.4, t0=6 * maxwell_dt,
                          sigma=3 * maxwell_dt)
    return engines, coupler, pulse


def _run_looped(engines, coupler, pulse):
    """The per-domain exchange loop: each engine stepped on its own."""
    source = coupler.solver.inject_pulse(pulse)
    polarization = np.asarray(pulse.polarization, dtype=float)
    sampled = [coupler.sample_vector_potential()]
    for d, engine in enumerate(engines):
        engine.field_callback = (
            lambda _t, d=d: sampled[0][d] * polarization)

    def currents():
        return np.array([
            float(np.dot(engine.hamiltonian.current_density_average(
                engine.wavefunctions.psi,
                engine.occupations.electrons_per_orbital(),
                sampled[0][d] * polarization,
            ), polarization))
            for d, engine in enumerate(engines)
        ])

    a_history, current_history, excitation_history = [], [], []
    for _ in range(EXCHANGES):
        for engine in engines:
            engine.step(QD_STEPS_PER_EXCHANGE)
        sampled[0] = coupler.step(currents(), boundary_source=source)
        a_history.append(sampled[0].copy())
        current_history.append(currents())
        excitation_history.append(
            [engine.occupations.excitation_number() for engine in engines])
    return (np.array(a_history), np.array(current_history),
            np.array(excitation_history))


@pytest.mark.parametrize("num_domains", [1, 2, 4])
def test_stacked_exchange_is_bit_identical_to_domain_loop(ground_state, num_domains):
    engines, coupler, pulse = _domains(ground_state, num_domains)
    stacked = DCMESHSimulation(engines, coupler, pulse,
                               qd_steps_per_exchange=QD_STEPS_PER_EXCHANGE)
    result = stacked.run(EXCHANGES)
    ref_engines, ref_coupler, ref_pulse = _domains(ground_state, num_domains)
    a_ref, currents_ref, excitations_ref = _run_looped(
        ref_engines, ref_coupler, ref_pulse)

    np.testing.assert_array_equal(result.vector_potential_at_domains[1:], a_ref)
    np.testing.assert_array_equal(result.domain_currents[1:], currents_ref)
    np.testing.assert_array_equal(result.domain_excitations[1:], excitations_ref)
    for engine, ref in zip(engines, ref_engines):
        np.testing.assert_array_equal(engine.wavefunctions.psi, ref.wavefunctions.psi)
        np.testing.assert_array_equal(engine.occupations.occupations,
                                      ref.occupations.occupations)
        np.testing.assert_array_equal(engine.hamiltonian.hartree,
                                      ref.hamiltonian.hartree)
        assert engine.time == ref.time
    assert np.max(np.abs(currents_ref)) > 0.0
    if num_domains > 1:
        # A domain mix-up can only show where the domains' fields differ.
        a = result.vector_potential_at_domains
        differing = np.any(a != a[:, :1], axis=1)
        assert differing.sum() >= EXCHANGES // 2


def test_stack_is_rebuilt_when_another_simulation_takes_the_engines(ground_state):
    engines, coupler, pulse = _domains(ground_state, 2)
    first = DCMESHSimulation(engines, coupler, pulse,
                             qd_steps_per_exchange=QD_STEPS_PER_EXCHANGE)
    first.step_exchange()
    views = [engine.wavefunctions.psi for engine in engines]
    _, other_coupler, _ = _domains(ground_state, 2)
    second = DCMESHSimulation(engines, other_coupler, pulse,
                              qd_steps_per_exchange=QD_STEPS_PER_EXCHANGE)
    second.step_exchange()
    assert all(engine.wavefunctions.psi is not view
               for engine, view in zip(engines, views))
    before = [engine.wavefunctions.psi.copy() for engine in engines]
    first.step_exchange()
    # The first simulation re-stacked the engines' current orbitals and
    # advanced them (rather than its stale copies).
    for engine, old in zip(engines, before):
        assert engine.wavefunctions.psi.base is first._stack
        assert not np.array_equal(engine.wavefunctions.psi, old)


def test_domains_must_share_grid_and_orbital_count(ground_state):
    engines, coupler, pulse = _domains(ground_state, 2)
    grid = Grid3D((8, 8, 8), (8.0, 8.0, 8.0))
    odd_one = RealTimeTDDFT(
        LocalHamiltonian(grid, np.zeros(grid.shape)),
        WaveFunctions.random(grid, 3, np.random.default_rng(0)),
        OccupationState.ground_state(3, 2.0), dt=QD_DT,
        update_potentials_every=5,
    )
    with pytest.raises(ValueError, match="share one grid"):
        DCMESHSimulation([engines[0], odd_one], coupler, pulse,
                         qd_steps_per_exchange=QD_STEPS_PER_EXCHANGE)


# ----------------------------------------------------------------------
# The cached local half-step phase follows every v_loc writer
# ----------------------------------------------------------------------
def test_half_step_phase_is_rebuilt_on_every_v_loc_writer(ground_state):
    grid, v_ext, orbitals = ground_state
    ham = LocalHamiltonian(grid, v_ext)
    ham.update_potentials(orbitals.density(np.array([2.0, 0.0, 0.0])))

    def fresh():
        return np.exp(-0.5j * QD_DT * ham.local_potential())

    phase = ham.half_step_phase(QD_DT)
    assert ham.half_step_phase(QD_DT) is phase
    np.testing.assert_array_equal(phase, fresh())

    saved = ham.potentials_state()
    ham.update_potentials(orbitals.density(np.array([1.0, 1.0, 0.0])))
    np.testing.assert_array_equal(ham.half_step_phase(QD_DT), fresh())
    assert not np.array_equal(ham.half_step_phase(QD_DT), phase)

    ham.load_potentials_state(saved)
    np.testing.assert_array_equal(ham.half_step_phase(QD_DT), phase)

    ham.external_potential = 0.5 * v_ext
    np.testing.assert_array_equal(ham.half_step_phase(QD_DT), fresh())
    assert not np.array_equal(ham.half_step_phase(QD_DT), phase)
    np.testing.assert_array_equal(ham.half_step_phase(0.2 * QD_DT),
                                  np.exp(-0.5j * (0.2 * QD_DT) * ham.local_potential()))
