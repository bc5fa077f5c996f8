"""Oracles for the QD step kernel.

* The per-axis kinetic operators against the FFT propagator they replace.
* The matrix forms of the current, the kinetic energy and the Hartree solve
  against their FFT forms (kept here, as oracles).
* Unitarity of the driven split-operator step.
* The stacked DC-MESH step against the per-domain loop, bit for bit, and the
  stacked potential and occupation updates against per-domain loops, bit
  for bit.
* The cached local half-step phase against every writer of v_loc.
* Kernel timing (telemetry on) against the untimed step, bit for bit.
* Exact counts: no FFT in a DC-MESH exchange or a MESH step, at most D
  kinetic-operator builds per exchange.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.api import build_engine, default_registry
from repro.dc import DCMESHSimulation
from repro.grid import Grid3D
from repro.grid.poisson import solve_poisson
from repro.maxwell import GaussianPulse, Maxwell1D, MaxwellCoupler
from repro.perf.workspace import KernelWorkspace
from repro.qd import (
    KineticPropagator, LocalHamiltonian, NonlocalCorrection, OccupationState,
    RealTimeTDDFT, WaveFunctions,
)
from repro.qd.hamiltonian import (
    gaussian_external_potential, update_potentials_stacked,
)
from repro.qd.tddft import QD_KERNELS, relax_occupations
from repro.scf import KohnShamSolver
from repro.units import SPEED_OF_LIGHT_AU

QD_DT = 0.1
QD_STEPS_PER_EXCHANGE = 5
EXCHANGES = 40


#: Two cubic grids of different spacing and an anisotropic one with an odd axis.
GRID_SHAPES = [
    ((6, 6, 6), (8.0, 8.0, 8.0)),
    ((8, 8, 8), (6.0, 6.0, 6.0)),
    ((5, 6, 8), (7.0, 8.0, 9.5)),
]


# ----------------------------------------------------------------------
# Per-axis kinetic operators vs the FFT reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape, lengths", GRID_SHAPES)
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
# Current, kinetic energy and Hartree: matrix forms vs FFT forms
# ----------------------------------------------------------------------
def _kinetic_symbol(grid, a_vec):
    """(1/2)(k + A/c)^2 on the full k grid."""
    a = np.zeros(3) if a_vec is None else np.asarray(a_vec) / SPEED_OF_LIGHT_AU
    kx, ky, kz = grid.kvectors()
    return 0.5 * ((kx[:, None, None] + a[0]) ** 2
                  + (ky[None, :, None] + a[1]) ** 2
                  + (kz[None, None, :] + a[2]) ** 2)


def apply_kinetic_fft(grid, psi, a_vec):
    """(1/2)(p + A/c)^2 psi between two FFTs."""
    axes = (-3, -2, -1)
    psi_k = np.fft.fftn(psi, axes=axes)
    return np.fft.ifftn(_kinetic_symbol(grid, a_vec) * psi_k, axes=axes)


def current_fft(grid, psi, occupations, a_vec):
    """-(1/V) sum_s f_s <p + A/c>_s from |psi_s(k)|^2."""
    axes = (-3, -2, -1)
    kx, ky, kz = grid.kvectors()
    weights = np.abs(np.fft.fftn(psi, axes=axes)) ** 2
    norms = np.sum(weights, axis=axes)
    momentum = np.stack([
        np.sum(weights * kx[:, None, None], axis=axes) / norms,
        np.sum(weights * ky[:, None], axis=axes) / norms,
        np.sum(weights * kz, axis=axes) / norms,
    ], axis=-1)
    if a_vec is not None:
        momentum = momentum + np.asarray(a_vec) / SPEED_OF_LIGHT_AU
    return -np.einsum("s,sk->k", occupations, momentum) / grid.volume


def hartree_fft(grid, density):
    """V_H = IFFT(4 pi / k^2 FFT(rho)) with the k = 0 term dropped."""
    k2 = grid.k_squared()
    green = np.where(k2 > 1e-12, 4.0 * np.pi / np.where(k2 > 1e-12, k2, 1.0), 0.0)
    axes = (-3, -2, -1)
    return np.real(np.fft.ifftn(np.fft.fftn(density, axes=axes) * green, axes=axes))


@pytest.mark.parametrize("shape, lengths", GRID_SHAPES)
@pytest.mark.parametrize("a_vec", [None, (40.0, -15.0, 25.0)])
def test_current_and_kinetic_energy_match_fft_forms(shape, lengths, a_vec):
    grid = Grid3D(shape, lengths)
    wf = WaveFunctions.random(grid, 3, np.random.default_rng(7))
    occupations = np.array([2.0, 1.5, 0.5])
    ham = LocalHamiltonian(grid, np.zeros(shape))
    a = None if a_vec is None else np.array(a_vec)

    current = ham.current_density_average(wf.psi, occupations, a)
    assert np.max(np.abs(current - current_fft(grid, wf.psi, occupations, a))) <= 1e-12

    kinetic = ham.apply_kinetic(wf.psi, a)
    reference = apply_kinetic_fft(grid, wf.psi, a)
    assert np.max(np.abs(kinetic - reference)) <= 1e-12

    def energy(t_psi):
        return float(np.real(np.sum(
            occupations[:, None, None, None] * wf.psi.conj() * t_psi)) * grid.dv)

    # total_energy is its kinetic term alone here (v_ext, v_H and v_xc are 0).
    e_kin = ham.total_energy(wf.psi, occupations, a)
    assert abs(e_kin - energy(reference)) <= 1e-12 * max(1.0, abs(e_kin))


@pytest.mark.parametrize("shape, lengths", GRID_SHAPES)
def test_hartree_matches_fft_form(shape, lengths):
    grid = Grid3D(shape, lengths)
    rng = np.random.default_rng(3)
    densities = rng.random((2, *shape))
    potential = solve_poisson(densities, grid)
    assert potential.shape == densities.shape
    for density, solved in zip(densities, potential):
        assert np.max(np.abs(solved - hartree_fft(grid, density))) <= 1e-12


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


def _exchange_series(simulation, exchanges):
    """Step ``simulation`` through ``exchanges`` exchanges; after each, the
    sampled A, the currents, the excitations and the dipoles per domain."""
    series = {"a": [], "currents": [], "excitations": [], "dipoles": []}
    for _ in range(exchanges):
        simulation.step_exchange()
        series["a"].append(simulation.sampled_vector_potential)
        series["currents"].append(simulation.domain_currents())
        series["excitations"].append(simulation.gather_excitations())
        series["dipoles"].append([
            engine.hamiltonian.dipole_moment(engine.wavefunctions.density(
                engine.occupations.electrons_per_orbital()))
            for engine in simulation.domain_engines
        ])
    return {name: np.array(values) for name, values in series.items()}


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
    result = _exchange_series(stacked, EXCHANGES)
    ref_engines, ref_coupler, ref_pulse = _domains(ground_state, num_domains)
    a_ref, currents_ref, excitations_ref = _run_looped(
        ref_engines, ref_coupler, ref_pulse)

    np.testing.assert_array_equal(result["a"], a_ref)
    np.testing.assert_array_equal(result["currents"], currents_ref)
    np.testing.assert_array_equal(result["excitations"], excitations_ref)
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
        a = result["a"]
        differing = np.any(a != a[:, :1], axis=1)
        assert differing.sum() >= EXCHANGES // 2


def test_kernel_timing_leaves_the_step_bit_identical(ground_state,
                                                     live_telemetry):
    """The same two-domain exchanges untimed, then timed: identical bits,
    and one observation per kernel block.  Domain 1 carries a scissors
    correction, so all five kernels run."""
    exchanges = 4
    runs = {}
    for timed in (False, True):  # ends enabled, as the fixture expects
        (telemetry.enable if timed else telemetry.disable)()
        engines, coupler, pulse = _domains(ground_state, 2)
        simulation = DCMESHSimulation(
            engines, coupler, pulse, qd_steps_per_exchange=QD_STEPS_PER_EXCHANGE)
        runs[timed] = (_exchange_series(simulation, exchanges), engines)
        if not timed:
            assert not any(name.startswith("repro_qd_")
                           for name in telemetry.snapshot()["histograms"])

    (untimed, plain), (timed, engines) = runs[False], runs[True]
    for name in ("a", "currents", "excitations", "dipoles"):
        np.testing.assert_array_equal(timed[name], untimed[name])
    for engine, ref in zip(engines, plain):
        np.testing.assert_array_equal(engine.wavefunctions.psi, ref.wavefunctions.psi)
        np.testing.assert_array_equal(engine.hamiltonian.hartree,
                                      ref.hamiltonian.hartree)

    steps = exchanges * QD_STEPS_PER_EXCHANGE
    counts = {
        kernel: telemetry.snapshot()["histograms"][
            f"repro_qd_{kernel}_seconds"]["count"]
        for kernel in QD_KERNELS
    }
    assert counts == {
        "v_loc_prop": 2 * steps,  # two half steps, all domains in one block
        "kin_prop": steps,
        "nlp_prop": steps,        # domain 1 only
        "hartree_xc": exchanges,  # update_potentials_every == steps/exchange
        "occupations": steps,     # all domains in one block
    }


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


# ----------------------------------------------------------------------
# The stacked potential update == a per-domain loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape, lengths", GRID_SHAPES)
@pytest.mark.parametrize("num_domains", [1, 2, 4])
def test_stacked_potential_update_is_bit_identical_to_domain_loop(
        shape, lengths, num_domains):
    grid = Grid3D(shape, lengths)
    rng = np.random.default_rng(num_domains)
    densities = rng.random((num_domains, *shape))

    def hamiltonians():
        return [LocalHamiltonian(grid, gaussian_external_potential(
            grid, [[1.0 + d, 2.0, 3.0]], [2.0 + d], [1.2])) for d in range(num_domains)]

    stacked = hamiltonians()
    update_potentials_stacked(stacked, densities)
    for d, alone in enumerate(hamiltonians()):
        alone.update_potentials(densities[d])
        np.testing.assert_array_equal(stacked[d].hartree, alone.hartree)
        np.testing.assert_array_equal(stacked[d].xc_potential, alone.xc_potential)
        np.testing.assert_array_equal(stacked[d].potentials_state()["xc_energy_density"],
                                      alone.potentials_state()["xc_energy_density"])


# ----------------------------------------------------------------------
# The stacked occupation update == a per-domain loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_domains", [1, 2, 4])
def test_stacked_occupation_update_is_bit_identical_to_domain_loop(num_domains):
    grid = Grid3D((6, 6, 6), (8.0, 8.0, 8.0))
    rng = np.random.default_rng(num_domains)
    n_orb = 3
    reference = np.stack([
        WaveFunctions.random(grid, n_orb, rng).psi.reshape(n_orb, -1).conj()
        for _ in range(num_domains)])
    orbitals = np.stack([
        WaveFunctions.random(grid, n_orb, rng).psi.reshape(n_orb, -1)
        for _ in range(num_domains)])
    occupations = rng.random((num_domains, n_orb))
    initial = rng.random((num_domains, n_orb))
    rates = rng.random((num_domains, 1))

    stacked = relax_occupations(occupations, reference, orbitals, initial,
                                rates, grid.dv)
    for d in range(num_domains):
        overlap = np.einsum("sg,sg->s", reference[d], orbitals[d]) * grid.dv
        survival = (np.abs(overlap) ** 2).clip(0.0, 1.0)
        target = initial[d] * survival
        alone = ((1.0 - rates[d]) * occupations[d] + rates[d] * target).clip(0.0, 1.0)
        np.testing.assert_array_equal(stacked[d], alone)
    assert np.all((stacked >= 0.0) & (stacked <= 1.0))


def test_occupation_update_keeps_the_range_check():
    grid = Grid3D((6, 6, 6), (8.0, 8.0, 8.0))
    wf = WaveFunctions.random(grid, 2, np.random.default_rng(0))
    psi = wf.psi.reshape(1, 2, -1)
    args = (np.full((1, 2), 0.5), psi.conj(), psi)
    # The reference itself: survival 1, so a target of 2 overshoots [0, 1].
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        relax_occupations(*args, np.full((1, 2), 2.0), np.ones((1, 1)), grid.dv)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        relax_occupations(*args, np.full((1, 2), np.nan), np.ones((1, 1)), grid.dv)


# ----------------------------------------------------------------------
# Exact counts: transforms and kinetic-operator builds per step
# ----------------------------------------------------------------------
#: Every transform numpy.fft offers (the frequency and shift helpers do no
#: transform).
FFT_TRANSFORMS = [name for name in np.fft.__all__
                  if not name.endswith(("freq", "shift"))]


@pytest.fixture
def fft_calls(monkeypatch):
    """The names of the numpy.fft transforms called while the test runs."""
    calls = []
    for name in FFT_TRANSFORMS:
        def counting(*args, _name=name, _transform=getattr(np.fft, name),
                     **kwargs):
            calls.append(_name)
            return _transform(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    return calls


@pytest.mark.parametrize("num_domains", [2, 4])
def test_dcmesh_exchange_runs_no_fft_and_at_most_d_operator_builds(
        fft_calls, num_domains):
    workspace = KernelWorkspace()
    spec = default_registry().get("dcmesh-pulse").with_overrides(
        {"propagator.num_domains": num_domains})
    engine = build_engine(spec, workspace=workspace)
    engine.prepare()
    simulation = engine.simulation
    builds = []
    for _ in range(spec.runtime.num_steps):
        before = workspace.stats
        fft_calls.clear()
        simulation.step_exchange()
        after = workspace.stats
        assert fft_calls == []
        misses = after["phase_misses"] - before["phase_misses"]
        lookups = misses + after["phase_hits"] - before["phase_hits"]
        # A is frozen over an exchange: one lookup of each axis per domain
        # at most, and a z-polarised A rebuilds U_z alone.
        assert lookups <= 3 * num_domains
        assert misses <= num_domains
        builds.append(misses)
    # The pulse reaches the domains: their A moves and operators are built.
    assert sum(builds) >= num_domains


def test_mesh_step_runs_no_fft(fft_calls):
    engine = build_engine(default_registry().get("mesh-hopping"),
                          workspace=KernelWorkspace())
    engine.prepare()
    fft_calls.clear()
    engine.step(3)
    engine.record()  # the recording observation, total energy included
    assert fft_calls == []
