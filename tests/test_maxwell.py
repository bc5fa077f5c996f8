"""Tests for laser pulses, the 1-D multiscale Maxwell solver and the coupler."""

import numpy as np
import pytest

from repro.api import default_registry, run_scenario
from repro.maxwell import (
    GaussianPulse,
    Maxwell1D,
    MaxwellCoupler,
    TrapezoidalPulse,
)
from repro.units import SPEED_OF_LIGHT_AU


class TestPulses:
    def test_gaussian_peak_field(self):
        pulse = GaussianPulse(e0=0.02, omega=0.3, t0=50.0, sigma=10.0)
        field = pulse.electric_field(50.0)
        assert np.linalg.norm(field) == pytest.approx(0.02)
        assert np.allclose(field / np.linalg.norm(field), [0, 0, 1])

    def test_gaussian_field_vanishes_far_away(self):
        pulse = GaussianPulse(e0=0.02, omega=0.3, t0=50.0, sigma=5.0)
        assert np.linalg.norm(pulse.electric_field(200.0)) < 1e-10
        assert np.linalg.norm(pulse.vector_potential(200.0)) < 1e-10

    def test_vector_potential_derivative_gives_field(self):
        pulse = GaussianPulse(e0=0.01, omega=0.5, t0=40.0, sigma=12.0)
        t = 40.0
        h = 1e-3
        dA_dt = (pulse.vector_potential(t + h) - pulse.vector_potential(t - h)) / (2 * h)
        e_numeric = -dA_dt / SPEED_OF_LIGHT_AU
        e_analytic = pulse.electric_field(t)
        # Slowly-varying-envelope relation: accurate to ~1/(omega*sigma)^2.
        assert np.allclose(e_numeric, e_analytic, rtol=0.05, atol=1e-5)

    def test_polarization_normalised(self):
        pulse = GaussianPulse(e0=1.0, omega=0.3, t0=0.0, sigma=1.0, polarization=np.array([2.0, 0.0, 0.0]))
        assert np.allclose(pulse.polarization, [1, 0, 0])
        with pytest.raises(ValueError):
            GaussianPulse(e0=1.0, omega=0.3, t0=0.0, sigma=1.0, polarization=np.zeros(3))

    def test_trapezoidal_envelope(self):
        pulse = TrapezoidalPulse(e0=0.1, omega=1.0, ramp=10.0, plateau=20.0)
        assert np.linalg.norm(pulse.vector_potential(-1.0)) == pytest.approx(0.0)
        assert np.abs(pulse._envelope(np.array([20.0]))[0]) == pytest.approx(1.0)
        assert np.linalg.norm(pulse.vector_potential(100.0)) == pytest.approx(0.0)

    def test_trapezoidal_envelope_is_piecewise_linear(self):
        pulse = TrapezoidalPulse(e0=0.1, omega=1.0, ramp=4.0, plateau=6.0, t_start=2.0)
        # Before, mid-ramp up, plateau, mid-ramp down, after (end at t = 16).
        t = np.array([1.0, 4.0, 9.0, 15.0, 17.0])
        np.testing.assert_allclose(pulse._envelope(t), [0.0, 0.5, 1.0, 0.25, 0.0])

    def test_trapezoidal_envelope_is_continuous_at_its_corners(self):
        pulse = TrapezoidalPulse(e0=0.1, omega=1.0, ramp=3.0, plateau=5.0, t_start=1.0)
        eps = 1e-9
        for corner, value in ((1.0, 0.0), (4.0, 1.0), (9.0, 1.0), (12.0, 0.0)):
            sides = pulse._envelope(np.array([corner - eps, corner, corner + eps]))
            np.testing.assert_allclose(sides, value, atol=1e-8)

    def test_trapezoidal_plateau_carries_the_full_carrier(self):
        e0, omega, ramp, t_start = 0.05, 0.7, 2.0, 1.5
        pulse = TrapezoidalPulse(e0=e0, omega=omega, ramp=ramp, plateau=10.0,
                                 t_start=t_start, polarization=np.array([0.0, 3.0, 0.0]))
        t = np.linspace(t_start + ramp, t_start + ramp + 10.0, 7)
        expected = -SPEED_OF_LIGHT_AU * e0 / omega * np.sin(omega * (t - t_start))
        a = pulse.vector_potential(t)
        np.testing.assert_allclose(a[:, 1], expected, rtol=1e-12)
        assert np.all(a[:, [0, 2]] == 0.0)

    def test_trapezoidal_vector_potential_vanishes_outside_the_pulse(self):
        pulse = TrapezoidalPulse(e0=0.2, omega=0.4, ramp=1.0, plateau=2.0, t_start=5.0)
        t = np.concatenate([np.linspace(-10.0, 5.0, 9), np.linspace(9.0, 50.0, 9)])
        assert np.all(pulse.vector_potential(t) == 0.0)

    def test_trapezoidal_polarization_normalised(self):
        pulse = TrapezoidalPulse(e0=0.1, omega=1.0, ramp=1.0, plateau=1.0,
                                 polarization=np.array([0.0, 0.0, -4.0]))
        assert np.allclose(pulse.polarization, [0, 0, -1])
        with pytest.raises(ValueError, match="non-zero"):
            TrapezoidalPulse(e0=0.1, omega=1.0, ramp=1.0, plateau=1.0,
                             polarization=np.zeros(3))

    @pytest.mark.parametrize("field, value", [("omega", 0.0), ("ramp", -1.0), ("plateau", -0.5)])
    def test_trapezoidal_parameter_validation(self, field, value):
        params = dict(e0=0.1, omega=1.0, ramp=1.0, plateau=1.0)
        params[field] = value
        with pytest.raises(ValueError, match=field):
            TrapezoidalPulse(**params)

    @pytest.mark.parametrize("pulse", [
        GaussianPulse(e0=0.02, omega=0.3, t0=5.0, sigma=2.0, polarization=np.array([1.0, 1.0, 0.0])),
        TrapezoidalPulse(e0=0.02, omega=0.3, ramp=2.0, plateau=3.0, polarization=np.array([1.0, 1.0, 0.0])),
    ], ids=["gaussian", "trapezoidal"])
    def test_vector_potential_broadcasts_over_times(self, pulse):
        times = np.linspace(0.0, 8.0, 11)
        a = pulse.vector_potential(times)
        assert a.shape == (11, 3)
        for t, row in zip(times, a):
            np.testing.assert_array_equal(row, pulse.vector_potential(t))
        # Linear polarisation: every sample lies along the unit vector.
        np.testing.assert_allclose(a[:, 0], a[:, 1])
        assert np.all(a[:, 2] == 0.0)


class TestMaxwell1D:
    def test_cfl_enforced(self):
        with pytest.raises(ValueError):
            Maxwell1D(num_points=100, dx=1.0, dt=1.0)

    def test_vacuum_pulse_propagates_at_light_speed(self):
        dx = 5.0
        dt = 0.8 * dx / SPEED_OF_LIGHT_AU
        solver = Maxwell1D(num_points=400, dx=dx, dt=dt)
        pulse = GaussianPulse(e0=0.05, omega=0.4, t0=20 * dt, sigma=6 * dt)
        source = solver.inject_pulse(pulse, entry_index=5)
        num_steps = 250
        for _ in range(num_steps):
            solver.step(boundary_source=source, source_index=5)
        profile = np.abs(solver.vector_potential())
        peak_index = int(np.argmax(profile))
        expected = 5 + SPEED_OF_LIGHT_AU * (num_steps * dt - 20 * dt) / dx
        assert abs(peak_index - expected) < 12
        assert profile.max() > 1e-4

    def test_field_energy_positive_and_decays_after_absorption(self):
        dt = 0.8 * 5.0 / SPEED_OF_LIGHT_AU  # dx = 5 Bohr at Courant number 0.8
        spec = default_registry().get("maxwell-vacuum").with_overrides({
            "propagator.maxwell_points": 120,
            "propagator.maxwell_courant": 0.8,
            "propagator.dt": dt,
            "pulse.e0": 0.05, "pulse.omega": 0.5,
            "pulse.t0": 15 * dt, "pulse.sigma": 4 * dt,
        })
        # Recorded at step 60 and after 400 more, once the pulse has left
        # through the absorbing boundary.
        energy = run_scenario(spec, num_steps=460, record_every=20
                              ).observables["field_energy"]
        mid_energy = energy[60 // 20]
        assert mid_energy > 0
        assert energy[-1] < 0.05 * mid_energy

    def test_current_source_generates_field(self):
        dx = 2.0
        dt = 0.5 * dx / SPEED_OF_LIGHT_AU
        solver = Maxwell1D(num_points=50, dx=dx, dt=dt)
        current = np.zeros(50)
        current[25] = 1.0
        solver.step(current)
        assert np.max(np.abs(solver.vector_potential())) > 0

    def test_current_shape_validated(self):
        solver = Maxwell1D(num_points=50, dx=2.0, dt=0.001)
        with pytest.raises(ValueError):
            solver.step(np.zeros(10))


class TestMaxwellCoupler:
    def _solver(self):
        dx = 5.0
        dt = 0.5 * dx / SPEED_OF_LIGHT_AU
        return Maxwell1D(num_points=100, dx=dx, dt=dt)

    def test_sampling_interpolates(self):
        solver = self._solver()
        solver.a_curr = np.linspace(0.0, 1.0, 100)
        coupler = MaxwellCoupler(solver, domain_positions=[0.0, 247.5, 495.0])
        sampled = coupler.sample_vector_potential()
        assert sampled[0] == pytest.approx(0.0)
        assert sampled[-1] == pytest.approx(1.0)
        assert 0.4 < sampled[1] < 0.6

    def test_deposit_is_adjoint_of_sampling(self):
        solver = self._solver()
        coupler = MaxwellCoupler(solver, domain_positions=[100.0, 200.0])
        macro = coupler.deposit_current([1.0, 2.0])
        # Total deposited current (times dx) equals the sum of domain currents.
        assert np.sum(macro) * solver.dx == pytest.approx(3.0)

    def test_positions_validated(self):
        solver = self._solver()
        with pytest.raises(ValueError):
            MaxwellCoupler(solver, domain_positions=[1e9])
        with pytest.raises(ValueError):
            MaxwellCoupler(solver, domain_positions=[])

    def test_step_returns_sampled_potential(self):
        solver = self._solver()
        coupler = MaxwellCoupler(solver, domain_positions=[250.0])
        pulse = GaussianPulse(e0=0.05, omega=0.4, t0=5 * solver.dt, sigma=3 * solver.dt)
        source = solver.inject_pulse(pulse)
        values = [coupler.step([0.0], boundary_source=source)[0] for _ in range(150)]
        assert np.max(np.abs(values)) > 0  # the pulse eventually reaches the domain
