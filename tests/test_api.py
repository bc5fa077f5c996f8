"""Tests for the declarative scenario API (repro.api)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    BatchRunner,
    Engine,
    RunResult,
    PulseSpec,
    ScenarioRegistry,
    ScenarioSpec,
    ServeClient,
    build_engine,
    default_registry,
    parse_assignments,
    run_scenario,
)
from repro.maxwell import GaussianPulse, TrapezoidalPulse
from repro.perf.workspace import KernelWorkspace
from repro.topology.charge import topological_charge

#: Per-engine overrides that shrink the registry scenarios to smoke size.
SMOKE_OVERRIDES = {
    "tddft": {"grid.shape": [6, 6, 6], "material.scf_max_iterations": 5},
    "dcmesh": {"material.scf_max_iterations": 5},
    "mesh": {"material.scf_max_iterations": 5},
    "md": {"material.repeats": [1, 1, 1]},
    "localmode": {"material.repeats": [8, 8, 1], "propagator.relax_steps": 5},
    "mlmd": {"material.repeats": [8, 8, 1], "propagator.relax_steps": 5},
    "maxwell": {},
}


def smoke_spec(name: str, num_steps: int = 3, **extra) -> ScenarioSpec:
    spec = default_registry().get(name)
    overrides = {
        "runtime.num_steps": num_steps,
        "runtime.record_every": 1,
        **SMOKE_OVERRIDES[spec.engine],
        **extra,
    }
    return spec.with_overrides(overrides)


# ----------------------------------------------------------------------
# ScenarioSpec round-tripping and validation
# ----------------------------------------------------------------------
class TestScenarioSpec:
    @pytest.mark.parametrize("name", default_registry().names())
    def test_dict_round_trip(self, name):
        spec = default_registry().get(name)
        data = spec.to_dict()
        rebuilt = ScenarioSpec.from_dict(data)
        assert rebuilt.to_dict() == data

    @pytest.mark.parametrize("name", default_registry().names())
    def test_json_round_trip(self, name):
        spec = default_registry().get(name)
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.to_dict() == spec.to_dict()
        # JSON text itself must be loadable plain data.
        assert json.loads(spec.to_json())["name"] == name

    def test_unknown_top_level_key_rejected(self):
        data = default_registry().get("md-nve").to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="unknown ScenarioSpec keys"):
            ScenarioSpec.from_dict(data)

    def test_unknown_section_key_rejected(self):
        data = default_registry().get("md-nve").to_dict()
        data["runtime"]["bogus"] = 1
        with pytest.raises(ValueError, match="unknown RuntimeSpec keys"):
            ScenarioSpec.from_dict(data)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ScenarioSpec(name="x", engine="warp-drive")

    def test_section_validation(self):
        with pytest.raises(ValueError, match="num_steps must be >= 1"):
            smoke_spec("md-nve", num_steps=0)
        with pytest.raises(ValueError, match="dt must be positive"):
            smoke_spec("md-nve").with_overrides({"propagator.dt": -1.0})

    def test_with_overrides_coerces_and_validates(self):
        spec = default_registry().get("quickstart-tddft")
        out = spec.with_overrides({
            "runtime.num_steps": "5",
            "pulse.kind": "none",
            "material.repeats": "[3, 3, 3]",
            "seed": "123",
        })
        assert out.runtime.num_steps == 5
        assert out.pulse.kind == "none"
        assert out.material.repeats == (3, 3, 3)
        assert out.seed == 123
        # The original spec is untouched.
        assert spec.runtime.num_steps == 60

    def test_with_overrides_unknown_path(self):
        spec = default_registry().get("md-nve")
        with pytest.raises(ValueError, match="unknown spec path"):
            spec.with_overrides({"runtime.does_not_exist": 1})

    def test_scalar_where_sequence_expected_is_valueerror(self):
        spec = default_registry().get("quickstart-tddft")
        with pytest.raises(ValueError, match="invalid GridSpec"):
            spec.with_overrides({"grid.shape": "8"})
        with pytest.raises(ValueError, match="invalid MaterialSpec"):
            spec.with_overrides({"material.centers": "3"})

    def test_parse_assignments(self):
        overrides = parse_assignments(["a.b=3", "c=hello world", "d.e=[1,2]"])
        assert overrides == {"a.b": "3", "c": "hello world", "d.e": "[1,2]"}
        with pytest.raises(ValueError, match="key=value"):
            parse_assignments(["novalue"])


class TestPulseSpec:
    def test_gaussian_builds_from_its_fields(self):
        pulse = PulseSpec(kind="gaussian", e0=0.02, omega=0.5, t0=3.0, sigma=1.5,
                          polarization=(2.0, 0.0, 0.0)).build()
        assert isinstance(pulse, GaussianPulse)
        assert (pulse.e0, pulse.omega, pulse.t0, pulse.sigma) == (0.02, 0.5, 3.0, 1.5)
        np.testing.assert_array_equal(pulse.polarization, [1.0, 0.0, 0.0])

    def test_trapezoidal_builds_from_its_fields(self):
        # t0 is where the trapezoid starts; sigma plays no part in it.
        pulse = PulseSpec(kind="trapezoidal", e0=0.02, omega=0.5, t0=3.0,
                          ramp=1.5, plateau=4.0, polarization=(0.0, 0.0, 5.0)).build()
        assert isinstance(pulse, TrapezoidalPulse)
        assert (pulse.e0, pulse.omega, pulse.t_start, pulse.ramp, pulse.plateau) == (
            0.02, 0.5, 3.0, 1.5, 4.0)
        np.testing.assert_array_equal(pulse.polarization, [0.0, 0.0, 1.0])

    def test_none_builds_no_pulse(self):
        assert PulseSpec(kind="none").build() is None

    @pytest.mark.parametrize("kind", ["gaussian", "trapezoidal"])
    def test_zero_polarization_rejected(self, kind):
        with pytest.raises(ValueError, match="polarization"):
            PulseSpec(kind=kind, polarization=(0.0, 0.0, 0.0)).build()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="pulse.kind must be"):
            PulseSpec(kind="square")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_default_registry_covers_every_subsystem(self):
        registry = default_registry()
        assert len(registry) >= 6
        engines = {registry.get(name).engine for name in registry.names()}
        assert engines == {
            "tddft", "dcmesh", "mesh", "md", "localmode", "maxwell", "mlmd",
        }

    def test_get_returns_copies(self):
        registry = default_registry()
        spec = registry.get("md-nve")
        spec.runtime.num_steps = 1
        assert registry.get("md-nve").runtime.num_steps == 40

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        spec = default_registry().get("md-nve")
        registry.register(spec)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(spec)
        registry.register(spec, overwrite=True)

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            default_registry().get("does-not-exist")

    def test_membership_is_by_name(self):
        registry = default_registry()
        assert all(name in registry for name in registry.names())
        assert "does-not-exist" not in registry


# ----------------------------------------------------------------------
# Engine protocol: every registry scenario smoke-runs
# ----------------------------------------------------------------------
class TestEngineProtocol:
    @pytest.mark.parametrize("name", default_registry().names())
    def test_scenario_smoke_run(self, name):
        spec = smoke_spec(name)
        engine = build_engine(spec)
        assert isinstance(engine, Engine)

        engine.prepare()
        observation = engine.observe()
        assert observation, "observe() must report at least one observable"
        engine.step(2)
        checkpoint = engine.checkpoint()
        assert checkpoint["engine"] == spec.engine
        assert checkpoint["time"] > 0.0
        json.dumps(checkpoint)  # checkpoints must be JSON-able

        result = run_scenario(smoke_spec(name))
        assert isinstance(result, RunResult)
        assert result.scenario == spec.name
        assert result.engine == spec.engine
        assert result.num_records == 4  # initial state + 3 recorded steps
        for series in result.observables.values():
            assert series.shape[0] == result.num_records
            assert np.all(np.isfinite(series))
        assert result.metadata["spec"] == smoke_spec(name).to_dict()

    @pytest.mark.parametrize("name", default_registry().names())
    def test_recording_cadence_does_not_perturb_the_run(self, name):
        # Observing is read-only: recording every other step keeps exactly
        # the even records of the run that records every step.
        every = run_scenario(smoke_spec(name, num_steps=4))
        sparse = run_scenario(smoke_spec(name, num_steps=4,
                                         **{"runtime.record_every": 2}))
        np.testing.assert_array_equal(sparse.times, every.times[::2])
        assert set(sparse.observables) == set(every.observables)
        for key, series in every.observables.items():
            np.testing.assert_array_equal(sparse.observables[key], series[::2],
                                          err_msg=key)

    @pytest.mark.parametrize("name", ["mlmd-photoswitch", "localmode-switch"])
    def test_zero_relax_steps_is_a_noop(self, name):
        # relax_steps=0 is spec-legal ("use the texture as prepared") and must
        # not trip the unified num_steps >= 1 run() validation.
        result = run_scenario(
            smoke_spec(name, num_steps=2, **{"propagator.relax_steps": 0})
        )
        assert result.num_records == 3

    def test_second_run_starts_fresh_recording(self):
        engine = build_engine(smoke_spec("maxwell-vacuum"))
        first = engine.run(num_steps=3, record_every=1)
        second = engine.run(num_steps=3, record_every=1)
        assert first.num_records == 4
        assert second.num_records == 4
        # The second run continues the simulation but records only itself.
        assert second.times[0] == pytest.approx(first.times[-1])
        assert np.all(np.diff(second.times) > 0)

    def test_step_validation_unified(self):
        engine = build_engine(smoke_spec("md-nve"))
        with pytest.raises(ValueError, match="num_steps must be >= 1"):
            engine.step(0)
        with pytest.raises(ValueError, match="record_every must be >= 1"):
            engine.run(num_steps=1, record_every=0)


# ----------------------------------------------------------------------
# Unified run() validation: the adapter loop, and the MD integrators' step
# ----------------------------------------------------------------------
def _assert_run_args_validated(name):
    spec = smoke_spec(name)
    with pytest.raises(ValueError, match="num_steps must be >= 1"):
        run_scenario(spec, num_steps=0)
    with pytest.raises(ValueError, match="record_every must be >= 1"):
        run_scenario(spec, num_steps=1, record_every=0)


class TestRunArgumentValidation:
    def test_maxwell_run(self):
        _assert_run_args_validated("maxwell-vacuum")

    def test_localmode_run(self):
        _assert_run_args_validated("localmode-switch")

    def test_mlmd_run(self):
        _assert_run_args_validated("mlmd-photoswitch")

    def test_velocity_verlet_step(self, argon_fcc):
        from repro.md.forcefields import LennardJones
        from repro.md.integrators import LangevinIntegrator, VelocityVerlet

        integrator = VelocityVerlet(LennardJones(), 1.0)
        with pytest.raises(ValueError, match="num_steps must be >= 1"):
            integrator.step(argon_fcc, 0)
        langevin = LangevinIntegrator(
            LennardJones(), 1.0, temperature_k=10.0, friction=0.01,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="num_steps must be >= 1"):
            langevin.step(argon_fcc, 0)


def test_mlmd_computes_each_topological_charge_once(monkeypatch):
    """The relaxed texture's charge is computed once (initial label,
    metadata and first record share it), and so is the final one (last
    record and final label): one charged layer per distinct texture."""
    import repro.topology.analysis as analysis_module
    import repro.topology.charge as charge_module

    real = charge_module.topological_charge
    layers = []

    def counting(texture):
        texture = np.asarray(texture)
        layers.append(int(np.prod(texture.shape[:-3], dtype=int)))
        return real(texture)

    for module in (charge_module, analysis_module):
        monkeypatch.setattr(module, "topological_charge", counting)
    result = run_scenario(smoke_spec("mlmd-photoswitch", num_steps=4),
                          workspace=KernelWorkspace())
    assert result.num_records == 5
    assert sum(layers) == result.num_records
    assert result.metadata["initial_topological_charge"] == \
        result.observables["topological_charge"][0]


# ----------------------------------------------------------------------
# RunResult round-tripping
# ----------------------------------------------------------------------
#: A two-step ``localmode-switch`` result as written before run timing moved
#: to telemetry: it still carries the ``timers`` breakdown.
TIMED_RESULT_JSON = (
    '{"scenario": "localmode-switch", "engine": "localmode", '
    '"times": [0.0, 2.0, 4.0], '
    '"observables": {"energy": [49.07837993233384, 45.70832423880655, '
    '40.34900425533252], "topological_charge": [-4.0, -4.0, -4.0], '
    '"mean_polarization": [[0.0010148159939058505, 0.0006250281976005095, '
    '0.5167544559900686], [0.00099100909307588, 0.0006100855390343393, '
    '0.5048037760445274], [0.0011570530101617927, 0.0004898294408350156, '
    '0.4842125513367645]]}, '
    '"metadata": {"spec": {"name": "localmode-switch", '
    '"engine": "localmode", '
    '"description": "Skyrmion texture on the local-mode lattice under a '
    'prescribed excitation (idealised pump)", '
    '"seed": 3, "grid": {"shape": [8, 8, 8], "lengths": [8.0, 8.0, 8.0]}, '
    '"material": {"centers": [[4.0, 4.0, 4.0]], "depths": [3.0], '
    '"widths": [1.2], "charges": null, "masses": null, "n_electrons": 2.0, '
    '"n_orbitals": 3, "scf_max_iterations": 30, "scf_tolerance": 1e-05, '
    '"species": "Ar", "lattice_constant": 5.26, "repeats": [16, 16, 1], '
    '"skyrmions_per_axis": [2, 2]}, "pulse": {"kind": "none", "e0": 0.03, '
    '"omega": 0.35, "t0": 8.0, "sigma": 3.0, "ramp": 2.0, "plateau": 4.0, '
    '"polarization": [0.0, 0.0, 1.0]}, "propagator": {"dt": 2.0, '
    '"update_potentials_every": 1, "occupation_decoherence_rate": 0.0, '
    '"scissors_shift": 0.0, "qd_steps_per_exchange": 5, "num_domains": 2, '
    '"maxwell_points": 60, "maxwell_courant": 0.95, "qd_substeps": 10, '
    '"surface_hopping": false, "thermostat": "none", '
    '"temperature_k": 30.0, "friction": 0.02, "damping": 0.3, '
    '"noise_amplitude": 0.001, "excitation_fraction": 0.6, '
    '"excitation_lifetime_fs": 600.0, "relax_steps": 60}, '
    '"runtime": {"num_steps": 2, "record_every": 1, '
    '"checkpoint_every": null}}}, '
    '"timers": {"prepare": {"elapsed": 0.05369882400009374, "calls": 1.0, '
    '"mean": 0.05369882400009374}, '
    '"relax": {"elapsed": 0.005782665000083398, "calls": 1.0, '
    '"mean": 0.005782665000083398}, '
    '"localmode_step": {"elapsed": 0.0004601570000204447, "calls": 2.0, '
    '"mean": 0.00023007850001022234}}}'
)


class TestRunResult:
    def test_json_round_trip_from_live_run(self):
        result = run_scenario(smoke_spec("maxwell-vacuum"))
        data = json.loads(result.to_json())
        rebuilt = RunResult.from_dict(data)
        assert rebuilt.to_dict() == data
        assert rebuilt.to_dict() == result.to_dict()
        for name, series in result.observables.items():
            np.testing.assert_array_equal(rebuilt.observables[name], series)

    def test_result_written_with_timers_still_loads(self):
        document = json.loads(TIMED_RESULT_JSON)
        untimed = {k: v for k, v in document.items() if k != "timers"}
        for result in (RunResult.from_dict(document),
                       ServeClient.decode_outcome({"ok": document})):
            assert result.to_dict() == untimed

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="leading shape"):
            RunResult("s", "maxwell", times=[0.0, 1.0],
                      observables={"x": [1.0, 2.0, 3.0]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown RunResult keys"):
            RunResult.from_dict({
                "scenario": "s", "engine": "md", "times": [0.0],
                "observables": {}, "bogus": 1,
            })

    def test_final_and_summary(self):
        result = RunResult(
            "s", "md", times=[0.0, 1.0],
            observables={"e": [1.0, 2.0], "v": [[0.0, 1.0], [2.0, 3.0]]},
        )
        assert result.final("e") == 2.0
        np.testing.assert_array_equal(result.final("v"), [2.0, 3.0])
        summary = result.summary()
        assert summary["e"] == 2.0 and "v" not in summary

    def test_run_id_reads_the_executor_stamp(self):
        result = RunResult("s", "md", times=[0.0], observables={})
        assert result.run_id is None
        result.metadata["executor"] = {"run_id": 42}
        assert result.run_id == "42"

    def test_json_text_round_trip(self):
        result = run_scenario(smoke_spec("md-nve"))
        rebuilt = RunResult.from_json(result.to_json())
        assert rebuilt.to_dict() == result.to_dict()
        for name, series in result.observables.items():
            np.testing.assert_array_equal(rebuilt.observables[name], series)


# ----------------------------------------------------------------------
# Seed plumbing: bit-identical reruns
# ----------------------------------------------------------------------
class TestSeedDeterminism:
    @pytest.mark.parametrize("name", ["md-langevin", "localmode-switch"])
    def test_same_spec_is_bit_identical(self, name):
        first = run_scenario(smoke_spec(name, num_steps=4))
        second = run_scenario(smoke_spec(name, num_steps=4))
        for key in first.observables:
            np.testing.assert_array_equal(
                first.observables[key], second.observables[key]
            )

    def test_different_seed_differs(self):
        base = run_scenario(smoke_spec("md-langevin", num_steps=4))
        other = run_scenario(smoke_spec("md-langevin", num_steps=4, seed=999))
        assert not np.array_equal(
            base.observables["temperature"], other.observables["temperature"]
        )

    def test_mesh_hopping_deterministic(self):
        first = run_scenario(smoke_spec("mesh-hopping", num_steps=2))
        second = run_scenario(smoke_spec("mesh-hopping", num_steps=2))
        np.testing.assert_array_equal(
            first.observables["excitation"], second.observables["excitation"]
        )


# ----------------------------------------------------------------------
# Lattice engines: what a record holds is the lattice's own observables
# ----------------------------------------------------------------------
class TestLatticeObservation:
    @pytest.mark.parametrize("name", ["localmode-switch", "mlmd-photoswitch"])
    def test_observation_matches_the_lattice(self, name):
        engine = build_engine(smoke_spec(name))
        engine.prepare()
        engine.step(2)
        observation = engine.observe()
        modes = engine.lattice.modes
        np.testing.assert_allclose(observation["mean_polarization"],
                                   modes.reshape(-1, 3).mean(axis=0), rtol=1e-12)
        middle = modes[:, :, modes.shape[2] // 2]
        assert observation["topological_charge"] == pytest.approx(
            topological_charge(middle), abs=1e-12)
        if "energy" in observation:
            weight = engine.spec.propagator.excitation_fraction
            assert observation["energy"] == pytest.approx(
                engine.lattice.energy(weight), rel=1e-12)

    def test_mlmd_excitation_decays_with_its_lifetime(self):
        spec = smoke_spec("mlmd-photoswitch", num_steps=6)
        result = run_scenario(spec)
        prop = spec.propagator
        expected = prop.excitation_fraction * np.exp(
            -result.times / prop.excitation_lifetime_fs)
        np.testing.assert_allclose(result.observables["excitation_fraction"],
                                   expected, rtol=1e-12)


# ----------------------------------------------------------------------
# pulse.kind='trapezoidal': the spec option runs end to end
# ----------------------------------------------------------------------
#: The registry scenarios driven by a laser pulse.
PULSED = [spec.name for spec in default_registry() if spec.pulse.kind != "none"]

#: A trapezoid that is already ramping when every smoke run starts.
TRAPEZOID = {"pulse.kind": "trapezoidal", "pulse.t0": 0.0,
             "pulse.ramp": 0.2, "pulse.plateau": 2.0}

#: Enough steps for the pulse to cross the DC-MESH Maxwell window from its
#: entry point to the domains (fewer and dcmesh-pulse never sees it).
PULSED_STEPS = 20


class TestTrapezoidalPulseScenarios:
    def test_every_pulsed_engine_is_covered(self):
        engines = {default_registry().get(name).engine for name in PULSED}
        assert engines == {"tddft", "dcmesh", "mesh", "maxwell"}

    @pytest.mark.parametrize("name", PULSED)
    def test_trapezoidal_pulse_runs_end_to_end(self, name):
        spec = smoke_spec(name, num_steps=PULSED_STEPS, **TRAPEZOID)
        result = run_scenario(spec)
        assert result.metadata["spec"]["pulse"]["kind"] == "trapezoidal"
        assert result.num_records == PULSED_STEPS + 1
        for series in result.observables.values():
            assert np.all(np.isfinite(series))
        # The field reaches the run: it differs from the Gaussian default.
        gaussian = run_scenario(smoke_spec(name, num_steps=PULSED_STEPS))
        assert any(not np.array_equal(series, gaussian.observables[key])
                   for key, series in result.observables.items())


# ----------------------------------------------------------------------
# BatchRunner: shared KernelWorkspace across runs
# ----------------------------------------------------------------------
class TestBatchRunner:
    def test_shared_workspace_is_hit_across_runs(self):
        # Field-free propagation keeps (grid, dt, A) fixed, so each run looks
        # its kinetic operators up once, and every lookup after the very
        # first axis replays from the cache — including across the batch
        # boundary.
        spec = smoke_spec("quickstart-tddft", num_steps=4,
                          **{"pulse.kind": "none"})
        runner = BatchRunner()
        results = runner.run([spec, spec])
        assert len(results) == 2
        stats = runner.workspace.stats
        assert stats["phase_misses"] == 1
        # Run 1: y and z hit x's entry (a cubic grid); run 2: all three.
        assert stats["phase_hits"] == 5
        # Per-run metadata captures the cumulative stats at completion.
        assert results[0].metadata["workspace_stats"]["phase_misses"] == 1
        assert results[1].metadata["workspace_stats"]["phase_hits"] == 5

    def test_isolated_workspaces_miss_per_run(self):
        spec = smoke_spec("quickstart-tddft", num_steps=4,
                          **{"pulse.kind": "none"})
        misses = 0
        for _ in range(2):
            workspace = KernelWorkspace()
            run_scenario(spec, workspace=workspace)
            misses += workspace.stats["phase_misses"]
        assert misses == 2
