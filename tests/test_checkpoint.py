"""Checkpoint -> restore round-trips, the session protocol, and the store.

The headline guarantee under test: for every registered scenario,
interrupt-at-half + ``restore`` into a *fresh* adapter + finish produces a
``RunResult`` bit-identical (times and all observables) to the uninterrupted
run — including the stochastic engines, whose RNG streams are part of the
snapshot.  Every checkpoint is pushed through a real ``json.dumps`` /
``json.loads`` cycle so the on-disk format is what is being validated.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.api import (
    CheckpointError,
    CheckpointStore,
    RunFailure,
    build_engine,
    default_registry,
    run_scenario,
)
from repro.api.result import _plain, revive

from test_api import PULSED, PULSED_STEPS, TRAPEZOID, smoke_spec


def json_cycle(checkpoint: dict) -> dict:
    """The exact serialisation path a stored checkpoint travels."""
    return json.loads(json.dumps(checkpoint))


def assert_results_bit_identical(expected, actual) -> None:
    np.testing.assert_array_equal(expected.times, actual.times)
    assert set(expected.observables) == set(actual.observables)
    for name in expected.observables:
        np.testing.assert_array_equal(
            expected.observables[name], actual.observables[name], err_msg=name
        )


# ----------------------------------------------------------------------
# The acceptance criterion: interrupt + restore + finish == uninterrupted
# ----------------------------------------------------------------------
class TestInterruptResumeBitIdentity:
    @pytest.mark.parametrize("name", default_registry().names())
    def test_every_scenario_resumes_bit_identically(self, name):
        total, interrupt_at = 4, 2
        spec = smoke_spec(name, num_steps=total)

        uninterrupted = build_engine(spec).run()

        interrupted = build_engine(spec)
        interrupted.run(num_steps=interrupt_at)
        checkpoint = json_cycle(interrupted.checkpoint())

        fresh = build_engine(spec)
        resumed = fresh.resume(checkpoint)

        assert_results_bit_identical(uninterrupted, resumed)
        assert resumed.metadata["spec"] == uninterrupted.metadata["spec"]

    @pytest.mark.parametrize("name", PULSED)
    def test_trapezoidal_pulse_resumes_bit_identically(self, name):
        # Interrupt inside the plateau: the pulse is a pure function of
        # time, so the resumed run must pick it up where it left off.
        spec = smoke_spec(name, num_steps=PULSED_STEPS, **TRAPEZOID)
        uninterrupted = build_engine(spec).run()

        interrupted = build_engine(spec)
        interrupted.run(num_steps=PULSED_STEPS // 2)
        resumed = build_engine(spec).resume(json_cycle(interrupted.checkpoint()))

        assert_results_bit_identical(uninterrupted, resumed)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ["md-nve", "md-langevin"])
    def test_md_resume_is_bit_identical_across_neighbour_rebuilds(self, name, seed):
        # 600 steps cross several skin rebuilds: the resumed run must see the
        # uninterrupted run's pair list, rebuild instants and cached forces.
        spec = default_registry().get(name).with_overrides(
            {"runtime.num_steps": 600, "seed": seed})
        uninterrupted = build_engine(spec).run()
        interrupted = build_engine(spec)
        interrupted.run(num_steps=300)
        checkpoint = json_cycle(interrupted.checkpoint())
        assert_results_bit_identical(
            uninterrupted, build_engine(spec).resume(checkpoint))

    def test_resume_preserves_record_cadence(self):
        # record_every=2 with an interruption at an odd step: the resumed
        # run must pick the cadence back up, not restart it.
        spec = smoke_spec("maxwell-vacuum", num_steps=6,
                          **{"runtime.record_every": 2})
        uninterrupted = build_engine(spec).run()

        interrupted = build_engine(spec)
        interrupted.run(num_steps=3, record_every=2)
        resumed = build_engine(spec).resume(json_cycle(interrupted.checkpoint()))
        assert_results_bit_identical(uninterrupted, resumed)

    def test_resume_extends_horizon(self):
        # Resuming with a longer num_steps continues the same trajectory.
        spec = smoke_spec("md-langevin", num_steps=3)
        long_spec = smoke_spec("md-langevin", num_steps=6)
        uninterrupted = build_engine(long_spec).run()

        short = build_engine(spec)
        short.run()
        resumed = build_engine(spec).resume(
            json_cycle(short.checkpoint()), num_steps=6
        )
        assert_results_bit_identical(uninterrupted, resumed)

    def test_resume_at_or_past_end_returns_completed_result(self):
        spec = smoke_spec("maxwell-vacuum", num_steps=3)
        engine = build_engine(spec)
        full = engine.run()
        checkpoint = json_cycle(engine.checkpoint())
        replay = build_engine(spec).resume(checkpoint, num_steps=3)
        assert_results_bit_identical(full, replay)

    @pytest.mark.parametrize("name", ["md-nve", "md-langevin"])
    def test_md_checkpoint_without_forces_and_pairs_still_resumes(self, name):
        # Older MD checkpoints carry only the phase-space point and the clock;
        # they resume by recomputing forces and rebuilding the pair list.
        spec = smoke_spec(name, num_steps=6)
        interrupted = build_engine(spec)
        interrupted.run(num_steps=3)
        checkpoint = json_cycle(interrupted.checkpoint())
        del checkpoint["state"]["forces"], checkpoint["state"]["neighbor_list"]
        resumed = build_engine(spec).resume(checkpoint)
        assert resumed.num_records == 7
        for series in resumed.observables.values():
            assert np.all(np.isfinite(series))


# ----------------------------------------------------------------------
# Checkpoint payloads and restore validation
# ----------------------------------------------------------------------
class TestCheckpointPayload:
    def test_payload_is_a_complete_session(self):
        engine = build_engine(smoke_spec("md-nve", num_steps=4))
        engine.run(num_steps=2)
        checkpoint = engine.checkpoint()
        assert checkpoint["format"] == 1
        assert checkpoint["scenario"] == "md-nve"
        assert checkpoint["engine"] == "md"
        assert checkpoint["step"] == 2
        assert checkpoint["spec"] == engine.spec.to_dict()
        assert len(checkpoint["times"]) == 3  # initial + 2 records
        assert checkpoint["state"]
        json.dumps(checkpoint)

    def test_restore_rejects_wrong_engine_kind(self):
        source = build_engine(smoke_spec("maxwell-vacuum"))
        source.step(1)
        checkpoint = json_cycle(source.checkpoint())
        target = build_engine(smoke_spec("md-nve"))
        with pytest.raises(CheckpointError, match="engine"):
            target.restore(checkpoint)

    def test_restore_rejects_wrong_scenario(self):
        source = build_engine(smoke_spec("md-nve"))
        source.step(1)
        checkpoint = json_cycle(source.checkpoint())
        target = build_engine(smoke_spec("md-langevin"))
        with pytest.raises(CheckpointError, match="scenario"):
            target.restore(checkpoint)

    def test_restore_rejects_different_physics(self):
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        source = build_engine(spec)
        source.step(1)
        checkpoint = json_cycle(source.checkpoint())
        other = build_engine(spec.with_overrides({"pulse.e0": 0.123}))
        with pytest.raises(CheckpointError, match="does not match"):
            other.restore(checkpoint)

    def test_restore_allows_different_runtime(self):
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        source = build_engine(spec)
        source.step(1)
        checkpoint = json_cycle(source.checkpoint())
        other = build_engine(spec.with_overrides({"runtime.num_steps": 50}))
        other.restore(checkpoint)  # must not raise
        assert other.time == pytest.approx(checkpoint["time"])

    def test_restore_rejects_garbage(self):
        engine = build_engine(smoke_spec("md-nve"))
        with pytest.raises(CheckpointError):
            engine.restore({"engine": "md", "scenario": "md-nve"})
        with pytest.raises(CheckpointError):
            engine.restore("not a dict")  # type: ignore[arg-type]

    def test_checkpoint_every_cadence(self):
        steps_seen = []
        engine = build_engine(smoke_spec("maxwell-vacuum", num_steps=5))
        engine.run(checkpoint_every=2,
                   on_checkpoint=lambda ckpt: steps_seen.append(ckpt["step"]))
        # every 2nd step plus the (off-cadence) final step
        assert steps_seen == [2, 4, 5]

    def test_final_checkpoint_without_cadence(self):
        steps_seen = []
        engine = build_engine(smoke_spec("maxwell-vacuum", num_steps=3))
        engine.run(on_checkpoint=lambda ckpt: steps_seen.append(ckpt["step"]))
        assert steps_seen == [3]

    def test_spec_checkpoint_every_is_honoured(self):
        steps_seen = []
        spec = smoke_spec("maxwell-vacuum", num_steps=4,
                          **{"runtime.checkpoint_every": 2})
        build_engine(spec).run(
            on_checkpoint=lambda ckpt: steps_seen.append(ckpt["step"])
        )
        assert steps_seen == [2, 4]

    def test_spec_rejects_bad_checkpoint_every(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            smoke_spec("maxwell-vacuum", **{"runtime.checkpoint_every": 0})


# ----------------------------------------------------------------------
# Complex-state serialisation
# ----------------------------------------------------------------------
class TestComplexSerialisation:
    def test_complex_array_round_trip_is_bit_exact(self, rng):
        original = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        revived = revive(json.loads(json.dumps(_plain({"psi": original}))))
        assert revived["psi"].dtype == np.complex128
        np.testing.assert_array_equal(revived["psi"], original)

    def test_complex_scalar_and_nested_containers(self):
        payload = {"a": [1.5, 2 + 3j], "b": {"c": np.complex128(1 - 2j)}}
        revived = revive(json.loads(json.dumps(_plain(payload))))
        assert revived["a"] == [1.5, 2 + 3j]
        assert revived["b"]["c"] == 1 - 2j

    def test_rng_state_round_trip(self):
        generator = np.random.default_rng(123)
        generator.standard_normal(7)
        state = json.loads(json.dumps(_plain(generator.bit_generator.state)))
        clone = np.random.default_rng(0)
        clone.bit_generator.state = state
        np.testing.assert_array_equal(
            generator.standard_normal(5), clone.standard_normal(5)
        )


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def make_checkpoint(self, step: int, scenario: str = "md-nve") -> dict:
        return {"format": 1, "scenario": scenario, "engine": "md",
                "time": float(step), "step": step, "state": {"x": [1.0]}}

    def test_save_latest_and_steps(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for step in (2, 4, 10):
            store.save(self.make_checkpoint(step), run_id="run-a")
        assert store.steps("md-nve", "run-a") == [2, 4, 10]
        assert store.latest("md-nve", "run-a")["step"] == 10
        assert store.load("md-nve", "run-a", step=4)["step"] == 4
        assert store.latest("md-nve", "missing") is None
        assert store.scenarios() == ["md-nve"]
        assert store.run_ids("md-nve") == ["run-a"]

    def test_runs_are_isolated(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(self.make_checkpoint(3), run_id="run-a")
        store.save(self.make_checkpoint(7), run_id="run-b")
        assert store.latest("md-nve", "run-a")["step"] == 3
        assert store.latest("md-nve", "run-b")["step"] == 7

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(self.make_checkpoint(1))
        names = sorted(os.listdir(store.run_dir("md-nve")))
        # .lock is the permanent advisory cross-process mutex, not a leak.
        assert names == [".lock", "MANIFEST.json", "state-00000001.npz"]

    def test_steps_past_the_zero_padding_stay_visible(self, tmp_path):
        # step >= 10^8 spills past the 8-digit padding; the listing regex
        # must still match it or resume would silently use a stale snapshot.
        store = CheckpointStore(tmp_path)
        store.save(self.make_checkpoint(5))
        store.save(self.make_checkpoint(10 ** 8))
        assert store.steps("md-nve") == [5, 10 ** 8]
        assert store.latest("md-nve")["step"] == 10 ** 8
        assert store.load("md-nve", step=10 ** 8)["step"] == 10 ** 8

    def test_keep_prunes_old_snapshots(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for step in (1, 2, 3, 4):
            store.save(self.make_checkpoint(step))
        assert store.steps("md-nve") == [3, 4]

    def test_prune_orders_numerically_past_the_padding(self, tmp_path):
        # Lexicographically 'step-100000000' < 'step-99999999'; pruning must
        # keep the numerically newest snapshot, not the lexicographic max.
        store = CheckpointStore(tmp_path, keep=1)
        store.save(self.make_checkpoint(99_999_999))
        store.save(self.make_checkpoint(100_000_000))
        assert store.steps("md-nve") == [100_000_000]

    def test_rejects_path_traversal_keys(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.save(self.make_checkpoint(1, scenario="../evil"))
        with pytest.raises(ValueError):
            store.latest("md-nve", run_id="a/b")

    def test_missing_checkpoint_raises_checkpoint_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="no checkpoint"):
            store.load("md-nve", "nope")

    def test_corrupt_checkpoint_raises_checkpoint_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(self.make_checkpoint(1))
        path.write_text("{ truncated", encoding="utf-8")
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load("md-nve")

    def test_store_round_trip_through_engine(self, tmp_path):
        spec = smoke_spec("md-langevin", num_steps=4)
        store = CheckpointStore(tmp_path)
        uninterrupted = build_engine(spec).run()

        interrupted = build_engine(spec)
        interrupted.run(num_steps=2,
                        on_checkpoint=lambda ckpt: store.save(ckpt, run_id="r1"))
        snapshot = store.latest(spec.name, "r1")
        assert snapshot is not None and snapshot["step"] == 2

        resumed = build_engine(spec).resume(snapshot)
        assert_results_bit_identical(uninterrupted, resumed)


class TestConcurrentWriters:
    """latest() vs. concurrent save + retention pruning on the same run id.

    Once the serving daemon shares one store across worker processes, two
    writers can snapshot the same run id concurrently (e.g. a stale worker's
    last save racing the resumed attempt).  Manifest rewrites are atomic,
    but a blob the manifest names can be pruned between the reader's
    manifest read and its blob open — ``latest()`` must fall back to the
    surviving snapshots (re-reading the manifest when the whole listing
    went stale) instead of surfacing a spurious ``CheckpointError``.
    """

    def make_checkpoint(self, step: int) -> dict:
        return {"format": 1, "scenario": "md-nve", "engine": "md",
                "time": float(step), "step": step, "state": {"x": [1.0]}}

    def test_latest_survives_blobs_pruned_after_the_manifest_read(
            self, tmp_path, monkeypatch):
        # Deterministic interleaving: the manifest read claims steps 2 and 4
        # exist, but step 4's blob is pruned before latest() can open it.
        from repro.store import runstore as runstore_module

        store = CheckpointStore(tmp_path)
        store.save(self.make_checkpoint(2))
        path_4 = store.save(self.make_checkpoint(4))
        real_read = runstore_module.read_manifest

        def read_then_prune(directory):
            manifest = real_read(directory)
            if path_4.exists():
                path_4.unlink()  # the concurrent writer's prune lands here
            return manifest

        monkeypatch.setattr(runstore_module, "read_manifest", read_then_prune)
        snapshot = store.latest("md-nve")
        assert snapshot is not None and snapshot["step"] == 2

    def test_latest_rereads_manifest_when_every_listed_blob_vanished(
            self, tmp_path, monkeypatch):
        # Worst case: everything the first manifest read listed is pruned; a
        # newer snapshot (the one the pruning writer just saved) replaces it.
        from repro.store import runstore as runstore_module

        store = CheckpointStore(tmp_path)
        stale = store.save(self.make_checkpoint(2))
        real_read = runstore_module.read_manifest
        state = {"first": True}

        def racing_read(directory):
            manifest = real_read(directory)
            if state.pop("first", False):
                stale.unlink()
                store.save(self.make_checkpoint(6))
            return manifest

        monkeypatch.setattr(runstore_module, "read_manifest", racing_read)
        snapshot = store.latest("md-nve")
        assert snapshot is not None and snapshot["step"] == 6

    def test_latest_gives_up_after_bounded_retries(self, tmp_path, monkeypatch):
        # If the store is (pathologically) pruned faster than it can be read,
        # latest() must terminate with a diagnostic, not loop forever.  Every
        # manifest read names a step-2 blob that is never on disk.
        from repro.store import runstore as runstore_module
        from repro.store.manifest import new_manifest, upsert_snapshot

        store = CheckpointStore(tmp_path)
        phantom = new_manifest("md-nve", "default")
        upsert_snapshot(phantom, {"step": 2, "file": "state-00000002.npz",
                                  "bytes": 0, "time": 2.0,
                                  "series_count": None, "saved_at": 0.0})
        monkeypatch.setattr(runstore_module, "read_manifest",
                            lambda directory: phantom)
        with pytest.raises(CheckpointError, match="vanishing"):
            store.latest("md-nve")

    def test_latest_does_not_mask_corruption_as_pruning(self, tmp_path):
        # A truncated blob is a real store fault (atomic writes make it
        # impossible in normal operation): latest() must raise the corruption
        # diagnostic, not skip to an older snapshot or claim pruning races.
        store = CheckpointStore(tmp_path)
        store.save(self.make_checkpoint(2))
        path = store.save(self.make_checkpoint(4))
        path.write_text("{ truncated", encoding="utf-8")
        with pytest.raises(CheckpointError, match="corrupt"):
            store.latest("md-nve")

    def test_hammering_writers_never_break_latest(self, tmp_path):
        # Stress the real interleaving: two keep=1 writers snapshot the same
        # run id while a reader polls latest(); the reader must always get a
        # complete payload and never a CheckpointError.
        import threading

        store = CheckpointStore(tmp_path, keep=1)
        store.save(self.make_checkpoint(0))  # non-empty before the reader polls
        stop = threading.Event()
        errors = []

        def writer(offset: int) -> None:
            step = offset
            while not stop.is_set():
                try:
                    store.save(self.make_checkpoint(step))
                except Exception as exc:  # noqa: BLE001 - fail the test below
                    errors.append(exc)
                    return
                step += 2

        threads = [threading.Thread(target=writer, args=(k,)) for k in (1, 2)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(300):
                snapshot = store.latest("md-nve")
                assert snapshot is not None
                assert snapshot["scenario"] == "md-nve"
                assert isinstance(snapshot["step"], int)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors


# ----------------------------------------------------------------------
# RunFailure container
# ----------------------------------------------------------------------
class TestRunFailure:
    def test_from_exception_and_round_trip(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            failure = RunFailure.from_exception("s", "md", exc, attempts=2)
        assert failure.ok is False
        assert failure.error == "ValueError: boom"
        assert "boom" in failure.traceback
        clone = RunFailure.from_dict(json.loads(json.dumps(failure.to_dict())))
        assert clone == failure
