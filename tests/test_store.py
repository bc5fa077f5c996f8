"""The incremental checkpoint-storage subsystem (``repro.store``).

Covers the four pillars the v2 store stands on:

* the **blob codec** reproduces plain checkpoint payloads exactly as a
  ``json.dumps``/``json.loads`` cycle would (the resume contract's wire
  format), including ``-0.0``, 0-d values, huge RNG integers and complex
  tags — property-tested with hypothesis;
* the **series log** stores every record exactly once, across segment
  boundaries, and survives torn tails;
* **retention/compaction**: any prune/compact sequence preserves
  ``latest()`` resumability (property-tested), and the newest snapshot is
  never pruned;
* **one format**: snapshots travelling through the store resume
  bit-identically for every registered scenario, and a run directory in the
  retired format 1 is refused with a typed error, its files left alone.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CheckpointStore, build_engine, default_registry
from repro.store import (
    CheckpointError, CompositePolicy, KeepEvery, KeepLast, MaxAge, MaxBytes,
    RunStore, StoredItem, StoreFormatError, describe_retention,
    parse_retention,
)
from repro.store.codec import decode_state, encode_state
from repro.store.manifest import read_manifest
from repro.store.series import SeriesLog, decode_frames, encode_frame, new_series_state

from test_api import smoke_spec
from test_checkpoint import assert_results_bit_identical, json_cycle


# ----------------------------------------------------------------------
# Blob codec: encode/decode == a JSON cycle
# ----------------------------------------------------------------------
def codec_cycle(payload):
    arrays = []
    skeleton = encode_state(payload, arrays)
    json.dumps(skeleton)  # the skeleton must stay JSON-able
    return decode_state(
        json_cycle(skeleton), {f"a{i}": a for i, a in enumerate(arrays)}
    )


#: JSON-able scalars as checkpoint payloads contain them.  Floats include
#: signed zeros, NaN and infinities; integers include the >2^64 words of a
#: PCG64 bit-generator state.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 140), max_value=2 ** 140),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)

_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=12),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=25,
)


def assert_payloads_identical(left, right, path="$"):
    """Equality that distinguishes 1 from 1.0 and -0.0 from 0.0, NaN == NaN."""
    assert type(left) is type(right), f"{path}: {type(left)} != {type(right)}"
    if isinstance(left, dict):
        assert set(left) == set(right), path
        for key in left:
            assert_payloads_identical(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, list):
        assert len(left) == len(right), path
        for i, (a, b) in enumerate(zip(left, right)):
            assert_payloads_identical(a, b, f"{path}[{i}]")
    elif isinstance(left, float):
        if left != left or right != right:
            # Any-NaN == any-NaN: JSON collapses NaN payload bits to the one
            # "NaN" literal while the binary codec preserves them exactly —
            # the codec is allowed to be *more* faithful than JSON here.
            assert left != left and right != right, path
        else:
            assert np.float64(left).tobytes() == np.float64(right).tobytes(), \
                f"{path}: {left!r} != {right!r} (bitwise)"
    else:
        assert left == right, path


class TestBlobCodec:
    @settings(max_examples=150, deadline=None)
    @given(payload=_payloads)
    def test_codec_cycle_equals_json_cycle(self, payload):
        assert_payloads_identical(codec_cycle(payload), json_cycle_any(payload))

    def test_large_float_nests_become_arrays(self):
        payload = {"big": [[float(i), -0.0] for i in range(32)], "n": 3}
        arrays = []
        skeleton = encode_state(payload, arrays)
        assert len(arrays) == 1 and arrays[0].shape == (32, 2)
        assert "__blob_ref__" in json.dumps(skeleton)
        assert_payloads_identical(codec_cycle(payload), payload)

    def test_int_contaminated_nests_stay_in_the_skeleton(self):
        # [1, 2.0]: np.asarray would coerce the int — the skeleton must keep
        # it verbatim so the decode can't return [1.0, 2.0].
        payload = {"mixed": [1, 2.0] * 16}
        arrays = []
        encode_state(payload, arrays)
        assert arrays == []
        assert_payloads_identical(codec_cycle(payload), payload)

    def test_complex_tags_round_trip_with_signed_zeros(self):
        payload = {"__complex__": "array",
                   "real": [[-0.0, 1.5], [2.5, -0.0]],
                   "imag": [[0.0, -3.5], [-0.0, 4.5]]}
        arrays = []
        skeleton = encode_state(payload, arrays)
        assert len(arrays) == 1 and arrays[0].dtype == np.complex128
        assert_payloads_identical(codec_cycle(payload), payload)

    def test_rng_state_words_survive(self):
        state = np.random.default_rng(7).bit_generator.state
        plain = json_cycle_any(_plain_like(state))
        assert_payloads_identical(codec_cycle(plain), plain)

    def test_marker_collisions_are_escaped(self):
        payload = {"__blob_ref__": 3, "x": [1.0] * 16}
        assert_payloads_identical(codec_cycle(payload), payload)


def json_cycle_any(payload):
    """json round trip that tolerates NaN/inf."""
    return json.loads(json.dumps(payload))


def _plain_like(value):
    # minimal _plain stand-in for numpy-free payloads used above
    if isinstance(value, dict):
        return {str(k): _plain_like(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain_like(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


# ----------------------------------------------------------------------
# Series log
# ----------------------------------------------------------------------
class TestSeriesLog:
    def test_frame_round_trip_scalars_vectors_and_0d(self):
        frame = encode_frame(1.25, {"e": 0.5, "v": [1.0, -0.0], "m": [[2.0]]})
        ((time, values),) = decode_frames(frame, 1, "test")
        assert time == 1.25
        assert values["e"].shape == () and values["e"].tolist() == 0.5
        assert values["v"].shape == (2,)
        assert str(values["v"].tolist()[1]) == "-0.0"
        assert values["m"].shape == (1, 1)

    def test_segmentation_and_read_across_segments(self, tmp_path):
        state = new_series_state()
        log = SeriesLog(tmp_path, state, segment_limit=256)
        times = [float(i) for i in range(40)]
        records = {"x": [[float(i)] * 8 for i in range(40)]}
        log.append(times, records, start=0)
        assert len(state["segments"]) > 1
        got_times, got_records = log.read(40)
        assert got_times == times
        assert got_records == records

    def test_torn_tail_is_truncated_on_next_append(self, tmp_path):
        state = new_series_state()
        log = SeriesLog(tmp_path, state)
        log.append([0.0], {"x": [1.0]}, start=0)
        segment = tmp_path / state["segments"][0]["file"]
        with open(segment, "ab") as handle:
            handle.write(b"torn-by-a-crash")  # unaccounted tail bytes
        log.append([0.0, 1.0], {"x": [1.0, 2.0]}, start=1)
        times, records = log.read(2)
        assert times == [0.0, 1.0]
        assert records == {"x": [1.0, 2.0]}

    def test_compact_merges_segments_and_reports_obsolete_files(self, tmp_path):
        state = new_series_state()
        log = SeriesLog(tmp_path, state, segment_limit=128)
        times = [float(i) for i in range(20)]
        records = {"x": [float(i) for i in range(20)]}
        log.append(times, records, start=0)
        assert len(state["segments"]) > 1
        obsolete = log.compact()
        assert obsolete  # the old segments are handed back for deferred delete
        got_times, got_records = log.read(20)
        assert got_times == times and got_records == records

    def test_truncation_at_a_frame_boundary_raises(self, tmp_path):
        # Equal-size frames: chopping the last one off lands exactly on a
        # frame boundary, which would decode cleanly — the byte accounting
        # must still flag the loss instead of returning a short series.
        state = new_series_state()
        log = SeriesLog(tmp_path, state)
        log.append([0.0, 1.0, 2.0], {"x": [1.0, 2.0, 3.0]}, start=0)
        segment = tmp_path / state["segments"][0]["file"]
        total = segment.stat().st_size
        assert total % 3 == 0
        with open(segment, "r+b") as handle:
            handle.truncate(total // 3 * 2)
        with pytest.raises(CheckpointError, match="lost data"):
            log.read(3)

    def test_reading_past_the_log_raises(self, tmp_path):
        log = SeriesLog(tmp_path, new_series_state())
        log.append([0.0], {"x": [1.0]}, start=0)
        with pytest.raises(CheckpointError, match="frames"):
            log.read(5)


# ----------------------------------------------------------------------
# Retention policies
# ----------------------------------------------------------------------
def items_for(steps, size=10, ages=None):
    ages = ages or {}
    return [StoredItem(key=str(s), order=s, bytes=size,
                       age_s=ages.get(s, 0.0)) for s in steps]


class TestRetention:
    def test_keep_last(self):
        policy = KeepLast(2)
        assert policy.prunable(items_for([1, 2, 3, 4])) == {"1", "2"}
        assert KeepLast(0).prunable(items_for([1, 2, 3])) == set()

    def test_keep_every_always_keeps_newest(self):
        policy = KeepEvery(10)
        assert policy.prunable(items_for([5, 10, 15, 20, 23])) == {"5", "15"}

    def test_max_age(self):
        policy = MaxAge(100.0)
        items = items_for([1, 2, 3], ages={1: 500.0, 2: 50.0, 3: 10.0})
        assert policy.prunable(items) == {"1"}

    def test_max_bytes_evicts_oldest_first_never_newest(self):
        policy = MaxBytes(25)
        assert policy.prunable(items_for([1, 2, 3, 4], size=10)) == {"1", "2"}
        # A single over-budget newest item still survives.
        assert policy.prunable(items_for([7], size=100)) == set()

    def test_composite_keep_votes_union(self):
        policy = CompositePolicy([KeepLast(1), KeepEvery(10)])
        assert policy.prunable(items_for([5, 10, 15, 17])) == {"5", "15"}

    def test_parse_round_trip(self):
        spec = "keep=3,every=100,max-age=3600.0,max-bytes=1048576"
        policy = parse_retention(spec)
        assert describe_retention(policy) == spec
        # describe() must round-trip exactly even for ages %g would truncate
        assert describe_retention(parse_retention("max-age=12345678")) \
            == "max-age=12345678.0"
        assert parse_retention(None) is None
        assert parse_retention("") is None
        assert parse_retention(policy) is policy

    def test_parse_suffixes(self):
        assert parse_retention("max-bytes=1k").limit == 1024
        assert parse_retention("max-age=2h").seconds == 7200.0

    def test_parse_rejects_unknown_terms(self):
        with pytest.raises(ValueError, match="unknown retention term"):
            parse_retention("forever=yes")
        with pytest.raises(ValueError, match="key=value"):
            parse_retention("keep")

    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.lists(st.integers(min_value=0, max_value=500),
                       min_size=1, max_size=20, unique=True),
        spec=st.sampled_from([
            "keep=1", "keep=3", "every=7", "max-bytes=35",
            "keep=2,max-bytes=100", "every=5,keep=1", "max-age=1000",
        ]),
    )
    def test_newest_item_always_survives(self, steps, spec):
        items = items_for(sorted(steps))
        doomed = parse_retention(spec).prunable(items)
        assert str(max(steps)) not in doomed


# ----------------------------------------------------------------------
# RunStore: any save/prune/compact sequence preserves latest() resumability
# ----------------------------------------------------------------------
def synthetic_checkpoint(step, n_records, scenario="synthetic"):
    times = [0.5 * i for i in range(n_records)]
    records = {
        "energy": [1.5 * i for i in range(n_records)],
        "field": [[float(i), -0.0, float(i) ** 2] for i in range(n_records)],
    }
    state = {
        "psi": {"__complex__": "array",
                "real": [[0.25 * i for i in range(12)]],
                "imag": [[-0.125 * i for i in range(12)]]},
        "rng": {"word": 2 ** 100 + step, "ok": True},
        "clock": float(step),
    }
    return {"format": 1, "scenario": scenario, "engine": "md",
            "time": float(step), "step": int(step), "spec": {"seed": 1},
            "state": state, "times": times, "records": records}


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("save"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("prune"), st.sampled_from(
            ["keep=1", "keep=2", "every=4", "max-bytes=20000"])),
        st.tuples(st.just("compact"), st.none()),
    ),
    min_size=1, max_size=12,
)


class TestRunStoreProperties:
    @settings(max_examples=40, deadline=None)
    @given(ops=_ops)
    def test_any_prune_compact_sequence_preserves_latest(self, ops, tmp_path_factory):
        root = tmp_path_factory.mktemp("prop")
        store = RunStore(root, segment_limit=512)
        step, n_records = 0, 1
        last_saved = None
        for op, arg in ops:
            if op == "save":
                step += arg
                n_records += arg
                last_saved = synthetic_checkpoint(step, n_records)
                store.save(last_saved)
            elif op == "prune":
                store.prune("synthetic", retention=arg)
            else:
                store.compact("synthetic")
            if last_saved is not None:
                latest = store.latest("synthetic")
                assert latest is not None
                assert latest["step"] == last_saved["step"]
                assert_payloads_identical(latest, json_cycle_any(last_saved))

    def test_engine_resume_survives_prune_and_compact(self, tmp_path):
        # The real contract, with a real engine: interrupt, prune aggressively,
        # compact, resume from what survived — still bit-identical.
        spec = smoke_spec("md-langevin", num_steps=6)
        uninterrupted = build_engine(spec).run()

        store = CheckpointStore(tmp_path)
        interrupted = build_engine(spec)
        interrupted.run(num_steps=3, checkpoint_every=1,
                        on_checkpoint=lambda c: store.save(c, run_id="r"))
        assert store.steps(spec.name, "r") == [1, 2, 3]
        run_store = RunStore(tmp_path)
        assert run_store.prune(spec.name, "r", retention="keep=1") == [1, 2]
        run_store.compact(spec.name, "r")
        snapshot = store.latest(spec.name, "r")
        assert snapshot is not None and snapshot["step"] == 3
        resumed = build_engine(spec).resume(snapshot)
        assert_results_bit_identical(uninterrupted, resumed)

    def test_records_without_times_are_kept_verbatim(self, tmp_path):
        # A payload with records but no times list bypasses the series
        # machinery and is persisted as-is.
        store = RunStore(tmp_path)
        payload = {"format": 1, "scenario": "s", "engine": "md", "time": 1.0,
                   "step": 1, "state": {"x": [1.0]},
                   "records": {"oddball": [1.0, 2.0]}}
        store.save(payload)
        assert_payloads_identical(store.latest("s"), json_cycle_any(payload))

    def test_divergence_detected_on_identical_time_grid(self, tmp_path):
        # A run id restarted with the same dt grid but different physics
        # (new seed/parameters): the overlap's time stamp matches, so only
        # the frame-content crc can catch it.  The store must rebuild the
        # run from the new payload, not keep the stale frame prefix.
        store = RunStore(tmp_path)
        store.save(synthetic_checkpoint(4, 5))
        restarted = synthetic_checkpoint(6, 7)
        restarted["records"]["energy"] = [
            2.0 * value for value in restarted["records"]["energy"]
        ]
        store.save(restarted)
        assert store.steps("synthetic") == [6]
        assert_payloads_identical(
            store.latest("synthetic"), json_cycle_any(restarted)
        )

    def test_save_keeps_write_cost_incremental(self, tmp_path):
        # The O(n^2) -> O(n) claim, structurally: saving a snapshot whose
        # history grew by one record appends exactly one frame, and total
        # series bytes grow linearly (each record is stored exactly once).
        store = RunStore(tmp_path)
        sizes = []
        for k in range(1, 41):
            store.save(synthetic_checkpoint(k, k))
            manifest = read_manifest(store.run_dir("synthetic"))
            sizes.append(sum(int(e["bytes"])
                             for e in manifest["series"]["segments"]))
            assert manifest["series"]["frames"] == k
        deltas = np.diff(sizes)
        assert deltas.max() - deltas.min() == 0  # flat per-record byte cost

    @pytest.mark.parametrize("name", default_registry().names())
    def test_interrupt_resume_through_v2_store_is_bit_identical(self, name,
                                                                tmp_path):
        # The acceptance criterion of the store itself: the existing
        # test_checkpoint contract, rerun with snapshots travelling through
        # the incremental store instead of an in-memory dict.
        total, interrupt = 4, 2
        spec = smoke_spec(name, num_steps=total)
        uninterrupted = build_engine(spec).run()

        store = CheckpointStore(tmp_path)
        interrupted = build_engine(spec)
        interrupted.run(num_steps=interrupt, checkpoint_every=1,
                        on_checkpoint=lambda c: store.save(c, run_id="r"))
        snapshot = store.latest(spec.name, "r")
        assert snapshot is not None and snapshot["step"] == interrupt
        resumed = build_engine(spec).resume(snapshot)
        assert_results_bit_identical(uninterrupted, resumed)

    def test_damaged_series_log_self_heals_on_next_save(self, tmp_path):
        # A segment shorter than the manifest accounts for (lost data) must
        # not be zero-filled and appended after; the next save rebuilds the
        # run from its complete-session payload.
        store = RunStore(tmp_path)
        store.save(synthetic_checkpoint(2, 3))
        manifest = read_manifest(store.run_dir("synthetic"))
        segment = store.run_dir("synthetic") / \
            manifest["series"]["segments"][0]["file"]
        segment.unlink()  # the damage
        store.save(synthetic_checkpoint(4, 5))
        assert store.steps("synthetic") == [4]
        assert_payloads_identical(
            store.latest("synthetic"),
            json_cycle_any(synthetic_checkpoint(4, 5)),
        )


# ----------------------------------------------------------------------
# Store format 1 (one JSON file per snapshot) is refused, never touched
# ----------------------------------------------------------------------
class TestFormat1Refused:
    def v1_run(self, root):
        """A hand-written format-1 run directory (no writer ships any more)."""
        run_dir = root / "synthetic" / "old"
        run_dir.mkdir(parents=True)
        for step in (1, 2):
            (run_dir / f"step-{step:08d}.json").write_text(
                json.dumps(synthetic_checkpoint(step, step + 1))
            )
        return run_dir

    def test_reads_and_save_raise_and_leave_the_files_alone(self, tmp_path):
        run_dir = self.v1_run(tmp_path)
        before = {p.name: p.read_bytes() for p in run_dir.glob("step-*.json")}
        store = RunStore(tmp_path)
        for refused in (
            lambda: store.steps("synthetic", "old"),
            lambda: store.load("synthetic", "old"),
            lambda: store.load("synthetic", "old", step=1),
            lambda: store.latest("synthetic", "old"),
            lambda: store.describe("synthetic", "old"),
            lambda: store.save(synthetic_checkpoint(3, 4), run_id="old"),
        ):
            with pytest.raises(StoreFormatError, match="format 1") as caught:
                refused()
            assert caught.value.store_format == 1
        assert store.compact("synthetic", "old")["removed_files"] == 0
        assert read_manifest(run_dir) is None  # save started no v2 manifest
        after = {p.name: p.read_bytes() for p in run_dir.glob("step-*.json")}
        assert after == before

    def test_ls_labels_it_and_inspect_exits_2(self, tmp_path, capsys):
        from repro.api.cli import main

        self.v1_run(tmp_path)
        RunStore(tmp_path).save(synthetic_checkpoint(2, 3), run_id="new")
        assert main(["store", "ls", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any("old" in l and "v1 (unsupported)" in l for l in lines)
        assert any("new" in l and "v2" in l for l in lines)

        assert main(["store", "inspect", str(tmp_path),
                     "synthetic", "old"]) == 2
        assert "format 1" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The `repro store` CLI
# ----------------------------------------------------------------------
class TestStoreCLI:
    def _populate(self, root):
        store = CheckpointStore(root)
        for step, n in ((2, 3), (4, 5)):
            store.save(synthetic_checkpoint(step, n), run_id="run-a")

    def test_ls_and_inspect(self, tmp_path, capsys):
        from repro.api.cli import main

        self._populate(tmp_path)
        assert main(["store", "ls", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "synthetic" in out and "run-a" in out and "v2" in out

        assert main(["store", "inspect", str(tmp_path),
                     "synthetic", "run-a"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"] == [2, 4]
        assert payload["verify"]["ok"] is True

    def test_inspect_unknown_run_fails(self, tmp_path, capsys):
        from repro.api.cli import main

        assert main(["store", "inspect", str(tmp_path), "nope", "run"]) == 2

    def test_compact_with_retention(self, tmp_path, capsys):
        from repro.api.cli import main

        store = CheckpointStore(tmp_path)
        for step, n in ((1, 2), (3, 4)):
            store.save(synthetic_checkpoint(step, n), run_id="r")
        assert main(["store", "compact", str(tmp_path),
                     "--retention", "keep=1"]) == 0
        assert "pruned 1 snapshot(s)" in capsys.readouterr().out
        assert store.steps("synthetic", "r") == [3]
        assert_payloads_identical(
            store.latest("synthetic", "r"),
            json_cycle_any(synthetic_checkpoint(3, 4)),
        )
