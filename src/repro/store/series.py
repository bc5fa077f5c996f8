"""The append-only, segmented series log of one run.

Every recorded sample (one time stamp plus one float64 array per observable)
is appended to the run's series log exactly once; snapshots reference the log
by *frame count* instead of re-embedding the history they were taken after.
That is what turns the v1 store's O(n^2) total serialization over a long
recorded run into O(n): snapshot N costs O(state) + O(new frames since the
previous snapshot).

Frames are binary and self-describing::

    b"RSF2" | u32 length | u32 header_len | header JSON | f64 time
           | raw float64 arrays (C order, one per header name) | u32 crc32

``length`` covers everything after itself, so a torn tail (a crash mid-
append) is detectable; the crc covers the frame body, so bit rot is
distinguishable from truncation.  The log is split into bounded-size
segment files (``series-000000.seg``, ...) whose byte counts the run
manifest records — the manifest's counts are authoritative, and an append
first truncates any unaccounted tail bytes a previous crash left behind.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

import numpy as np

from repro import faults
from repro.store.errors import CheckpointError

FAULT_APPEND_MID = faults.register(
    "series.append.mid_batch",
    "between two frame writes of one append batch (unaccounted tail bytes "
    "the next writer must truncate)",
)
FAULT_APPEND_PRE_FSYNC = faults.register(
    "series.append.pre_fsync",
    "after a segment's frames are written, before the segment fsync "
    "(manifest not yet updated, so nothing references the bytes)",
)

_MAGIC = b"RSF2"
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")

#: A segment that reaches this size is closed and a new one started.
SEGMENT_BYTE_LIMIT = 8 * 1024 * 1024

_SEGMENT_TEMPLATE = "series-{index:06d}.seg"


def new_series_state() -> Dict[str, Any]:
    """The manifest section of an empty series log."""
    return {"segments": [], "frames": 0, "last_time": None, "last_crc": None}


# ----------------------------------------------------------------------
# Frame encoding
# ----------------------------------------------------------------------
def encode_frame(time: float, values: Dict[str, Any]) -> bytes:
    """Encode one record: arrays are coerced to float64 exactly as
    :meth:`EngineAdapter.record` stores them (``np.array(value, dtype=float)``)."""
    names = sorted(values)
    # np.asarray, not ascontiguousarray: the latter promotes 0-d scalars to
    # 1-d and the record's shape must round-trip exactly.  tobytes() below
    # emits C order regardless of the source layout.
    arrays = [np.asarray(values[name], dtype=np.float64) for name in names]
    header = json.dumps(
        {"names": names, "shapes": [list(a.shape) for a in arrays]},
        separators=(",", ":"),
    ).encode("utf-8")
    body = bytearray()
    body += _U32.pack(len(header))
    body += header
    body += _F64.pack(float(time))
    for array in arrays:
        body += array.tobytes()
    crc = zlib.crc32(bytes(body))
    return _MAGIC + _U32.pack(len(body) + 4) + bytes(body) + _U32.pack(crc)


def decode_frames(data: bytes, limit: int, where: str,
                  ) -> List[Tuple[float, Dict[str, np.ndarray]]]:
    """Decode up to ``limit`` frames from one segment's accounted bytes."""
    frames: List[Tuple[float, Dict[str, np.ndarray]]] = []
    offset = 0
    while len(frames) < limit and offset < len(data):
        if data[offset:offset + 4] != _MAGIC:
            raise CheckpointError(
                f"corrupt series log {where}: bad frame magic at byte {offset}"
            )
        (length,) = _U32.unpack_from(data, offset + 4)
        start = offset + 8
        end = start + length
        if end > len(data):
            raise CheckpointError(
                f"corrupt series log {where}: frame at byte {offset} "
                "extends past the accounted segment size"
            )
        body = data[start:end - 4]
        (crc,) = _U32.unpack_from(data, end - 4)
        if zlib.crc32(body) != crc:
            raise CheckpointError(
                f"corrupt series log {where}: checksum mismatch at byte {offset}"
            )
        (header_len,) = _U32.unpack_from(body, 0)
        header = json.loads(body[4:4 + header_len].decode("utf-8"))
        cursor = 4 + header_len
        (time,) = _F64.unpack_from(body, cursor)
        cursor += 8
        values: Dict[str, np.ndarray] = {}
        for name, shape in zip(header["names"], header["shapes"]):
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw = body[cursor:cursor + 8 * count]
            values[name] = np.frombuffer(raw, dtype=np.float64).reshape(shape)
            cursor += 8 * count
        frames.append((time, values))
        offset = end
    return frames


# ----------------------------------------------------------------------
# The segmented log
# ----------------------------------------------------------------------
class SeriesLog:
    """Mutator/reader of one run's segment files.

    The constructor takes the run directory and the manifest's ``series``
    section (a plain dict) and mutates that dict in place; persisting it is
    the caller's business (the manifest write is the commit point).
    """

    def __init__(self, directory: Path, state: Dict[str, Any],
                 segment_limit: int = SEGMENT_BYTE_LIMIT) -> None:
        self.directory = Path(directory)
        self.state = state
        self.segment_limit = int(segment_limit)

    # -- helpers --------------------------------------------------------
    @property
    def frames(self) -> int:
        return int(self.state.get("frames", 0))

    @property
    def last_time(self):
        return self.state.get("last_time")

    @property
    def last_crc(self):
        return self.state.get("last_crc")

    @staticmethod
    def frame_crc(time: float, values: Dict[str, Any]) -> int:
        """Content fingerprint of one would-be frame (divergence checks).

        The frame encoding is deterministic (sorted names, fixed separators,
        float64 coercion), so re-encoding the same record always reproduces
        the crc stored at append time.  This is the frame's embedded *body*
        crc — crc-ing the whole frame would hit the CRC residue property
        (``crc32(m ++ crc32(m))`` is constant) and fingerprint nothing.
        """
        frame = encode_frame(time, values)
        (crc,) = _U32.unpack_from(frame, len(frame) - 4)
        return crc

    def _segment_path(self, entry: Dict[str, Any]) -> Path:
        return self.directory / str(entry["file"])

    def _next_segment_name(self) -> str:
        used = {str(entry["file"]) for entry in self.state["segments"]}
        index = len(self.state["segments"])
        while True:
            name = _SEGMENT_TEMPLATE.format(index=index)
            # Skip names present on disk but not in the manifest (stale
            # files from a crashed compaction): never append into them.
            if name not in used and not (self.directory / name).exists():
                return name
            index += 1

    # -- append ---------------------------------------------------------
    def append(self, times: Iterable[float],
               records: Dict[str, List[Any]], start: int) -> int:
        """Append frames ``start..len(times)-1``; returns frames appended.

        ``records`` maps observable name -> full per-record series (plain
        values, one entry per time stamp), exactly as a checkpoint payload
        carries them.  Each segment file is opened once per batch and
        fsynced once when it is released, not per frame — durability comes
        from the caller's atomic manifest commit (the manifest only
        accounts for bytes this method already flushed), so per-frame
        fsyncs would buy nothing and make per-snapshot cost scale with the
        record gap.
        """
        times = list(times)
        appended = 0
        handle = None
        entry = None
        try:
            for index in range(int(start), len(times)):
                values = {
                    name: series[index] for name, series in records.items()
                    if index < len(series)
                }
                frame = encode_frame(times[index], values)
                segments = self.state["segments"]
                if not segments or int(segments[-1]["bytes"]) >= self.segment_limit:
                    if handle is not None:
                        self._release(handle)
                        handle = None
                    segments.append({"file": self._next_segment_name(),
                                     "frames": 0, "bytes": 0})
                if entry is not segments[-1]:
                    if handle is not None:
                        self._release(handle)
                    entry = segments[-1]
                    handle = self._open_segment(entry)
                handle.write(frame)
                faults.point(FAULT_APPEND_MID)
                entry["bytes"] = int(entry["bytes"]) + len(frame)
                entry["frames"] = int(entry["frames"]) + 1
                self.state["frames"] = self.frames + 1
                self.state["last_time"] = float(times[index])
                self.state["last_crc"] = _U32.unpack_from(
                    frame, len(frame) - 4
                )[0]
                appended += 1
        finally:
            if handle is not None:
                self._release(handle)
        return appended

    def _open_segment(self, entry: Dict[str, Any]):
        """Open one segment for appending, validating its accounted size."""
        path = self._segment_path(entry)
        self.directory.mkdir(parents=True, exist_ok=True)
        handle = open(path, "ab")
        try:
            size = handle.tell()
            if size < int(entry["bytes"]):
                # The file holds LESS than the manifest accounts for: data
                # the log needs is gone (truncate() here would silently
                # zero-fill the hole and bury the next frame behind
                # garbage).  Raise so the store rebuilds the run from the
                # complete-session payload instead.
                raise CheckpointError(
                    f"series segment {path} holds {size} bytes but the "
                    f"manifest accounts for {entry['bytes']}; the log lost "
                    "data"
                )
            if size > int(entry["bytes"]):
                # The manifest's byte count is authoritative: drop the tail
                # a crashed (or concurrent foreign) writer left unaccounted.
                handle.truncate(int(entry["bytes"]))
                handle.seek(0, os.SEEK_END)
        except BaseException:
            handle.close()
            raise
        return handle

    @staticmethod
    def _release(handle) -> None:
        try:
            handle.flush()
            faults.point(FAULT_APPEND_PRE_FSYNC)
            os.fsync(handle.fileno())
        finally:
            handle.close()

    # -- read -----------------------------------------------------------
    def read(self, count: int) -> Tuple[List[float], Dict[str, List[Any]]]:
        """The first ``count`` frames as (times, records) plain payload parts."""
        count = int(count)
        if count > self.frames:
            raise CheckpointError(
                f"series log under {self.directory} has {self.frames} frames "
                f"but the snapshot references {count}"
            )
        times: List[float] = []
        records: Dict[str, List[Any]] = {}
        remaining = count
        for entry in self.state["segments"]:
            if remaining <= 0:
                break
            take = min(remaining, int(entry["frames"]))
            if take <= 0:
                continue
            path = self._segment_path(entry)
            try:
                with open(path, "rb") as handle:
                    data = handle.read(int(entry["bytes"]))
            except FileNotFoundError:
                # A vanished segment means a newer manifest exists (another
                # process compacted or reset the run): propagate unchanged so
                # RunStore.latest()'s re-read fallback can catch it.
                raise
            except OSError as exc:
                raise CheckpointError(
                    f"series segment {path} is unreadable: {exc}"
                ) from exc
            if len(data) != int(entry["bytes"]):
                # Shorter than accounted — truncation at an exact frame
                # boundary would otherwise decode cleanly and silently
                # return fewer frames than the snapshot references.
                raise CheckpointError(
                    f"series segment {path} holds {len(data)} bytes but "
                    f"the manifest accounts for {entry['bytes']}; the log "
                    "lost data"
                )
            for time, values in decode_frames(data, take, str(path)):
                times.append(time)
                for name, array in values.items():
                    records.setdefault(name, []).append(array.tolist())
            remaining -= take
        if remaining:
            raise CheckpointError(
                f"series log under {self.directory} ended after "
                f"{count - remaining} frames; {count} were referenced"
            )
        return times, records

    # -- destructive maintenance ---------------------------------------
    def compact(self) -> List[Path]:
        """Merge all segments into freshly named segment file(s).

        Returns the now-obsolete old segment paths; the caller deletes them
        *after* persisting the manifest, so a crash mid-compaction leaves
        either the old layout (manifest untouched) or the new one (manifest
        committed, stale files swept by the next compaction) — never a
        manifest pointing at deleted segments.
        """
        if len(self.state["segments"]) <= 1:
            return []
        times, records = self.read(self.frames)
        old = list(self.state["segments"])
        self.state["segments"] = []
        self.state["frames"] = 0
        self.state["last_time"] = None
        self.append(times, records, start=0)
        keep = {str(entry["file"]) for entry in self.state["segments"]}
        return [self._segment_path(entry) for entry in old
                if str(entry["file"]) not in keep]
