"""Filesystem primitives shared by every store component.

One atomic-write discipline for the whole state layer — checkpoint manifests
and blobs, the daemon's submission journal and its persisted results all go
through here: write to a dot-prefixed temp file in the destination directory,
fsync, then ``os.replace``, so a process killed mid-write never leaves a
truncated file behind.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

_BAD_KEY = re.compile(r"[^A-Za-z0-9._-]")


def validate_key(name: str, what: str = "key") -> str:
    """Validate a scenario/run-id path component (no separators, non-empty).

    Used for every client- or payload-supplied name before it becomes a file
    or directory name, including by the serving daemon for client-supplied
    run ids.
    """
    name = str(name)
    if not name:
        raise ValueError(f"{what} must be non-empty")
    if _BAD_KEY.search(name) or name.startswith("."):
        raise ValueError(
            f"{what} {name!r} may only contain letters, digits, '.', '_' "
            "and '-' (and must not start with '.')"
        )
    return name


def atomic_write_bytes(path, data: bytes, suffix: str = ".bin",
                       pre_rename=None) -> Path:
    """Atomically persist ``data`` at ``path`` (temp file + fsync + rename).

    ``pre_rename`` is an optional zero-arg callable invoked after the temp
    file is durable but before ``os.replace`` — the hook the fault-injection
    harness uses to crash a writer on either side of the commit point.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".tmp-{path.stem}-", suffix=suffix, dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if pre_rename is not None:
            pre_rename()
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(path, payload: Any, pre_rename=None) -> Path:
    """Atomically persist ``payload`` as JSON at ``path`` (temp + rename)."""
    return atomic_write_bytes(
        path, json.dumps(payload).encode("utf-8"), suffix=".json",
        pre_rename=pre_rename,
    )


def read_json_object(path) -> Optional[Dict[str, Any]]:
    """The JSON object stored at ``path``, or None when the file is missing,
    unreadable, not JSON, or holds something other than an object."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def exclusive_create_json(path, payload: Any) -> bool:
    """Create ``path`` with ``payload`` only if it does not exist yet.

    The durable, cross-process claim primitive: the payload is written and
    fsynced to a temp file first, then ``os.link`` publishes it — link fails
    atomically when the name exists, so exactly one creator wins even when
    several processes race on the same path (the serving daemons'
    journal-entry run-id claims), and a crash mid-write can never leave a
    torn file under the final name.  Returns True when this call created the
    file, False when it already existed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".tmp-{path.stem}-", suffix=".json", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(json.dumps(payload).encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp_name, path)
        except FileExistsError:
            return False
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
    return True


def file_size(path) -> int:
    """Size of a file in bytes, 0 when it does not exist."""
    try:
        return os.stat(path).st_size
    except OSError:
        return 0
