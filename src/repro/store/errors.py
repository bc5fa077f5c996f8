"""Exception types of the storage subsystem.

:class:`CheckpointError` predates the ``repro.store`` package (it was born in
``repro.api.engine``); it lives here so the storage layer can raise it without
importing the API layer, and ``repro.api.engine`` re-exports it unchanged —
every ``except CheckpointError`` in existing callers keeps working on the same
class object.
"""

from __future__ import annotations


class CheckpointError(ValueError):
    """A checkpoint payload is malformed or does not match the engine/spec."""


class StoreFormatError(CheckpointError):
    """An on-disk run was written by a store format this build does not read
    (a newer one, or the retired format 1).

    ``store_format`` is the format found on disk, so listings can name it
    without parsing the message.
    """

    def __init__(self, message: str, store_format=None) -> None:
        super().__init__(message)
        self.store_format = store_format


class StoreLockTimeout(CheckpointError):
    """The per-run advisory file lock could not be acquired in time.

    Raised by :class:`repro.store.locks.RunLock` when another process holds
    the lock past the configured timeout.  Distinct from
    :class:`RunLeaseHeld`: the lock guards individual manifest commits and is
    held for milliseconds, the lease records run *ownership* and is held for
    a run's lifetime.
    """


class RunLeaseHeld(CheckpointError):
    """Another live writer owns this run's lease.

    Carries the competing ``owner`` identity and the lease's remaining
    ``expires_in`` seconds so callers (the serving daemon's 409 path, the
    executor's failure record) can report *who* owns the run and when a
    takeover becomes possible.
    """

    def __init__(self, scenario: str, run_id: str, owner: str,
                 expires_in: float) -> None:
        super().__init__(
            f"run {scenario}/{run_id} is leased by {owner!r} "
            f"(expires in {max(0.0, expires_in):.1f}s)"
        )
        self.scenario = scenario
        self.run_id = run_id
        self.owner = owner
        self.expires_in = expires_in
